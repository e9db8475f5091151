#include "serve.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/byteio.h"
#include "metrics/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "sperr/chunker.h"
#include "sperr/sperr.h"

namespace perfbench {

using namespace sperr::server;
using sperr::Dims;

namespace {

void put_dims(std::vector<uint8_t>& out, Dims d) {
  sperr::put_u64(out, d.x);
  sperr::put_u64(out, d.y);
  sperr::put_u64(out, d.z);
}

template <class T>
std::vector<uint8_t> field_reply(Dims dims, const std::vector<T>& v) {
  std::vector<uint8_t> out;
  put_dims(out, dims);
  const auto* p = reinterpret_cast<const uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(T));
  return out;
}

// The VERIFY reply layout of docs/PROTOCOL.md, from the library's report.
std::vector<uint8_t> verify_reply(const sperr::DecodeReport& rep, sperr::Status s) {
  std::vector<uint8_t> out;
  sperr::put_u8(out, rep.version);
  sperr::put_u8(out, s == sperr::Status::ok ? 1 : 0);
  sperr::put_u16(out, 0);
  sperr::put_u32(out, uint32_t(rep.damaged));
  sperr::put_u32(out, uint32_t(rep.chunks.size()));
  for (const sperr::ChunkReport& c : rep.chunks) {
    sperr::put_u32(out, uint32_t(c.index));
    sperr::put_u8(out, uint8_t(c.status));
    sperr::put_u8(out, c.checksum_present ? 1 : 0);
    sperr::put_u8(out, c.checksum_ok ? 1 : 0);
    sperr::put_u8(out, 0);
  }
  return out;
}

Opcode opcode_of(int kind) {
  switch (kind) {
    case 0:
    case 1: return Opcode::compress;
    case 2:
    case 3: return Opcode::decompress;
    case 4: return Opcode::verify;
    default: return Opcode::extract_chunk;
  }
}

bool fetch_stats(uint16_t port, StatsSnapshot& out) {
  ClientConfig cc;
  cc.port = port;
  cc.max_attempts = 1;
  Client c(cc);
  const CallResult r = c.call(Opcode::stats, {});
  return r.ok && r.status == WireStatus::ok &&
         StatsSnapshot::parse(r.body.data(), r.body.size(), out);
}

}  // namespace

ServeSetup build_serve_setup(const std::vector<double>& field, Dims dims,
                             Dims chunk, Ops& ops) {
  ServeSetup s;
  s.field_bytes = double(field.size() * sizeof(double));
  s.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), kServeIdx);

  // The Config the server derives from a COMPRESS body (server.cpp).
  sperr::Config pwe;
  pwe.mode = sperr::Mode::pwe;
  pwe.tolerance = s.tolerance;
  pwe.chunk_dims = chunk;
  pwe.num_threads = 1;
  pwe.intra_chunk_threads = 1;
  sperr::Config rate = pwe;
  rate.mode = sperr::Mode::fixed_rate;
  rate.bpp = kServeRateBpp;

  s.container = sperr::compress(field.data(), dims, pwe);
  s.body[0] = build_compress_body(pwe, dims, field.data());
  s.expect[0] = s.container;
  s.body[1] = build_compress_body(rate, dims, field.data());
  s.expect[1] = sperr::compress(field.data(), dims, rate);

  std::vector<double> f64;
  std::vector<float> f32;
  Dims d64, d32;
  if (sperr::decompress(s.container.data(), s.container.size(), f64, d64) !=
          sperr::Status::ok ||
      d64 != dims)
    ops.record("set-up: direct f64 decompress failed");
  if (sperr::decompress(s.container.data(), s.container.size(), f32, d32) !=
          sperr::Status::ok ||
      d32 != dims)
    ops.record("set-up: direct f32 decompress failed");
  s.body[2] = build_decompress_body(0, 8, s.container.data(), s.container.size());
  s.expect[2] = field_reply(dims, f64);
  s.body[3] = build_decompress_body(0, 4, s.container.data(), s.container.size());
  s.expect[3] = field_reply(dims, f32);

  sperr::DecodeReport rep;
  const sperr::Status vs =
      sperr::verify_container(s.container.data(), s.container.size(), &rep);
  s.body[4] = s.container;
  s.expect[4] = verify_reply(rep, vs);

  const auto chunks = sperr::make_chunks(dims, chunk);
  s.nchunks = chunks.size();
  for (size_t i = 0; i < chunks.size(); ++i) {
    std::vector<double> buf(chunks[i].dims.total());
    if (f64.size() == dims.total()) sperr::gather_chunk(f64.data(), dims, chunks[i], buf.data());
    std::vector<uint8_t> e;
    put_dims(e, chunks[i].origin);
    put_dims(e, chunks[i].dims);
    const auto* p = reinterpret_cast<const uint8_t*>(buf.data());
    e.insert(e.end(), p, p + buf.size() * sizeof(double));
    s.extract_expect.push_back(std::move(e));
    s.extract_body.push_back(
        build_extract_body(uint32_t(i), s.container.data(), s.container.size()));
  }

  s.bpp = double(s.container.size()) * 8.0 / double(dims.total());
  if (f64.size() == dims.total()) {
    const auto q = sperr::metrics::compare(field.data(), f64.data(), f64.size());
    s.accuracy_gain = sperr::metrics::accuracy_gain(q.sigma, q.rmse, s.bpp);
    if (!(q.max_pwe <= s.tolerance)) ops.record("set-up: PWE bound violated");
  }
  return s;
}

std::unique_ptr<Server> start_server() {
  ServerConfig sc;
  sc.port = 0;
  sc.workers = kServeWorkers;
  sc.queue_capacity = kServeQueue;
  sc.threads_per_request = 1;
  sc.intra_chunk_threads = 1;
  auto server = std::make_unique<Server>(sc);
  if (server->start() != sperr::Status::ok) return nullptr;
  return server;
}

ServeRun run_serve(const ServeSetup& setup, uint16_t port, double seconds,
                   size_t min_requests, int cycles, Tracer* tr) {
  ServeRun run;
  if (!fetch_stats(port, run.before)) run.ops.record("STATS before the loop failed");

  std::mutex mu;
  std::atomic<size_t> completed{0};
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeConnections; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig cc;
      cc.port = port;
      cc.max_attempts = 1;  // a BUSY or transport error is a failure, not a retry
      Client client(cc);
      std::vector<double> kinds, lat;
      Ops ops;
      if (!client.connect()) ops.record("connect failed");
      for (long j = 0;; ++j) {
        const int kind = int(j % kRequestKinds);
        if (kind == 0) {
          const bool done = cycles > 0
                                ? j / kRequestKinds >= cycles
                                : now_s() >= deadline && completed.load() >= min_requests;
          if (done) break;
        }
        const size_t chunk = size_t(c + j / kRequestKinds) % setup.nchunks;
        const auto& body = kind == 5 ? setup.extract_body[chunk] : setup.body[kind];
        const auto& expect = kind == 5 ? setup.extract_expect[chunk] : setup.expect[kind];
        CallResult r;
        const double a = now_s();
        {
          Scoped span(tr, std::string("request.") + kRequestNames[kind], 0,
                      tr ? tr->new_op() : 0);
          r = client.call(opcode_of(kind), body);
        }
        const double b = now_s();
        std::string problem;
        if (!r.ok)
          problem = std::string(kRequestNames[kind]) + ": transport error";
        else if (r.status != WireStatus::ok)
          problem = std::string(kRequestNames[kind]) + ": status " + to_string(r.status);
        else if (r.body != expect)
          problem = std::string(kRequestNames[kind]) + ": reply differs from library";
        ops.record(problem);
        kinds.push_back(kind);
        lat.push_back((b - a) * 1e3);
        completed.fetch_add(1);
      }
      std::lock_guard<std::mutex> lk(mu);
      run.kind.insert(run.kind.end(), kinds.begin(), kinds.end());
      run.latency_ms.insert(run.latency_ms.end(), lat.begin(), lat.end());
      run.ops.merge(ops);
      run.retries += client.stats().retries;
    });
  }
  for (auto& t : threads) t.join();
  run.wall_s = now_s() - t0;
  if (!fetch_stats(port, run.after)) run.ops.record("STATS after the loop failed");
  return run;
}

Json serve_json(const ServeRun& r, const ServeSetup& setup) {
  const auto& a = r.after;
  const auto& b = r.before;
  // The closing STATS request counts itself; requests here are the loop's.
  const double requests = double((a.requests_total - a.stats_count) -
                                 (b.requests_total - b.stats_count));
  Json j;
  j.nums("kind", r.kind)
      .nums("latency_ms", r.latency_ms)
      .num("wall_s", r.wall_s)
      .integer("workers", uint64_t(kServeWorkers))
      .integer("connections", uint64_t(kServeConnections))
      .num("server_requests", requests)
      .num("queue_wait_s", a.queue_wait_seconds - b.queue_wait_seconds)
      .num("busy_s", a.busy_seconds - b.busy_seconds)
      .integer("busy_replies", a.rejected_busy - b.rejected_busy)
      .integer("server_errors", a.errors - b.errors)
      .integer("retries", r.retries)
      .num("field_bytes", setup.field_bytes)
      .num("bpp", setup.bpp)
      .num("accuracy_gain", setup.accuracy_gain);
  return j;
}

}  // namespace perfbench
