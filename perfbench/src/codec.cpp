#include <omp.h>

#include <stdexcept>

#include "metrics/metrics.h"
#include "replay.h"
#include "sperr/sperr.h"
#include "workloads.h"

namespace perfbench {

using sperr::Dims;

sperr::Config codec_config(const CodecSpec& spec, double t) {
  sperr::Config cfg;
  cfg.mode = sperr::Mode::pwe;
  cfg.tolerance = t;
  cfg.chunk_dims = spec.chunk;
  return cfg;
}

namespace {

// Output checks of one decompress; empty when all hold.
std::string check_decode(sperr::Status st, Dims got, Dims want,
                         const std::vector<double>& field,
                         const std::vector<double>& recon, double t,
                         sperr::metrics::Quality* q_out = nullptr) {
  if (st != sperr::Status::ok)
    return std::string("decompress returned ") + sperr::to_string(st);
  if (got != want || recon.size() != field.size()) return "decompress changed the dims";
  const auto q = sperr::metrics::compare(field.data(), recon.data(), recon.size());
  if (q_out) *q_out = q;
  if (!(q.max_pwe <= t)) return "max |x - x^| exceeds the PWE tolerance";
  return {};
}

double since(double a) { return now_s() - a; }

// Round trips a measurement takes at least, however long one lasts: the
// reported figures are medians, and one sample of a several-second op is
// at the mercy of whatever else the machine runs at that moment.
constexpr size_t kMinReps = 3;

}  // namespace

Json measure_codec(const CodecSpec& spec, const std::vector<double>& field,
                   double t, double seconds, Ops& ops) {
  const sperr::Config cfg = codec_config(spec, t);
  std::vector<double> cs, ds;
  std::vector<uint8_t> first, blob;
  std::vector<double> recon;
  sperr::metrics::Quality q;
  const double t0 = now_s();
  do {
    double a = now_s();
    try {
      blob = sperr::compress(field.data(), spec.dims, cfg);
    } catch (const std::exception& e) {
      ops.record(std::string("compress threw: ") + e.what());
      break;
    }
    cs.push_back(since(a));
    if (first.empty()) first = blob;
    ops.record(blob == first ? "" : "container bytes differ across repetitions");

    Dims got;
    a = now_s();
    const sperr::Status st = sperr::decompress(blob.data(), blob.size(), recon, got);
    ds.push_back(since(a));
    ops.record(check_decode(st, got, spec.dims, field, recon, t, &q));
  } while (since(t0) < seconds || cs.size() < kMinReps);

  const double bpp = double(first.size()) * 8.0 / double(spec.dims.total());
  Json j;
  j.num("field_bytes", double(field.size() * sizeof(double)))
      .nums("compress_s", cs)
      .nums("decompress_s", ds)
      .num("container_bytes", double(first.size()))
      .num("bpp", bpp)
      .num("accuracy_gain", sperr::metrics::accuracy_gain(q.sigma, q.rmse, bpp))
      .num("max_pwe", q.max_pwe)
      .num("tolerance", t);
  return j;
}

Json trace_codec(const CodecSpec& spec, const std::vector<double>& field, double t,
                 double seconds, Tracer& tr, Ops& ops) {
  const sperr::Config cfg = codec_config(spec, t);
  Json j;

  // The library itself, untraced: the reference bytes, the reference decode,
  // the wall times the replay's overhead is measured against, and the
  // library's own stage timing.
  sperr::Stats stats;
  double a = now_s();
  const std::vector<uint8_t> blob = sperr::compress(field.data(), spec.dims, cfg, &stats);
  const double lib_c = since(a);
  std::vector<double> ref;
  Dims got;
  a = now_s();
  const sperr::Status st = sperr::decompress(blob.data(), blob.size(), ref, got);
  const double lib_d = since(a);
  ops.record(check_decode(st, got, spec.dims, field, ref, t));

  // One thread for the whole compress (chunk loop, SPECK lanes and the
  // lossless pass all follow Config::num_threads).
  sperr::Config one = cfg;
  one.num_threads = 1;
  a = now_s();
  const std::vector<uint8_t> blob1 = sperr::compress(field.data(), spec.dims, one);
  const double lib_c1 = since(a);
  ops.record(blob1 == blob ? "" : "1-thread container differs from the 4-thread one");

  int passes = 0;
  const double r0 = now_s();
  do {
    ReplayOutput out;
    replay_compress(field.data(), spec.dims, cfg, &tr, out);
    replay_decompress(blob, &tr, out);
    ops.record(check_fidelity(out, blob, ref));
    ++passes;
  } while (since(r0) < seconds);

  const sperr::StageTiming& tm = stats.timing;
  Json lib;
  lib.num("transform_s", tm.transform_s)
      .num("speck_s", tm.speck_s)
      .num("locate_s", tm.locate_s)
      .num("outlier_s", tm.outlier_s)
      .num("lossless_s", tm.lossless_s)
      .num("speck_sorting_s", stats.speck_sorting_s)
      .num("speck_refinement_s", stats.speck_refinement_s);
  j.num("field_bytes", double(field.size() * sizeof(double)))
      .integer("chunks", stats.num_chunks)
      .num("lib_compress_s", lib_c)
      .num("lib_decompress_s", lib_d)
      .num("lib_compress_1t_s", lib_c1)
      .integer("threads", uint64_t(omp_get_max_threads()))
      .integer("passes", uint64_t(passes))
      .obj("lib_timing", lib);
  return j;
}

}  // namespace perfbench
