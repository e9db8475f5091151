#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <new>
#include <unordered_map>
#include <unordered_set>

#include "common/arena.h"
#include "common/byteio.h"
#include "common/resource.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "metrics/metrics.h"
#include "server/queue.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace sperr::server {
namespace {

/// What a worker hands back to the connection reader.
struct Reply {
  WireStatus status = WireStatus::io_error;
  std::vector<uint8_t> body;
  StageTiming stage;       ///< compress-only pipeline stage seconds
  bool has_stage = false;
};

struct Job {
  uint8_t opcode = 0;
  uint64_t request_id = 0;
  std::vector<uint8_t> body;
  std::shared_ptr<std::promise<Reply>> promise;
  /// Set by the reader when the request deadline expired before a worker
  /// answered: the reader has already replied DEADLINE_EXCEEDED, so a
  /// worker that dequeues this job skips the (now pointless) work.
  std::shared_ptr<std::atomic<bool>> abandoned;
  Timer waited;  ///< started at admission; read at dequeue = queue wait
};

void append_dims(std::vector<uint8_t>& out, const Dims& d) {
  put_u64(out, d.x);
  put_u64(out, d.y);
  put_u64(out, d.z);
}

Dims read_dims(ByteReader& br) {
  Dims d;
  d.x = size_t(br.u64());
  d.y = size_t(br.u64());
  d.z = size_t(br.u64());
  return d;
}

/// Map a library decode status onto the wire: resource rejections keep
/// their identity (clients must not treat a bomb as mere corruption — the
/// bytes may be pristine), everything else non-ok is corrupt.
WireStatus decode_wire_status(Status s) {
  return s == Status::resource_exhausted ? WireStatus::resource_exhausted
                                         : WireStatus::corrupt;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerConfig c)
      : cfg(std::move(c)),
        workers(std::max(1, cfg.workers)),
        queue(cfg.queue_capacity),
        budget(cfg.max_memory_bytes) {}

  ServerConfig cfg;
  const int workers;
  BoundedQueue<Job> queue;
  /// Global decode pool (see ServerConfig::max_memory_bytes). Only wired
  /// into request limits when the cap is non-zero.
  MemoryBudget budget;
  Metrics metrics;
  Timer started;

  int listen_fd = -1;
  int wake_pipe[2] = {-1, -1};  // self-pipe: portable accept-loop wakeup
  std::thread acceptor;
  std::thread pool_driver;
  std::unique_ptr<TaskPool> pool;

  // Reader-thread bookkeeping. Readers run detached from the acceptor's
  // point of view but stay joinable: a reader exiting moves its own
  // std::thread handle from conn_threads into zombie_threads (under
  // conn_mu, so there is no window where the handle is unowned), and the
  // acceptor/stop() join the parked handles. conn_cv fires whenever
  // conn_threads shrinks, which is what stop() waits on.
  mutable std::mutex conn_mu;
  std::unordered_set<int> conn_fds;               // live connection sockets
  std::unordered_map<int, std::thread> conn_threads;  // fd -> its reader
  std::vector<std::thread> zombie_threads;        // exited readers, unjoined
  std::condition_variable conn_cv;
  std::atomic<bool> stopping{false};
  bool stopped = false;  // stop() ran to completion (guarded by stop_mu)
  std::mutex stop_mu;

  /// Per-request decode ceilings: the library defaults tightened by the
  /// server's configured caps, plus the shared pool when one is set. Built
  /// fresh per request (cheap: a struct copy) so handlers never share
  /// mutable limit state.
  [[nodiscard]] ResourceLimits request_limits() {
    ResourceLimits rl = ResourceLimits::defaults();
    if (cfg.max_output_bytes > 0) {
      rl.max_output_bytes = std::min(rl.max_output_bytes, cfg.max_output_bytes);
      rl.max_working_bytes = std::min(rl.max_working_bytes, cfg.max_output_bytes);
    }
    if (cfg.max_memory_bytes > 0) {
      rl.max_output_bytes = std::min(rl.max_output_bytes, cfg.max_memory_bytes);
      rl.max_working_bytes = std::min(rl.max_working_bytes, cfg.max_memory_bytes);
      rl.budget = &budget;
    }
    return rl;
  }

  // --- request dispatch (worker side) --------------------------------------

  Reply do_compress(const std::vector<uint8_t>& body) {
    Reply r;
    r.status = WireStatus::bad_request;
    if (body.size() < kCompressBodyHeaderBytes) return r;
    ByteReader br(body.data(), body.size());
    const uint8_t mode = br.u8();
    const uint8_t precision = br.u8();
    const uint8_t flags = br.u8();
    const uint8_t reserved = br.u8();
    const double quality = br.f64();
    const double q_over_t = br.f64();
    const Dims dims = read_dims(br);
    const Dims chunk_dims = read_dims(br);
    if (mode > 2 || (precision != 4 && precision != 8) || reserved != 0 ||
        (flags & ~kCompressFlagsKnown) != 0)
      return r;
    if (!plausible_dims(dims)) return r;
    if (!(quality > 0.0) || !std::isfinite(quality)) return r;
    const size_t expect = dims.total() * precision;
    if (body.size() - kCompressBodyHeaderBytes != expect) return r;

    Config cfg2;
    cfg2.mode = Mode(mode);
    if (cfg2.mode == Mode::pwe)
      cfg2.tolerance = quality;
    else if (cfg2.mode == Mode::fixed_rate)
      cfg2.bpp = quality;
    else
      cfg2.rmse = quality;
    if (q_over_t > 0.0) cfg2.q_over_t = q_over_t;
    if (chunk_dims.x || chunk_dims.y || chunk_dims.z) {
      if (chunk_dims.x == 0 || chunk_dims.y == 0 || chunk_dims.z == 0) return r;
      cfg2.chunk_dims = chunk_dims;
    }
    cfg2.num_threads = cfg.threads_per_request;
    cfg2.intra_chunk_threads = cfg.intra_chunk_threads;
    cfg2.lossless_pass = (flags & kCompressFlagNoLossless) == 0;

    const uint8_t* samples = body.data() + kCompressBodyHeaderBytes;
    Stats stats;
    std::vector<uint8_t> blob;
    // The body offset is not 8-aligned, so samples are copied out rather
    // than reinterpreted in place.
    std::vector<double> field64;
    if (precision == 8) {
      field64.resize(dims.total());
      std::memcpy(field64.data(), samples, expect);
      blob = sperr::compress(field64.data(), dims, cfg2, &stats);
    } else {
      std::vector<float> field32(dims.total());
      std::memcpy(field32.data(), samples, expect);
      blob = sperr::compress(field32.data(), dims, cfg2, &stats);
      if (flags & kCompressFlagVerify) {
        field64.assign(field32.begin(), field32.end());
      }
    }
    if (blob.empty()) {
      r.status = WireStatus::io_error;
      return r;
    }
    if (flags & kCompressFlagVerify) {
      std::vector<double> recon;
      Dims od;
      if (sperr::decompress(blob.data(), blob.size(), recon, od) != Status::ok ||
          od != dims) {
        r.status = WireStatus::verify_failed;
        return r;
      }
      if (cfg2.mode == Mode::pwe) {
        // f32 inputs round-trip through the container's f32 precision, so
        // the bound is checked against the f32 field the encoder saw.
        const auto q =
            sperr::metrics::compare(field64.data(), recon.data(), recon.size());
        if (!(q.max_pwe <= cfg2.tolerance)) {
          r.status = WireStatus::verify_failed;
          return r;
        }
      }
    }
    r.status = WireStatus::ok;
    r.body = std::move(blob);
    r.stage = stats.timing;
    r.has_stage = true;
    return r;
  }

  Reply do_decompress(const std::vector<uint8_t>& body) {
    Reply r;
    r.status = WireStatus::bad_request;
    if (body.size() < kDecompressBodyHeaderBytes) return r;
    ByteReader br(body.data(), body.size());
    const uint8_t policy = br.u8();
    const uint8_t precision = br.u8();
    const uint16_t reserved = br.u16();
    if (policy > 2 || (precision != 4 && precision != 8) || reserved != 0) return r;

    const uint8_t* blob = body.data() + kDecompressBodyHeaderBytes;
    const size_t blob_len = body.size() - kDecompressBodyHeaderBytes;
    const ResourceLimits rl = request_limits();
    std::vector<double> field;
    Dims dims;
    const Status s = sperr::decompress_tolerant(blob, blob_len, Recovery(policy),
                                                field, dims, nullptr, &rl);
    if (s != Status::ok) {
      r.status = decode_wire_status(s);
      return r;
    }
    // The reply body (dims + samples at the requested precision) is bounded
    // by the field the limits just admitted, so no separate gate is needed.
    r.status = WireStatus::ok;
    r.body.reserve(24 + field.size() * precision);
    append_dims(r.body, dims);
    if (precision == 8) {
      const auto* p = reinterpret_cast<const uint8_t*>(field.data());
      r.body.insert(r.body.end(), p, p + field.size() * 8);
    } else {
      std::vector<float> out32(field.begin(), field.end());
      const auto* p = reinterpret_cast<const uint8_t*>(out32.data());
      r.body.insert(r.body.end(), p, p + out32.size() * 4);
    }
    return r;
  }

  Reply do_verify(const std::vector<uint8_t>& body) {
    Reply r;
    const ResourceLimits rl = request_limits();
    DecodeReport rep;
    const Status s = sperr::verify_container(body.data(), body.size(), &rep, &rl);
    if (s == Status::resource_exhausted) {
      r.status = WireStatus::resource_exhausted;
      return r;
    }
    if (!rep.header_ok) {
      r.status = WireStatus::corrupt;
      return r;
    }
    r.status = s == Status::ok ? WireStatus::ok : WireStatus::corrupt;
    r.body.reserve(kVerifyReplyHeaderBytes +
                   rep.chunks.size() * kVerifyChunkRecordBytes);
    put_u8(r.body, rep.version);
    put_u8(r.body, s == Status::ok ? 1 : 0);
    put_u16(r.body, 0);
    put_u32(r.body, uint32_t(rep.damaged));
    put_u32(r.body, uint32_t(rep.chunks.size()));
    for (const ChunkReport& c : rep.chunks) {
      put_u32(r.body, uint32_t(c.index));
      put_u8(r.body, uint8_t(c.status));
      put_u8(r.body, c.checksum_present ? 1 : 0);
      put_u8(r.body, c.checksum_ok ? 1 : 0);
      put_u8(r.body, 0);
    }
    return r;
  }

  Reply do_extract_chunk(const std::vector<uint8_t>& body) {
    Reply r;
    r.status = WireStatus::bad_request;
    if (body.size() < kExtractBodyHeaderBytes) return r;
    ByteReader br(body.data(), body.size());
    const uint32_t index = br.u32();
    const uint8_t* blob = body.data() + kExtractBodyHeaderBytes;
    const size_t blob_len = body.size() - kExtractBodyHeaderBytes;

    const ResourceLimits rl = request_limits();
    detail::OpenedContainer oc;
    const Status os =
        detail::open_tolerant(blob, blob_len, Recovery::fail_fast, oc, nullptr, &rl);
    if (os != Status::ok) {
      r.status = decode_wire_status(os);
      return r;
    }
    if (index >= oc.chunks.size()) return r;  // bad_request: no such chunk
    const Chunk& chunk = oc.chunks[index];
    // One decoded chunk plus its reply copy is the working set here; gate it
    // (and reserve it from the shared pool) before sizing the buffer.
    const uint64_t chunk_bytes = uint64_t(chunk.dims.total()) * sizeof(double);
    Reservation budget_hold;
    if (!rl.admits_output(chunk_bytes) || !rl.admits_working(chunk_bytes) ||
        !budget_hold.acquire(rl.budget, chunk_bytes)) {
      r.status = WireStatus::resource_exhausted;
      return r;
    }
    std::vector<double> buf(chunk.dims.total(), 0.0);
    const ChunkReport crep = detail::decode_chunk(
        oc, index, Recovery::fail_fast, buf.data(), &tls_arena(),
        chunk_lanes(detail::thread_budget(cfg.threads_per_request), 1,
                    cfg.intra_chunk_threads));
    if (crep.damaged()) {
      r.status = WireStatus::corrupt;
      return r;
    }
    r.status = WireStatus::ok;
    r.body.reserve(48 + buf.size() * 8);
    append_dims(r.body, chunk.origin);
    append_dims(r.body, chunk.dims);
    const auto* p = reinterpret_cast<const uint8_t*>(buf.data());
    r.body.insert(r.body.end(), p, p + buf.size() * 8);
    return r;
  }

  Reply dispatch(const Job& job) {
    switch (Opcode(job.opcode)) {
      case Opcode::compress: return do_compress(job.body);
      case Opcode::decompress: return do_decompress(job.body);
      case Opcode::verify: return do_verify(job.body);
      case Opcode::extract_chunk: return do_extract_chunk(job.body);
      default: break;  // stats is handled in worker_loop, unknown at the reader
    }
    Reply r;
    r.status = WireStatus::bad_request;
    return r;
  }

  [[nodiscard]] StatsSnapshot snapshot() const {
    StatsSnapshot s = metrics.snapshot();
    s.uptime_seconds = started.seconds();
    s.queue_depth = queue.depth();
    s.queue_capacity = queue.capacity();
    s.workers = uint64_t(workers);
    {
      std::lock_guard<std::mutex> lk(conn_mu);
      s.active_connections = conn_fds.size();
    }
    return s;
  }

  // --- worker pool ----------------------------------------------------------

  void worker_loop() {
    Job job;
    while (queue.pop(job)) {
      const double wait_s = job.waited.seconds();
      if (cfg.process_hook) cfg.process_hook(job.opcode);
      Reply reply;
      if (job.abandoned && job.abandoned->load()) {
        // The reader already answered DEADLINE_EXCEEDED; skip the work.
        // The lane counts the request (as an error, in its opcode slot) —
        // the reader only counted timeouts_request, so nothing is counted
        // twice.
        metrics.count_request(job.opcode, /*error=*/true, /*bytes_out=*/0,
                              wait_s, /*busy_s=*/0.0);
        reply.status = WireStatus::deadline_exceeded;
      } else if (Opcode(job.opcode) == Opcode::stats) {
        // Count this request *before* snapshotting so the reply includes
        // itself (the deterministic contract docs/PROTOCOL.md documents:
        // requests_total/stats_count include the request being answered;
        // bytes_out and busy_seconds exclude its in-flight reply).
        metrics.count_request(job.opcode, /*error=*/false, /*bytes_out=*/0,
                              wait_s, /*busy_s=*/0.0);
        reply.status = WireStatus::ok;
        reply.body = snapshot().serialize();
      } else {
        Timer busy;
        // A worker must outlive any single bad request: library contract
        // violations surface as io_error replies, never as a dead server.
        // An allocation failure that slipped past the up-front limits is
        // still a resource answer, not an internal error.
        try {
          reply = dispatch(job);
        } catch (const std::bad_alloc&) {
          reply = Reply{};
          reply.status = WireStatus::resource_exhausted;
        } catch (...) {
          reply = Reply{};
          reply.status = WireStatus::io_error;
        }
        if (reply.status == WireStatus::resource_exhausted)
          metrics.count_resource_exhausted();
        metrics.count_request(job.opcode, reply.status != WireStatus::ok,
                              reply.body.size(), wait_s, busy.seconds(),
                              reply.has_stage ? &reply.stage : nullptr);
      }
      job.promise->set_value(std::move(reply));
      job = Job{};  // release the body before blocking on the next pop
    }
  }

  // --- connection handling (reader side) ------------------------------------

  /// Write one reply frame under the connection's I/O deadline. A write
  /// timeout is counted and, like any other write failure, closes the
  /// connection (returns false).
  bool send_reply(int fd, WireStatus status, uint64_t request_id,
                  const uint8_t* body, size_t body_len) {
    std::vector<uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + body_len);
    put_frame_header(frame, kReplyMagic, uint8_t(status), request_id, body_len);
    if (body_len > 0) frame.insert(frame.end(), body, body + body_len);
    const IoOutcome w =
        write_all_deadline(fd, frame.data(), frame.size(), cfg.io_timeout_ms);
    if (w == IoOutcome::timed_out) metrics.count_timeout_write();
    return w == IoOutcome::ok;
  }

  /// Counted protocol-level rejection: reply `status` and record the frame
  /// as answered-with-error (no per-opcode slot: it never reached a worker).
  bool reject(int fd, uint64_t request_id, WireStatus status) {
    metrics.count_request(/*opcode=*/0, /*error=*/true, 0, 0.0, 0.0);
    return send_reply(fd, status, request_id, nullptr, 0);
  }

  void serve_connection(int fd) {
    std::vector<uint8_t> body;
    for (;;) {
      uint8_t raw[kFrameHeaderBytes];
      // Waiting for the *first* header byte is the between-requests idle
      // state and gets the (longer) idle budget; once a byte arrives the
      // rest of the header must land within the I/O budget — a peer
      // dripping 23 bytes and stalling is reaped, not parked forever.
      const IoOutcome hr = read_exact_deadline(fd, raw, sizeof raw,
                                               cfg.io_timeout_ms,
                                               cfg.idle_timeout_ms);
      if (hr == IoOutcome::timed_out) {
        metrics.count_timeout_read();
        break;
      }
      if (hr != IoOutcome::ok) break;  // EOF / reset / truncated header
      const FrameHeader h = parse_frame_header(raw);
      // Header-level violations close the connection: once framing is in
      // doubt (wrong magic, an unreadably large body) the byte stream
      // cannot be safely re-synchronized.
      if (h.magic != kRequestMagic || h.reserved != 0) {
        reject(fd, h.request_id, WireStatus::bad_request);
        break;
      }
      if (h.version != kProtocolVersion) {
        reject(fd, h.request_id, WireStatus::unsupported_version);
        break;
      }
      if (h.body_len > cfg.max_body_bytes) {
        reject(fd, h.request_id, WireStatus::bad_request);
        break;
      }
      body.resize(size_t(h.body_len));
      if (h.body_len > 0) {
        const IoOutcome br2 =
            read_exact_deadline(fd, body.data(), body.size(), cfg.io_timeout_ms);
        if (br2 == IoOutcome::timed_out) {
          metrics.count_timeout_read();
          break;
        }
        if (br2 != IoOutcome::ok) break;
      }
      metrics.count_bytes_in(h.body_len);
      // Frame-level violations with intact framing keep the connection.
      if (h.code < uint8_t(Opcode::compress) || h.code > uint8_t(Opcode::stats) ||
          (Opcode(h.code) == Opcode::stats && h.body_len != 0)) {
        if (!reject(fd, h.request_id, WireStatus::bad_request)) break;
        continue;
      }
      Job job;
      job.opcode = h.code;
      job.request_id = h.request_id;
      job.body = std::move(body);
      job.promise = std::make_shared<std::promise<Reply>>();
      job.abandoned = std::make_shared<std::atomic<bool>>(false);
      auto future = job.promise->get_future();
      auto abandoned = job.abandoned;
      if (!queue.try_push(std::move(job))) {
        metrics.count_busy();
        if (!send_reply(fd, WireStatus::busy, h.request_id, nullptr, 0)) break;
        body.clear();
        continue;
      }
      Reply reply;
      if (cfg.request_deadline_ms > 0 &&
          future.wait_for(std::chrono::milliseconds(cfg.request_deadline_ms)) ==
              std::future_status::timeout) {
        // Abandon the job: if a worker has not dequeued it yet it will be
        // skipped; if one is mid-compute the result is discarded. Either
        // way this connection answers now instead of pinning the lane's
        // reply slot.
        abandoned->store(true);
        metrics.count_timeout_request();
        reply.status = WireStatus::deadline_exceeded;
      } else {
        reply = future.get();
      }
      if (!send_reply(fd, reply.status, h.request_id, reply.body.data(),
                      reply.body.size()))
        break;
      body.clear();
    }
    {
      // Deregister before closing so stop() can never shutdown() a
      // recycled descriptor, and park this thread's own handle for the
      // acceptor (or stop()) to join. conn_cv is notified under the lock:
      // once stop() observes conn_threads empty, every exiting reader has
      // already released conn_mu.
      std::lock_guard<std::mutex> lk(conn_mu);
      conn_fds.erase(fd);
      auto it = conn_threads.find(fd);
      if (it != conn_threads.end()) {
        zombie_threads.push_back(std::move(it->second));
        conn_threads.erase(it);
      }
      conn_cv.notify_all();
    }
    ::close(fd);
  }

  /// Join reader handles parked by exited connections (never blocks long:
  /// a parked handle's thread is past its serve loop).
  void reap_zombies() {
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lk(conn_mu);
      done.swap(zombie_threads);
    }
    for (std::thread& t : done) t.join();
  }

  void accept_loop() {
    for (;;) {
      reap_zombies();
      pollfd pfds[2] = {{listen_fd, POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
      const int pr = ::poll(pfds, 2, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (stopping.load() || (pfds[1].revents & (POLLIN | POLLHUP | POLLERR)))
        break;  // stop() wrote to the self-pipe
      if (!(pfds[0].revents & POLLIN)) continue;
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd < 0) {
        // Transient conditions (a peer that reset before we accepted, a
        // signal, another thread winning the race on a non-blocking
        // listener) must not kill the acceptor.
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK)
          continue;
        break;  // fatal (EMFILE storms also land here; the poll retries)
      }
      if (stopping.load()) {
        ::close(cfd);
        break;
      }
      set_nonblocking(cfd);
      int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      std::unique_lock<std::mutex> lk(conn_mu);
      if (cfg.max_connections > 0 && conn_fds.size() >= cfg.max_connections) {
        lk.unlock();
        metrics.count_conn_rejected();
        // One best-effort unsolicited BUSY (request id 0). The 24-byte
        // frame virtually always fits the empty send buffer; if the peer
        // has somehow wedged the socket already, we drop the courtesy
        // rather than stall the acceptor.
        std::vector<uint8_t> frame;
        put_frame_header(frame, kReplyMagic, uint8_t(WireStatus::busy), 0, 0);
        (void)::send(cfd, frame.data(), frame.size(), MSG_NOSIGNAL);
        ::close(cfd);
        continue;
      }
      metrics.count_conn_open();
      conn_fds.insert(cfd);
      // Insert the handle under conn_mu *while the thread may already be
      // running*: its exit path needs this same lock to park the handle,
      // so it cannot miss it.
      conn_threads.emplace(cfd,
                           std::thread([this, cfd] { serve_connection(cfd); }));
    }
  }
};

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

Server::~Server() { stop(); }

Status Server::start() {
  Impl& im = *impl_;
  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) return Status::invalid_argument;
  int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.cfg.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(im.listen_fd, 128) != 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return Status::invalid_argument;
  }
  socklen_t alen = sizeof addr;
  if (::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return Status::invalid_argument;
  }
  port_ = ntohs(addr.sin_port);
  // Non-blocking listener + self-pipe: the acceptor polls both, so stop()
  // wakes it portably (no reliance on shutdown()-interrupts-accept
  // semantics) and a spurious poll readiness cannot block in accept().
  if (!set_nonblocking(im.listen_fd) || ::pipe(im.wake_pipe) != 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return Status::invalid_argument;
  }
  im.started.reset();
  im.pool = std::make_unique<TaskPool>(im.workers);
  im.pool_driver = std::thread(
      [this] { impl_->pool->run([this](int) { impl_->worker_loop(); }); });
  im.acceptor = std::thread([this] { impl_->accept_loop(); });
  return Status::ok;
}

void Server::stop() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> stop_lk(im.stop_mu);
  if (im.stopped || im.listen_fd < 0) return;
  im.stopped = true;
  im.stopping.store(true);
  // 1. Stop accepting: one byte down the self-pipe wakes the acceptor's
  //    poll() on every POSIX platform.
  {
    const uint8_t b = 1;
    ssize_t rc;
    do {
      rc = ::write(im.wake_pipe[1], &b, 1);
    } while (rc < 0 && errno == EINTR);
  }
  im.acceptor.join();
  ::close(im.listen_fd);
  ::close(im.wake_pipe[0]);
  ::close(im.wake_pipe[1]);
  // 2. Drain, bounded: no new admissions (late arrivals get BUSY); workers
  //    keep finishing admitted jobs — readers still hold open sockets, so
  //    those replies are delivered — but once the drain deadline passes,
  //    jobs still queued are answered DEADLINE_EXCEEDED instead of
  //    processed. In-flight jobs always run to completion (a compute
  //    thread cannot be killed safely), so shutdown time is bounded by
  //    the deadline plus one request.
  im.queue.stop();
  if (im.cfg.drain_deadline_ms >= 0) {
    Timer drained;
    while (im.queue.depth() > 0 &&
           drained.milliseconds() < double(im.cfg.drain_deadline_ms))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    im.queue.expire_all([&im](Job& job) {
      im.metrics.count_timeout_request();
      im.metrics.count_request(job.opcode, /*error=*/true, 0,
                               job.waited.seconds(), 0.0);
      Reply r;
      r.status = WireStatus::deadline_exceeded;
      job.promise->set_value(std::move(r));
    });
  }
  im.pool_driver.join();
  im.pool.reset();
  // 3. Unblock readers waiting for the next request frame, then wait for
  //    every reader to park its handle and join the parked handles. The
  //    wait is bounded: reads return immediately after shutdown() and
  //    reply writes are under the write deadline.
  {
    std::unique_lock<std::mutex> lk(im.conn_mu);
    for (const int fd : im.conn_fds) ::shutdown(fd, SHUT_RDWR);
    im.conn_cv.wait(lk, [&im] { return im.conn_threads.empty(); });
  }
  im.reap_zombies();
}

StatsSnapshot Server::stats() const { return impl_->snapshot(); }

}  // namespace sperr::server
