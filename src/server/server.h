#pragma once

// `sperr_serve` core: a long-lived TCP compression server over the SPERR
// library (ROADMAP item 3; docs/PROTOCOL.md specifies the wire contract,
// docs/OPERATIONS.md how to run and tune it).
//
// Threading model:
//
//   acceptor thread ── accept() ──> one reader thread per connection
//        │                              │  frames requests, validates headers
//        │                              ▼
//        │                    BoundedQueue<Job> (reject-with-BUSY when full)
//        │                              │
//        ▼                              ▼
//   worker pool: a TaskPool (common/threadpool.h) whose lanes loop over the
//   queue. Each lane is a long-lived thread, so its tls_arena() (the
//   per-thread scratch Arena the chunked codec paths allocate from) stays
//   warm across requests — steady-state request processing performs no
//   system allocations inside the pipeline. Chunk-granular work inside one
//   request runs on the library's chunk loop (ServerConfig::
//   threads_per_request OpenMP threads) and the SPECK coders' deterministic
//   intra-chunk lanes (ServerConfig::intra_chunk_threads, also TaskPool-
//   backed), so a single large request can still use the whole machine.
//
// Connections are handled strictly request-reply: the reader dispatches one
// frame, blocks for the worker's reply, writes it, then reads the next
// frame. Replies on one connection therefore always arrive in request
// order; concurrency comes from multiple connections.
//
// Degraded-conditions behaviour (docs/OPERATIONS.md "Timeouts, overload,
// and retries"): every socket is non-blocking and poll()-guarded, so a
// peer that stalls mid-frame is reaped when the read/write deadline
// expires and an idle connection is reaped after `idle_timeout_ms`.
// Connections past `max_connections` receive one unsolicited BUSY reply
// (request id 0) and are closed without a reader thread. A request that
// outlives `request_deadline_ms` is answered DEADLINE_EXCEEDED and its
// eventual worker result discarded, so a pathological input cannot pin a
// connection forever. stop() bounds its drain by `drain_deadline_ms`;
// jobs still queued at that point are answered DEADLINE_EXCEEDED too.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "server/metrics.h"
#include "server/protocol.h"

namespace sperr::server {

struct ServerConfig {
  /// TCP port to bind on 127.0.0.1 (0 = pick an ephemeral port; read it
  /// back with Server::port()).
  uint16_t port = 0;

  /// Worker-pool lanes processing requests concurrently (>= 1).
  int workers = 2;

  /// Bounded request queue high-water mark: requests arriving when this
  /// many jobs are already waiting are rejected with BUSY.
  size_t queue_capacity = 64;

  /// OpenMP threads for the chunk loop inside one request (0 = runtime
  /// default). Keep at 1 when `workers` already covers the cores:
  /// cross-request parallelism beats intra-request parallelism under load.
  int threads_per_request = 1;

  /// Lanes per chunk (sperr::Config::intra_chunk_threads; streams are
  /// byte-identical at every setting). 0 applies sperr::chunk_lanes() to
  /// threads_per_request, so a request never runs more threads than that.
  int intra_chunk_threads = 0;

  /// Frames advertising a larger body are rejected (bad_request) and the
  /// connection closed.
  size_t max_body_bytes = kDefaultMaxBodyBytes;

  /// Overall budget for finishing one socket read or write once it has
  /// started (a frame header after its first byte, a body, a reply). A
  /// peer that cannot move its bytes within this budget — including a
  /// slow-loris dripping one byte per poll — is disconnected and counted
  /// in timeouts_read / timeouts_write. < 0 disables the deadline.
  int io_timeout_ms = 30'000;

  /// How long a connection may sit idle between requests (waiting for the
  /// first byte of the next frame header) before it is reaped and counted
  /// in timeouts_read. < 0 disables the idle timeout.
  int idle_timeout_ms = 60'000;

  /// Compute deadline per request, measured from admission to the queue.
  /// A request that has not produced its reply in time is answered
  /// DEADLINE_EXCEEDED (counted in timeouts_request) and its worker
  /// result, if any, discarded. <= 0 disables the deadline.
  int request_deadline_ms = 0;

  /// Accept cap on concurrently served connections. A connection past the
  /// cap gets one unsolicited BUSY reply (request id 0) and is closed
  /// immediately (counted in conns_rejected). 0 means unlimited.
  size_t max_connections = 256;

  /// Bound on stop()'s drain phase: jobs still queued after this budget
  /// are answered DEADLINE_EXCEEDED instead of processed, so shutdown
  /// completes in bounded time even with a full queue of slow requests.
  /// < 0 waits for a full drain.
  int drain_deadline_ms = 30'000;

  /// Per-request cap on the decoded output a DECOMPRESS / EXTRACT_CHUNK /
  /// VERIFY may declare (tightens ResourceLimits::max_output_bytes and
  /// max_working_bytes). A request whose header declares more is answered
  /// RESOURCE_EXHAUSTED before any allocation. 0 = the library default
  /// (ResourceLimits::defaults(), 64 GiB — still finite; there is no way
  /// to run the server unbounded). `sperr_serve --max-output-mb`.
  uint64_t max_output_bytes = 0;

  /// Global decode memory pool shared by every worker lane. Each request
  /// reserves its header-declared working set from this pool for the
  /// duration of its decode; when concurrent requests would overdraw it,
  /// the latecomer is answered RESOURCE_EXHAUSTED instead of sinking the
  /// process. 0 = no shared pool (per-request ceilings still apply).
  /// `sperr_serve --max-memory-mb`.
  uint64_t max_memory_bytes = 0;

  /// Test hook, called by a worker at the start of processing each job with
  /// the job's opcode. Lets tests hold a worker on a latch to make queue
  /// overflow deterministic. Not used in production.
  std::function<void(uint8_t)> process_hook;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();  // stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the acceptor + worker pool. Returns
  /// invalid_argument when the port cannot be bound.
  Status start();

  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, drain every admitted job, answer
  /// it, then close all connections and join every thread. Idempotent.
  void stop();

  /// Counter snapshot with the live fields (uptime, queue depth, workers)
  /// filled in — the same data a STATS request returns.
  [[nodiscard]] StatsSnapshot stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint16_t port_ = 0;
};

}  // namespace sperr::server
