#pragma once

// The serving workload: an in-process server::Server driven by closed-loop
// server::Client connections, each repeating the same six-request cycle
// (COMPRESS at a PWE tolerance, COMPRESS at a fixed rate, DECOMPRESS to f64
// and to f32, VERIFY, EXTRACT_CHUNK). Every reply is compared byte for byte
// with a direct library call under the same Config, computed during set-up.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "server/metrics.h"
#include "server/server.h"
#include "sperr/config.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

inline constexpr int kRequestKinds = 6;
inline constexpr const char* kRequestNames[kRequestKinds] = {
    "compress_pwe", "compress_rate", "decompress", "decompress_f32", "verify",
    "extract"};

inline constexpr int kServeIdx = 20;         ///< PWE COMPRESS: tolerance = range / 2^idx
inline constexpr double kServeRateBpp = 4.0; ///< fixed-rate COMPRESS target
inline constexpr int kServeWorkers = 4;
inline constexpr int kServeConnections = 4;
inline constexpr size_t kServeQueue = 64;

/// Request bodies and expected replies, built once outside any timing.
struct ServeSetup {
  size_t nchunks = 0;
  double field_bytes = 0.0;
  std::vector<uint8_t> container;  ///< the PWE container DECOMPRESS/VERIFY/EXTRACT use
  double bpp = 0.0;                ///< of `container`
  double accuracy_gain = 0.0;      ///< of `container` against the field
  double tolerance = 0.0;
  std::vector<uint8_t> body[kRequestKinds];  ///< unused for EXTRACT, see below
  std::vector<uint8_t> expect[kRequestKinds];
  std::vector<std::vector<uint8_t>> extract_body;    ///< per chunk
  std::vector<std::vector<uint8_t>> extract_expect;  ///< per chunk
};

/// Build bodies and references for `field` cut into `chunk`-sized chunks;
/// problems land in `ops`.
ServeSetup build_serve_setup(const std::vector<double>& field, sperr::Dims dims,
                             sperr::Dims chunk, Ops& ops);

/// Start an in-process server: 4 workers, one thread and one SPECK lane per
/// request, queue 64. Null when it cannot bind.
std::unique_ptr<sperr::server::Server> start_server();

struct ServeRun {
  std::vector<double> kind;        ///< request kind index per completed request
  std::vector<double> latency_ms;  ///< send to full reply
  double wall_s = 0.0;
  sperr::server::StatsSnapshot before, after;
  uint64_t retries = 0;
  Ops ops;
};

/// Run the closed loop. Each connection repeats the cycle until `seconds`
/// have passed and at least `min_requests` have completed in total, or,
/// when `cycles` > 0, exactly `cycles` cycles. `tr` (nullable) receives one
/// root span per request.
ServeRun run_serve(const ServeSetup& setup, uint16_t port, double seconds,
                   size_t min_requests, int cycles, Tracer* tr);

/// The request samples, the STATS delta and the served container's figures
/// as a JSON object.
Json serve_json(const ServeRun& r, const ServeSetup& setup);

}  // namespace perfbench
