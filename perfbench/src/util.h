#pragma once

// Small shared pieces of the benchmark driver: a monotonic clock, op
// accounting, a flat JSON writer for the result record, and process facts
// (cores, threads, peak RSS).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

/// Seconds on a monotonic clock with an arbitrary, process-wide epoch.
double now_s();

/// Attempted/failed operation counts plus the first few failure messages.
/// Every check of an op's output runs outside the op's timed interval and
/// reports here; an op with any failed check counts once as failed.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Count one op; `problem` empty means every check passed.
  void record(const std::string& problem);
  void merge(const Ops& o);
};

/// Minimal JSON object builder: keys in insertion order, numbers printed
/// with full precision.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, uint64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& nums(const std::string& key, const std::vector<double>& v);
  Json& strs(const std::string& key, const std::vector<std::string>& v);
  Json& obj(const std::string& key, const Json& v);
  [[nodiscard]] std::string dump() const;

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(const std::string& s);
std::string fmt_num(double v);

/// CPUs this process may run on (sched_getaffinity).
int usable_cores();

/// Peak resident set size of this process in MB (10^6 bytes).
double peak_rss_mb();

/// Dims of the sub-block [0, min(d, cap)) along every axis.
sperr::Dims clamp_dims(sperr::Dims d, size_t cap);

/// Copy the corner block `sub` (origin 0) out of a volume.
std::vector<double> corner_block(const std::vector<double>& vol, sperr::Dims vd,
                                 sperr::Dims sub);

}  // namespace perfbench
