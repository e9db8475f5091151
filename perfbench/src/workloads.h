#pragma once

// Codec-side measurement shared by the workloads: the timed
// sperr::compress / sperr::decompress loop and the traced layer replay.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sperr/config.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// One field at one operating point.
struct CodecSpec {
  std::string field;  ///< data::make_field name
  sperr::Dims dims;
  int idx = 20;       ///< PWE tolerance = range / 2^idx (paper Table I)
  sperr::Dims chunk;  ///< Config::chunk_dims
};

/// The library Config for `spec` at tolerance `t` (threads from OpenMP).
sperr::Config codec_config(const CodecSpec& spec, double t);

/// Time sperr::compress and sperr::decompress of `field` back to back until
/// `seconds` have passed and at least three times. Checks, outside the timed calls:
/// Status::ok and the original dims, max |x - x̂| <= t, and container bytes
/// identical across repetitions.
Json measure_codec(const CodecSpec& spec, const std::vector<double>& field,
                   double t, double seconds, Ops& ops);

/// Traced run of the codec layers: one library compress/decompress for
/// reference (its Stats.timing is reported beside the replay), a 1-thread
/// compress for the scaling ratio, then layer replays until `seconds` have
/// passed (at least one), each checked against the library's bytes.
Json trace_codec(const CodecSpec& spec, const std::vector<double>& field, double t,
                 double seconds, Tracer& tr, Ops& ops);

}  // namespace perfbench
