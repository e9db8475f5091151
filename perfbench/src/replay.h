#pragma once

// Layer-by-layer replay of sperr::compress / sperr::decompress for the
// traced run. It calls each layer's public functions in the order the
// library's chunk loop does (make_chunks, gather_chunk, forward_dwt,
// speck::encode, inverse_dwt + compare, outlier::encode, container
// assembly, lossless::compress; and back), with one span per call. The
// replay must produce the library's bytes exactly: check_fidelity()
// compares it against a real container and decode.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sperr/config.h"
#include "trace.h"

namespace perfbench {

struct ReplayOutput {
  std::vector<uint8_t> inner;    ///< container bytes before the lossless pass
  std::vector<uint8_t> payload;  ///< lossless::compress output
  std::vector<double> decoded;   ///< replayed decode of the real container
  sperr::Status decode_status = sperr::Status::ok;
};

/// Replay one PWE compress of `data` under `cfg` (root span "compress").
void replay_compress(const double* data, sperr::Dims dims, const sperr::Config& cfg,
                     Tracer* tr, ReplayOutput& out);

/// Replay one decompress of `container` (root span "decompress").
void replay_decompress(const std::vector<uint8_t>& container, Tracer* tr,
                       ReplayOutput& out);

/// Compare a replay against the library: its inner bytes (every chunk's
/// SPECK and outlier stream, the directory and header) against the inner
/// container open_container() recovers from `container`, its lossless output
/// against `container`'s payload, and its decode against `decoded`
/// bit for bit. Returns an empty string when all match, else what differed.
std::string check_fidelity(const ReplayOutput& r,
                           const std::vector<uint8_t>& container,
                           const std::vector<double>& decoded);

}  // namespace perfbench
