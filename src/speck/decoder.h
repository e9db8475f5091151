#pragma once

// SPECK decoder: replays the encoder's set traversal with significance bits
// coming from the stream, reconstructing coefficients at the centers of
// their refined intervals (mid-riser). Tolerates truncated payloads — any
// prefix of an embedded stream yields a coarser but valid reconstruction.

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "speck/common.h"

namespace sperr {
class TaskPool;
}

namespace sperr::speck {

struct DecodeStats {
  size_t bits_consumed = 0;
  size_t significant_count = 0;
  bool truncated = false;  ///< stream ended before the last plane finished
};

/// Decode a stream produced by speck::encode into `coeffs` (dims.total()
/// doubles, fully overwritten; dead-zone coefficients become 0). Any header
/// n_max that finite doubles can produce (below 2098) decodes, including the
/// > 50-plane streams of older encoders; 2098 or more is
/// Status::corrupt_stream.
/// Grids of kCoefficientLimit (2^31) coefficients or more return
/// Status::invalid_argument before anything is allocated.
///
/// `threads` parallelizes the data-parallel parts of the decode — the
/// set-tree build, the zero fill and the reconstruct that settles every
/// significant coefficient once the stream has been read. The sorting
/// passes are bit-serial by nature, and refinement passes are not walked
/// plane by plane: their bits are read by the reconstruct. The output is
/// identical at every thread count: each parallel region splits its work
/// into disjoint, element-independent parts. 0 = one lane per hardware
/// thread. `pool`, when non-null, supplies the lanes instead (and
/// `threads` is ignored).
Status decode(const uint8_t* stream,
              size_t nbytes,
              Dims dims,
              double* coeffs,
              DecodeStats* stats = nullptr,
              int threads = 1,
              TaskPool* pool = nullptr);

}  // namespace sperr::speck
