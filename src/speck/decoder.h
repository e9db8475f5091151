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
/// doubles, fully overwritten; dead-zone coefficients become 0).
///
/// `threads` parallelizes the data-parallel parts of the decode — the
/// set-tree build, the refinement-pass value updates and the final
/// coefficient scatter (the sorting pass is bit-serial by nature). The
/// output is identical at every thread count: each parallel region splits
/// its work into disjoint, element-independent parts. 0 = one lane per
/// hardware thread. `pool`, when non-null, supplies the lanes instead (and
/// `threads` is ignored).
Status decode(const uint8_t* stream,
              size_t nbytes,
              Dims dims,
              double* coeffs,
              DecodeStats* stats = nullptr,
              int threads = 1,
              TaskPool* pool = nullptr);

/// The original recursive decoder (reference.cpp), kept as the oracle for
/// the flattened production decoder — identical output coefficients and
/// DecodeStats for every stream, including truncated and corrupt ones.
Status decode_reference(const uint8_t* stream,
                        size_t nbytes,
                        Dims dims,
                        double* coeffs,
                        DecodeStats* stats = nullptr);

}  // namespace sperr::speck
