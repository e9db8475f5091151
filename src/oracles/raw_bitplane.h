#pragma once

// Ablation baseline for SPECK: a *dense* bitplane coder with the identical
// quantization semantics (scale by 1/q, planes 2^n_max..2^0, mid-riser
// reconstruction, dead zone) but no set partitioning — every not-yet-
// significant coefficient spends one significance bit per plane. The gap
// between this coder and SPECK measures exactly what the paper's "zoom in
// from the full volume" partitioning contributes (§III-B). Part of the
// test/bench-only sperr_oracles library (bench_ablation's baseline).

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sperr::speck {

/// Encode with the same quantization contract as speck::encode (all planes
/// down to q; no budget mode — this is an analysis tool, not a product path).
std::vector<uint8_t> raw_bitplane_encode(const double* coeffs, Dims dims, double q);

/// Decode a raw_bitplane_encode stream.
Status raw_bitplane_decode(const uint8_t* stream, size_t nbytes, Dims dims,
                           double* coeffs);

}  // namespace sperr::speck
