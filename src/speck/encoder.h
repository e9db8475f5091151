#pragma once

// SPECK encoder (paper §III-B/C). Encodes wavelet coefficients
// bitplane-by-bitplane with octree (3-D) / quadtree (2-D) set partitioning.
// Differences from the classic algorithm, following the paper:
//   * arbitrary quantization step q (coefficients are pre-scaled by 1/q and
//     integer bitplanes 2^n are coded), giving a dead zone of (-q, q) and a
//     max quantization error of q/2 for coded coefficients;
//   * the whole (transformed) domain is the root set;
//   * the output is embedded: any prefix decodes, enabling the size-bounded
//     mode by simply stopping at a bit budget.

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "speck/common.h"

namespace sperr {
class TaskPool;
}

namespace sperr::speck {

/// Cost breakdown of one bitplane, filled by the production encoder. The
/// bit counts are properties of the stream (deterministic, compared in
/// tests); the seconds are wall-clock measurements of this plane's passes.
struct PassTiming {
  int32_t plane = 0;           ///< bitplane n (threshold 2^n)
  double sorting_s = 0.0;      ///< whole sorting pass (includes significance_s)
  double significance_s = 0.0; ///< packed max-plane scans within the sorting pass
  double refinement_s = 0.0;   ///< refinement pass
  uint64_t sorting_bits = 0;   ///< payload bits emitted by the sorting pass
  uint64_t refinement_bits = 0;///< payload bits emitted by the refinement pass
};

struct EncodeStats {
  size_t payload_bits = 0;     ///< bits in the SPECK payload (excl. header)
  size_t planes_coded = 0;     ///< bitplanes fully or partially emitted
  size_t significant_count = 0;  ///< coefficients outside the dead zone

  /// RMSE of the quantized coefficients vs the input coefficients, computed
  /// from encoder state alone. Because the CDF 9/7 basis is near-orthogonal
  /// and ~unit-norm, this estimates the *reconstruction* RMSE without any
  /// inverse transform (paper §III-A and the §VII average-error extension).
  double estimated_coeff_rmse = 0.0;

  /// Per-bitplane pass costs, top plane first (production encoder only; the
  /// reference coder leaves this empty). Feeds `bench_micro --speck_json`.
  std::vector<PassTiming> passes;

  /// Intra-chunk threads the encoder actually used (after resolving 0=auto
  /// and the serial fallbacks for budgeted / >50-plane modes).
  int threads_used = 1;
};

/// Encode `coeffs` (dims.total() values) with finest step q (> 0).
/// `budget_bits` == 0 means "all bitplanes down to q" (quality-driven / PWE
/// mode); otherwise the stream is truncated at the first operation that
/// reaches the budget (size-bounded mode).
///
/// `recon_out`, when non-null, receives the decoder-equivalent coefficient
/// reconstruction (resized to dims.total()). The encoder maintains it
/// alongside the emitted bits, so the SPERR pipeline can locate outliers
/// without decoding its own stream (paper §V-C stage 3 is just an inverse
/// transform plus a comparison). Only exact in unbudgeted mode.
///
/// `threads` enables deterministic intra-chunk parallelism: each bitplane's
/// large worklists are cut into fixed contiguous slices that lanes claim
/// dynamically, and the slice outputs merge in slice order, so the stream
/// is byte-identical at every thread count (including to the serial engine
/// and to encode_reference). The set-tree build and the plane scan run on
/// the same lanes. 0 = one lane per hardware thread; budgeted mode (which
/// must stop on an exact mid-pass bit) always sweeps serially. `pool`, when
/// non-null, supplies the lanes instead (and `threads` is ignored), so a
/// caller can run every stage of a chunk on one set of threads.
std::vector<uint8_t> encode(const double* coeffs,
                            Dims dims,
                            double q,
                            size_t budget_bits = 0,
                            EncodeStats* stats = nullptr,
                            std::vector<double>* recon_out = nullptr,
                            int threads = 1,
                            TaskPool* pool = nullptr);

/// The original recursive, lazily-evaluated coder (reference.cpp), kept as
/// the bit-exactness oracle for the flattened production encoder — same
/// stream bytes, same EncodeStats, for every input and mode. Differentially
/// tested in tests/test_speck_fast.cpp; the speedup is recorded by
/// `bench_micro --speck_json` (BENCH_speck.json).
std::vector<uint8_t> encode_reference(const double* coeffs,
                                      Dims dims,
                                      double q,
                                      size_t budget_bits = 0,
                                      EncodeStats* stats = nullptr,
                                      std::vector<double>* recon_out = nullptr);

}  // namespace sperr::speck
