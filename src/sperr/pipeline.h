#pragma once

// The four-stage SPERR pipeline on one contiguous chunk (paper §V-C):
//   1. forward wavelet transform,
//   2. SPECK coding of the coefficients,
//   3. outlier location (inverse transform + comparison with the input),
//   4. outlier coding.
// Exposed separately from the chunked driver so benchmarks can instrument
// the stage costs and the coefficient/outlier storage balance (Figs. 2-4, 6).

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "outlier/coder.h"
#include "speck/encoder.h"
#include "sperr/config.h"

namespace sperr::pipeline {

struct ChunkStream {
  std::vector<uint8_t> speck;    ///< SPECK stream (header + payload)
  std::vector<uint8_t> outlier;  ///< outlier stream (empty in fixed-rate mode)
  size_t num_outliers = 0;
  size_t outlier_payload_bits = 0;  ///< bits in the outlier payload (excl. header)
  speck::EncodeStats speck_stats;  ///< coder-internal counters for this chunk
  StageTiming timing;
};

/// PWE-bounded encode of one chunk: guarantees every reconstructed value is
/// within `tolerance` of the input. `q = q_over_t * tolerance` sets the
/// coefficient/outlier balance. `capture_outliers`, when non-null, receives
/// the located outlier list (positions in linearized order) — used by the
/// Fig. 1 / Fig. 11 analyses.
///
/// All encode/decode entry points take an optional scratch `arena` for
/// their large transient buffers (coefficient copy, wavelet tiles). The
/// chunked drivers pass each OpenMP worker's tls_arena() so steady-state
/// chunk iterations allocate nothing; standalone callers may pass nullptr
/// (the calling thread's arena is used). The arena is rewound, not reset:
/// allocations the caller made before the call survive.
///
/// `intra_chunk_threads` is the chunk's lane count (1 = serial, 0 = one per
/// hardware thread). One pool of that many lanes runs every stage of the
/// chunk — the wavelet passes, the SPECK coder's deterministic sweeps and
/// the outlier comparison — and the emitted streams are byte-identical at
/// every setting, so it is purely a wall-clock knob. The chunked drivers
/// pick it with chunk_lanes() (sperr/config.h).
ChunkStream encode_pwe(const double* data, Dims dims, double tolerance,
                       double q_over_t,
                       std::vector<outlier::Outlier>* capture_outliers = nullptr,
                       Arena* arena = nullptr, int intra_chunk_threads = 1);

/// Size-bounded encode: the SPECK stream is truncated at `budget_bits`.
/// No outlier correction (no error bound), matching classic SPECK / the
/// paper's fixed-size mode. (The budgeted coder must stop on the exact
/// budget bit and is inherently serial, so it takes no thread knob.)
ChunkStream encode_fixed_rate(const double* data, Dims dims, size_t budget_bits,
                              Arena* arena = nullptr);

/// Average-error-targeted encode (paper §VII): pick the quantization step
/// from the RMSE target via the unit-norm wavelet's error equivalence; all
/// bitplanes down to that step are coded, no outlier pass.
ChunkStream encode_target_rmse(const double* data, Dims dims, double rmse_target,
                               Arena* arena = nullptr, int intra_chunk_threads = 1);

/// Multi-level decode (paper §VII): reconstruct the chunk at a coarsened
/// resolution by stopping the inverse wavelet recursion `drop_levels` early
/// and extracting the low-pass box. drop_levels == 0 is full resolution.
/// `coarse_dims` receives the extents of the returned field. The coarse
/// field approximates a box-filtered downsampling of the data (low-pass
/// scaling is divided out).
Status decode_lowres(const uint8_t* speck_stream, size_t speck_len, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims);
Status decode_lowres(const std::vector<uint8_t>& speck_stream, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims);

/// Decode one chunk (either mode) into `out` (dims.total() doubles). The
/// stream views are borrowed, not copied — they only need to stay alive for
/// the duration of the call.
Status decode(const uint8_t* speck_stream, size_t speck_len,
              const uint8_t* outlier_stream, size_t outlier_len, Dims dims,
              double* out, Arena* arena = nullptr, int intra_chunk_threads = 1);

/// Convenience overload over owned streams.
Status decode(const std::vector<uint8_t>& speck_stream,
              const std::vector<uint8_t>& outlier_stream, Dims dims, double* out);

}  // namespace sperr::pipeline
