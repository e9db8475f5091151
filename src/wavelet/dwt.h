#pragma once

// Multi-dimensional discrete wavelet transform drivers. Transforms are
// separable: each level applies the 1-D CDF 9/7 pass along every axis that
// still has levels remaining (paper §III-A), then recurses on the low-pass
// box. Axes whose extent is too short (or exhausted) keep their full extent,
// which covers mixed cases such as a thin slab (2-D transform per slice).
//
// The production drivers are cache-blocked: each axis pass gathers tiles of
// up to kLineBatch adjacent lines into a contiguous SoA scratch tile
// (sample-major, lines innermost), runs the batched lifting kernel across
// the whole tile, and scatters back. The strided element-at-a-time walks of
// the Y/Z axes become sequential kLineBatch-wide loads/stores and the
// lifting arithmetic vectorizes across lanes. Output is bit-identical to
// the per-line reference drivers, which remain available (and tested
// against) below.

#include <cstddef>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "wavelet/kernels.h"

namespace sperr {
class TaskPool;
}

namespace sperr::wavelet {

/// Lines per SoA tile in the blocked drivers: 32 lanes of doubles = 4
/// cache lines per sample row, small enough that a 256-sample tile (64 KiB
/// + equal scratch) stays L2-resident, wide enough to saturate any vector
/// unit the compiler targets.
inline constexpr size_t kLineBatch = 32;

/// Per-axis transform levels for a grid, using the paper's policy.
struct LevelPlan {
  size_t lx = 0, ly = 0, lz = 0;

  [[nodiscard]] size_t max() const;
};

LevelPlan plan_levels(Dims dims);

/// Forward DWT in place on `data` (length dims.total(), x fastest).
/// The kernel defaults to the paper's CDF 9/7; alternatives exist for the
/// §III-A kernel ablation (bench_ablation). Tile scratch comes from `arena`
/// when given (rewound to its entry state on return), else from the calling
/// thread's tls_arena() — either way, repeated transforms of equal-size
/// grids perform no heap allocation after the first call.
///
/// `pool`, when non-null, splits every pass's lines across its lanes (the
/// XY passes by z-plane, the Z passes by line batch; the pool's worker
/// lanes take their tiles from their own threads' arenas). Lines transform
/// independently, so the output is bit-identical at any lane count.
void forward_dwt(double* data, Dims dims, Kernel kernel = Kernel::cdf97,
                 Arena* arena = nullptr, TaskPool* pool = nullptr);

/// Inverse of forward_dwt.
void inverse_dwt(double* data, Dims dims, Kernel kernel = Kernel::cdf97,
                 Arena* arena = nullptr, TaskPool* pool = nullptr);

/// Partial inverse: undo only the levels >= keep_levels, leaving the array
/// as if the forward transform had stopped after `keep_levels` levels. With
/// keep_levels == 0 this equals inverse_dwt. Enables multi-resolution
/// reconstruction (paper §VII): the low-pass box of the remaining hierarchy
/// is a coarsened version of the data.
void inverse_dwt_partial(double* data, Dims dims, size_t keep_levels,
                         Arena* arena = nullptr, TaskPool* pool = nullptr);

/// Unblocked per-line reference drivers: the original element-at-a-time
/// implementation, kept as the equivalence oracle for the blocked path and
/// as the baseline in bench_micro's BENCH_wavelet.json record. Bit-identical
/// to forward_dwt / inverse_dwt.
void forward_dwt_reference(double* data, Dims dims, Kernel kernel = Kernel::cdf97);
void inverse_dwt_reference(double* data, Dims dims, Kernel kernel = Kernel::cdf97);

/// The sequence of low-pass box extents the forward transform visits,
/// starting with the full grid; entry i is the box transformed at level i.
std::vector<Dims> lowpass_boxes(Dims dims);

/// Extents of the low-pass box after `levels` forward levels (clamped to
/// the level plan). levels == plan.max() gives the final corner.
Dims lowpass_box_at(Dims dims, size_t levels);

/// Per-pass DC gain of the (scaled) low-pass analysis branch: the value an
/// interior approximation coefficient takes for constant-1 input. Used to
/// normalize coarse reconstructions so they sit on the data's own scale.
double lowpass_dc_gain();

}  // namespace sperr::wavelet
