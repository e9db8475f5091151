#include "wavelet/dwt.h"

#include <algorithm>

#include "common/threadpool.h"
#include "wavelet/cdf97.h"

namespace sperr::wavelet {

namespace {

// ---------------------------------------------------------------------------
// Blocked drivers. One axis pass is described by the geometry of its lines:
// every line has `n` samples spaced `stride` apart, and line (u, v) starts
// at offset u * bu + v * bv. Lines are enumerated u-fastest and batched
// kLineBatch at a time into an SoA tile (sample-major, lanes innermost), so
//   * Y axis (bu = 1): a tile row is nb adjacent-x elements — the strided
//     per-line walk becomes contiguous loads/stores;
//   * Z axis (bu = 1): same, one contiguous nb-run per z plane;
//   * X axis (bu = dims.x): the gather reads each line contiguously and
//     transposes it into the tile.
// The batched kernels then sweep the tile with lane-parallel lifting steps.

struct AxisPass {
  size_t n;       ///< samples per line
  size_t stride;  ///< distance between consecutive samples of a line
  size_t n_u;     ///< lines along the fast enumeration axis
  size_t n_v;     ///< lines along the slow enumeration axis
  size_t bu;      ///< offset step per u
  size_t bv;      ///< offset step per v
};

AxisPass pass_z(Dims dims, Dims box) {
  return {box.z, dims.x * dims.y, box.x, box.y, 1, dims.x};
}

// Run `fn(tile, n, nb, scratch)` over line batches [b0, b1) of the pass
// (batch k holds lines [k * kLineBatch, (k + 1) * kLineBatch)). The tile
// and its scratch live in the arena and are released on return.
template <class BatchFn>
void blocked_pass(double* data, const AxisPass& p, Arena& arena, BatchFn fn,
                  size_t b0 = 0, size_t b1 = SIZE_MAX / kLineBatch) {
  if (p.n < 2) return;  // the kernels are no-ops on such lines
  Arena::Scope scope(arena);
  double* tile = arena.alloc<double>(p.n * kLineBatch);
  double* scratch = arena.alloc<double>(p.n * kLineBatch);

  const size_t nlines = p.n_u * p.n_v;
  const size_t end = std::min(nlines, b1 * kLineBatch);
  size_t base[kLineBatch];
  for (size_t l0 = b0 * kLineBatch; l0 < end; l0 += kLineBatch) {
    const size_t nb = std::min(kLineBatch, nlines - l0);
    const size_t u0 = l0 % p.n_u;
    const size_t v0 = l0 / p.n_u;
    // Lanes that are consecutive along u with bu == 1 sit adjacent in
    // memory; every tile row is then one contiguous nb-wide run.
    if (p.bu == 1 && u0 + nb <= p.n_u) {
      const double* src0 = data + u0 * p.bu + v0 * p.bv;
      for (size_t i = 0; i < p.n; ++i) {
        const double* src = src0 + i * p.stride;
        double* dst = tile + i * nb;
        for (size_t j = 0; j < nb; ++j) dst[j] = src[j];
      }
      const double* res = fn(tile, p.n, nb, scratch);
      double* out0 = data + u0 * p.bu + v0 * p.bv;
      for (size_t i = 0; i < p.n; ++i) {
        const double* src = res + i * nb;
        double* dst = out0 + i * p.stride;
        for (size_t j = 0; j < nb; ++j) dst[j] = src[j];
      }
      continue;
    }
    // General case (x-axis tiles, u-boundary-crossing batches): per-lane
    // start offsets.
    for (size_t j = 0; j < nb; ++j) {
      const size_t u = (l0 + j) % p.n_u;
      const size_t v = (l0 + j) / p.n_u;
      base[j] = u * p.bu + v * p.bv;
    }
    if (p.stride == 1) {
      for (size_t j = 0; j < nb; ++j) {
        const double* src = data + base[j];
        for (size_t i = 0; i < p.n; ++i) tile[i * nb + j] = src[i];
      }
      const double* res = fn(tile, p.n, nb, scratch);
      for (size_t j = 0; j < nb; ++j) {
        double* dst = data + base[j];
        for (size_t i = 0; i < p.n; ++i) dst[i] = res[i * nb + j];
      }
    } else {
      for (size_t i = 0; i < p.n; ++i) {
        const size_t off = i * p.stride;
        double* dst = tile + i * nb;
        for (size_t j = 0; j < nb; ++j) dst[j] = data[base[j] + off];
      }
      const double* res = fn(tile, p.n, nb, scratch);
      for (size_t i = 0; i < p.n; ++i) {
        const size_t off = i * p.stride;
        const double* src = res + i * nb;
        for (size_t j = 0; j < nb; ++j) data[base[j] + off] = src[j];
      }
    }
  }
}


// Intra-chunk lanes: every line is transformed independently, so lanes
// split a pass's lines between them and the output is bit-identical at any
// lane count. Lane 0 runs on the calling thread and takes its tiles from
// the caller's arena; the pool's other lanes use their own threads' arenas.
Arena& lane_arena(Arena& caller, int lane) { return lane == 0 ? caller : tls_arena(); }

/// Line batches a lane claims at a time in a parallel Z pass.
constexpr size_t kBatchesPerClaim = 4;

template <class BatchFn>
void blocked_pass_z(double* data, Dims dims, Dims box, Arena& arena,
                    TaskPool* pool, BatchFn fn) {
  const AxisPass p = pass_z(dims, box);
  const size_t nbatches = (p.n_u * p.n_v + kLineBatch - 1) / kLineBatch;
  const size_t nclaims = (nbatches + kBatchesPerClaim - 1) / kBatchesPerClaim;
  for_each_claimed(pool, nclaims, [&](size_t c, int lane) {
    blocked_pass(data, p, lane_arena(arena, lane), fn, c * kBatchesPerClaim,
                 std::min(nbatches, (c + 1) * kBatchesPerClaim));
  });
}

// X and Y passes only couple samples within one z-plane, so they can be
// fused plane-by-plane: transform a plane's x lines, then its y lines (or
// the reverse for synthesis) while the plane (512 KiB at 256²) is still
// cache-resident, instead of streaming the whole box from memory once per
// axis. The per-line arithmetic is unchanged — output stays bit-identical.
// Planes are independent, so lanes claim them one at a time.
template <class BatchFn>
void blocked_pass_xy(double* data, Dims dims, Dims box, bool do_x, bool do_y,
                     bool x_first, Arena& arena, TaskPool* pool, BatchFn fn) {
  const size_t plane_elems = dims.x * dims.y;
  const AxisPass px{box.x, 1, box.y, 1, dims.x, 0};
  const AxisPass py{box.y, dims.x, box.x, 1, 1, 0};
  for_each_claimed(pool, box.z, [&](size_t z, int lane) {
    Arena& a = lane_arena(arena, lane);
    double* plane = data + z * plane_elems;
    if (x_first) {
      if (do_x) blocked_pass(plane, px, a, fn);
      if (do_y) blocked_pass(plane, py, a, fn);
    } else {
      if (do_y) blocked_pass(plane, py, a, fn);
      if (do_x) blocked_pass(plane, px, a, fn);
    }
  });
}

}  // namespace

size_t LevelPlan::max() const {
  return std::max({lx, ly, lz});
}

LevelPlan plan_levels(Dims dims) {
  return {num_levels(dims.x), num_levels(dims.y), num_levels(dims.z)};
}

std::vector<Dims> lowpass_boxes(Dims dims) {
  const LevelPlan plan = plan_levels(dims);
  std::vector<Dims> boxes;
  Dims cur = dims;
  for (size_t l = 0; l < plan.max(); ++l) {
    boxes.push_back(cur);
    if (l < plan.lx) cur.x = approx_len(cur.x);
    if (l < plan.ly) cur.y = approx_len(cur.y);
    if (l < plan.lz) cur.z = approx_len(cur.z);
  }
  return boxes;
}

void forward_dwt(double* data, Dims dims, Kernel kernel, Arena* arena,
                 TaskPool* pool) {
  Arena& a = arena ? *arena : tls_arena();
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto analysis = [kernel](double* tile, size_t n, size_t nb, double* s) {
    return batch_analysis(kernel, tile, n, nb, s);
  };
  for (size_t l = 0; l < boxes.size(); ++l) {
    const Dims box = boxes[l];
    const bool dx = l < plan.lx, dy = l < plan.ly;
    if (dx || dy)
      blocked_pass_xy(data, dims, box, dx, dy, /*x_first=*/true, a, pool, analysis);
    if (l < plan.lz) blocked_pass_z(data, dims, box, a, pool, analysis);
  }
}

void inverse_dwt(double* data, Dims dims, Kernel kernel, Arena* arena,
                 TaskPool* pool) {
  if (kernel == Kernel::cdf97) {
    inverse_dwt_partial(data, dims, 0, arena, pool);
    return;
  }
  Arena& a = arena ? *arena : tls_arena();
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto synthesis = [kernel](double* tile, size_t n, size_t nb, double* s) {
    return batch_synthesis(kernel, tile, n, nb, s);
  };
  for (size_t l = boxes.size(); l-- > 0;) {
    const Dims box = boxes[l];
    if (l < plan.lz) blocked_pass_z(data, dims, box, a, pool, synthesis);
    const bool dx = l < plan.lx, dy = l < plan.ly;
    if (dx || dy)
      blocked_pass_xy(data, dims, box, dx, dy, /*x_first=*/false, a, pool, synthesis);
  }
}

void inverse_dwt_partial(double* data, Dims dims, size_t keep_levels,
                         Arena* arena, TaskPool* pool) {
  Arena& a = arena ? *arena : tls_arena();
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  for (size_t l = boxes.size(); l-- > keep_levels;) {
    const Dims box = boxes[l];
    // Synthesis undoes axes in the reverse order of analysis.
    if (l < plan.lz)
      blocked_pass_z(data, dims, box, a, pool, cdf97_synthesis_batch);
    const bool dx = l < plan.lx, dy = l < plan.ly;
    if (dx || dy)
      blocked_pass_xy(data, dims, box, dx, dy, /*x_first=*/false, a, pool,
                      cdf97_synthesis_batch);
  }
}

Dims lowpass_box_at(Dims dims, size_t levels) {
  const LevelPlan plan = plan_levels(dims);
  Dims cur = dims;
  const size_t n = std::min(levels, plan.max());
  for (size_t l = 0; l < n; ++l) {
    if (l < plan.lx) cur.x = approx_len(cur.x);
    if (l < plan.ly) cur.y = approx_len(cur.y);
    if (l < plan.lz) cur.z = approx_len(cur.z);
  }
  return cur;
}

double lowpass_dc_gain() {
  static const double gain = [] {
    // One analysis pass on a long constant line; read an interior
    // approximation coefficient (boundary effects decay within ~4 samples).
    std::vector<double> line(256, 1.0), scratch(256);
    cdf97_analysis(line.data(), line.size(), scratch.data());
    return line[64];
  }();
  return gain;
}

}  // namespace sperr::wavelet
