// Per-line reference DWT drivers (the original implementation): one strided
// line at a time through a scalar scratch buffer.

#include "oracles/dwt_reference.h"

#include <vector>

#include "wavelet/dwt.h"

namespace sperr::wavelet {

namespace {

// Apply `fn` (analysis or synthesis) along the x axis for every (y, z) line
// inside box (bx, by, bz) of a grid with full extents `dims`.
template <class Fn>
void transform_x(double* data, Dims dims, Dims box, Fn fn) {
  std::vector<double> scratch(box.x);
  for (size_t z = 0; z < box.z; ++z)
    for (size_t y = 0; y < box.y; ++y)
      fn(data + dims.index(0, y, z), box.x, scratch.data());
}

template <class Fn>
void transform_y(double* data, Dims dims, Dims box, Fn fn) {
  std::vector<double> line(box.y), scratch(box.y);
  for (size_t z = 0; z < box.z; ++z)
    for (size_t x = 0; x < box.x; ++x) {
      for (size_t y = 0; y < box.y; ++y) line[y] = data[dims.index(x, y, z)];
      fn(line.data(), box.y, scratch.data());
      for (size_t y = 0; y < box.y; ++y) data[dims.index(x, y, z)] = line[y];
    }
}

template <class Fn>
void transform_z(double* data, Dims dims, Dims box, Fn fn) {
  std::vector<double> line(box.z), scratch(box.z);
  for (size_t y = 0; y < box.y; ++y)
    for (size_t x = 0; x < box.x; ++x) {
      for (size_t z = 0; z < box.z; ++z) line[z] = data[dims.index(x, y, z)];
      fn(line.data(), box.z, scratch.data());
      for (size_t z = 0; z < box.z; ++z) data[dims.index(x, y, z)] = line[z];
    }
}

}  // namespace

void forward_dwt_reference(double* data, Dims dims, Kernel kernel) {
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto analysis = [kernel](double* x, size_t n, double* scratch) {
    line_analysis(kernel, x, n, scratch);
  };
  for (size_t l = 0; l < boxes.size(); ++l) {
    const Dims box = boxes[l];
    if (l < plan.lx) transform_x(data, dims, box, analysis);
    if (l < plan.ly) transform_y(data, dims, box, analysis);
    if (l < plan.lz) transform_z(data, dims, box, analysis);
  }
}

void inverse_dwt_reference(double* data, Dims dims, Kernel kernel) {
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto synthesis = [kernel](double* x, size_t n, double* scratch) {
    line_synthesis(kernel, x, n, scratch);
  };
  for (size_t l = boxes.size(); l-- > 0;) {
    const Dims box = boxes[l];
    if (l < plan.lz) transform_z(data, dims, box, synthesis);
    if (l < plan.ly) transform_y(data, dims, box, synthesis);
    if (l < plan.lx) transform_x(data, dims, box, synthesis);
  }
}

}  // namespace sperr::wavelet
