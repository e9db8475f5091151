#include "sperr/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/threadpool.h"
#include "common/timer.h"
#include "outlier/coder.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "wavelet/dwt.h"

namespace sperr::pipeline {

ChunkStream encode_pwe(const double* data, Dims dims, double tolerance,
                       double q_over_t,
                       std::vector<outlier::Outlier>* capture_outliers,
                       Arena* arena, int intra_chunk_threads) {
  ChunkStream result;
  const size_t n = dims.total();
  const double q = q_over_t * tolerance;
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  result.timing.bytes = uint64_t(n) * sizeof(double);
  // One set of lanes for every stage of this chunk.
  const std::unique_ptr<TaskPool> pool = make_pool(intra_chunk_threads);

  // Stage 1: forward wavelet transform.
  Timer timer;
  double* coeffs = a.alloc<double>(n);
  std::copy(data, data + n, coeffs);
  wavelet::forward_dwt(coeffs, dims, wavelet::Kernel::cdf97, &a, pool.get());
  result.timing.transform_s = timer.seconds();

  // Stage 2: SPECK-code all bitplanes down to the quantization step q. The
  // encoder also hands back the decoder-equivalent coefficient
  // reconstruction so stage 3 need not decode the stream it just built.
  timer.reset();
  std::vector<double> recon;
  result.speck = speck::encode(coeffs, dims, q, 0, &result.speck_stats, &recon,
                               1, pool.get());
  result.timing.speck_s = timer.seconds();

  // Stage 3: locate outliers — inverse transform plus a comparison with the
  // original input (paper §V-C stage 3). Lanes compare contiguous ranges;
  // their finds concatenate in lane order, i.e. in position order.
  timer.reset();
  wavelet::inverse_dwt(recon.data(), dims, wavelet::Kernel::cdf97, &a, pool.get());
  std::vector<std::vector<outlier::Outlier>> found(size_t(lane_count(pool.get())));
  for_lane_ranges(pool.get(), n, [&](size_t b, size_t e, int lane) {
    for (size_t i = b; i < e; ++i) {
      const double err = data[i] - recon[i];
      if (std::fabs(err) > tolerance) found[size_t(lane)].push_back({i, err});
    }
  });
  std::vector<outlier::Outlier> outliers = std::move(found[0]);
  for (size_t l = 1; l < found.size(); ++l)
    outliers.insert(outliers.end(), found[l].begin(), found[l].end());
  result.timing.locate_s = timer.seconds();
  if (capture_outliers) *capture_outliers = outliers;

  // Stage 4: code the outliers so they can be corrected to within t.
  timer.reset();
  outlier::EncodeStats ostats;
  result.outlier = outlier::encode(std::move(outliers), n, tolerance, &ostats);
  result.num_outliers = ostats.num_outliers;
  result.outlier_payload_bits = ostats.payload_bits;
  result.timing.outlier_s = timer.seconds();

  return result;
}

ChunkStream encode_fixed_rate(const double* data, Dims dims, size_t budget_bits,
                              Arena* arena) {
  ChunkStream result;
  const size_t n = dims.total();
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  result.timing.bytes = uint64_t(n) * sizeof(double);

  Timer timer;
  double* coeffs = a.alloc<double>(n);
  std::copy(data, data + n, coeffs);
  wavelet::forward_dwt(coeffs, dims, wavelet::Kernel::cdf97, &a);
  result.timing.transform_s = timer.seconds();

  // Pick q far below the coefficient scale so the bit budget, not the
  // quantization floor, terminates coding (~50 bitplanes available).
  double max_mag = 0.0;
  for (size_t i = 0; i < n; ++i) max_mag = std::max(max_mag, std::fabs(coeffs[i]));
  const double q = max_mag > 0.0 ? std::ldexp(max_mag, -50) : 1.0;

  timer.reset();
  result.speck = speck::encode(coeffs, dims, q, budget_bits, &result.speck_stats);
  result.timing.speck_s = timer.seconds();
  return result;
}

ChunkStream encode_target_rmse(const double* data, Dims dims, double rmse_target,
                               Arena* arena, int intra_chunk_threads) {
  ChunkStream result;
  const size_t n = dims.total();
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  result.timing.bytes = uint64_t(n) * sizeof(double);
  const std::unique_ptr<TaskPool> pool = make_pool(intra_chunk_threads);

  Timer timer;
  double* coeffs = a.alloc<double>(n);
  std::copy(data, data + n, coeffs);
  wavelet::forward_dwt(coeffs, dims, wavelet::Kernel::cdf97, &a, pool.get());
  result.timing.transform_s = timer.seconds();

  // Unit-norm near-orthogonal basis: coefficient-domain RMSE ~ output RMSE
  // (paper §III-A / §VII). Mid-riser quantization with step q injects
  // q/sqrt(12) RMSE per coded coefficient; dead-zone zeros add a little
  // more, so take a 2x safety margin.
  const double q = rmse_target * std::sqrt(12.0) * 0.5;

  timer.reset();
  result.speck = speck::encode(coeffs, dims, q, 0, &result.speck_stats, nullptr,
                               1, pool.get());
  result.timing.speck_s = timer.seconds();
  return result;
}

Status decode_lowres(const uint8_t* speck_stream, size_t speck_len, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims) {
  const size_t max_levels = wavelet::plan_levels(dims).max();
  const size_t keep = std::min(drop_levels, max_levels);

  std::vector<double> full(dims.total());
  const Status s = speck::decode(speck_stream, speck_len, dims, full.data());
  if (s != Status::ok) return s;
  wavelet::inverse_dwt_partial(full.data(), dims, keep);

  // Extract the low-pass box and divide out the per-pass DC gain so the
  // coarse field sits on the data's own scale.
  coarse_dims = wavelet::lowpass_box_at(dims, keep);
  const wavelet::LevelPlan plan = wavelet::plan_levels(dims);
  const size_t passes = std::min(keep, plan.lx) + std::min(keep, plan.ly) +
                        std::min(keep, plan.lz);
  const double scale = 1.0 / std::pow(wavelet::lowpass_dc_gain(), double(passes));

  out.resize(coarse_dims.total());
  for (size_t z = 0; z < coarse_dims.z; ++z)
    for (size_t y = 0; y < coarse_dims.y; ++y)
      for (size_t x = 0; x < coarse_dims.x; ++x)
        out[coarse_dims.index(x, y, z)] = full[dims.index(x, y, z)] * scale;
  return Status::ok;
}

Status decode_lowres(const std::vector<uint8_t>& speck_stream, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims) {
  return decode_lowres(speck_stream.data(), speck_stream.size(), dims, drop_levels,
                       out, coarse_dims);
}

Status decode(const uint8_t* speck_stream, size_t speck_len,
              const uint8_t* outlier_stream, size_t outlier_len, Dims dims,
              double* out, Arena* arena, int intra_chunk_threads) {
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  const std::unique_ptr<TaskPool> pool = make_pool(intra_chunk_threads);
  const Status s =
      speck::decode(speck_stream, speck_len, dims, out, nullptr, 1, pool.get());
  if (s != Status::ok) return s;
  wavelet::inverse_dwt(out, dims, wavelet::Kernel::cdf97, &a, pool.get());

  if (outlier_len != 0) {
    std::vector<outlier::Outlier> outliers;
    const Status so = outlier::decode(outlier_stream, outlier_len, dims.total(), outliers);
    if (so != Status::ok) return so;
    for (const auto& o : outliers) out[o.pos] += o.corr;
  }
  return Status::ok;
}

Status decode(const std::vector<uint8_t>& speck_stream,
              const std::vector<uint8_t>& outlier_stream, Dims dims, double* out) {
  return decode(speck_stream.data(), speck_stream.size(), outlier_stream.data(),
                outlier_stream.size(), dims, out);
}

}  // namespace sperr::pipeline
