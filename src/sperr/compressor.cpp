#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/arena.h"
#include "common/checksum.h"
#include "common/stats.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/pipeline.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace sperr {

namespace {

std::vector<uint8_t> compress_impl(const double* data, Dims dims, const Config& cfg,
                                   uint8_t precision, Stats* stats) {
  if (dims.total() == 0) throw std::invalid_argument("sperr: empty input");
  if (cfg.mode == Mode::pwe && !(cfg.tolerance > 0.0))
    throw std::invalid_argument("sperr: PWE mode requires tolerance > 0");
  if (cfg.mode == Mode::fixed_rate && !(cfg.bpp > 0.0))
    throw std::invalid_argument("sperr: fixed-rate mode requires bpp > 0");
  if (cfg.mode == Mode::target_rmse && !(cfg.rmse > 0.0))
    throw std::invalid_argument("sperr: target-rmse mode requires rmse > 0");
  if (cfg.mode == Mode::pwe && !(cfg.q_over_t > 0.0))
    throw std::invalid_argument("sperr: q_over_t must be > 0");
  // Non-finite samples would silently poison the transform and quantizer;
  // reject them up front (the reference SPERR has the same requirement).
  for (size_t i = 0; i < dims.total(); ++i)
    if (!std::isfinite(data[i]))
      throw std::invalid_argument("sperr: input contains NaN or Inf at index " +
                                  std::to_string(i));

  const auto chunks = make_chunks(dims, cfg.chunk_dims);
  std::vector<pipeline::ChunkStream> streams(chunks.size());
  std::vector<double> means(chunks.size(), 0.0);

  // The thread budget splits into a chunk team and per-chunk lanes
  // (chunk_lanes; byte-identical output at any split): a single chunk gets
  // every thread as lanes, and inputs with at least as many chunks as
  // threads run one lane per chunk, so nothing oversubscribes.
  const int threads = detail::thread_budget(cfg.num_threads);
  const int intra_threads =
      chunk_lanes(threads, chunks.size(), cfg.intra_chunk_threads);

#ifdef SPERR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic) \
    num_threads(chunk_team(threads, chunks.size()))
#endif
  for (size_t i = 0; i < chunks.size(); ++i) {
    const Chunk& c = chunks[i];
    // All large per-chunk scratch (gather buffer, coefficient copy, wavelet
    // tiles) comes from this worker's arena: after the first chunk of a
    // given size the loop performs no heap allocation for these buffers.
    Arena& arena = tls_arena();
    arena.reset();
    double* buf = arena.alloc<double>(c.dims.total());
    gather_chunk(data, dims, c, buf);
    // Chunk mean goes into the v3 directory: the DC fallback for coarse_fill
    // recovery when a damaged chunk's SPECK stream is beyond salvage.
    double sum = 0.0;
    for (size_t k = 0; k < c.dims.total(); ++k) sum += buf[k];
    means[i] = sum / double(c.dims.total());
    if (cfg.mode == Mode::pwe) {
      streams[i] = pipeline::encode_pwe(buf, c.dims, cfg.tolerance, cfg.q_over_t,
                                        nullptr, &arena, intra_threads);
    } else if (cfg.mode == Mode::target_rmse) {
      streams[i] = pipeline::encode_target_rmse(buf, c.dims, cfg.rmse, &arena,
                                                intra_threads);
    } else {
      const auto budget = size_t(std::llround(cfg.bpp * double(c.dims.total())));
      streams[i] = pipeline::encode_fixed_rate(buf, c.dims,
                                               std::max<size_t>(budget, 8), &arena);
    }
  }

  ContainerHeader hdr;
  hdr.mode = cfg.mode;
  hdr.precision = precision;
  hdr.dims = dims;
  hdr.chunk_dims = cfg.chunk_dims;
  hdr.quality = cfg.mode == Mode::pwe ? cfg.tolerance
                : cfg.mode == Mode::target_rmse ? cfg.rmse
                                                : cfg.bpp;
  std::vector<uint8_t> cat;  // scratch to hash speck‖outlier contiguously
  for (size_t i = 0; i < streams.size(); ++i) {
    const auto& s = streams[i];
    ChunkEntry e(s.speck.size(), s.outlier.size());
    if (s.outlier.empty()) {
      e.checksum = xxhash64(s.speck.data(), s.speck.size());
    } else {
      cat.assign(s.speck.begin(), s.speck.end());
      cat.insert(cat.end(), s.outlier.begin(), s.outlier.end());
      e.checksum = xxhash64(cat.data(), cat.size());
    }
    e.mean = means[i];
    hdr.entries.push_back(e);
  }

  std::vector<uint8_t> inner;
  hdr.serialize(inner);
  for (const auto& s : streams) {
    inner.insert(inner.end(), s.speck.begin(), s.speck.end());
    inner.insert(inner.end(), s.outlier.begin(), s.outlier.end());
  }

  const size_t inner_bytes = inner.size();
  const lossless::EncodeOptions lossless_opts{cfg.lossless_block_size, cfg.num_threads};
  const auto t0 = std::chrono::steady_clock::now();
  auto out = wrap_container(std::move(inner), cfg.lossless_pass, lossless_opts);
  const auto t1 = std::chrono::steady_clock::now();

  if (stats) {
    *stats = Stats{};
    stats->compressed_bytes = out.size();
    stats->num_chunks = chunks.size();
    if (cfg.lossless_pass) {
      const size_t bs = std::clamp(cfg.lossless_block_size, size_t(1) << 12, size_t(1) << 30);
      stats->lossless_blocks = inner_bytes == 0 ? 0 : (inner_bytes - 1) / bs + 1;
      stats->timing.lossless_s = std::chrono::duration<double>(t1 - t0).count();
    }
    // Serial reduction in chunk-index order — per-pass (and per-stage)
    // timers are doubles, and summing them in OpenMP completion order would
    // make these fields differ run-to-run on identical inputs (float
    // addition is not associative). Keeping the fold here, ordered, makes
    // Stats (and the --speck_json records built from it) reproducible.
    for (const auto& s : streams) {
      stats->speck_bytes += s.speck.size();
      stats->outlier_bytes += s.outlier.size();
      stats->num_outliers += s.num_outliers;
      stats->speck_payload_bits += s.speck_stats.payload_bits;
      stats->speck_planes_coded += s.speck_stats.planes_coded;
      stats->speck_significant += s.speck_stats.significant_count;
      for (const auto& p : s.speck_stats.passes) {
        stats->speck_sorting_s += p.sorting_s;
        stats->speck_significance_s += p.significance_s;
        stats->speck_refinement_s += p.refinement_s;
      }
      stats->timing += s.timing;
    }
    stats->bpp = double(out.size()) * 8.0 / double(dims.total());
  }
  return out;
}

}  // namespace

std::vector<uint8_t> compress(const double* data, Dims dims, const Config& cfg,
                              Stats* stats) {
  return compress_impl(data, dims, cfg, 8, stats);
}

std::vector<uint8_t> compress(const float* data, Dims dims, const Config& cfg,
                              Stats* stats) {
  std::vector<double> wide(data, data + dims.total());
  return compress_impl(wide.data(), dims, cfg, 4, stats);
}

double tolerance_from_idx(const double* data, size_t n, int idx) {
  const FieldStats s = compute_stats(data, n);
  return std::ldexp(s.range(), -idx);
}

double tolerance_from_idx(const float* data, size_t n, int idx) {
  const FieldStats s = compute_stats(data, n);
  return std::ldexp(s.range(), -idx);
}

}  // namespace sperr
