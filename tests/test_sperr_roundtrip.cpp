#include "sperr/sperr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/byteio.h"
#include "common/rng.h"
#include "common/stats.h"
#include "data/synthetic.h"
#include "speck/common.h"
#include "sperr/header.h"
#include "sperr/recovery.h"

namespace sperr {
namespace {

double max_abs_err(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

TEST(SperrRoundTrip, PweGuaranteeOnSmoothField) {
  const Dims dims{48, 48, 48};
  const auto field = data::miranda_pressure(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 10);

  Stats stats;
  const auto blob = compress(field.data(), dims, cfg, &stats);
  EXPECT_GT(stats.compressed_bytes, 0u);
  EXPECT_LT(stats.compressed_bytes, field.size() * sizeof(double));

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_EQ(out_dims, dims);
  ASSERT_EQ(recon.size(), field.size());
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, PweGuaranteeWithChunking) {
  // Volume not divisible by the chunk size: exercises remainder chunks.
  const Dims dims{70, 50, 30};
  const auto field = data::s3d_temperature(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.chunk_dims = Dims{32, 32, 32};

  Stats stats;
  const auto blob = compress(field.data(), dims, cfg, &stats);
  EXPECT_GT(stats.num_chunks, 1u);

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(ThreadRule, LanesAndTeamSplitTheBudget) {
  // team * lanes never exceeds the budget, and one chunk takes it all.
  EXPECT_EQ(chunk_lanes(4, 1), 4);
  EXPECT_EQ(chunk_lanes(4, 2), 2);
  EXPECT_EQ(chunk_lanes(4, 3), 1);
  EXPECT_EQ(chunk_lanes(4, 8), 1);
  EXPECT_EQ(chunk_lanes(8, 3), 2);
  EXPECT_EQ(chunk_lanes(1, 1), 1);
  EXPECT_EQ(chunk_lanes(4, 1, 3), 3);  // an explicit intra value is honored
  EXPECT_EQ(chunk_team(4, 1), 1);
  EXPECT_EQ(chunk_team(4, 2), 2);
  EXPECT_EQ(chunk_team(4, 8), 4);
  EXPECT_EQ(chunk_team(0, 8), 1);
  for (const int t : {1, 2, 3, 4, 8})
    for (const size_t c : {size_t(1), size_t(2), size_t(3), size_t(8)})
      EXPECT_LE(chunk_team(t, c) * chunk_lanes(t, c), t) << t << " threads, " << c;
}

TEST(SperrRoundTrip, ContainerIdenticalAcrossThreadsAndChunks) {
  // Whatever the budget's split into a chunk team and per-chunk lanes, the
  // container is the same bytes, and its chunks decode bit-identically at
  // any lane count — in PWE mode and in fixed-rate mode, whose budgeted
  // sweep stays serial while its lanes run the rest of the chunk.
  const Dims dims{48, 40, 36};
  const auto field = data::miranda_pressure(dims);
  const double t = tolerance_from_idx(field.data(), field.size(), 14);
  const Dims chunkings[] = {{48, 40, 36}, {48, 40, 18}, {24, 20, 18}};  // 1, 2, 8
  for (const Mode mode : {Mode::pwe, Mode::fixed_rate}) {
    for (const Dims chunk : chunkings) {
      SCOPED_TRACE(std::string(mode == Mode::pwe ? "pwe" : "fixed rate") + ", chunk " +
                   chunk.to_string());
      Config cfg;
      cfg.mode = mode;
      cfg.tolerance = t;
      cfg.bpp = 3.3;
      cfg.chunk_dims = chunk;
      std::vector<uint8_t> first;
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        cfg.num_threads = threads;
        const auto blob = compress(field.data(), dims, cfg);
        if (first.empty()) first = blob;
        ASSERT_EQ(blob, first) << "container bytes depend on the thread budget";
      }

      std::vector<double> recon;
      Dims out_dims;
      ASSERT_EQ(decompress(first.data(), first.size(), recon, out_dims), Status::ok);
      if (mode == Mode::pwe) EXPECT_LE(max_abs_err(field, recon), t);
      detail::OpenedContainer oc;
      ASSERT_EQ(detail::open_tolerant(first.data(), first.size(), Recovery::fail_fast,
                                      oc, nullptr),
                Status::ok);
      for (size_t i = 0; i < oc.chunks.size(); ++i) {
        std::vector<double> serial(oc.chunks[i].dims.total());
        ASSERT_FALSE(detail::decode_chunk(oc, i, Recovery::fail_fast, serial.data(),
                                          nullptr, 1)
                         .damaged());
        for (const int lanes : {2, 4}) {
          std::vector<double> par(serial.size());
          ASSERT_FALSE(detail::decode_chunk(oc, i, Recovery::fail_fast, par.data(),
                                            nullptr, lanes)
                           .damaged());
          ASSERT_EQ(par, serial) << "chunk " << i << " at " << lanes << " lanes";
        }
      }
    }
  }
}

TEST(SperrRoundTrip, TwoDimensionalSlice) {
  const Dims dims{128, 96, 1};
  const auto field = data::lighthouse_2d(dims);
  Config cfg;
  cfg.tolerance = 0.5;  // half a grey level

  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_EQ(out_dims, dims);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, OneDimensionalSignal) {
  const Dims dims{4096, 1, 1};
  Rng rng(3);
  std::vector<double> field(dims.total());
  double v = 0;
  for (auto& f : field) {
    v += rng.gaussian() * 0.1;  // random walk: smooth-ish
    f = v;
  }
  Config cfg;
  cfg.tolerance = 1e-3;
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, FloatInputRoundTrips) {
  const Dims dims{32, 32, 32};
  const auto field64 = data::nyx_dark_matter_density(dims);
  std::vector<float> field32(field64.begin(), field64.end());

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field32.data(), field32.size(), 10);
  const auto blob = compress(field32.data(), dims, cfg);

  std::vector<float> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(recon.size(), field32.size());
  double max_err = 0;
  for (size_t i = 0; i < recon.size(); ++i)
    max_err = std::max(max_err, std::fabs(double(field32[i]) - double(recon[i])));
  // Float conversion may add up to 1 ulp on top of the guarantee.
  EXPECT_LE(max_err, cfg.tolerance * (1.0 + 1e-5));
}

TEST(SperrRoundTrip, FixedRateModeHonoursBudget) {
  const Dims dims{64, 64, 64};
  const auto field = data::miranda_density(dims);
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 2.0;

  Stats stats;
  const auto blob = compress(field.data(), dims, cfg, &stats);
  // Final size must be near (at or under) the requested rate; the lossless
  // pass and headers add slack in both directions.
  EXPECT_LE(stats.bpp, cfg.bpp * 1.05 + 0.1);

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  // No error guarantee, but reconstruction must be sane.
  const auto q = [&] {
    double sq = 0;
    for (size_t i = 0; i < field.size(); ++i) {
      const double e = field[i] - recon[i];
      sq += e * e;
    }
    return std::sqrt(sq / double(field.size()));
  }();
  FieldStats fs = compute_stats(field.data(), field.size());
  EXPECT_LT(q, fs.stddev());  // better than predicting the mean
}

TEST(SperrRoundTrip, FixedRateErrorDecreasesWithRate) {
  const Dims dims{48, 48, 48};
  const auto field = data::miranda_viscosity(dims);
  double prev_rmse = 1e300;
  for (double bpp : {0.5, 1.0, 2.0, 4.0}) {
    Config cfg;
    cfg.mode = Mode::fixed_rate;
    cfg.bpp = bpp;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    double sq = 0;
    for (size_t i = 0; i < field.size(); ++i) {
      const double e = field[i] - recon[i];
      sq += e * e;
    }
    const double rmse = std::sqrt(sq / double(field.size()));
    EXPECT_LT(rmse, prev_rmse) << "bpp " << bpp;
    prev_rmse = rmse;
  }
}

TEST(SperrRoundTrip, LosslessPassTogglePreservesResults) {
  const Dims dims{32, 32, 8};
  const auto field = data::s3d_ch4(dims);
  for (bool lossless : {false, true}) {
    Config cfg;
    cfg.tolerance = 1e-4;
    cfg.lossless_pass = lossless;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
  }
}

TEST(SperrRoundTrip, InvalidConfigThrows) {
  const Dims dims{8, 8, 8};
  std::vector<double> field(dims.total(), 1.0);
  Config bad;
  bad.tolerance = 0.0;
  EXPECT_THROW((void)compress(field.data(), dims, bad), std::invalid_argument);
  Config bad_rate;
  bad_rate.mode = Mode::fixed_rate;
  bad_rate.bpp = -1.0;
  EXPECT_THROW((void)compress(field.data(), dims, bad_rate), std::invalid_argument);
}

TEST(SperrRoundTrip, OversizedChunkRejectedBeforeReadingData) {
  // A chunk of 2^31 or more samples is beyond what SPECK codes: Config
  // validation rejects the grid from its extents alone, before reading a
  // sample (the one-element buffer would be overrun otherwise).
  const std::vector<double> one(1, 0.0);
  Config cfg;
  cfg.tolerance = 1.0;
  const Dims huge{size_t(1) << 11, size_t(1) << 10, size_t(1) << 10};
  cfg.chunk_dims = huge;
  EXPECT_THROW((void)compress(one.data(), huge, cfg), std::invalid_argument);
  // The real extents decide, not the preferred ones: 1.5 * 2^29 samples
  // per preferred chunk, but absorbing the sliver of a 1.5 * 2^20 - 1
  // extent makes the one chunk ~1.1 * 2^31.
  cfg.chunk_dims = Dims{size_t(1) << 20, 3 * (size_t(1) << 9), 1};
  ASSERT_LT(cfg.chunk_dims.total(), size_t(1) << 31);
  const Dims sliver{(size_t(1) << 20) + (size_t(1) << 19) - 1, 3 * (size_t(1) << 9), 1};
  EXPECT_THROW((void)compress(one.data(), sliver, cfg), std::invalid_argument);
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 2.0;
  EXPECT_THROW((void)compress(one.data(), sliver, cfg), std::invalid_argument);
}

TEST(SperrRoundTrip, PweBoundHoldsBeyondFiftyPlanes) {
  // At idx 48 and 50 the step q = 1.5 t sits so far below the largest
  // wavelet coefficients that SPECK would need more than 50 planes; it
  // raises q to keep every chunk at <= 50, and the outlier stage still
  // brings every point within t.
  const Dims dims{40, 36, 20};
  const auto field = data::miranda_pressure(dims);
  bool clamped = false;
  for (const int idx : {48, 50}) {
    SCOPED_TRACE("idx=" + std::to_string(idx));
    Config cfg;
    cfg.tolerance = tolerance_from_idx(field.data(), field.size(), idx);
    cfg.chunk_dims = Dims{24, 24, 24};
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> out;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), out, od), Status::ok);
    EXPECT_LE(max_abs_err(field, out), cfg.tolerance);

    std::vector<uint8_t> inner;
    ContainerHeader hdr;
    size_t pos = 0;
    ASSERT_EQ(open_container(blob.data(), blob.size(), inner, hdr, &pos), Status::ok);
    ASSERT_GT(hdr.entries.size(), 1u);
    for (const ChunkEntry& e : hdr.entries) {
      ByteReader br(inner.data() + pos, e.speck_len);
      speck::Header sh;
      ASSERT_EQ(sh.deserialize(br), Status::ok);
      EXPECT_LE(sh.n_max, 50);
      clamped |= sh.q > cfg.q_over_t * cfg.tolerance;
      pos += e.total_len();
    }
  }
  EXPECT_TRUE(clamped) << "no chunk needed the q clamp; raise idx";
}

TEST(SperrRoundTrip, NonFiniteInputRejected) {
  const Dims dims{8, 8, 8};
  Config cfg;
  cfg.tolerance = 1e-3;
  std::vector<double> with_nan(dims.total(), 1.0);
  with_nan[100] = std::nan("");
  EXPECT_THROW((void)compress(with_nan.data(), dims, cfg), std::invalid_argument);
  std::vector<double> with_inf(dims.total(), 1.0);
  with_inf[7] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)compress(with_inf.data(), dims, cfg), std::invalid_argument);
}

TEST(SperrRoundTrip, CorruptStreamRejected) {
  std::vector<uint8_t> garbage(100, 0x5a);
  std::vector<double> out;
  Dims dims;
  EXPECT_NE(decompress(garbage.data(), garbage.size(), out, dims), Status::ok);
}

TEST(SperrRoundTrip, TamperedPayloadDetectedOrBounded) {
  const Dims dims{32, 32, 1};
  const auto field = data::lighthouse_2d(dims);
  Config cfg;
  cfg.tolerance = 0.5;
  cfg.lossless_pass = false;  // tamper with the raw coder payload
  auto blob = compress(field.data(), dims, cfg);
  blob[blob.size() / 2] ^= 0xff;
  std::vector<double> recon;
  Dims od;
  // A flipped payload byte may still "decode" (entropy-coded bits have no
  // checksum) but must never crash and must return a full-size field.
  const Status s = decompress(blob.data(), blob.size(), recon, od);
  if (s == Status::ok) {
    EXPECT_EQ(recon.size(), field.size());
  }
}

TEST(Tolerance, TableOneTranslation) {
  std::vector<double> field = {0.0, 1024.0};  // range 1024
  EXPECT_DOUBLE_EQ(tolerance_from_idx(field.data(), field.size(), 10), 1.0);
  EXPECT_DOUBLE_EQ(tolerance_from_idx(field.data(), field.size(), 20),
                   1024.0 / (1024.0 * 1024.0));
}

}  // namespace
}  // namespace sperr
