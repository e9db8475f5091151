// Differential tests: the flattened production SPECK coder (speck::encode /
// speck::decode) against the recursive reference coder it replaced
// (encode_reference / decode_reference). The contract is total: bit-identical
// streams, equal EncodeStats (bit for bit, including the estimated RMSE
// double), identical exported reconstructions, and identical decodes — over
// randomized shapes including degenerate ones, budgeted and unbudgeted
// modes, and adversarial magnitudes (exact powers of two sit right on the
// strict significance threshold). Plus the embedded-prefix property the
// format guarantees: any prefix decodes to a finite field whose coefficient
// RMSE never increases as the prefix grows.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "speck/common.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "speck/settree.h"

namespace sperr::speck {
namespace {

/// Heavy-tailed coefficients with adversarial values mixed in: exact
/// power-of-two multiples of q (the strict `m > 2^n` boundary), exact
/// threshold magnitudes, negative zeros, and dead-zone values.
std::vector<double> adversarial_coeffs(Dims dims, uint64_t seed, double q) {
  Rng rng(seed);
  std::vector<double> c(dims.total());
  for (auto& v : c) {
    const double u = rng.uniform();
    if (u < 0.08) {
      v = (rng.next() & 1 ? -1.0 : 1.0) * std::ldexp(q, int(rng.below(12)));
    } else if (u < 0.12) {
      v = rng.next() & 1 ? -0.0 : 0.0;
    } else if (u < 0.2) {
      v = rng.uniform(-q, q);  // dead zone
    } else {
      const double scale = u < 0.25 ? 1000.0 : (u < 0.55 ? 10.0 : 0.1);
      v = rng.gaussian() * scale * q;
    }
  }
  return c;
}

void expect_stats_equal(const EncodeStats& a, const EncodeStats& b) {
  EXPECT_EQ(a.payload_bits, b.payload_bits);
  EXPECT_EQ(a.planes_coded, b.planes_coded);
  EXPECT_EQ(a.significant_count, b.significant_count);
  // Bit-for-bit: the fast coder performs the same double arithmetic in the
  // same order.
  EXPECT_EQ(a.estimated_coeff_rmse, b.estimated_coeff_rmse);
}

void expect_decode_stats_equal(const DecodeStats& a, const DecodeStats& b) {
  EXPECT_EQ(a.bits_consumed, b.bits_consumed);
  EXPECT_EQ(a.significant_count, b.significant_count);
  EXPECT_EQ(a.truncated, b.truncated);
}

/// The thread counts every case in the differential wall is held to. 1 is
/// the serial sweep engine; 2/3/4/8 exercise the sliced sweeps, the slice
/// merge, the discovery-time recon/error-term tail and the parallel tree
/// build — an odd lane count included, and more lanes than a small machine
/// has cores (correctness must not depend on real concurrency).
constexpr int kThreadWall[] = {1, 2, 3, 4, 8};

/// Full differential check of one (dims, q, budget, seed) cell, at every
/// thread count in kThreadWall: the encoded stream must be byte-identical
/// to the reference coder's (and so to every other thread count), per-pass
/// bit counts must be thread-invariant, and decodes bit-identical.
void expect_coders_identical(Dims dims, double q, size_t budget, uint64_t seed) {
  SCOPED_TRACE(dims.to_string() + " q=" + std::to_string(q) +
               " budget=" + std::to_string(budget) + " seed=" + std::to_string(seed));
  const auto coeffs = adversarial_coeffs(dims, seed, q);

  EncodeStats ref_stats, fast_stats;
  std::vector<double> ref_recon, fast_recon;
  const auto ref = encode_reference(coeffs.data(), dims, q, budget, &ref_stats, &ref_recon);
  const auto fast = encode(coeffs.data(), dims, q, budget, &fast_stats, &fast_recon);

  ASSERT_EQ(fast, ref) << "stream bytes diverge";
  expect_stats_equal(fast_stats, ref_stats);
  ASSERT_EQ(fast_recon.size(), ref_recon.size());
  for (size_t i = 0; i < ref_recon.size(); ++i)
    ASSERT_EQ(fast_recon[i], ref_recon[i]) << "recon coefficient " << i;

  // Thread-sweep wall: parallel encodes must reproduce the reference stream
  // byte for byte, with identical stats, recon exports, and per-pass bit
  // counts (the wall-clock pass timings are the only fields allowed to
  // differ).
  for (const int t : kThreadWall) {
    SCOPED_TRACE("encode threads=" + std::to_string(t));
    EncodeStats ts;
    std::vector<double> trecon;
    const auto par = encode(coeffs.data(), dims, q, budget, &ts, &trecon, t);
    ASSERT_EQ(par, ref) << "stream bytes diverge from reference";
    expect_stats_equal(ts, ref_stats);
    ASSERT_EQ(ts.passes.size(), fast_stats.passes.size());
    for (size_t i = 0; i < ts.passes.size(); ++i) {
      ASSERT_EQ(ts.passes[i].plane, fast_stats.passes[i].plane);
      ASSERT_EQ(ts.passes[i].sorting_bits, fast_stats.passes[i].sorting_bits);
      ASSERT_EQ(ts.passes[i].refinement_bits,
                fast_stats.passes[i].refinement_bits);
    }
    ASSERT_EQ(trecon, ref_recon);
  }

  // Decode differential: full stream and a mid-stream truncation, each at
  // every thread count.
  const size_t cuts[] = {ref.size(), Header::kBytes + (ref.size() - Header::kBytes) / 2};
  for (const size_t nbytes : cuts) {
    SCOPED_TRACE("decode nbytes=" + std::to_string(nbytes));
    std::vector<double> ref_out(dims.total());
    DecodeStats ref_ds;
    ASSERT_EQ(decode_reference(ref.data(), nbytes, dims, ref_out.data(), &ref_ds),
              Status::ok);
    for (const int t : kThreadWall) {
      SCOPED_TRACE("decode threads=" + std::to_string(t));
      std::vector<double> fast_out(dims.total());
      DecodeStats fast_ds;
      ASSERT_EQ(decode(ref.data(), nbytes, dims, fast_out.data(), &fast_ds, t),
                Status::ok);
      expect_decode_stats_equal(fast_ds, ref_ds);
      for (size_t i = 0; i < ref_out.size(); ++i)
        ASSERT_EQ(fast_out[i], ref_out[i]) << "decoded coefficient " << i;
    }
  }
}

TEST(SpeckFast, DegenerateShapesMatchReference) {
  const Dims shapes[] = {{1, 1, 1}, {2, 1, 1},  {1, 7, 1},   {1, 1, 64},
                         {1, 31, 17}, {5, 1, 9}, {64, 1, 1},  {3, 3, 3},
                         {33, 17, 1}, {16, 16, 16}, {13, 9, 5}, {40, 25, 7}};
  uint64_t seed = 100;
  for (const Dims& d : shapes) {
    expect_coders_identical(d, 0.5, 0, ++seed);
    expect_coders_identical(d, 1.3, 0, ++seed);
  }
}

TEST(SpeckFast, BudgetedModesMatchReference) {
  const Dims shapes[] = {{32, 32, 1}, {16, 16, 8}, {1, 48, 3}, {25, 11, 4}};
  uint64_t seed = 300;
  for (const Dims& d : shapes) {
    const size_t n = d.total();
    // Budgets from starving (a handful of bits) through mid-stream to
    // beyond the unbudgeted stream length.
    for (const size_t budget : {size_t(3), size_t(64), n / 2, 2 * n, 100 * n})
      expect_coders_identical(d, 0.25, budget, ++seed);
  }
}

TEST(SpeckFast, RandomizedShapeSweepMatchesReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Random ranks and extents, biased toward awkward non-power-of-two
    // shapes and thin slabs.
    const int rank = 1 + int(rng.below(3));
    size_t e[3] = {1, 1, 1};
    for (int a = 0; a < rank; ++a) e[a] = 1 + rng.below(40);
    const Dims dims{e[rng.below(3) % 3], e[(1 + rng.below(3)) % 3], e[2]};
    const double q = std::ldexp(1.0, int(rng.below(6)) - 3) * (1.0 + rng.uniform());
    const size_t budget = (rng.next() & 1) ? 0 : 1 + rng.below(8 * dims.total());
    expect_coders_identical(dims, q, budget, 4000 + uint64_t(trial));
  }
}

TEST(SpeckFast, PureSyntheticSpecialsMatchReference) {
  // All-zero, constant, all-dead-zone, and single-spike fields.
  const Dims dims{24, 24, 6};
  const size_t n = dims.total();
  std::vector<double> field(n, 0.0);
  auto check = [&](const char* what) {
    SCOPED_TRACE(what);
    EncodeStats rs, fs;
    const auto ref = encode_reference(field.data(), dims, 0.5, 0, &rs);
    const auto fast = encode(field.data(), dims, 0.5, 0, &fs);
    ASSERT_EQ(fast, ref);
    expect_stats_equal(fs, rs);
  };
  check("all zero");
  field.assign(n, 0.4);
  check("dead zone constant");
  field.assign(n, 0.0);
  field[dims.index(17, 5, 3)] = -777.25;
  check("single spike");
  field.assign(n, 8.0);  // exactly 2^4 * q: max magnitude on a plane boundary
  check("power-of-two constant");
}

TEST(SpeckFast, PlaneOfMatchesStrictThresholdSemantics) {
  // plane_of(m) must equal the largest n >= 0 with m > 2^n under plain
  // double comparison — the reference coder's significance test.
  auto brute = [](double m) {
    int16_t p = kDeadPlane;
    for (int n = 0; n <= 40; ++n)
      if (m > std::ldexp(1.0, n)) p = int16_t(n);
    return p;
  };
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const double m = std::ldexp(1.0 + rng.uniform(), int(rng.below(38)) - 2);
    ASSERT_EQ(plane_of(m), brute(m)) << "m=" << m;
  }
  for (int k = 0; k <= 38; ++k) {
    const double pow2 = std::ldexp(1.0, k);
    ASSERT_EQ(plane_of(pow2), brute(pow2)) << "2^" << k;           // exact boundary
    ASSERT_EQ(plane_of(std::nextafter(pow2, 2 * pow2)), brute(std::nextafter(pow2, 2 * pow2)));
    ASSERT_EQ(plane_of(std::nextafter(pow2, 0.0)), brute(std::nextafter(pow2, 0.0)));
  }
  EXPECT_EQ(plane_of(0.0), kDeadPlane);
  EXPECT_EQ(plane_of(1.0), kDeadPlane);
  EXPECT_EQ(plane_of(0.999), kDeadPlane);
  EXPECT_EQ(plane_of(std::numeric_limits<double>::infinity()), kMaxPlane);
}

TEST(SpeckFast, EmbeddedPrefixSweepIsFiniteAndMonotone) {
  // The embedded-prefix invariant, swept densely: decoding ANY prefix of a
  // SPECK stream yields a finite field, and the coefficient RMSE is
  // non-increasing as the prefix grows byte by byte.
  const Dims dims{20, 18, 3};
  const auto coeffs = adversarial_coeffs(dims, 77, 0.05);
  const auto stream = encode(coeffs.data(), dims, 0.05);
  ASSERT_GT(stream.size(), Header::kBytes + 8);

  std::vector<double> recon(dims.total());
  double prev_rmse = 1e300;
  // Every byte boundary near the front (where planes are coarse and error
  // moves fastest), then every 5th byte to the end.
  for (size_t nbytes = Header::kBytes; nbytes <= stream.size();
       nbytes += (nbytes < Header::kBytes + 64 ? 1 : 5)) {
    ASSERT_EQ(decode(stream.data(), nbytes, dims, recon.data()), Status::ok);
    double sq = 0.0;
    for (size_t i = 0; i < recon.size(); ++i) {
      ASSERT_TRUE(std::isfinite(recon[i])) << "prefix " << nbytes << " index " << i;
      const double e = coeffs[i] - recon[i];
      sq += e * e;
    }
    const double rmse = std::sqrt(sq / double(recon.size()));
    EXPECT_LE(rmse, prev_rmse * (1.0 + 1e-9)) << "prefix bytes " << nbytes;
    prev_rmse = rmse;
  }
  EXPECT_LT(prev_rmse, 0.05);  // the full stream hits the quantization floor
}

/// Truncate `stream` to exactly `nbits` payload bits: patch the header's
/// nbits field (u64 LE at byte offset 14) and drop the surplus payload
/// bytes. This is the format's own embedded-truncation mechanism.
std::vector<uint8_t> truncate_to_bits(const std::vector<uint8_t>& stream,
                                      uint64_t nbits) {
  std::vector<uint8_t> cut(stream.begin(),
                           stream.begin() + long(Header::kBytes + (nbits + 7) / 8));
  for (int b = 0; b < 8; ++b) cut[14 + size_t(b)] = uint8_t(nbits >> (8 * b));
  return cut;
}

TEST(SpeckFast, PrefixAtPlaneBoundaryEqualsCoarserQualityEncode) {
  // The embedding property, exactly: cutting a stream at the end of plane
  // k's passes is the SAME coder run at quantization step q*2^k. Both the
  // payload bits and the decoded coefficients must match bit for bit —
  // binary scaling shifts every significance test, refinement bit, and
  // reconstruction by exact powers of two.
  const Dims dims{30, 22, 9};
  const double q = 0.04;
  const auto coeffs = adversarial_coeffs(dims, 4242, q);

  EncodeStats stats;
  const auto stream = encode(coeffs.data(), dims, q, 0, &stats);
  ASSERT_GT(stats.passes.size(), 3u);

  std::vector<double> full(dims.total());
  ASSERT_EQ(decode(stream.data(), stream.size(), dims, full.data()), Status::ok);

  double prev_rmse = 1e300;
  // Walk boundaries coarse-to-fine (passes run top plane first), checking
  // the prefix/quality equivalence at each and RMSE monotonicity across
  // them.
  uint64_t prefix_bits = 0;
  for (const auto& pass : stats.passes) {
    prefix_bits += pass.sorting_bits + pass.refinement_bits;
    const int32_t k = pass.plane;
    SCOPED_TRACE("boundary after plane " + std::to_string(k));

    // Re-encode at the coarser step q2 = q * 2^k: payload must equal the
    // prefix exactly, bit count included.
    const double q2 = std::ldexp(q, int(k));
    EncodeStats s2;
    const auto coarse = encode(coeffs.data(), dims, q2, 0, &s2);
    ASSERT_EQ(uint64_t(s2.payload_bits), prefix_bits);
    for (uint64_t bit = 0; bit < prefix_bits; ++bit) {
      const size_t byte = Header::kBytes + size_t(bit / 8);
      const unsigned sh = unsigned(bit % 8);
      ASSERT_EQ((stream[byte] >> sh) & 1, (coarse[byte] >> sh) & 1)
          << "payload bit " << bit;
    }

    // Decode the truncated stream and the coarse stream: identical doubles.
    const auto cut = truncate_to_bits(stream, prefix_bits);
    std::vector<double> cut_out(dims.total()), coarse_out(dims.total());
    ASSERT_EQ(decode(cut.data(), cut.size(), dims, cut_out.data()), Status::ok);
    ASSERT_EQ(decode(coarse.data(), coarse.size(), dims, coarse_out.data()),
              Status::ok);
    for (size_t i = 0; i < cut_out.size(); ++i)
      ASSERT_EQ(cut_out[i], coarse_out[i]) << "coefficient " << i;

    // Quality is monotone across plane boundaries (strictly more planes,
    // never worse RMSE).
    double sq = 0.0;
    for (size_t i = 0; i < cut_out.size(); ++i) {
      const double e = coeffs[i] - cut_out[i];
      sq += e * e;
    }
    const double rmse = std::sqrt(sq / double(dims.total()));
    EXPECT_LE(rmse, prev_rmse * (1.0 + 1e-12));
    prev_rmse = rmse;
  }
  // The last boundary is the whole stream.
  ASSERT_EQ(prefix_bits, uint64_t(stats.payload_bits));
}

TEST(SpeckFast, PerPassBitCountsPartitionThePayload) {
  // EncodeStats::passes is the ground truth the prefix machinery and the
  // bench records rely on: pass bit counts must sum to the payload exactly,
  // planes must descend from n_max, and every count must be reproducible
  // across thread counts (checked per-case in the differential wall; here
  // across a real field too).
  const Dims dims{40, 33, 11};
  const auto coeffs = adversarial_coeffs(dims, 777, 0.1);
  EncodeStats st;
  const auto stream = encode(coeffs.data(), dims, 0.1, 0, &st);
  ASSERT_FALSE(st.passes.size() == 0);
  uint64_t sum = 0;
  int32_t prev_plane = st.passes.front().plane + 1;
  for (const auto& p : st.passes) {
    EXPECT_EQ(p.plane, prev_plane - 1) << "planes must descend consecutively";
    prev_plane = p.plane;
    sum += p.sorting_bits + p.refinement_bits;
  }
  EXPECT_EQ(st.passes.back().plane, 0);
  EXPECT_EQ(sum, uint64_t(st.payload_bits));

  for (const int t : kThreadWall) {
    EncodeStats ts;
    (void)encode(coeffs.data(), dims, 0.1, 0, &ts, nullptr, t);
    ASSERT_EQ(ts.passes.size(), st.passes.size());
    for (size_t i = 0; i < ts.passes.size(); ++i) {
      EXPECT_EQ(ts.passes[i].sorting_bits, st.passes[i].sorting_bits);
      EXPECT_EQ(ts.passes[i].refinement_bits, st.passes[i].refinement_bits);
    }
  }
}

TEST(SpeckFast, LargeBucketSlicesMatchReference) {
  // Buckets of thousands of entries, so every lane count cuts them into
  // many slices claimed out of order, and the merges carry long arrival,
  // refinement and error-term runs.
  expect_coders_identical({45, 37, 29}, 0.05, 0, 77);
  expect_coders_identical({128, 96, 1}, 0.5, 0, 78);
}

TEST(SpeckFast, EncoderOnCallerPoolMatchesOwnLanes) {
  // A caller-supplied pool (how the pipeline shares one set of lanes across
  // a chunk's stages) is the same encode as lanes the coder makes itself.
  const Dims dims{33, 29, 17};
  const double q = 0.25;
  const auto coeffs = adversarial_coeffs(dims, 91, q);
  EncodeStats own_stats, shared_stats;
  std::vector<double> own_recon, shared_recon;
  const auto own = encode(coeffs.data(), dims, q, 0, &own_stats, &own_recon, 1);
  TaskPool pool(3);
  const auto shared =
      encode(coeffs.data(), dims, q, 0, &shared_stats, &shared_recon, 1, &pool);
  EXPECT_EQ(shared, own);
  expect_stats_equal(shared_stats, own_stats);
  EXPECT_EQ(shared_stats.threads_used, 3);
  EXPECT_EQ(shared_recon, own_recon);
  std::vector<double> a(dims.total()), b(dims.total());
  ASSERT_EQ(decode(own.data(), own.size(), dims, a.data()), Status::ok);
  ASSERT_EQ(decode(own.data(), own.size(), dims, b.data(), nullptr, 1, &pool),
            Status::ok);
  EXPECT_EQ(a, b);
}

TEST(SpeckFast, ParallelSetTreeBuildMatchesSerialNodeForNode) {
  // The lanes build subtrees at precomputed DFS offsets; the tree must be
  // the serial walk's, record for record, on cubes, odd extents, slabs and
  // thin lines (whose frontier has few, very unequal tasks) — and so must
  // the plane fill that follows the same split.
  const Dims shapes[] = {{1, 1, 1},   {2, 1, 1},  {1, 1, 300}, {7, 5, 3},
                         {33, 17, 1}, {1, 9, 2},  {16, 16, 16}, {65, 33, 17},
                         {3, 257, 1}, {40, 25, 7}};
  for (const Dims dims : shapes) {
    SCOPED_TRACE(dims.to_string());
    std::vector<int16_t> planes(dims.total());
    for (size_t i = 0; i < planes.size(); ++i) planes[i] = int16_t((i * 7919) % 13 - 1);
    SetTree serial;
    serial.build(dims);
    serial.fill_planes(planes.data());
    for (const int lanes : {2, 3, 4}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      TaskPool pool(lanes);
      SetTree par;
      par.build(dims, &pool);
      par.fill_planes(planes.data(), &pool);
      ASSERT_EQ(par.node_count(), serial.node_count());
      EXPECT_EQ(par.depth_counts(), serial.depth_counts());
      size_t per_depth_total = 0;
      for (const size_t c : par.depth_counts()) per_depth_total += c;
      EXPECT_EQ(per_depth_total, par.node_count());
      for (uint32_t id = 0; id < serial.node_count(); ++id) {
        ASSERT_EQ(par.child_count(id), serial.child_count(id)) << "node " << id;
        ASSERT_EQ(par.first_child(id), serial.first_child(id)) << "node " << id;
        ASSERT_EQ(par.plane(id), serial.plane(id)) << "node " << id;
      }
    }
  }
}

TEST(SpeckFast, SetTreeCoversGridExactly) {
  // Structural invariants of the flattened tree: leaves partition the grid
  // (every linear index exactly once), children are contiguous and ordered,
  // and fill_planes propagates the max upward.
  for (const Dims dims : {Dims{7, 5, 3}, Dims{1, 9, 2}, Dims{16, 16, 1}, Dims{4, 4, 4}}) {
    SCOPED_TRACE(dims.to_string());
    SetTree t;
    t.build(dims);
    std::vector<int> seen(dims.total(), 0);
    size_t leaves = 0;
    for (uint32_t id = 0; id < t.node_count(); ++id) {
      if (!t.is_leaf(id)) {
        ASSERT_GE(t.child_count(id), 2u);
        ASSERT_GT(t.first_child(id), id);  // DFS ids: children after parent
        continue;
      }
      ++leaves;
      ASSERT_LT(t.coeff_index(id), dims.total());
      ++seen[t.coeff_index(id)];
    }
    EXPECT_EQ(leaves, dims.total());
    for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << "index " << i;

    std::vector<int16_t> planes(dims.total());
    for (size_t i = 0; i < planes.size(); ++i) planes[i] = int16_t(i % 7);
    t.fill_planes(planes.data());
    int16_t expect_root = 0;
    for (int16_t p : planes) expect_root = std::max(expect_root, p);
    EXPECT_EQ(t.plane(0), expect_root);
  }
}

}  // namespace
}  // namespace sperr::speck
