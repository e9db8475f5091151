#include "oracles/raw_bitplane.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "speck/encoder.h"

namespace sperr::speck {
namespace {

TEST(RawBitplane, SameQuantizationContractAsSpeck) {
  Rng rng(61);
  const Dims dims{16, 16, 4};
  std::vector<double> coeffs(dims.total());
  for (auto& v : coeffs) v = rng.gaussian() * 10.0;
  const double q = 0.25;

  const auto stream = raw_bitplane_encode(coeffs.data(), dims, q);
  std::vector<double> recon(dims.total());
  ASSERT_EQ(raw_bitplane_decode(stream.data(), stream.size(), dims, recon.data()),
            Status::ok);
  for (size_t i = 0; i < coeffs.size(); ++i) {
    if (std::fabs(coeffs[i]) <= q) {
      EXPECT_EQ(recon[i], 0.0);
    } else {
      EXPECT_LE(std::fabs(coeffs[i] - recon[i]), q / 2 + 1e-12);
      EXPECT_EQ(std::signbit(coeffs[i]), std::signbit(recon[i]));
    }
  }
}

TEST(RawBitplane, AllZeroInput) {
  const Dims dims{8, 8, 8};
  std::vector<double> zeros(dims.total(), 0.0);
  const auto stream = raw_bitplane_encode(zeros.data(), dims, 1.0);
  std::vector<double> recon(dims.total(), 7.0);
  ASSERT_EQ(raw_bitplane_decode(stream.data(), stream.size(), dims, recon.data()),
            Status::ok);
  for (double v : recon) EXPECT_EQ(v, 0.0);
}

TEST(RawBitplane, SpeckBeatsItOnSparseCoefficients) {
  // The whole point of set partitioning: on sparse data (a few significant
  // coefficients in a sea of zeros) SPECK's stream must be much smaller.
  Rng rng(62);
  const Dims dims{32, 32, 32};
  std::vector<double> coeffs(dims.total(), 0.0);
  for (int i = 0; i < 200; ++i)
    coeffs[rng.below(coeffs.size())] = rng.gaussian() * 100.0;

  const auto speck_stream = encode(coeffs.data(), dims, 0.5);
  const auto dense_stream = raw_bitplane_encode(coeffs.data(), dims, 0.5);
  EXPECT_LT(speck_stream.size() * 5, dense_stream.size());
}

TEST(RawBitplane, GarbageRejected) {
  std::vector<uint8_t> garbage = {1, 2, 3};
  std::vector<double> recon(8);
  EXPECT_NE(raw_bitplane_decode(garbage.data(), garbage.size(), Dims{8, 1, 1},
                                recon.data()),
            Status::ok);
}

}  // namespace
}  // namespace sperr::speck
