// Golden-stream regression tests: committed .sperr fixtures produced by
// sperr::compress at a pinned configuration. A fresh encode of the same
// deterministic synthetic field must reproduce the fixture byte for byte,
// and decoding the fixture must honor the mode's quality contract. Any
// unintentional change to the wavelet transform, SPECK coder, outlier
// coder, lossless back end, or container layout trips these immediately.
//
// Regenerating (after an INTENTIONAL format/coder change):
//   SPERR_GOLDEN_REGEN=1 ./test_golden  # rewrites tests/golden/*.sperr
// then commit the new fixtures together with the change that motivated them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/byteio.h"
#include "data/synthetic.h"
#include "sperr/header.h"
#include "sperr/outofcore.h"
#include "sperr/sperr.h"

namespace sperr {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("SPERR_GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/// Compress the field, compare byte-for-byte against the committed fixture
/// (or rewrite it under SPERR_GOLDEN_REGEN=1), then decode the FIXTURE bytes
/// and hand the reconstruction back for mode-specific checks.
void check_golden(const std::string& name, const std::vector<double>& field,
                  Dims dims, const Config& cfg, std::vector<double>& recon) {
  const auto fresh = compress(field.data(), dims, cfg);
  const std::string path = golden_path(name);
  if (regen_requested()) write_file(path, fresh);

  const auto golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << path << " missing — run with SPERR_GOLDEN_REGEN=1";
  ASSERT_EQ(fresh.size(), golden.size()) << name << ": stream length changed";
  ASSERT_EQ(fresh, golden) << name << ": stream bytes changed";

  Dims out_dims;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(out_dims.x, dims.x);
  ASSERT_EQ(out_dims.y, dims.y);
  ASSERT_EQ(out_dims.z, dims.z);
  ASSERT_EQ(recon.size(), dims.total());
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_TRUE(std::isfinite(recon[i])) << name << " index " << i;
}

TEST(GoldenStreams, Pwe3dOddDims) {
  const Dims dims{33, 17, 9};  // odd, non-power-of-two extents
  const auto field = data::miranda_pressure(dims, 7);
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = 0.02;
  std::vector<double> recon;
  check_golden("pwe_3d.sperr", field, dims, cfg, recon);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), cfg.tolerance) << "index " << i;
}

TEST(GoldenStreams, FixedRate3d) {
  const Dims dims{32, 32, 16};
  const auto field = data::nyx_dark_matter_density(dims, 3);
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 2.0;
  std::vector<double> recon;
  check_golden("rate_3d.sperr", field, dims, cfg, recon);
  // No point-wise bound in this mode; the budget bound is the contract.
  const auto golden = read_file(golden_path("rate_3d.sperr"));
  EXPECT_LT(double(golden.size()) * 8.0 / double(dims.total()), cfg.bpp * 1.25);
}

TEST(GoldenStreams, Pwe2dSlice) {
  const Dims dims{48, 37, 1};  // 2D: quadtree partitioning path
  const auto field = data::lighthouse_2d(dims, 11);
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = 0.005;
  std::vector<double> recon;
  check_golden("pwe_2d.sperr", field, dims, cfg, recon);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), cfg.tolerance) << "index " << i;
}

// ---- Retired container versions ---------------------------------------------
// The *_v2.sperr fixtures are frozen bytes of container v2 (lossless format
// 2), which only earlier development builds wrote. Decoders read container
// v3 with lossless format 3 only, so every decode entry point must refuse
// them as unsupported_version — never decode them, never call them corrupt.

/// Every whole-container decoder refuses `blob` as unsupported_version and
/// reports the wrapper's version byte `version` where a report exists.
void expect_refused(const std::vector<uint8_t>& blob, uint8_t version,
                    const std::string& what) {
  SCOPED_TRACE(what);
  std::vector<double> out;
  Dims od;
  EXPECT_EQ(decompress(blob.data(), blob.size(), out, od), Status::unsupported_version);
  EXPECT_TRUE(out.empty());
  std::vector<float> out32;
  EXPECT_EQ(decompress(blob.data(), blob.size(), out32, od),
            Status::unsupported_version);
  EXPECT_TRUE(out32.empty());
  EXPECT_EQ(decompress_lowres(blob.data(), blob.size(), 1, out, od),
            Status::unsupported_version);
  for (const Recovery policy :
       {Recovery::fail_fast, Recovery::zero_fill, Recovery::coarse_fill}) {
    DecodeReport rep;
    EXPECT_EQ(decompress_tolerant(blob.data(), blob.size(), policy, out, od, &rep),
              Status::unsupported_version);
    EXPECT_EQ(rep.status, Status::unsupported_version);
    EXPECT_EQ(rep.version, version);
    EXPECT_FALSE(rep.header_ok);
    EXPECT_FALSE(rep.field_valid);
    EXPECT_TRUE(rep.chunks.empty());
  }
  DecodeReport rep;
  EXPECT_EQ(verify_container(blob.data(), blob.size(), &rep),
            Status::unsupported_version);
  EXPECT_EQ(rep.version, version);
  EXPECT_TRUE(rep.chunks.empty());

  // The out-of-core reader refuses it before creating any output file.
  const std::string dir = ::testing::TempDir();
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string in_path = dir + "/golden_" + name + ".sperr";
  const std::string out_path = dir + "/golden_" + name + ".raw";
  write_file(in_path, blob);
  std::remove(out_path.c_str());
  for (const Recovery policy : {Recovery::fail_fast, Recovery::zero_fill}) {
    DecodeReport frep;
    EXPECT_EQ(outofcore::decompress_file(in_path, out_path, 8, policy, &frep),
              Status::unsupported_version);
    EXPECT_EQ(frep.version, version);
  }
  EXPECT_FALSE(std::ifstream(out_path).good()) << "refusal wrote " << out_path;
  std::remove(in_path.c_str());
}

/// A v2 fixture is refused as it is, and again with its version byte set to
/// 3: a v3 wrapper around a lossless format-2 payload, which development
/// builds between container v3 and lossless format 3 wrote.
void check_retired_v2(const std::string& name) {
  const auto golden = read_file(golden_path(name));
  ASSERT_FALSE(golden.empty()) << name << " missing (frozen fixture, never regenerated)";
  ASSERT_EQ(golden[4], 2u) << name << " is not a v2 container";
  ASSERT_EQ(golden[5], 1u) << name << " carries no lossless payload";
  ASSERT_EQ(golden[14], 2u) << name << " lossless payload is not format 2";
  expect_refused(golden, 2, name);

  auto v3_wrapper = golden;
  v3_wrapper[4] = ContainerHeader::kVersion;
  expect_refused(v3_wrapper, ContainerHeader::kVersion, name + " in a v3 wrapper");
}

TEST(GoldenStreams, RetiredV2Pwe3dRefused) { check_retired_v2("pwe_3d_v2.sperr"); }

TEST(GoldenStreams, RetiredV2Pwe2dRefused) { check_retired_v2("pwe_2d_v2.sperr"); }

TEST(GoldenStreams, RetiredV2FixedRateRefused) { check_retired_v2("rate_3d_v2.sperr"); }

TEST(GoldenStreams, SynthesizedV1Refused) {
  // No v1 fixture was ever committed (v1 predates the golden harness), so
  // build one in-test: encode fresh, then rewrite the container in the v1
  // layout — 16-byte directory entries, no checksums, plain (non-lossless)
  // outer wrapper with version byte 1.
  const Dims dims{30, 22, 5};
  const auto field = data::miranda_pressure(dims, 13);
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = 0.01;
  cfg.lossless_pass = false;
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  size_t payload_pos = 0;
  ASSERT_EQ(open_container(blob.data(), blob.size(), inner, hdr, &payload_pos),
            Status::ok);

  std::vector<uint8_t> v1_inner;
  put_u32(v1_inner, ContainerHeader::kInnerMagic);
  put_u8(v1_inner, uint8_t(hdr.mode));
  put_u8(v1_inner, hdr.precision);
  put_u64(v1_inner, hdr.dims.x);
  put_u64(v1_inner, hdr.dims.y);
  put_u64(v1_inner, hdr.dims.z);
  put_u64(v1_inner, hdr.chunk_dims.x);
  put_u64(v1_inner, hdr.chunk_dims.y);
  put_u64(v1_inner, hdr.chunk_dims.z);
  put_f64(v1_inner, hdr.quality);
  put_u32(v1_inner, uint32_t(hdr.entries.size()));
  for (const ChunkEntry& e : hdr.entries) {
    put_u64(v1_inner, e.speck_len);
    put_u64(v1_inner, e.outlier_len);
  }
  v1_inner.insert(v1_inner.end(), inner.begin() + ptrdiff_t(payload_pos),
                  inner.end());

  std::vector<uint8_t> v1_blob;
  put_u32(v1_blob, ContainerHeader::kOuterMagic);
  put_u8(v1_blob, 1);  // version
  put_u8(v1_blob, 0);  // no lossless pass
  put_u64(v1_blob, v1_inner.size());
  v1_blob.insert(v1_blob.end(), v1_inner.begin(), v1_inner.end());

  expect_refused(v1_blob, 1, "synthesized v1");
}

}  // namespace
}  // namespace sperr
