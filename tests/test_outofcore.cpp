#include "sperr/outofcore.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/synthetic.h"
#include "sperr/sperr.h"

namespace sperr::outofcore {
namespace {

/// This process's private scratch directory, made once by mkdtemp with the
/// pid in its name. ctest runs every test case in its own process, so a
/// per-process counter alone would hand concurrent cases the same paths.
/// Removed at exit by the process that made it (forked children _exit).
class ProcessTempDir {
 public:
  ProcessTempDir() {
    std::string tmpl =
        testing::TempDir() + "sperr_ooc_" + std::to_string(::getpid()) + "_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    path_ = tmpl + "/";
  }
  ~ProcessTempDir() {
    if (::getpid() == owner_) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  pid_t owner_ = ::getpid();
  std::string path_;
};

const std::string& process_temp_dir() {
  static const ProcessTempDir dir;
  return dir.path();
}

class TempFile {
 public:
  explicit TempFile(const std::string& suffix) {
    static int counter = 0;
    path_ = process_temp_dir() + "f" + std::to_string(counter++) + suffix;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_raw(const std::string& path, const std::vector<double>& field,
               int precision) {
  std::ofstream out(path, std::ios::binary);
  if (precision == 4) {
    std::vector<float> f32(field.begin(), field.end());
    out.write(reinterpret_cast<const char*>(f32.data()),
              std::streamsize(f32.size() * 4));
  } else {
    out.write(reinterpret_cast<const char*>(field.data()),
              std::streamsize(field.size() * 8));
  }
}

std::vector<double> read_raw(const std::string& path, size_t n, int precision) {
  std::ifstream in(path, std::ios::binary);
  std::vector<double> out(n);
  if (precision == 4) {
    std::vector<float> f32(n);
    in.read(reinterpret_cast<char*>(f32.data()), std::streamsize(n * 4));
    out.assign(f32.begin(), f32.end());
  } else {
    in.read(reinterpret_cast<char*>(out.data()), std::streamsize(n * 8));
  }
  EXPECT_TRUE(bool(in));
  return out;
}

TEST(OutOfCore, PweRoundTripMatchesInMemoryPath) {
  const Dims dims{50, 40, 30};  // non-divisible by the chunk size
  const auto field = data::miranda_density(dims);
  TempFile raw(".raw"), packed(".sperr"), restored(".raw");
  write_raw(raw.path(), field, 8);

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.chunk_dims = Dims{32, 32, 32};
  Stats stats;
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, packed.path(), &stats),
            Status::ok);
  EXPECT_GT(stats.num_chunks, 1u);

  // The streamed container decodes exactly like an in-memory one.
  std::ifstream in(packed.path(), std::ios::binary);
  const std::vector<uint8_t> blob{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  std::vector<double> mem_recon;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), mem_recon, od), Status::ok);

  ASSERT_EQ(decompress_file(packed.path(), restored.path(), 8), Status::ok);
  const auto file_recon = read_raw(restored.path(), field.size(), 8);
  EXPECT_EQ(file_recon, mem_recon);

  // And the PWE guarantee holds end to end.
  double max_err = 0;
  for (size_t i = 0; i < field.size(); ++i)
    max_err = std::max(max_err, std::fabs(field[i] - file_recon[i]));
  EXPECT_LE(max_err, cfg.tolerance);
}

TEST(OutOfCore, SinglePrecisionFiles) {
  const Dims dims{48, 24, 16};
  const auto field64 = data::nyx_velocity_x(dims);
  const std::vector<float> field32(field64.begin(), field64.end());
  std::vector<double> field(field32.begin(), field32.end());

  TempFile raw(".raw"), packed(".sperr"), restored(".raw");
  write_raw(raw.path(), field, 4);

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 12);
  ASSERT_EQ(compress_file(raw.path(), dims, 4, cfg, packed.path()), Status::ok);
  ASSERT_EQ(decompress_file(packed.path(), restored.path(), 4), Status::ok);

  const auto recon = read_raw(restored.path(), field.size(), 4);
  double max_err = 0;
  for (size_t i = 0; i < field.size(); ++i)
    max_err = std::max(max_err, std::fabs(field[i] - recon[i]));
  // f32 output rounding adds at most one float ulp on top of the bound.
  EXPECT_LE(max_err, cfg.tolerance * (1.0 + 1e-5));
}

TEST(OutOfCore, FixedRateFiles) {
  const Dims dims{32, 32, 32};
  const auto field = data::s3d_temperature(dims);
  TempFile raw(".raw"), packed(".sperr");
  write_raw(raw.path(), field, 8);

  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 2.0;
  Stats stats;
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, packed.path(), &stats),
            Status::ok);
  EXPECT_LE(stats.bpp, 2.3);
}

TEST(OutOfCore, SizeMismatchRejected) {
  const Dims dims{16, 16, 16};
  const auto field = data::s3d_ch4(dims);
  TempFile raw(".raw"), packed(".sperr");
  write_raw(raw.path(), field, 8);
  Config cfg;
  cfg.tolerance = 1e-3;
  // Claiming the wrong extents must be rejected, not mis-read.
  EXPECT_EQ(compress_file(raw.path(), Dims{16, 16, 17}, 8, cfg, packed.path()),
            Status::invalid_argument);
  EXPECT_EQ(compress_file(raw.path(), dims, 4, cfg, packed.path()),
            Status::invalid_argument);
}

// --- torn-write crash points ------------------------------------------------
//
// The crash-consistency contract of outofcore.h: kill the writer at EVERY
// stage boundary of the atomic write path and the destination is either
// absent, its previous content, or the complete new content — never a torn
// container. Each case forks, _exit()s inside the crash hook at one stage,
// and inspects what the "crashed" process left on disk.

const char* g_crash_stage = nullptr;

void crash_at_stage(const char* stage) {
  if (std::strcmp(stage, g_crash_stage) == 0) _exit(42);
}

std::vector<uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

constexpr const char* kCrashStages[] = {"tmp_open",   "tmp_partial", "tmp_written",
                                        "tmp_synced", "renamed",     "dir_synced"};

/// Run `op` in a forked child that _exit(42)s at `stage`; returns true when
/// the hook actually fired (guards against a stage silently not reached).
template <class Op>
bool crash_child_at(const char* stage, Op&& op) {
  const pid_t pid = fork();
  if (pid == 0) {
    g_crash_stage = stage;
    detail::set_crash_hook(&crash_at_stage);
    op();
    _exit(0);  // hook never fired
  }
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 42;
}

TEST(OutOfCoreCrash, CompressKilledAtEveryStageNeverTearsDestination) {
  const Dims dims{24, 24, 24};
  const auto field = data::miranda_density(dims);
  TempFile raw(".raw"), expected(".sperr"), dest(".sperr");
  write_raw(raw.path(), field, 8);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.chunk_dims = Dims{16, 16, 16};

  // Clean run: the content every successful write must reproduce exactly.
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, expected.path()), Status::ok);
  const std::vector<uint8_t> clean = slurp(expected.path());
  ASSERT_FALSE(clean.empty());

  const std::vector<uint8_t> old_content = {'o', 'l', 'd'};
  for (const char* stage : kCrashStages) {
    SCOPED_TRACE(stage);
    // Pre-populate the destination: a crash must leave either this exact
    // old content or the complete new container.
    {
      std::ofstream out(dest.path(), std::ios::binary);
      out.write(reinterpret_cast<const char*>(old_content.data()),
                std::streamsize(old_content.size()));
    }
    ASSERT_TRUE(crash_child_at(stage, [&] {
      compress_file(raw.path(), dims, 8, cfg, dest.path());
    }));
    ASSERT_TRUE(file_exists(dest.path()));
    const std::vector<uint8_t> found = slurp(dest.path());
    EXPECT_TRUE(found == old_content || found == clean)
        << "destination torn after crash at " << stage << " (size "
        << found.size() << ")";
    std::remove((dest.path() + ".tmp").c_str());
    std::remove(dest.path().c_str());
  }

  // Fresh-destination variant: the destination must be absent or complete,
  // never a partial file.
  for (const char* stage : kCrashStages) {
    SCOPED_TRACE(stage);
    ASSERT_TRUE(crash_child_at(stage, [&] {
      compress_file(raw.path(), dims, 8, cfg, dest.path());
    }));
    if (file_exists(dest.path())) {
      EXPECT_EQ(slurp(dest.path()), clean);
    }
    std::remove((dest.path() + ".tmp").c_str());
    std::remove(dest.path().c_str());
  }
}

TEST(OutOfCoreCrash, DecompressKilledAtEveryStageNeverTearsDestination) {
  const Dims dims{24, 24, 24};
  const auto field = data::nyx_velocity_x(dims);
  TempFile raw(".raw"), packed(".sperr"), expected(".raw"), dest(".raw");
  write_raw(raw.path(), field, 8);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 12);
  cfg.chunk_dims = Dims{16, 16, 16};
  ASSERT_EQ(compress_file(raw.path(), dims, 8, cfg, packed.path()), Status::ok);
  ASSERT_EQ(decompress_file(packed.path(), expected.path(), 8), Status::ok);
  const std::vector<uint8_t> clean = slurp(expected.path());
  ASSERT_FALSE(clean.empty());

  for (const char* stage : kCrashStages) {
    SCOPED_TRACE(stage);
    ASSERT_TRUE(crash_child_at(stage, [&] {
      decompress_file(packed.path(), dest.path(), 8);
    }));
    if (file_exists(dest.path())) {
      EXPECT_EQ(slurp(dest.path()), clean);
    }
    std::remove((dest.path() + ".tmp").c_str());
    std::remove(dest.path().c_str());
  }
}

TEST(OutOfCore, MissingInputRejected) {
  Config cfg;
  cfg.tolerance = 1.0;
  EXPECT_EQ(compress_file("/nonexistent/file.raw", Dims{8, 8, 8}, 8, cfg,
                          "/tmp/out.sperr"),
            Status::invalid_argument);
  EXPECT_EQ(decompress_file("/nonexistent/file.sperr", "/tmp/out.raw", 8),
            Status::invalid_argument);
}

}  // namespace
}  // namespace sperr::outofcore
