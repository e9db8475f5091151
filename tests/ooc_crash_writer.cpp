// Helper process for the OutOfCoreCrash tests (test_outofcore.cpp): runs
// one out-of-core write with the crash hook set to _exit(42) at a named
// stage of the atomic write path. The tests start it with posix_spawn, so
// the killed writer is a fresh process: it never inherits a forked copy of
// the test process's threads or OpenMP runtime, whose state after fork()
// can deadlock the child.
//
//   ooc_crash_writer compress STAGE RAW DEST NX NY NZ TOLERANCE CX CY CZ
//   ooc_crash_writer decompress STAGE PACKED DEST
//
// TOLERANCE is any strtod-readable number; pass it in hex-float form ("%a")
// to carry the exact double. Precision is f64 both ways. Exit status: 42
// when the hook fired, 0 when the write ran to the end without reaching
// STAGE, 2 on bad usage.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sperr/outofcore.h"

namespace {

const char* g_stage = nullptr;

void crash_at_stage(const char* stage) {
  if (std::strcmp(stage, g_stage) == 0) _exit(42);
}

size_t extent(const char* s) { return size_t(std::strtoull(s, nullptr, 10)); }

}  // namespace

int main(int argc, char** argv) {
  using namespace sperr;
  const std::string op = argc > 1 ? argv[1] : "";
  if (!((op == "compress" && argc == 12) || (op == "decompress" && argc == 5))) {
    std::fprintf(stderr,
                 "usage: %s compress STAGE RAW DEST NX NY NZ TOLERANCE CX CY CZ\n"
                 "       %s decompress STAGE PACKED DEST\n",
                 argv[0], argv[0]);
    return 2;
  }
  g_stage = argv[2];
  outofcore::detail::set_crash_hook(&crash_at_stage);
  if (op == "compress") {
    Config cfg;
    cfg.tolerance = std::strtod(argv[8], nullptr);
    cfg.chunk_dims = Dims{extent(argv[9]), extent(argv[10]), extent(argv[11])};
    const Dims dims{extent(argv[5]), extent(argv[6]), extent(argv[7])};
    (void)outofcore::compress_file(argv[3], dims, 8, cfg, argv[4]);
  } else {
    (void)outofcore::decompress_file(argv[3], argv[4], 8);
  }
  return 0;
}
