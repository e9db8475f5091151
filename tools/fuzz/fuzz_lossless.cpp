// Fuzz target: the lossless codec's two decode paths — strict and tolerant
// (zero-fill salvage) — plus the directory-only inspect() used by
// `sperr_cc info`. A retired format byte (the reference framing seeds) must
// be refused as unsupported_version, never decoded. All three entropy tags
// (raw / Huffman / arithmetic) are reachable: the per-block tag byte comes
// straight from the fuzzed directory. Tight ResourceLimits keep a declared
// multi-gigabyte raw size an O(1) rejection.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/resource.h"
#include "lossless/codec.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  sperr::ResourceLimits rl = sperr::ResourceLimits::defaults();
  rl.max_output_bytes = uint64_t(1) << 24;  // 16 MiB
  rl.max_working_bytes = uint64_t(1) << 24;
  rl.max_chunks = uint64_t(1) << 12;        // also bounds lossless block count

  // The one assertion: a format byte other than 3 is refused as
  // unsupported_version by every entry point, whatever follows it.
  const bool retired = size > 0 && data[0] != 3;
  auto check = [retired](sperr::Status s) {
    if (retired != (s == sperr::Status::unsupported_version)) __builtin_trap();
  };
  {
    std::vector<uint8_t> out;
    size_t corrupt_block = 0;
    check(sperr::lossless::decompress(data, size, out, &corrupt_block,
                                      /*num_threads=*/1, &rl));
  }
  {
    std::vector<uint8_t> out;
    std::vector<size_t> bad_blocks;
    check(sperr::lossless::decompress_tolerant(data, size, out, bad_blocks,
                                               /*num_threads=*/1, &rl));
  }
  {
    sperr::lossless::StreamInfo info;
    check(sperr::lossless::inspect(data, size, info));
  }
  return 0;
}
