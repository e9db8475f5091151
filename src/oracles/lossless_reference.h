#pragma once

// The original single-stream lossless codec, kept as the equivalence oracle
// for lossless::compress / decompress: one serial LZ77 + canonical Huffman
// pass over the whole input (MSB-first code words, one table pair, no
// directory, no checksums). Its framing, `u8 mode (0 raw / 1 LZ) | u64 raw
// size | payload`, is retired lossless format 0/1: the shipped decoder
// refuses it as unsupported_version. Differentially tested in
// tests/test_codec_blocked.cpp and tests/test_arith.cpp, and the serial
// baseline of `bench_micro --lossless_json`. Part of the test/bench-only
// sperr_oracles library, together with the materialized token API the
// reference encoder is built on.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/resource.h"
#include "common/types.h"

namespace sperr::lossless {

struct Token {
  // literal when length == 0 (value in `literal`), match otherwise.
  uint32_t length = 0;    ///< kMinMatch..kMaxMatch for matches, 0 for literal
  uint32_t distance = 0;  ///< 1..kWindowSize for matches
  uint8_t literal = 0;
};

/// Tokenize `data` into a materialized token vector (lz77_scan + push_back).
std::vector<Token> lz77_tokenize(const uint8_t* data, size_t size);

/// Reconstruct the original bytes from a token stream, appending to `out`.
/// `expected_size`, when nonzero, is reserved up front. Overlapping matches
/// (distance < length) replicate their pattern. Returns false if a token
/// references data before the start of the output (corrupt stream).
bool lz77_reconstruct(const std::vector<Token>& tokens, std::vector<uint8_t>& out,
                      size_t expected_size = 0);

/// Reference single-stream encoder.
std::vector<uint8_t> encode_reference(const uint8_t* data, size_t size);

inline std::vector<uint8_t> encode_reference(const std::vector<uint8_t>& data) {
  return encode_reference(data.data(), data.size());
}

/// Decode a stream written by encode_reference(). The declared raw size is
/// admitted against `limits` (nullptr = ResourceLimits::defaults()) first.
Status decode_reference(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                        const ResourceLimits* limits = nullptr);

}  // namespace sperr::lossless
