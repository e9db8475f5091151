#include "oracles/lossless_reference.h"

#include <algorithm>
#include <cstring>

#include "common/bitstream.h"
#include "common/byteio.h"
#include "lossless/alphabet.h"
#include "lossless/huffman.h"
#include "lossless/lz77.h"

namespace sperr::lossless {

namespace {

// Leading byte of a reference stream: stored raw, or LZ77 + Huffman.
constexpr uint8_t kModeRaw = 0;
constexpr uint8_t kModeLz = 1;

std::vector<uint8_t> unpack_lengths(ByteReader& br, size_t count) {
  std::vector<uint8_t> lengths(count, 0);
  for (size_t i = 0; i < count; i += 2) {
    const uint8_t b = br.u8();
    lengths[i] = b & 0x0f;
    if (i + 1 < count) lengths[i + 1] = b >> 4;
  }
  return lengths;
}

struct VectorSink final : TokenSink {
  std::vector<Token>& tokens;
  explicit VectorSink(std::vector<Token>& t) : tokens(t) {}
  void on_literal(uint8_t byte) override {
    Token lit{};
    lit.literal = byte;
    tokens.push_back(lit);
  }
  void on_match(uint32_t length, uint32_t distance) override {
    Token m{};
    m.length = length;
    m.distance = distance;
    tokens.push_back(m);
  }
};

}  // namespace

std::vector<Token> lz77_tokenize(const uint8_t* data, size_t size) {
  std::vector<Token> tokens;
  if (size == 0) return tokens;
  tokens.reserve(size / 4);
  VectorSink sink(tokens);
  lz77_scan(data, size, sink);
  return tokens;
}

bool lz77_reconstruct(const std::vector<Token>& tokens, std::vector<uint8_t>& out,
                      size_t expected_size) {
  if (expected_size) out.reserve(out.size() + expected_size);
  for (const Token& t : tokens) {
    if (t.length == 0) {
      out.push_back(t.literal);
      continue;
    }
    if (t.distance == 0 || t.distance > out.size()) return false;
    const size_t len = t.length;
    const size_t start = out.size() - t.distance;
    out.resize(out.size() + len);
    uint8_t* dst = out.data() + out.size() - len;
    const uint8_t* src = out.data() + start;
    if (t.distance >= len) {
      std::memcpy(dst, src, len);
    } else {
      // Overlapping match: seed one period, then double the copied region
      // until `len` is covered. Each memcpy's source and destination are
      // disjoint, so this widens to bulk copies while preserving the
      // byte-serial replication semantics.
      size_t copied = std::min<size_t>(t.distance, len);
      std::memcpy(dst, src, copied);
      while (copied < len) {
        const size_t chunk = std::min(copied, len - copied);
        std::memcpy(dst + copied, dst, chunk);
        copied += chunk;
      }
    }
  }
  return true;
}

std::vector<uint8_t> encode_reference(const uint8_t* data, size_t size) {
  const std::vector<Token> tokens = lz77_tokenize(data, size);

  // Token symbol frequencies for both Huffman tables.
  std::vector<uint64_t> lit_freq(kLitAlphabet, 0);
  std::vector<uint64_t> dist_freq(kNumDistCodes, 0);
  for (const Token& t : tokens) {
    if (t.length == 0) {
      ++lit_freq[t.literal];
    } else {
      ++lit_freq[257 + size_t(length_code(t.length))];
      ++dist_freq[size_t(distance_code(t.distance))];
    }
  }
  ++lit_freq[kEob];

  // 15-bit limit: the header packs code lengths into 4 bits each.
  const auto lit_lengths = huffman_code_lengths(lit_freq, 15);
  const auto dist_lengths = huffman_code_lengths(dist_freq, 15);
  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);

  std::vector<uint8_t> out;
  out.push_back(kModeLz);
  put_u64(out, size);
  pack_lengths(out, lit_lengths);
  pack_lengths(out, dist_lengths);

  BitWriter bw;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      lit_enc.encode(bw, t.literal);
      continue;
    }
    const int lc = length_code(t.length);
    lit_enc.encode(bw, uint32_t(257 + lc));
    bw.put_bits(t.length - kLenBase[lc], kLenExtra[lc]);
    const int dc = distance_code(t.distance);
    dist_enc.encode(bw, uint32_t(dc));
    bw.put_bits(t.distance - kDistBase[dc], kDistExtra[dc]);
  }
  lit_enc.encode(bw, kEob);

  const auto& payload = bw.bytes();
  if (out.size() + payload.size() >= size + 9) {
    // Entropy coding did not pay off; store raw.
    std::vector<uint8_t> raw;
    raw.reserve(size + 9);
    raw.push_back(kModeRaw);
    put_u64(raw, size);
    raw.insert(raw.end(), data, data + size);
    return raw;
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status decode_reference(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                        const ResourceLimits* limits) {
  ByteReader hdr(data, size);
  const uint8_t mode = hdr.u8();
  const uint64_t raw_size = hdr.u64();
  if (!hdr.ok()) return Status::corrupt_stream;

  const ResourceLimits& rl = effective_limits(limits);
  if (!rl.admits_output(raw_size) || !rl.admits_expansion(size, raw_size))
    return Status::resource_exhausted;

  if (mode == kModeRaw) {
    const uint8_t* p = hdr.raw(raw_size);
    if (!p) return Status::truncated_stream;
    out.assign(p, p + raw_size);
    return Status::ok;
  }
  if (mode != kModeLz) return Status::corrupt_stream;

  const auto lit_lengths = unpack_lengths(hdr, kLitAlphabet);
  const auto dist_lengths = unpack_lengths(hdr, kNumDistCodes);
  if (!hdr.ok()) return Status::truncated_stream;

  const HuffmanDecoder lit_dec(lit_lengths);
  const HuffmanDecoder dist_dec(dist_lengths);
  if (!lit_dec.valid()) return Status::corrupt_stream;

  BitReader br(data + hdr.pos(), size - hdr.pos());
  out.clear();
  // raw_size is untrusted: cap the speculative reserve, and bail out if the
  // token stream tries to grow past the promised size (corrupt stream).
  out.reserve(size_t(std::min<uint64_t>(raw_size, uint64_t(1) << 24)));
  while (true) {
    if (out.size() > raw_size) return Status::corrupt_stream;
    const int32_t sym = lit_dec.decode(br);
    if (sym < 0) return Status::truncated_stream;
    if (sym == int32_t(kEob)) break;
    if (sym < 256) {
      out.push_back(uint8_t(sym));
      continue;
    }
    const int lc = sym - 257;
    if (lc >= kNumLenCodes) return Status::corrupt_stream;
    const uint32_t len = kLenBase[lc] + uint32_t(br.get_bits(kLenExtra[lc]));
    const int32_t dc = dist_dec.decode(br);
    if (dc < 0 || dc >= kNumDistCodes) return Status::corrupt_stream;
    const uint32_t dist = kDistBase[dc] + uint32_t(br.get_bits(kDistExtra[dc]));
    if (br.exhausted()) return Status::truncated_stream;
    if (dist == 0 || dist > out.size()) return Status::corrupt_stream;
    if (out.size() + len > raw_size) return Status::corrupt_stream;
    const size_t start = out.size() - dist;
    for (uint32_t i = 0; i < len; ++i) out.push_back(out[start + i]);
  }
  if (out.size() != raw_size) return Status::corrupt_stream;
  return Status::ok;
}

}  // namespace sperr::lossless
