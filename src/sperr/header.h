#pragma once

// SPERR container format.
//
// Outer wrapper (never entropy-coded, so the decoder can bootstrap):
//   u32 magic 'SPRZ' | u8 version | u8 lossless? | u64 inner_len | inner...
// where `inner` is the container below, optionally passed through the
// built-in lossless codec (the paper's final ZSTD pass, §V).
//
// Inner container (version 3):
//   u32 magic 'SPRC' | u8 mode | u8 precision(4|8) | dims 3xu64 |
//   chunk dims 3xu64 | f64 quality (tolerance or bpp) | u32 nchunks |
//   per chunk { u64 speck_len, u64 outlier_len, u64 xxh64, f64 mean } |
//   u64 header_xxh64 | concatenated streams.
// The per-chunk XXH64 covers the chunk's speck‖outlier payload bytes; the
// trailing header checksum covers every header byte before it (magic through
// directory), so damage to the directory itself is detected rather than
// silently mis-slicing the payload. Version 3 (with lossless format 3) is
// the only layout written or read: any other outer version byte, such as the
// retired versions 1-2 of earlier development builds, is refused as
// Status::unsupported_version (docs/FORMAT.md, "Compatibility policy").

#include <cstdint>
#include <vector>

#include "common/byteio.h"
#include "common/types.h"
#include "lossless/codec.h"
#include "sperr/config.h"

namespace sperr {

/// One chunk's directory entry.
struct ChunkEntry {
  uint64_t speck_len = 0;
  uint64_t outlier_len = 0;
  uint64_t checksum = 0;  ///< XXH64 over the chunk's speck‖outlier bytes, seed 0
  double mean = 0.0;      ///< chunk mean of the original input: the DC recovery fallback

  ChunkEntry() = default;
  ChunkEntry(uint64_t sl, uint64_t ol) : speck_len(sl), outlier_len(ol) {}
  bool operator==(const ChunkEntry&) const = default;

  [[nodiscard]] uint64_t total_len() const { return speck_len + outlier_len; }
};

struct ContainerHeader {
  static constexpr uint32_t kOuterMagic = 0x5a525053;  // "SPRZ"
  static constexpr uint32_t kInnerMagic = 0x43525053;  // "SPRC"
  // The one container version written and read (docs/FORMAT.md keeps the
  // version history of the retired ones).
  static constexpr uint8_t kVersion = 3;

  Mode mode = Mode::pwe;
  uint8_t precision = 8;  ///< bytes per sample of the original input (4 or 8)
  Dims dims;
  Dims chunk_dims;
  double quality = 0.0;  ///< tolerance (pwe) or target bpp (fixed_rate)
  std::vector<ChunkEntry> entries;  ///< per-chunk directory

  void serialize(std::vector<uint8_t>& out) const;

  /// Parse a header read from a container of version `version` (pass the
  /// outer wrapper's version byte). Any version but kVersion is
  /// Status::unsupported_version, before a byte is read.
  [[nodiscard]] Status deserialize(ByteReader& br, uint8_t version = kVersion);
};

/// Wrap the inner container: apply the lossless pass (if enabled) and
/// prepend the outer header. `opts` controls the lossless codec's block size
/// and thread count (ignored when `lossless` is false).
std::vector<uint8_t> wrap_container(std::vector<uint8_t> inner, bool lossless,
                                    const lossless::EncodeOptions& opts = {});

/// Undo wrap_container; `inner` receives the decoded container bytes.
/// `*version` (if non-null) receives the outer wrapper's version byte, also
/// when that version is refused as Status::unsupported_version. The
/// lossless payload's declared raw size is admitted against `limits`
/// (nullptr = ResourceLimits::defaults()) before the inner buffer is sized;
/// a violation returns Status::resource_exhausted.
///
/// Strict when `salvaged` is null: a payload shorter than declared is
/// truncated_stream, and a lossless block failing its checksum returns
/// Status::corrupt_block with `*corrupt_block` (if non-null) naming it.
/// Tolerant otherwise: a short payload yields what its present bytes decode
/// to, corrupt lossless blocks are zero-filled and listed in `*salvaged`, and
/// the return is ok as long as the lossless framing itself held.
Status unwrap_container(const uint8_t* data, size_t size, std::vector<uint8_t>& inner,
                        size_t* corrupt_block = nullptr, uint8_t* version = nullptr,
                        const ResourceLimits* limits = nullptr,
                        std::vector<size_t>* salvaged = nullptr);

/// unwrap_container + ContainerHeader::deserialize in one step (the common
/// prologue of every decoder). On success `inner` holds the container bytes,
/// `hdr` the parsed header, and
/// `*payload_pos` (if non-null) the offset of the first chunk stream within
/// `inner`. Consults `limits` before any header-sized allocation: the
/// lossless raw size and the declared chunk count are both admitted first.
Status open_container(const uint8_t* data, size_t size, std::vector<uint8_t>& inner,
                      ContainerHeader& hdr, size_t* payload_pos = nullptr,
                      size_t* corrupt_block = nullptr,
                      const ResourceLimits* limits = nullptr);

}  // namespace sperr
