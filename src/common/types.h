#pragma once

// Basic geometric types shared by every module: 3-D extents, strides, and
// index arithmetic. 1-D and 2-D data are represented with trailing extents
// equal to 1, so the whole code base uses a single addressing convention:
// linear index = x + nx * (y + ny * z), i.e. x is the fastest-varying axis.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sperr {

/// Extents of a (possibly degenerate) 3-D grid. x varies fastest in memory.
struct Dims {
  size_t x = 1;
  size_t y = 1;
  size_t z = 1;

  constexpr Dims() = default;
  constexpr Dims(size_t nx, size_t ny = 1, size_t nz = 1) : x(nx), y(ny), z(nz) {}

  [[nodiscard]] constexpr size_t total() const { return x * y * z; }

  /// Number of non-degenerate axes (a 2-D slice has rank 2, a scalar rank 0).
  [[nodiscard]] constexpr int rank() const {
    return int(x > 1) + int(y > 1) + int(z > 1);
  }

  [[nodiscard]] constexpr size_t index(size_t ix, size_t iy, size_t iz) const {
    return ix + x * (iy + y * iz);
  }

  constexpr bool operator==(const Dims&) const = default;

  [[nodiscard]] std::string to_string() const {
    return std::to_string(x) + "x" + std::to_string(y) + "x" + std::to_string(z);
  }
};

/// Implementation limits used to validate untrusted stream headers: each
/// axis must fit in 21 bits (so the extent product cannot overflow uint64)
/// and the total element count is capped. Real volumes sit far below both.
inline constexpr size_t kMaxAxisExtent = size_t(1) << 21;
inline constexpr size_t kMaxVolumeElements = size_t(1) << 42;

/// True when `d` is a plausible volume (also rejects empty grids).
[[nodiscard]] constexpr bool plausible_dims(const Dims& d) {
  return d.x >= 1 && d.y >= 1 && d.z >= 1 && d.x <= kMaxAxisExtent &&
         d.y <= kMaxAxisExtent && d.z <= kMaxAxisExtent &&
         d.total() <= kMaxVolumeElements;
}

/// Result status for fallible codec operations. The library throws only on
/// programmer error (contract violations); data-dependent failures (corrupt
/// stream, budget too small) are reported through Status.
enum class Status {
  ok,
  truncated_stream,  ///< bitstream ended before decoding finished (valid for embedded streams)
  corrupt_stream,    ///< header/magic/version mismatch or inconsistent payload
  invalid_argument,  ///< caller passed an unusable parameter (e.g. tolerance <= 0)
  corrupt_block,     ///< a lossless block failed its checksum; the block index is reported
  corrupt_chunk,     ///< a container chunk failed its checksum; the chunk index is reported
  resource_exhausted,  ///< header-declared output/working set exceeds the decoder's
                       ///< configured ResourceLimits (common/resource.h) — the bytes
                       ///< may be well-formed, but decoding them is not affordable
  unsupported_version,  ///< a container version or lossless format this build does
                        ///< not read (only the current one is; docs/FORMAT.md)
};

[[nodiscard]] constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::ok: return "ok";
    case Status::truncated_stream: return "truncated_stream";
    case Status::corrupt_stream: return "corrupt_stream";
    case Status::invalid_argument: return "invalid_argument";
    case Status::corrupt_block: return "corrupt_block";
    case Status::corrupt_chunk: return "corrupt_chunk";
    case Status::resource_exhausted: return "resource_exhausted";
    case Status::unsupported_version: return "unsupported_version";
  }
  return "unknown";
}

}  // namespace sperr
