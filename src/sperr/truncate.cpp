#include <algorithm>
#include <cmath>

#include "common/byteio.h"
#include "common/checksum.h"
#include "speck/common.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/sperr.h"

namespace sperr {

// Container-level truncation (paper §VII, the embedded property): any prefix
// of a SPECK stream is a valid, coarser encoding, so a fixed-rate container
// can be cut down to a lower rate byte-for-byte — no recompression, no
// access to the original data. Streaming servers use this to serve one
// archive at many rates.
Status truncate_fixed_rate(const uint8_t* stream, size_t nbytes, double new_bpp,
                           std::vector<uint8_t>& out) try {
  if (!(new_bpp > 0.0)) return Status::invalid_argument;

  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  size_t payload_pos = 0;
  if (const Status s = open_container(stream, nbytes, inner, hdr, &payload_pos);
      s != Status::ok)
    return s;
  // Only the fixed-rate mode is safely truncatable: a PWE container's
  // outlier corrections are not embedded, so cutting it would silently void
  // the error guarantee.
  if (hdr.mode != Mode::fixed_rate) return Status::invalid_argument;

  const auto chunks = make_chunks(hdr.dims, hdr.chunk_dims);
  if (chunks.size() != hdr.entries.size()) return Status::corrupt_stream;

  ContainerHeader new_hdr = hdr;
  new_hdr.quality = std::min(new_bpp, hdr.quality);
  new_hdr.entries.clear();

  ByteReader br(inner.data(), inner.size());
  (void)br.raw(payload_pos);  // skip the header; streams follow
  std::vector<std::vector<uint8_t>> new_streams;
  new_streams.reserve(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    const ChunkEntry& e = hdr.entries[i];
    const uint8_t* sp = br.raw(e.speck_len);
    (void)br.raw(e.outlier_len);  // fixed-rate chunks have none; skip anyway
    if (e.speck_len && !sp) return Status::truncated_stream;

    // Re-head the SPECK stream with the clipped bit count.
    ByteReader shr(sp, size_t(e.speck_len));
    speck::Header shdr;
    if (const Status s = shdr.deserialize(shr); s != Status::ok) return s;
    const auto budget =
        uint64_t(std::llround(new_bpp * double(chunks[i].dims.total())));
    shdr.nbits = std::min<uint64_t>(shdr.nbits, std::max<uint64_t>(budget, 8));
    const size_t payload_bytes =
        std::min<size_t>((shdr.nbits + 7) / 8, size_t(e.speck_len) - shr.pos());

    std::vector<uint8_t> cut;
    shdr.serialize(cut);
    cut.insert(cut.end(), sp + shr.pos(), sp + shr.pos() + payload_bytes);
    // The cut stream is new bytes — recompute its checksum; the chunk mean
    // carries over (truncation does not change what the data was).
    ChunkEntry ne(cut.size(), 0);
    ne.checksum = xxhash64(cut.data(), cut.size());
    ne.mean = e.mean;
    new_hdr.entries.push_back(ne);
    new_streams.push_back(std::move(cut));
  }

  std::vector<uint8_t> new_inner;
  new_hdr.serialize(new_inner);
  for (const auto& s : new_streams)
    new_inner.insert(new_inner.end(), s.begin(), s.end());
  out = wrap_container(std::move(new_inner), true);
  return Status::ok;
} catch (const std::bad_alloc&) {
  return Status::resource_exhausted;
}

}  // namespace sperr
