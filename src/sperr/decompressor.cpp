#include <algorithm>

#include "common/arena.h"
#include "common/byteio.h"
#include "common/checksum.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/pipeline.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace sperr {

Status decompress(const uint8_t* stream, size_t nbytes, std::vector<double>& out,
                  Dims& dims, const ResourceLimits* limits) {
  // The strict decoder is the tolerant one pinned to fail_fast: every chunk
  // is still verified and decoded, but any damage fails the whole call with
  // the lowest damaged chunk index reported deterministically.
  return decompress_tolerant(stream, nbytes, Recovery::fail_fast, out, dims,
                             nullptr, limits);
}

Status decompress_lowres(const uint8_t* stream, size_t nbytes, size_t drop_levels,
                         std::vector<double>& out, Dims& coarse_dims,
                         const ResourceLimits* limits) try {
  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  size_t payload_pos = 0;
  if (const Status s =
          open_container(stream, nbytes, inner, hdr, &payload_pos, nullptr, limits);
      s != Status::ok)
    return s;
  if (hdr.entries.size() != 1) return Status::invalid_argument;

  // The inverse transform works on the full-resolution coefficient grid
  // before coarsening, so the header extents size the working set here even
  // though the returned field is smaller. Admit them first.
  const ResourceLimits& rl = effective_limits(limits);
  const uint64_t grid_bytes = uint64_t(hdr.dims.total()) * sizeof(double);
  Reservation budget_hold;
  if (!rl.admits_output(grid_bytes) || !rl.admits_working(grid_bytes) ||
      !budget_hold.acquire(rl.budget, grid_bytes))
    return Status::resource_exhausted;

  const ChunkEntry& e = hdr.entries[0];
  // Subtraction-form bounds checks: the directory lengths are untrusted u64s,
  // so sums like `payload_pos + e.speck_len` can wrap past inner.size().
  // open_container guarantees payload_pos <= inner.size().
  const size_t avail = inner.size() - payload_pos;
  if (e.speck_len > avail) return Status::truncated_stream;
  const uint8_t* sp = inner.data() + payload_pos;
  if (hdr.has_integrity()) {
    // Checksum covers speck‖outlier; verify it before trusting the stream.
    if (e.outlier_len > avail - size_t(e.speck_len)) return Status::truncated_stream;
    if (xxhash64(sp, size_t(e.total_len())) != e.checksum)
      return Status::corrupt_chunk;
  }
  // Outlier corrections live on the full-resolution grid; they do not apply
  // to a coarse reconstruction (their energy is within the tolerance anyway).
  // Decode straight from the container slice — no heap copy of the stream.
  return pipeline::decode_lowres(sp, size_t(e.speck_len), hdr.dims, drop_levels,
                                 out, coarse_dims);
} catch (const std::bad_alloc&) {
  return Status::resource_exhausted;
}

Status decompress(const uint8_t* stream, size_t nbytes, std::vector<float>& out,
                  Dims& dims, const ResourceLimits* limits) try {
  // Chunk-at-a-time narrowing: each chunk decodes into per-thread arena
  // scratch and is narrowed straight into the float field, so peak memory is
  // the float output plus one chunk of doubles per worker — not a full
  // double field alongside the float copy.
  DecodeReport rep;
  detail::OpenedContainer oc;
  if (const Status s = detail::open_tolerant(stream, nbytes, Recovery::fail_fast,
                                             oc, &rep, limits);
      s != Status::ok)
    return s;

  const ResourceLimits& rl = effective_limits(limits);
  const uint64_t field_bytes = uint64_t(oc.hdr.dims.total()) * sizeof(float);
  uint64_t chunk_bytes = 0;
  for (const Chunk& c : oc.chunks)
    chunk_bytes =
        std::max<uint64_t>(chunk_bytes, uint64_t(c.dims.total()) * sizeof(double));
  Reservation budget_hold;
  if (!rl.admits_output(field_bytes) || !rl.admits_working(chunk_bytes) ||
      !budget_hold.acquire(rl.budget, field_bytes + chunk_bytes))
    return Status::resource_exhausted;

  dims = oc.hdr.dims;
  out.assign(dims.total(), 0.0f);
  rep.chunks.resize(oc.chunks.size());

  const int threads = detail::thread_budget(0);
  const int intra_threads = chunk_lanes(threads, oc.chunks.size());

#ifdef SPERR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic) \
    num_threads(chunk_team(threads, oc.chunks.size()))
#endif
  for (size_t i = 0; i < oc.chunks.size(); ++i) {
    Arena& arena = tls_arena();
    arena.reset();
    const size_t n = oc.chunks[i].dims.total();
    double* buf = arena.alloc<double>(n);
    std::fill(buf, buf + n, 0.0);
    rep.chunks[i] = detail::decode_chunk(oc, i, Recovery::fail_fast, buf, &arena,
                                         intra_threads);
    scatter_chunk_narrow(buf, oc.chunks[i], out.data(), dims);
  }

  for (const ChunkReport& c : rep.chunks)
    if (c.damaged()) return rep.chunks[rep.first_damaged()].status;
  return Status::ok;
} catch (const std::bad_alloc&) {
  return Status::resource_exhausted;
}

}  // namespace sperr
