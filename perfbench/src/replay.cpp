#include "replay.h"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/arena.h"
#include "common/byteio.h"
#include "common/checksum.h"
#include "lossless/codec.h"
#include "outlier/coder.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "wavelet/dwt.h"

namespace perfbench {

using sperr::Chunk;
using sperr::ChunkEntry;
using sperr::ContainerHeader;
using sperr::Dims;

namespace {

constexpr size_t kOuterHeaderBytes = 14;  // magic, version, lossless flag, length

struct ChunkOut {
  std::vector<uint8_t> speck;
  std::vector<uint8_t> outlier;
  double mean = 0.0;
};

}  // namespace

void replay_compress(const double* data, Dims dims, const sperr::Config& cfg,
                     Tracer* tr, ReplayOutput& out) {
  const uint64_t op = tr ? tr->new_op() : 0;
  Scoped root(tr, "compress", 0, op);
  root.attr("bytes", double(dims.total() * sizeof(double)));

  // sperr::compress rejects non-finite input before chunking.
  for (size_t i = 0; i < dims.total(); ++i)
    if (!std::isfinite(data[i])) throw std::invalid_argument("non-finite input");

  std::vector<Chunk> chunks;
  {
    Scoped s(tr, "sperr.make_chunks", root.id(), op);
    chunks = sperr::make_chunks(dims, cfg.chunk_dims);
  }
  std::vector<ChunkOut> streams(chunks.size());
  const int intra = cfg.intra_chunk_threads == 0 && chunks.size() > 1
                        ? 1
                        : cfg.intra_chunk_threads;
  const int nt = cfg.num_threads > 0 ? cfg.num_threads : omp_get_max_threads();
  const double q = cfg.q_over_t * cfg.tolerance;

#pragma omp parallel for schedule(dynamic) num_threads(nt)
  for (size_t i = 0; i < chunks.size(); ++i) {
    const Chunk& c = chunks[i];
    const size_t n = c.dims.total();
    const double bytes = double(n * sizeof(double));
    Scoped cs(tr, "sperr.chunk", root.id(), op);
    cs.attr("index", double(i));
    sperr::Arena& arena = sperr::tls_arena();
    arena.reset();
    double* buf = arena.alloc<double>(n);
    {
      Scoped s(tr, "sperr.gather_chunk", cs.id(), op);
      sperr::gather_chunk(data, dims, c, buf);
    }
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) sum += buf[k];
    streams[i].mean = sum / double(n);

    // pipeline::encode_pwe, one layer call per span.
    sperr::Arena::Scope scope(arena);
    double* coeffs = arena.alloc<double>(n);
    std::copy(buf, buf + n, coeffs);
    {
      Scoped s(tr, "wavelet.forward_dwt", cs.id(), op);
      s.attr("bytes", bytes);
      sperr::wavelet::forward_dwt(coeffs, c.dims, sperr::wavelet::Kernel::cdf97,
                                  &arena);
    }
    std::vector<double> recon;
    {
      Scoped s(tr, "speck.encode", cs.id(), op);
      sperr::speck::EncodeStats st;
      streams[i].speck =
          sperr::speck::encode(coeffs, c.dims, q, 0, &st, &recon, intra);
      double sorting = 0.0, refinement = 0.0;
      for (const auto& p : st.passes) {
        sorting += p.sorting_s;
        refinement += p.refinement_s;
      }
      s.attr("coefs", double(n));
      s.attr("payload_bits", double(st.payload_bits));
      s.attr("planes", double(st.planes_coded));
      s.attr("sorting_s", sorting);
      s.attr("refinement_s", refinement);
      s.attr("threads_used", double(st.threads_used));
    }
    {
      Scoped s(tr, "wavelet.inverse_dwt", cs.id(), op);
      s.attr("bytes", bytes);
      sperr::wavelet::inverse_dwt(recon.data(), c.dims,
                                  sperr::wavelet::Kernel::cdf97, &arena);
    }
    std::vector<sperr::outlier::Outlier> outliers;
    {
      Scoped s(tr, "outlier.find", cs.id(), op);
      for (size_t k = 0; k < n; ++k) {
        const double err = buf[k] - recon[k];
        if (std::fabs(err) > cfg.tolerance) outliers.push_back({k, err});
      }
    }
    {
      Scoped s(tr, "outlier.encode", cs.id(), op);
      sperr::outlier::EncodeStats ost;
      streams[i].outlier =
          sperr::outlier::encode(std::move(outliers), n, cfg.tolerance, &ost);
      s.attr("count", double(ost.num_outliers));
      s.attr("payload_bits", double(ost.payload_bits));
    }
  }

  {
    Scoped s(tr, "sperr.container", root.id(), op);
    ContainerHeader hdr;
    hdr.mode = cfg.mode;
    hdr.precision = 8;
    hdr.dims = dims;
    hdr.chunk_dims = cfg.chunk_dims;
    hdr.quality = cfg.tolerance;
    std::vector<uint8_t> cat;
    for (const ChunkOut& c : streams) {
      ChunkEntry e(c.speck.size(), c.outlier.size());
      cat.assign(c.speck.begin(), c.speck.end());
      cat.insert(cat.end(), c.outlier.begin(), c.outlier.end());
      e.checksum = sperr::xxhash64(cat.data(), cat.size());
      e.mean = c.mean;
      hdr.entries.push_back(e);
    }
    out.inner.clear();
    hdr.serialize(out.inner);
    for (const ChunkOut& c : streams) {
      out.inner.insert(out.inner.end(), c.speck.begin(), c.speck.end());
      out.inner.insert(out.inner.end(), c.outlier.begin(), c.outlier.end());
    }
  }
  {
    Scoped s(tr, "lossless.compress", root.id(), op);
    out.payload = sperr::lossless::compress(
        out.inner, {cfg.lossless_block_size, cfg.num_threads});
    s.attr("in_bytes", double(out.inner.size()));
    s.attr("out_bytes", double(out.payload.size()));
  }
  {
    Scoped s(tr, "lossless.inspect", root.id(), op);
    sperr::lossless::StreamInfo info;
    if (sperr::lossless::inspect(out.payload.data(), out.payload.size(), info) ==
        sperr::Status::ok) {
      double counts[3] = {0, 0, 0};
      for (const auto& b : info.blocks)
        if (b.mode < 3) counts[b.mode] += 1;
      s.attr("blocks_raw", counts[sperr::lossless::kEntropyRaw]);
      s.attr("blocks_huffman", counts[sperr::lossless::kEntropyHuffman]);
      s.attr("blocks_arith", counts[sperr::lossless::kEntropyArith]);
    }
  }
}

void replay_decompress(const std::vector<uint8_t>& container, Tracer* tr,
                       ReplayOutput& out) {
  const uint64_t op = tr ? tr->new_op() : 0;
  Scoped root(tr, "decompress", 0, op);
  out.decode_status = sperr::Status::corrupt_stream;

  // Outer wrapper; the replay only handles what sperr::compress writes.
  sperr::ByteReader wr(container.data(), container.size());
  const bool magic_ok = wr.u32() == ContainerHeader::kOuterMagic;
  const uint8_t version = wr.u8();
  const uint8_t lossless_flag = wr.u8();
  const uint64_t len = wr.u64();
  if (!magic_ok || !wr.ok() || lossless_flag != 1 ||
      len != container.size() - kOuterHeaderBytes)
    return;

  std::vector<uint8_t> inner;
  {
    Scoped s(tr, "lossless.decompress", root.id(), op);
    const sperr::Status st = sperr::lossless::decompress(
        container.data() + kOuterHeaderBytes, size_t(len), inner, nullptr, 0);
    s.attr("out_bytes", double(inner.size()));
    if (st != sperr::Status::ok) {
      out.decode_status = st;
      return;
    }
  }
  ContainerHeader hdr;
  size_t payload_pos = 0;
  {
    Scoped s(tr, "sperr.header", root.id(), op);
    sperr::ByteReader br(inner.data(), inner.size());
    if (const sperr::Status st = hdr.deserialize(br, version); st != sperr::Status::ok) {
      out.decode_status = st;
      return;
    }
    payload_pos = br.pos();
  }
  std::vector<Chunk> chunks;
  {
    Scoped s(tr, "sperr.make_chunks", root.id(), op);
    chunks = sperr::make_chunks(hdr.dims, hdr.chunk_dims);
  }
  if (chunks.size() != hdr.entries.size()) return;
  std::vector<size_t> offsets(chunks.size());
  for (size_t i = 0, pos = payload_pos; i < chunks.size(); ++i) {
    offsets[i] = pos;
    pos += size_t(hdr.entries[i].total_len());
    if (pos > inner.size()) return;
  }

  const Dims dims = hdr.dims;
  out.decoded.assign(dims.total(), 0.0);
  std::vector<sperr::Status> status(chunks.size(), sperr::Status::ok);
  // As in sperr::decompress: a lone chunk gets the SPECK decoder's
  // automatic lane count, several chunks decode one per thread.
  const int intra = chunks.size() == 1 ? 0 : 1;

#pragma omp parallel for schedule(dynamic)
  for (size_t i = 0; i < chunks.size(); ++i) {
    const Chunk& c = chunks[i];
    const ChunkEntry& e = hdr.entries[i];
    const size_t n = c.dims.total();
    const double bytes = double(n * sizeof(double));
    Scoped cs(tr, "sperr.chunk", root.id(), op);
    cs.attr("index", double(i));
    sperr::Arena& arena = sperr::tls_arena();
    arena.reset();
    double* buf = arena.alloc<double>(n);
    std::fill(buf, buf + n, 0.0);
    const uint8_t* sp = inner.data() + offsets[i];
    if (sperr::xxhash64(sp, size_t(e.total_len())) != e.checksum) {
      status[i] = sperr::Status::corrupt_chunk;
      continue;
    }
    sperr::Arena::Scope scope(arena);
    {
      Scoped s(tr, "speck.decode", cs.id(), op);
      sperr::speck::DecodeStats ds;
      status[i] = sperr::speck::decode(sp, size_t(e.speck_len), c.dims, buf, &ds, intra);
      s.attr("coefs", double(n));
      s.attr("bits", double(ds.bits_consumed));
    }
    if (status[i] != sperr::Status::ok) continue;
    {
      Scoped s(tr, "wavelet.inverse_dwt", cs.id(), op);
      s.attr("bytes", bytes);
      sperr::wavelet::inverse_dwt(buf, c.dims, sperr::wavelet::Kernel::cdf97, &arena);
    }
    if (e.outlier_len != 0) {
      Scoped s(tr, "outlier.decode", cs.id(), op);
      std::vector<sperr::outlier::Outlier> outliers;
      status[i] = sperr::outlier::decode(sp + e.speck_len, size_t(e.outlier_len), n,
                                         outliers);
      for (const auto& o : outliers) buf[o.pos] += o.corr;
      s.attr("count", double(outliers.size()));
    }
    {
      Scoped s(tr, "sperr.scatter_chunk", cs.id(), op);
      sperr::scatter_chunk(buf, c, out.decoded.data(), dims);
    }
  }
  out.decode_status = sperr::Status::ok;
  for (const sperr::Status s : status)
    if (s != sperr::Status::ok) out.decode_status = s;
}

std::string check_fidelity(const ReplayOutput& r,
                           const std::vector<uint8_t>& container,
                           const std::vector<double>& decoded) {
  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  size_t payload_pos = 0;
  if (sperr::open_container(container.data(), container.size(), inner, hdr,
                            &payload_pos) != sperr::Status::ok)
    return "open_container failed on the library's container";
  if (r.inner.size() != inner.size())
    return "replay inner container size differs from the library's";
  // Walk the chunk streams first so a mismatch names the chunk.
  size_t pos = payload_pos;
  for (size_t i = 0; i < hdr.entries.size(); ++i) {
    const ChunkEntry& e = hdr.entries[i];
    if (std::memcmp(r.inner.data() + pos, inner.data() + pos, size_t(e.speck_len)))
      return "replay SPECK stream of chunk " + std::to_string(i) + " differs";
    pos += size_t(e.speck_len);
    if (std::memcmp(r.inner.data() + pos, inner.data() + pos, size_t(e.outlier_len)))
      return "replay outlier stream of chunk " + std::to_string(i) + " differs";
    pos += size_t(e.outlier_len);
  }
  if (r.inner != inner) return "replay container header or directory differs";
  if (container.size() != r.payload.size() + kOuterHeaderBytes ||
      std::memcmp(container.data() + kOuterHeaderBytes, r.payload.data(),
                  r.payload.size()))
    return "replay lossless output differs from the container payload";
  if (r.decode_status != sperr::Status::ok) return "replay decode failed";
  if (r.decoded.size() != decoded.size() ||
      std::memcmp(r.decoded.data(), decoded.data(), decoded.size() * sizeof(double)))
    return "replay decode differs from sperr::decompress";
  return {};
}

}  // namespace perfbench
