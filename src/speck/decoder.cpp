// The SPECK decoder: flattened counterpart of encoder.cpp. It walks the
// encoder's precomputed SetTree and mirrors the reference decoder (the
// test-only oracle in src/oracles/) bit for bit, including the
// deducible-significance rule and truncated-stream semantics.
//
// Decoding is one pass over the stream, then one reconstruct:
//   * sorting passes read significance and sign bits as the reference does,
//     skipping runs of 0-bits (still-insignificant sets) with one
//     peek_zero_run and compacting each LIS bucket in place. Each discovery
//     appends a sign<<31 | index word to one discovery-ordered array,
//     grouped by plane;
//   * refinement passes are only recorded and skipped: a pass walks the
//     discoveries of the planes above it in discovery order, so the bit of
//     discovery L on plane j sits at start_j + L (if the stream has it);
//   * one pass over contiguous discovery ranges, split across the lanes,
//     settles each coefficient: the 1.5 * 2^p seed of its discovery plane,
//     +/- 2^(j-1) for each later plane j whose bit exists, sign, q — the
//     per-plane apply's double additions in its order, so the output is
//     bit-identical for any valid n_max and at every lane count.
// The sorting pass is bit-serial; lanes run the set-tree build, the zero
// fill and the reconstruct, whose writes are disjoint (each coefficient is
// discovered once).

#include "speck/decoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "common/bitstream.h"
#include "common/threadpool.h"
#include "speck/settree.h"

namespace sperr::speck {

namespace {

/// Parallel-lane grain for the reconstruct; below it the dispatch costs
/// more than the loop. Output-invariant.
constexpr size_t kParallelGrain = size_t(1) << 14;

/// Discoveries settled together: their values (8 KiB) stay in L1 across the
/// passes, and the scattered writes come in runs long enough to overlap.
constexpr size_t kBatch = 1024;

/// No top plane of finite doubles reaches this: |c| / q < DBL_MAX / 2^-1074.
constexpr int32_t kPlaneLimit = 1024 + 1074;

class FastDecoder {
 public:
  FastDecoder(BitReader br, Dims dims, const Header& hdr, TaskPool* pool)
      : payload_(br), br_(br), dims_(dims), hdr_(hdr), pool_(pool) {}

  Status run(double* coeffs, DecodeStats* stats) {
    if (hdr_.n_max >= 0) {
      tree_.build(dims_, pool_);
      // Beyond 2^31 nodes (grids of over ~10^9 coefficients) an internal
      // node id can have bit 31 set, so leaves go untagged there.
      leaf_tag_ = tree_.node_count() <= kLeaf ? kLeaf : 0;
      lis_.resize(max_depth(dims_) + 1);
      lis_[0].push_back(lis_entry(0));  // the root

      for (int32_t p = hdr_.n_max; p >= 0 && !done_; --p) {
        const double thrd = std::ldexp(1.0, p);
        const size_t lsp = sig_.size();  // discoveries of the planes above p
        sorting_pass();
        // Seeds sit at the center of (thrd, 2*thrd].
        Plane& pl = planes_.emplace_back(Plane{1.5 * thrd, thrd / 2.0, sig_.size()});
        if (done_) break;
        // Record and skip the refinement pass. As in the per-bit reference,
        // discoveries from its first missing bit on get no update on this
        // plane, and decoding ends.
        pl.start = br_.bits_read();
        pl.take = std::min(lsp, br_.bits_left());
        br_.skip(pl.take);
        done_ = pl.take < lsp;
      }
    }

    // Dead-zone coefficients are exact zeros; the reconstruct writes the
    // significant ones over them.
    for_lane_ranges(pool_, dims_.total(), [&](size_t b, size_t e, int) {
      std::fill(coeffs + b, coeffs + e, 0.0);
    });
    for_lane_ranges(sig_.size() >= kParallelGrain ? pool_ : nullptr, sig_.size(),
                    [&](size_t b, size_t e, int) { settle(b, e, coeffs); });

    if (stats) {
      stats->bits_consumed = br_.bits_read();
      stats->significant_count = sig_.size();
      stats->truncated = done_;
    }
    return Status::ok;
  }

 private:
  static constexpr uint32_t kIdxMask = 0x7fffffffu;  ///< sign rides in bit 31
  static constexpr uint32_t kLeaf = 0x80000000u;

  /// A listed set: a node id, or for a leaf leaf_tag_ | its coefficient
  /// index, so a leaf turning significant needs no tree lookup.
  [[nodiscard]] uint32_t lis_entry(uint32_t id) const {
    return leaf_tag_ && tree_.is_leaf(id) ? leaf_tag_ | tree_.coeff_index(id) : id;
  }

  struct Frame {
    uint32_t node;
    uint8_t next;
    bool any_sig;
  };

  /// One bitplane. Its discoveries, [previous plane's end, end), start
  /// from `seed`; its refinement pass gives discovery L < take the bit at
  /// start + L, which adds +/- half.
  struct Plane {
    double seed, half;
    size_t end, start = 0, take = 0;
  };

  [[nodiscard]] bool get(bool& bit) {
    bit = br_.get();
    if (br_.exhausted()) done_ = true;
    return !done_;
  }

  void sorting_pass() {
    for (size_t d = lis_.size(); d-- > 0;) {
      // A run of 0-bits is a run of still-insignificant sets: one
      // peek_zero_run skips it, and its entries stay in the bucket, slid
      // down over the sets that turned significant. Descents only append
      // to deeper buckets, already swept this plane.
      std::vector<uint32_t>& list = lis_[d];
      const size_t count = list.size();
      size_t kept = 0;
      for (size_t i = 0; i < count; ++i) {
        const size_t run = br_.peek_zero_run(count - i);
        br_.skip(run);
        const auto from = list.begin() + ptrdiff_t(i);
        if (kept != i) std::copy(from, from + ptrdiff_t(run), list.begin() + ptrdiff_t(kept));
        kept += run;
        i += run;
        if (i == count) break;
        // The next bit is a 1 (significant set) or missing (stream end).
        process_entry(list[i], uint32_t(d));
        if (done_) return;
      }
      list.resize(kept);
    }
  }

  /// Mirror of the encoder's descent of a significant set: significance
  /// bits come from the stream instead of the max tree; everything else —
  /// DFS order, LIS bucketing, the deducible-last-child rule,
  /// stop-on-exhaustion — is the same state machine.
  void process_entry(uint32_t entry, uint32_t depth) {
    bool sig;  // a 1 when present: peek_zero_run stopped on it
    if (!get(sig)) return;
    if (entry & leaf_tag_) {
      found_significant(entry & kIdxMask);
      return;
    }
    const uint32_t id = entry;  // a node id
    if (tree_.is_leaf(id)) {  // untagged leaf
      found_significant(tree_.coeff_index(id));
      return;
    }
    frames_.clear();
    frames_.push_back({id, 0, false});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const uint32_t nc = tree_.child_count(f.node);
      if (f.next == nc) {
        frames_.pop_back();
        continue;
      }
      const uint32_t child = tree_.first_child(f.node) + f.next;
      const bool last = ++f.next == nc;
      const bool deducible = last && !f.any_sig;
      bool csig = true;
      if (!deducible && !get(csig)) return;
      f.any_sig |= csig;
      if (!csig) {
        lis_[depth + frames_.size()].push_back(lis_entry(child));
        continue;
      }
      if (tree_.is_leaf(child)) {
        found_significant(tree_.coeff_index(child));
        if (done_) return;
        continue;
      }
      frames_.push_back({child, 0, false});
    }
  }

  void found_significant(uint32_t idx) {
    bool negative;
    if (!get(negative)) return;  // sign bit missing: entry dropped, as reference
    sig_.push_back(idx | (uint32_t(negative) << 31));
  }

  /// Settle discoveries [b, e) into `coeffs`, kBatch at a time: seed each
  /// from its plane, apply every refinement pass in plane order over the
  /// prefix of the batch below the pass's `take` (discoveries of that plane
  /// or later lie at or above it), then sign, scale and write.
  void settle(size_t b, size_t e, double* coeffs) const {
    const double q = hdr_.q;
    auto g = std::upper_bound(planes_.begin(), planes_.end(), b,
                              [](size_t l, const Plane& pl) { return l < pl.end; });
    double val[kBatch];
    for (size_t l0 = b; l0 < e; l0 += kBatch) {
      const size_t m = std::min(kBatch, e - l0);
      for (size_t i = 0; i < m; ++i) {
        while (g->end <= l0 + i) ++g;
        val[i] = g->seed;
      }
      for (const Plane& r : planes_) {
        // A 0-bit subtracts: its inverted bit flips the half's sign.
        const size_t k = r.take > l0 ? std::min(m, r.take - l0) : 0;
        const uint64_t half = std::bit_cast<uint64_t>(r.half);
        for (size_t w = 0; w < k; w += 64) {
          BitReader at = payload_;
          at.skip(r.start + l0 + w);
          const size_t end = std::min(k, w + 64);
          uint64_t inv = ~at.get_bits(unsigned(end - w));
          for (size_t i = w; i < end; ++i, inv >>= 1)
            val[i] += std::bit_cast<double>(half ^ (inv << 63));
        }
      }
      for (size_t i = 0; i < m; ++i) {
        const uint32_t s = sig_[l0 + i];
        const uint64_t sign = uint64_t(s >> 31) << 63;
        coeffs[s & kIdxMask] =
            std::bit_cast<double>(std::bit_cast<uint64_t>(val[i]) ^ sign) * q;
      }
    }
  }

  const BitReader payload_;  ///< the payload from its first bit, for the reconstruct
  BitReader br_;
  Dims dims_;
  Header hdr_;
  TaskPool* pool_;  ///< null when serial
  bool done_ = false;
  uint32_t leaf_tag_ = 0;  ///< kLeaf, or 0 when node ids need bit 31

  SetTree tree_;  ///< structure only (planes are the encoder's side)
  std::vector<std::vector<uint32_t>> lis_;  ///< lis_entry() words, by depth
  std::vector<Frame> frames_;
  std::vector<uint32_t> sig_;  ///< sign<<31 | coefficient index, discovery order
  std::vector<Plane> planes_;  ///< the planes decoded so far, top first
};

}  // namespace

Status decode(const uint8_t* stream,
              size_t nbytes,
              Dims dims,
              double* coeffs,
              DecodeStats* stats,
              int threads,
              TaskPool* pool) {
  if (dims.total() >= kCoefficientLimit) return Status::invalid_argument;

  ByteReader hr(stream, nbytes);
  Header hdr;
  if (const Status s = hdr.deserialize(hr); s != Status::ok) return s;
  // A top plane no encoder can produce is refused: it bounds the per-plane
  // records, which a crafted stream could otherwise grow by one per bit.
  if (hdr.n_max >= kPlaneLimit) return Status::corrupt_stream;

  // A payload shorter than the header promises is still decodable: the
  // stream is embedded, so we clamp to the bits present (prefix decode).
  const size_t payload_bytes = nbytes - hr.pos();
  const uint64_t nbits = std::min<uint64_t>(hdr.nbits, payload_bytes * 8);

  std::unique_ptr<TaskPool> own;
  if (!pool) {
    own = make_pool(threads);
    pool = own.get();
  }
  FastDecoder dec(BitReader(stream + hr.pos(), payload_bytes, nbits), dims, hdr, pool);
  return dec.run(coeffs, stats);
}

}  // namespace sperr::speck
