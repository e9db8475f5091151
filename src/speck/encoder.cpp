// The SPECK encoder: a data-parallel sweep formulation of the recursive
// reference coder (the test-only oracle in src/oracles/), emitting
// bit-identical streams in every mode.
//
//   * The set hierarchy and every set's maximum significance plane are
//     precomputed once into the contiguous SetTree (settree.h), so a
//     significance test is one int8 load and compare.
//   * Worklists are stable SoA buckets: an entry's set id and cached max
//     plane are appended once; a descended entry is tombstoned (kConsumed)
//     in place. Each sorting sweep packs a bucket's significance and
//     liveness tests into 64-wide words (SSE2 byte compares where
//     available), counts insignificant-set runs with popcounts and emits
//     each run as one put_zeros. Only significant sets enter the
//     frame-stack descent (the reference's recursion order and
//     deducible-significance rule, bit for bit).
//   * Everything about a coefficient is settled at discovery: its whole
//     refinement sequence is one integer (refinement_value), so its
//     refinement bits go to per-plane bit buffers, its reconstruction to
//     the caller's recon array and its error term to the estimated-RMSE
//     fold right there. A refinement pass is one word-batched append of
//     the prebuilt buffer, and nothing walks the significant set after the
//     sweeps.
//   * Deterministic intra-chunk parallelism (a pool of L > 1 lanes): each
//     large bucket is cut into up to L * kSlicesPerLane contiguous slices;
//     lanes claim slices as they free up and sweep each into its private
//     Output (bits, arrivals, refinement bits, error terms), and the
//     outputs merge in slice order, which is serial entry order, so the
//     stream is byte-identical at every lane count. (Safe because a
//     descent from bucket d only spawns entries for deeper buckets.)
//   * Budgeted (size-bounded) mode runs the same sweeps serially and stops
//     once the stream reaches the budget B, mid-sorting-pass included; the
//     payload is then cut to exactly B bits. Refinement bits are
//     prefabricated only down to a floor plane that the cut provably never
//     passes (refinement_floor), and recon / error terms are not settled
//     at discovery but by one pass over the discoveries after the cut
//     (settle_cut), since the cut decides how far each was refined.
//   * q is raised when needed so the top plane is at most kTopPlane: every
//     stream fits the packed-integer refinement arithmetic.
//
// Per-plane pass timings go to EncodeStats::passes (`bench_micro
// --speck_json`). tests/test_speck_fast.cpp holds this coder to
// bit-identical streams and equal EncodeStats against encode_reference
// across shapes, modes, budgets, and 1/2/3/4/8 intra-chunk lanes.

#include "speck/encoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/bitset.h"
#include "common/bitstream.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "speck/settree.h"

namespace sperr::speck {

namespace {

/// Buckets below this size are swept serially even in parallel mode: the
/// fork-join dispatch would cost more than the sweep. The output is
/// invariant to this threshold — slice merge order equals serial order —
/// so it is a pure tuning knob.
constexpr size_t kParallelSortGrain = 64;

/// Slices per lane in a parallel bucket sweep. Significant sets bunch up in
/// parts of a bucket, so equal contiguous lane shares leave most lanes idle
/// while one finishes; many smaller slices claimed dynamically even the
/// load out. Output-invariant, like the grain.
constexpr size_t kSlicesPerLane = 16;

/// Tombstone plane for a bucket entry whose set has descended. Strictly
/// below every real cached plane (planes are in [-1, kTopPlane]), so a
/// consumed entry can never test significant.
constexpr int8_t kConsumed = -128;

/// Highest top plane a stream may have. The packed-integer refinement path
/// holds a coefficient's whole refinement sequence in a uint64 and
/// reconstructs in closed form, exactly while the refined span (2^n down to
/// 2^-1) fits a double's 53-bit mantissa; plane bytes also fit int8.
constexpr int32_t kTopPlane = 50;

/// The refinement bits of a coefficient found significant at plane n, as one
/// integer whose bit b is its refinement bit at plane b. Its magnitude m
/// lies in (2^n, 2^(n+1)], and the reference walks r = m - 2^n down the
/// planes emitting `r > 2^b` and subtracting on 1. Every subtraction is
/// exact (Sterbenz), so the bits are exactly the binary digits of
/// ceil(r0) - 1 with r0 = m - 2^n: for r0 = I + f (integer I, fraction
/// f > 0) strict > reads digit b of I; for integral r0 = I the strict
/// inequality shifts everything to I - 1.
uint64_t refinement_value(double m, int32_t n) {
  if (n == 0) return 0;  // m in (1, 2] forces v = 0 and no future bits
  const double r0 = m - double(uint64_t(1) << n);  // exact: m in (2^n, 2^(n+1)]
  // ceil(r0) - 1 without libm: r0 > 0, so trunc == floor, and ceil differs
  // from floor + 1 exactly when r0 is integral.
  const uint64_t t = uint64_t(r0);
  return double(t) == r0 ? t - 1 : t;
}

/// The reference's reconstruction of a coefficient found at plane n whose
/// refinement bits v were applied down to plane `low` (low == n: none): it
/// starts at 1.5 * 2^n and moves +/- 2^(b-1) per refined plane b, which
/// lands on 2^n + (v's digits >= low) + 2^(low-1), the refined interval's
/// midpoint. Exact for spans <= kTopPlane planes, hence bit-identical.
double reconstruction(int32_t n, uint64_t v, int32_t low) {
  const uint64_t base = (uint64_t(1) << n) + (v >> low << low);
  return low == 0 ? double(base) + 0.5 : double(base + (uint64_t(1) << (low - 1)));
}

class Encoder {
 public:
  Encoder(const double* coeffs, Dims dims, double q, size_t budget_bits,
          TaskPool* pool)
      : coeffs_(coeffs), dims_(dims), q_(q), budget_(budget_bits),
        stop_(budget_bits ? budget_bits : SIZE_MAX) {
    const size_t n = dims.total();
    std::vector<int16_t> coeff_planes(n);  // consumed by the tree fill below
    n_max_ = fill_coeff_planes(coeff_planes, pool);
    if (n_max_ > kTopPlane) {
      // Raise q so the largest magnitude sits exactly on plane kTopPlane
      // (the header records the q used). A subnormal q can round the
      // quotient up a plane; doubling settles it.
      double max_mag = 0.0;
      for (size_t i = 0; i < n; ++i) max_mag = std::max(max_mag, std::fabs(coeffs[i]));
      q_ = std::ldexp(max_mag, -(kTopPlane + 1));
      while ((n_max_ = fill_coeff_planes(coeff_planes, pool)) > kTopPlane) q_ *= 2.0;
    }
    // The squared-magnitude sum for estimated_rmse() stays serial: double
    // addition is not associative, and with the same expressions in the
    // same order as the reference the accumulated double is bit-identical.
    for (size_t i = 0; i < n; ++i) {
      const double m = std::fabs(coeffs[i]) / q_;
      sq_ += m * m;
    }

    if (n_max_ >= 0) {
      tree_.build(dims, pool);
      tree_.fill_planes(coeff_planes.data(), pool);
    }

    // A budgeted encode must stop on an exact bit, so it sweeps serially;
    // only unbudgeted sweeps get the lanes.
    if (budget_) {
      plane_counts_.assign(size_t(n_max_ + 1), 0);
      for (const int16_t p : coeff_planes)
        if (p >= 0) ++plane_counts_[size_t(p)];
      found_.reserve(std::min(n, budget_));  // each discovery emits a bit
    } else {
      pool_ = pool;
    }
    threads_ = lane_count(pool_);
  }

  /// Encode; `recon`, when non-null, is a zeroed dims.total() array that
  /// receives the decoder-equivalent reconstruction.
  std::vector<uint8_t> run(EncodeStats* stats, double* recon) {
    recon_ = recon;
    if (n_max_ >= 0) {
      // Every set is listed at most once, so a bucket never outgrows its
      // depth's node count: reserve that (untouched pages cost nothing)
      // and arrivals never reallocate a worklist.
      out_.spill.resize(max_depth(dims_) + 1);
      const auto& per_depth = tree_.depth_counts();
      for (size_t d = 0; d < per_depth.size() && d < out_.spill.size(); ++d) {
        out_.spill[d].ids.reserve(per_depth[d]);
        out_.spill[d].planes.reserve(per_depth[d]);
      }
      out_.spill[0].push(0, int8_t(tree_.plane(0)));
      run_sweeps();
      if (budget_) settle_cut();
    }

    // A budgeted sweep may run past the budget; the stream ends on it.
    const size_t nbits = std::min(out_.bits.bit_count(), stop_);
    const Header hdr{q_, n_max_, nbits};
    if (stats) {
      stats->payload_bits = nbits;
      stats->planes_coded = planes_;
      stats->significant_count = out_.found;
      // sq_ started with everything in the dead zone; each coded
      // coefficient's m^2 has since been swapped for its true squared error.
      const size_t n = dims_.total();
      stats->estimated_coeff_rmse = n ? q_ * std::sqrt(std::max(sq_, 0.0) / double(n)) : 0.0;
      stats->passes = std::move(pass_times_);
      stats->threads_used = threads_;
    }

    std::vector<uint8_t> out;
    out.reserve(Header::kBytes + (nbits + 7) / 8);
    hdr.serialize(out);
    const auto& payload = out_.bits.finish();
    out.insert(out.end(), payload.begin(), payload.begin() + ptrdiff_t((nbits + 7) / 8));
    if (nbits % 8) out.back() &= uint8_t((1u << (nbits % 8)) - 1);  // bits past B read 0
    return out;
  }

 private:
  /// A worklist: entries append once and are tombstoned in place when their
  /// set descends — never copied, unlike a re-listed LIS. `planes` caches
  /// each set's max plane (planes fit int8), so a sweep's significance
  /// tests read one contiguous byte per entry.
  struct Bucket {
    std::vector<uint32_t> ids;
    std::vector<int8_t> planes;

    void push(uint32_t id, int8_t plane) {
      ids.push_back(id);
      planes.push_back(plane);
    }
  };

  /// Descent frame: the node's children are scanned once at frame creation
  /// into a significance mask and packed plane bytes (make_frame), so the
  /// walk emits sibling runs in batches instead of testing one child per
  /// iteration.
  struct Frame {
    uint32_t node;
    uint8_t nc;
    uint8_t next;     ///< child cursor
    uint8_t mask;     ///< child significance bits at the current plane
    bool any_sig;     ///< a significant child has been coded
    uint64_t planes;  ///< eight packed int8 child planes (for spills)
  };
  using Frames = std::vector<Frame>;

  /// One lane's descent stack, on its own cache line (see Output).
  struct alignas(64) LaneFrames {
    Frames frames;
  };

  /// Everything a sweep emits, in serial order per channel. The master
  /// Output out_ *is* the encoder state — the stream, the depth buckets
  /// (arrivals are the worklists), the per-plane refinement streams — and
  /// a serial sweep writes into it directly. A parallel bucket sweep gives
  /// each slice a private Output and appends them to out_ in slice order.
  /// Cache-line aligned: neighbouring slices run on different lanes, and
  /// their writers' hot fields must not share a line.
  struct alignas(64) Output {
    WordBitWriter bits;
    std::vector<Bucket> spill;       ///< arriving child sets, per depth
    std::vector<WordBitWriter> ref;  ///< refinement bits, per plane
    std::vector<double> terms;       ///< error terms, in discovery order
    size_t found = 0;                ///< coefficients discovered
  };

  /// A budgeted encode's record of one discovery, in discovery order. The
  /// magnitude rides along so settling reads no scattered coefficient.
  struct Discovery {
    uint32_t idx;     ///< coefficient index
    int32_t plane;    ///< plane it turned significant at
    size_t sign_pos;  ///< stream position of its sign bit
    double mag;       ///< |c| / q
  };

  /// Fill `planes` with every coefficient's significance plane at q_ (on
  /// the lanes) and return the top plane. plane_of(max m) == max plane_of(m):
  /// the same top plane as the reference's `largest n with 2^n < max
  /// magnitude` search.
  int32_t fill_coeff_planes(std::vector<int16_t>& planes, TaskPool* pool) const {
    std::vector<int16_t> lane_max(size_t(lane_count(pool)), kDeadPlane);
    for_lane_ranges(pool, planes.size(), [&](size_t b, size_t e, int lane) {
      int16_t mx = kDeadPlane;
      for (size_t i = b; i < e; ++i) {
        const int16_t p = plane_of(std::fabs(coeffs_[i]) / q_);
        planes[i] = p;
        mx = std::max(mx, p);
      }
      lane_max[size_t(lane)] = mx;
    });
    return *std::max_element(lane_max.begin(), lane_max.end());
  }

  /// Budgeted mode, before plane n's passes: the lowest plane whose
  /// refinement bits the stream can still reach. Every coefficient
  /// significant at plane b puts at least one bit into plane b's passes
  /// (its sign if found there, else a refinement bit), so by the end of
  /// plane b <= n the stream holds at least its current length plus
  /// sum_{b'=b..n} #{plane >= b'} bits. The highest plane where that bound
  /// reaches the budget holds the cut, and no refinement pass below it is
  /// ever emitted. The floor only rises: bits already deposited below a
  /// newer floor are simply never appended.
  [[nodiscard]] int32_t refinement_floor(int32_t n) const {
    size_t at_or_above = 0;
    for (int32_t p = n + 1; p <= n_max_; ++p) at_or_above += plane_counts_[size_t(p)];
    size_t bound = out_.bits.bit_count();
    for (int32_t b = n; b > floor_; --b) {
      at_or_above += plane_counts_[size_t(b)];
      bound += at_or_above;
      if (bound >= budget_) return b;
    }
    return floor_;
  }

  void run_sweeps() {
    // Refinement bits for plane n collect in out_.ref[n] as coefficients
    // are discovered (planes n_max_-1 .. floor_ can receive bits).
    out_.ref.resize(size_t(n_max_) + 1);
    lane_frames_.resize(size_t(threads_));

    for (int32_t n = n_max_; n >= 0; --n) {
      if (budget_) floor_ = refinement_floor(n);
      PassTiming pt{n};
      Timer t;
      const uint64_t b0 = out_.bits.bit_count();
      sweep_sorting_pass(n, pt);
      pt.sorting_s = t.seconds();
      cut_plane_ = n;
      ref_begin_ = out_.bits.bit_count();
      pt.sorting_bits = std::min(ref_begin_, stop_) - b0;
      if (ref_begin_ < stop_) {
        t.reset();
        sweep_refinement_pass(n);
        pt.refinement_s = t.seconds();
        pt.refinement_bits = out_.bits.bit_count() - ref_begin_;
      }
      pass_times_.push_back(pt);
      if (out_.bits.bit_count() >= stop_) return;
    }
  }

  void sweep_sorting_pass(int32_t n, PassTiming& pt) {
    ++planes_;
    // Deepest (smallest) sets first; children spawned by descents land in
    // deeper buckets that were already swept, so every set is examined
    // exactly once per plane — the reference's order.
    for (size_t d = out_.spill.size(); d-- > 0;) {
      const Bucket& bk = out_.spill[d];
      const size_t count = bk.ids.size();
      if (count == 0) continue;
      const size_t nwords = (count + 63) / 64;
      sig_.resize_for_overwrite(count);
      live_.resize_for_overwrite(count);

      if (threads_ > 1 && count >= kParallelSortGrain) {
        // Pack the words on the lanes, then sweep contiguous entry slices:
        // a slice's run scans only read the shared words and it tombstones
        // only its own entries. The slice outputs merge below in slice
        // order == serial entry order.
        Timer t;
        for_lane_ranges(pool_, nwords, [&](size_t wb, size_t we, int) {
          fill_sig_words(bk, n, wb * 64, std::min(we * 64, count));
        });
        pt.significance_s += t.seconds();
        const size_t nslices = std::min(count, size_t(threads_) * kSlicesPerLane);
        while (slices_.size() < nslices) {
          slices_.emplace_back();
          slices_.back().spill.resize(out_.spill.size());
          slices_.back().ref.resize(out_.ref.size());
        }
        for_each_claimed(pool_, nslices, [&](size_t s, int lane) {
          const LaneRange r = lane_range(count, int(nslices), int(s));
          sweep_range(d, n, r.begin, r.end, slices_[s], lane_frames_[size_t(lane)].frames);
        });
        merge_slices(nslices, n);
      } else {
        Timer t;
        fill_sig_words(bk, n, 0, count);
        pt.significance_s += t.seconds();
        sweep_range(d, n, 0, count, out_, sweep_frames_);
        fold_terms(out_.terms);
        if (out_.bits.bit_count() >= stop_) return;  // budget reached
      }
    }
  }

  /// Append slice outputs [0, nslices) to the master output, in slice
  /// order, and empty them. Every slice's arrivals have a precomputed
  /// offset in their depth's bucket, so lanes copy them in parallel, one
  /// slice each; the refinement streams of planes below n merge in
  /// parallel one plane each. The stream bits and the error-term fold stay
  /// serial — both are order-dependent and cheap.
  void merge_slices(size_t nslices, int32_t n) {
    const size_t depths = out_.spill.size();
    spill_at_.resize(nslices * depths);
    for (size_t dd = 0; dd < depths; ++dd) {
      size_t at = out_.spill[dd].ids.size();
      for (size_t s = 0; s < nslices; ++s) {
        spill_at_[s * depths + dd] = at;
        at += slices_[s].spill[dd].ids.size();
      }
      out_.spill[dd].ids.resize(at);
      out_.spill[dd].planes.resize(at);
    }
    for_each_claimed(pool_, nslices + size_t(n), [&](size_t item, int) {
      if (item < nslices) {
        for (size_t dd = 0; dd < depths; ++dd) {
          Bucket& src = slices_[item].spill[dd];
          Bucket& dst = out_.spill[dd];
          const size_t at = spill_at_[item * depths + dd];
          std::copy(src.ids.begin(), src.ids.end(), dst.ids.begin() + ptrdiff_t(at));
          std::copy(src.planes.begin(), src.planes.end(),
                    dst.planes.begin() + ptrdiff_t(at));
          src.ids.clear();
          src.planes.clear();
        }
        return;
      }
      const size_t b = item - nslices;
      for (size_t s = 0; s < nslices; ++s) {
        WordBitWriter& src = slices_[s].ref[b];
        if (src.bit_count()) {
          out_.ref[b].append_bits(src.finish().data(), src.bit_count());
          src.clear();
        }
      }
    });
    for (size_t s = 0; s < nslices; ++s) {
      Output& o = slices_[s];
      out_.bits.append_bits(o.bits.finish().data(), o.bits.bit_count());
      o.bits.clear();
      fold_terms(o.terms);
      out_.found += o.found;
      o.found = 0;
    }
  }

  /// The estimated-RMSE fold: add error terms to sq_ in discovery order —
  /// serially, so the double matches the reference's LSP-order sum — and
  /// drop them, so no buffer grows past one bucket sweep's discoveries.
  void fold_terms(std::vector<double>& terms) {
    for (const double t : terms) sq_ += t;
    terms.clear();
  }

  /// Pack significance (`plane >= n`) and liveness (`plane != kConsumed`)
  /// of bucket entries [b, e) into sig_'s / live_'s words — one linear pass
  /// over the cached plane bytes. `b` is a multiple of 64; every covered
  /// word is written in full, so no prior clearing is needed
  /// (resize_for_overwrite above).
  void fill_sig_words(const Bucket& bk, int32_t n, size_t b, size_t e) {
    uint64_t* sw = sig_.word_data();
    uint64_t* lw = live_.word_data();
    const int8_t* p = bk.planes.data();
    size_t i = b;
    for (size_t w = b >> 6; i < e; ++w) {
      uint64_t sig = 0, live = 0;
#if defined(__SSE2__)
      if (e - i >= 64) {
        // Four 16-byte compares per word: signed byte cmpgt gives the
        // significance mask (plane >= n <=> plane > n-1; n-1 fits int8 for
        // n in [0, 50]), cmpeq against the tombstone gives ~liveness.
        const __m128i thr = _mm_set1_epi8(int8_t(n - 1));
        const __m128i dead = _mm_set1_epi8(kConsumed);
        for (unsigned g = 0; g < 4; ++g) {
          const __m128i bytes =
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 16 * g));
          const auto s = unsigned(_mm_movemask_epi8(_mm_cmpgt_epi8(bytes, thr)));
          const auto c = unsigned(_mm_movemask_epi8(_mm_cmpeq_epi8(bytes, dead)));
          sig |= uint64_t(s) << (16 * g);
          live |= uint64_t(~c & 0xffffu) << (16 * g);
        }
        i += 64;
        sw[w] = sig;
        lw[w] = live;
        continue;
      }
#endif
      const size_t lim = std::min(e, i + 64);
      for (unsigned k = 0; i < lim; ++i, ++k) {
        const int8_t pl = p[i];
        sig |= uint64_t(pl >= n) << k;
        live |= uint64_t(pl != kConsumed) << k;
      }
      sw[w] = sig;
      lw[w] = live;
    }
  }

  /// Sweep entries [b, e) of bucket `d` into `o`: runs of live
  /// insignificant sets are counted by popcount and emitted as one batched
  /// zero run (the sets themselves stay listed in place — no copy);
  /// significant sets emit their 1-bit, descend, and are tombstoned.
  void sweep_range(size_t d, int32_t n, size_t b, size_t e, Output& o, Frames& frames) {
    Bucket& bk = out_.spill[d];
    const uint64_t* sigw = sig_.word_data();
    const uint64_t* livew = live_.word_data();
    size_t zeros = 0;
    for (size_t w = b >> 6; w * 64 < e; ++w) {
      const size_t base = w * 64;
      uint64_t window = ~uint64_t(0);
      if (base < b) window <<= b - base;
      if (e - base < 64) window &= (uint64_t(1) << (e - base)) - 1;
      uint64_t sig = sigw[w] & window;
      uint64_t live = livew[w] & window;
      while (sig != 0) {
        const unsigned k = unsigned(std::countr_zero(sig));
        const uint64_t below = (uint64_t(1) << k) - 1;
        zeros += size_t(std::popcount(live & below));
        live &= ~below & ~(uint64_t(1) << k);
        sig &= sig - 1;
        if (zeros) {
          o.bits.put_zeros(zeros);
          zeros = 0;
        }
        o.bits.put_bits(1, 1);
        const size_t idx = base + k;
        sweep_descend(bk.ids[idx], uint32_t(d), n, o, frames);
        bk.planes[idx] = kConsumed;
        // Budgeted stop, checked once per descent; a serial budgeted sweep
        // writes into out_, so o's count is the stream's.
        if (o.bits.bit_count() >= stop_) return;
      }
      zeros += size_t(std::popcount(live));
    }
    if (zeros) o.bits.put_zeros(zeros);
  }

  /// A frame for `node`, from one pass over its children: their max planes
  /// packed into byte lanes of a uint64 (planes fit int8) and their
  /// significance tests at plane n into a mask. Significant leaf children's
  /// coefficients are prefetched: the descent reads them next, scattered
  /// over the grid in tree order, and would otherwise miss one at a time.
  [[nodiscard]] Frame make_frame(uint32_t node, int32_t n) const {
    const uint32_t first = tree_.first_child(node);
    const uint32_t nc = tree_.child_count(node);
    Frame f{node, uint8_t(nc), 0, 0, false, 0};
    for (uint32_t i = 0; i < nc; ++i) {
      const int16_t p = tree_.plane(first + i);
      f.planes |= uint64_t(uint8_t(int8_t(p))) << (8 * i);
      f.mask |= uint8_t(uint32_t(p >= n) << i);
      if (p >= n && tree_.is_leaf(first + i))
        __builtin_prefetch(coeffs_ + tree_.coeff_index(first + i));
    }
    return f;
  }

  /// The reference's recursive descent of a significant set, iteratively,
  /// in identical DFS order with the identical deducible-significance rule —
  /// but emitting sibling bits in batches. The child significance mask is
  /// known at frame creation, so a run of insignificant siblings and the
  /// following significant child's 1-bit collapse into one put_bits (or
  /// put_zeros) call, and the per-child branches on the bit value disappear.
  /// Spilled-set order and the emitted bit sequence are unchanged: bits and
  /// bucket arrivals are separate channels, and each stays in child order.
  void sweep_descend(uint32_t id, uint32_t depth, int32_t n, Output& o, Frames& frames) {
    if (tree_.is_leaf(id)) {
      sweep_found_significant(tree_.coeff_index(id), n, o);
      return;
    }
    frames.clear();
    frames.push_back(make_frame(id, n));
    while (!frames.empty()) {
      Frame& f = frames.back();
      const uint32_t first = tree_.first_child(f.node);
      const uint32_t rem = uint32_t(f.mask) >> f.next;
      if (rem == 0) {
        // Every remaining child is insignificant: one batched zero run,
        // spill them all, pop. (Cannot be reached with any_sig still false:
        // a significant parent has at least one significant child.)
        const uint32_t cnt = uint32_t(f.nc) - f.next;
        if (cnt) {
          o.bits.put_zeros(cnt);
          // Child depth = entry depth + descent depth (frames holds the
          // child's ancestors up to and including its parent).
          Bucket& dest = o.spill[depth + frames.size()];
          for (uint32_t i = f.next; i < f.nc; ++i)
            dest.push(first + i, int8_t(f.planes >> (8 * i)));
        }
        frames.pop_back();
        continue;
      }
      const uint32_t j = f.next + uint32_t(std::countr_zero(rem));
      const uint32_t gap = j - f.next;  // insignificant siblings before j
      if (gap) {
        Bucket& dest = o.spill[depth + frames.size()];
        for (uint32_t i = f.next; i < j; ++i)
          dest.push(first + i, int8_t(f.planes >> (8 * i)));
      }
      if (j == uint32_t(f.nc) - 1 && !f.any_sig) {
        // Last child of a parent with no significant sibling must itself be
        // significant: no bit (encoder and decoder both deduce it).
        if (gap) o.bits.put_zeros(gap);
      } else {
        o.bits.put_bits(uint64_t(1) << gap, gap + 1);
      }
      f.any_sig = true;
      f.next = uint8_t(j + 1);
      const uint32_t child = first + j;
      if (tree_.is_leaf(child)) {
        sweep_found_significant(tree_.coeff_index(child), n, o);
        continue;
      }
      frames.push_back(make_frame(child, n));
    }
  }

  /// A coefficient turning significant at plane n: its sign bit, then its
  /// whole refinement sequence (refinement_value) transposed into the
  /// per-plane refinement streams at once — refinement passes never revisit
  /// it. Unbudgeted, its final reconstruction and error term follow in
  /// closed form right here; a budgeted encode records the discovery and
  /// leaves both to settle_cut.
  void sweep_found_significant(uint32_t idx, int32_t n, Output& o) {
    const double c = coeffs_[idx];
    const double m = std::fabs(c) / q_;
    if (budget_) found_.push_back({idx, n, o.bits.bit_count(), m});
    o.bits.put_bits(uint64_t(std::signbit(c)), 1);
    const uint64_t v = refinement_value(m, n);
    for (int32_t b = n - 1, floor = floor_; b >= floor; --b)
      o.ref[size_t(b)].put_bits((v >> unsigned(b)) & uint64_t(1), 1);
    ++o.found;
    if (budget_) return;
    const double recon = reconstruction(n, v, 0);
    const double e = m - recon;
    o.terms.push_back(e * e - m * m);
    // Each coefficient is discovered once, so lanes never write one slot.
    if (recon_) recon_[idx] = (std::signbit(c) ? -recon : recon) * q_;
  }

  /// Emit plane n's refinement bits: every entry discovered at a plane
  /// above n already deposited its bit for plane n into out_.ref[n] (in
  /// discovery order — slice merges preserve it), so the pass is one
  /// word-batched append, clipped at the budget.
  void sweep_refinement_pass(int32_t n) {
    WordBitWriter& rb = out_.ref[size_t(n)];
    const size_t take = std::min(rb.bit_count(), stop_ - out_.bits.bit_count());
    if (take) out_.bits.append_bits(rb.finish().data(), take);
    rb.clear();
  }

  /// Budgeted mode: settle the state the reference coder stops in. It emits
  /// the bit that reaches the budget but skips that bit's effect — a set
  /// whose significance bit it is stays unexamined, a coefficient whose sign
  /// bit it is is dropped, a refinement it carries is not applied — so the
  /// state is that of the first B - 1 bits. Walking the discoveries in
  /// discovery (= LSP) order sets each one's reconstruction by how far the
  /// cut let it refine, folds its error term in the reference's order, and
  /// counts it. (run_sweeps already clipped the pass bit counts.)
  void settle_cut() {
    const int32_t p = cut_plane_;  // every pass above p completed
    const bool cut = out_.bits.bit_count() >= budget_;
    const size_t last = budget_ - 1;  // the budget bit, when cut
    // Plane p's refinement updates that land before the budget bit, taken
    // by the coefficients found above p in discovery order: none when the
    // cut falls in p's sorting pass, all when nothing was cut (p is 0).
    const size_t refined = !cut ? SIZE_MAX : last > ref_begin_ ? last - ref_begin_ : 0;
    size_t k = 0;
    out_.found = 0;
    for (const Discovery& d : found_) {
      if (cut && d.sign_pos >= last) break;
      const int32_t low = d.plane > p && k++ >= refined ? p + 1 : p;
      const double recon = reconstruction(d.plane, refinement_value(d.mag, d.plane), low);
      const double e = d.mag - recon;
      sq_ += e * e - d.mag * d.mag;
      if (recon_) recon_[d.idx] = (std::signbit(coeffs_[d.idx]) ? -recon : recon) * q_;
      ++out_.found;
    }
  }

  const double* coeffs_;
  Dims dims_;
  double q_;
  size_t budget_;            ///< 0 = unbudgeted
  size_t stop_;              ///< budget_, or SIZE_MAX when unbudgeted
  double* recon_ = nullptr;  ///< recon destination (nullable)

  double sq_ = 0.0;  ///< estimated-RMSE accumulator (see fold_terms)
  int32_t n_max_ = -1;
  int32_t floor_ = 0;  ///< lowest plane given refinement bits (refinement_floor)
  std::vector<size_t> plane_counts_;  ///< budgeted: coefficients per plane
  size_t planes_ = 0;
  std::vector<PassTiming> pass_times_;

  SetTree tree_;

  int threads_ = 1;
  TaskPool* pool_ = nullptr;  ///< sweep lanes; null when serial
  Output out_;                ///< the stream and worklists (see Output)
  std::vector<Output> slices_;       ///< parallel sweep's per-slice outputs
  std::vector<size_t> spill_at_;     ///< merge offsets, [slice][depth]
  Frames sweep_frames_;              ///< serial sweep's descent stack
  std::vector<LaneFrames> lane_frames_;  ///< per-lane descent stacks
  PackedBits sig_;   ///< per-bucket packed significance bits (scratch)
  PackedBits live_;  ///< per-bucket packed liveness bits (scratch)

  // Budgeted mode: where the sweeps stopped, and what they found.
  int32_t cut_plane_ = 0;      ///< plane of the last pass run
  size_t ref_begin_ = 0;       ///< stream position where its refinement began
  std::vector<Discovery> found_;
};

}  // namespace

std::vector<uint8_t> encode(const double* coeffs,
                            Dims dims,
                            double q,
                            size_t budget_bits,
                            EncodeStats* stats,
                            std::vector<double>* recon_out,
                            int threads,
                            TaskPool* pool) {
  if (dims.total() >= kCoefficientLimit)
    throw std::invalid_argument("speck::encode: " + dims.to_string() +
                                " holds 2^31 or more coefficients");
  std::unique_ptr<TaskPool> own;
  if (!pool) {
    own = make_pool(threads);
    pool = own.get();
  }
  if (recon_out) recon_out->assign(dims.total(), 0.0);
  Encoder enc(coeffs, dims, q, budget_bits, pool);
  return enc.run(stats, recon_out ? recon_out->data() : nullptr);
}

}  // namespace sperr::speck
