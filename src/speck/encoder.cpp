// Production SPECK encoder: data-parallel sweep rewrite of the reference
// coder (reference.cpp), emitting bit-identical streams.
//
//   * The set hierarchy and every set's maximum significance plane are
//     precomputed once into the contiguous SetTree (settree.h) — the
//     per-plane significance test collapses from a lazy strided box scan
//     plus a double compare to one int8 load and compare.
//   * Worklists are stable SoA buckets: an entry's set id and its cached
//     max plane are appended once and never copied again; a descended
//     entry is tombstoned (kConsumed) in place. The per-plane sorting
//     sweep packs each bucket's significance and liveness tests into
//     64-wide words (SSE2 byte compares where available, a scalar
//     compare loop otherwise), counts insignificant-set runs with
//     popcounts over those words, and emits each run as one put_zeros —
//     the memory traffic per plane is one byte per listed set instead of
//     a worklist copy. Only significant sets enter the frame-stack
//     descent (the reference's recursion order, preserving the
//     deducible-significance rule bit for bit).
//   * Everything about a coefficient is settled at discovery: when it
//     turns significant at plane p, its whole future refinement sequence
//     is known (one integer — see sweep_found_significant for the
//     derivation from the reference's strict-> residual chain), so its
//     refinement bits go to per-plane bit buffers, its final
//     reconstruction to the caller's recon array, and its error term to
//     the estimated-RMSE fold right there. A refinement pass is then a
//     single word-batched append of the prebuilt buffer for that plane,
//     and nothing walks the significant set after the sweeps.
//   * Deterministic intra-chunk parallelism (a pool of L > 1 lanes): each
//     large bucket's words are cut into up to L * kSlicesPerLane
//     contiguous word-aligned slices; lanes claim slices as they free up
//     and sweep each into that slice's private Output (bits, arrivals,
//     refinement bits, error terms), and the outputs merge in slice order.
//     Slice concatenation reproduces the serial entry order exactly, so
//     the stream is byte-identical at every lane count. (Safe because a
//     descent from bucket d only spawns entries for strictly deeper
//     buckets, never for the bucket being swept.)
//
// The budgeted mode (which must stop on the exact budget bit) and the
// >50-plane fallback keep the reference's serial per-bit walk. Timing of
// each plane's sorting / significance-scan / refinement phases is recorded
// into EncodeStats::passes for `bench_micro --speck_json`.
//
// tests/test_speck_fast.cpp holds this coder to bit-identical streams and
// equal EncodeStats against encode_reference across shapes, modes, and
// 1/2/3/4/8 intra-chunk lanes.

#include "speck/encoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

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
/// below every real cached plane (int path planes are in [-1, 50]), so a
/// consumed entry can never test significant.
constexpr int8_t kConsumed = -128;

class FastEncoder {
 public:
  FastEncoder(const double* coeffs, Dims dims, double q, size_t budget_bits,
              TaskPool* pool)
      : coeffs_(coeffs), dims_(dims), q_(q), budget_(budget_bits) {
    const size_t n = dims.total();
    // Per-coefficient significance planes (consumed by the tree fill below)
    // on the lanes; their max is the top plane.
    std::vector<int16_t> coeff_planes(n);
    std::vector<int16_t> lane_max(size_t(lane_count(pool)), kDeadPlane);
    for_lane_ranges(pool, n, [&](size_t b, size_t e, int lane) {
      int16_t mx = kDeadPlane;
      for (size_t i = b; i < e; ++i) {
        const int16_t p = plane_of(std::fabs(coeffs[i]) / q);
        coeff_planes[i] = p;
        mx = std::max(mx, p);
      }
      lane_max[size_t(lane)] = mx;
    });
    // plane_of(max m) == max plane_of(m): same top plane as the reference's
    // `largest n with 2^n < max magnitude` search.
    n_max_ = *std::max_element(lane_max.begin(), lane_max.end());
    // The squared-magnitude sum for estimated_rmse() stays serial: double
    // addition is not associative, and with the same expressions in the
    // same order as the reference the accumulated double is bit-identical.
    for (size_t i = 0; i < n; ++i) {
      const double m = std::fabs(coeffs[i]) / q;
      mag_sq_sum_ += m * m;
    }
    sq_ = mag_sq_sum_;

    if (n_max_ >= 0) {
      tree_.build(dims, pool);
      tree_.fill_planes(coeff_planes.data(), pool);
    }

    // The packed-integer refinement path holds a coefficient's whole bit
    // sequence (up to n_max_ bits) in a uint64 and reconstructs recon/
    // residual in closed form; both need the refined span to stay well
    // inside double precision. 50 planes covers every real mode (fixed-rate
    // picks q = max*2^-50); beyond that, and in budgeted mode (which must
    // stop on an exact mid-pass bit), use the reference's residual walk.
    int_path_ = budget_ == 0 && n_max_ <= 50;
    // The sweep engine (int path) is the only one with parallel lanes; the
    // serial fallbacks are inherently order-dependent.
    if (int_path_) pool_ = pool;
    threads_ = lane_count(pool_);
  }

  /// Encode; `recon`, when non-null, is a zeroed dims.total() array that
  /// receives the decoder-equivalent reconstruction.
  std::vector<uint8_t> run(EncodeStats* stats, double* recon) {
    recon_ = recon;
    if (n_max_ >= 0) {
      if (int_path_) {
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
      } else {
        lis_.resize(max_depth(dims_) + 1);
        lis_[0].push_back({0, tree_.plane(0)});  // root node
        run_legacy();
        if (recon) export_recon(recon);
      }
    }

    Header hdr;
    hdr.q = q_;
    hdr.n_max = n_max_;
    const size_t nbits = int_path_ ? out_.bits.bit_count() : bw_.bit_count();
    hdr.nbits = nbits;
    if (stats) {
      stats->payload_bits = nbits;
      stats->planes_coded = planes_;
      stats->significant_count = int_path_ ? out_.found : lsp_.size() + lnsp_.size();
      stats->estimated_coeff_rmse = estimated_rmse();
      stats->passes = std::move(pass_times_);
      stats->threads_used = threads_;
    }

    std::vector<uint8_t> out;
    out.reserve(Header::kBytes + (nbits + 7) / 8);
    hdr.serialize(out);
    if (int_path_) {
      const auto& payload = out_.bits.finish();
      out.insert(out.end(), payload.begin(), payload.end());
    } else {
      const auto payload = bw_.take();
      out.insert(out.end(), payload.begin(), payload.end());
    }
    return out;
  }

 private:
  struct SigEntry {
    uint64_t idx;
    double residual;  ///< remaining magnitude to refine away
    double recon;     ///< decoder-equivalent reconstruction (scaled units)
  };

  /// One legacy-engine LIS entry (budgeted / >50-plane modes). The set's
  /// max plane never changes, so it is cached at listing time.
  struct LisEntry {
    uint32_t id;
    int32_t plane;  ///< == tree_.plane(id), cached at listing time
  };

  /// A sweep-engine worklist: entries append once and are tombstoned in
  /// place when their set descends — never copied, unlike a re-listed LIS.
  /// `planes` caches each set's max plane (int path planes fit int8), so a
  /// sweep's significance tests read one contiguous byte per entry.
  struct Bucket {
    std::vector<uint32_t> ids;
    std::vector<int8_t> planes;

    void push(uint32_t id, int8_t plane) {
      ids.push_back(id);
      planes.push_back(plane);
    }
  };

  /// Within-pass descent frame: a significant internal node whose children
  /// are being examined. `next` is the child cursor, `any_sig` feeds the
  /// deducible-last-child rule.
  struct Frame {
    uint32_t node;
    uint8_t next;
    bool any_sig;
  };

  /// Sweep-engine descent frame: the node's children are scanned once at
  /// frame creation into a significance mask and packed plane bytes
  /// (branchless — see scan_children), so the walk emits sibling runs in
  /// batches instead of testing one child per iteration.
  struct SweepFrame {
    uint32_t node;
    uint8_t nc;
    uint8_t next;     ///< child cursor
    uint8_t mask;     ///< child significance bits at the current plane
    bool any_sig;     ///< a significant child has been coded
    uint64_t planes;  ///< eight packed int8 child planes (for spills)
  };
  using Frames = std::vector<SweepFrame>;

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

  [[nodiscard]] double mag(uint64_t idx) const {
    return std::fabs(coeffs_[idx]) / q_;
  }

  [[nodiscard]] double estimated_rmse() const {
    // Start with everything in the dead zone, then swap each coded
    // coefficient's m^2 for its true squared error.
    double sq = sq_;  // the sweeps already folded their terms in
    auto account = [&](double m, double recon) {
      const double e = m - recon;
      sq += e * e - m * m;
    };
    for (const auto& p : lsp_) account(mag(p.idx), p.recon);
    for (const auto& p : lnsp_) account(mag(p.idx), p.recon);
    const size_t n = dims_.total();
    return n ? q_ * std::sqrt(std::max(sq, 0.0) / double(n)) : 0.0;
  }

  /// Legacy engine's reconstruction into a zeroed array.
  void export_recon(double* out) const {
    auto emit = [&](uint64_t idx, double recon) {
      out[idx] = (std::signbit(coeffs_[idx]) ? -recon : recon) * q_;
    };
    for (const auto& p : lsp_) emit(p.idx, p.recon);
    for (const auto& p : lnsp_) emit(p.idx, p.recon);
  }

  // --- sweep engine (unbudgeted, <= 50 planes) -----------------------------

  void run_sweeps() {
    // Refinement bits for plane n collect in out_.ref[n] as coefficients
    // are discovered (planes n_max_-1 .. 0 can receive bits).
    out_.ref.resize(size_t(n_max_) + 1);
    lane_frames_.resize(size_t(threads_));

    for (int32_t n = n_max_; n >= 0; --n) {
      const double thrd = std::ldexp(1.0, n);
      PassTiming pt;
      pt.plane = n;
      Timer t;
      const uint64_t b0 = out_.bits.bit_count();
      sweep_sorting_pass(n, thrd, pt);
      pt.sorting_s = t.seconds();
      pt.sorting_bits = out_.bits.bit_count() - b0;
      t.reset();
      sweep_refinement_pass(n);
      pt.refinement_s = t.seconds();
      pt.refinement_bits = out_.bits.bit_count() - b0 - pt.sorting_bits;
      pass_times_.push_back(pt);
    }
  }

  void sweep_sorting_pass(int32_t n, double thrd, PassTiming& pt) {
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
          sweep_range(d, n, thrd, r.begin, r.end, slices_[s],
                      lane_frames_[size_t(lane)].frames);
        });
        merge_slices(nslices, n);
      } else {
        Timer t;
        fill_sig_words(bk, n, 0, count);
        pt.significance_s += t.seconds();
        sweep_range(d, n, thrd, 0, count, out_, sweep_frames_);
        fold_terms(out_.terms);
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
  void sweep_range(size_t d, int32_t n, double thrd, size_t b, size_t e,
                   Output& o, Frames& frames) {
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
        sweep_descend(bk.ids[idx], uint32_t(d), n, thrd, o, frames);
        bk.planes[idx] = kConsumed;
      }
      zeros += size_t(std::popcount(live));
    }
    if (zeros) o.bits.put_zeros(zeros);
  }

  /// One branchless pass over a node's children: pack their max planes into
  /// byte lanes of a uint64 (int path planes fit int8) and their
  /// significance tests at plane n into a mask. Replaces the per-child
  /// lazy plane load + compare with eight predictable iterations.
  [[nodiscard]] std::pair<uint64_t, uint32_t> scan_children(uint32_t node,
                                                            int32_t n) const {
    const uint32_t first = tree_.first_child(node);
    const uint32_t nc = tree_.child_count(node);
    uint64_t planes = 0;
    uint32_t mask = 0;
    for (uint32_t i = 0; i < nc; ++i) {
      const int16_t p = tree_.plane(first + i);
      planes |= uint64_t(uint8_t(int8_t(p))) << (8 * i);
      mask |= uint32_t(p >= n) << i;
    }
    return {planes, mask};
  }

  [[nodiscard]] SweepFrame make_frame(uint32_t node, int32_t n) const {
    const auto [planes, mask] = scan_children(node, n);
    return {node, uint8_t(tree_.child_count(node)), 0, uint8_t(mask), false,
            planes};
  }

  /// The reference's recursive descent of a significant set, iteratively,
  /// in identical DFS order with the identical deducible-significance rule —
  /// but emitting sibling bits in batches. The child significance mask is
  /// known at frame creation, so a run of insignificant siblings and the
  /// following significant child's 1-bit collapse into one put_bits (or
  /// put_zeros) call, and the per-child branches on the bit value disappear.
  /// Spilled-set order and the emitted bit sequence are unchanged: bits and
  /// bucket arrivals are separate channels, and each stays in child order.
  void sweep_descend(uint32_t id, uint32_t depth, int32_t n, double thrd,
                     Output& o, Frames& frames) {
    if (tree_.is_leaf(id)) {
      sweep_found_significant(tree_.coeff_index(id), n, thrd, o);
      return;
    }
    frames.clear();
    frames.push_back(make_frame(id, n));
    while (!frames.empty()) {
      SweepFrame& f = frames.back();
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
        sweep_found_significant(tree_.coeff_index(child), n, thrd, o);
        continue;
      }
      frames.push_back(make_frame(child, n));
    }
  }

  /// A coefficient turning significant at plane n has magnitude
  /// m in (2^n, 2^(n+1)], and the reference's refinement chain walks
  /// r = m - 2^n down the planes emitting `r > 2^b` and subtracting on 1.
  /// Every subtraction is exact (Sterbenz), so the emitted bits at planes
  /// n-1..0 are exactly the binary digits of ceil(r0) - 1 with r0 = m - 2^n:
  /// for r0 = I + f (integer I, fraction f > 0) strict > reads digit b of I;
  /// for integral r0 = I the strict inequality shifts everything to I - 1.
  /// That integer is captured once here, and its bits are transposed into
  /// the per-plane refinement streams immediately — refinement passes never
  /// revisit the coefficient. The final reconstruction follows in closed
  /// form: the reference subtracts 2^n + v in total and adds half the final
  /// interval (plane 0 => 0.5) — exact for spans <= 50 planes, hence
  /// bit-identical — and so does the coefficient's error term.
  void sweep_found_significant(uint32_t idx, int32_t n, double thrd, Output& o) {
    const double c = coeffs_[idx];
    o.bits.put_bits(uint64_t(std::signbit(c)), 1);
    const double m = std::fabs(c) / q_;
    uint64_t v = 0;
    if (n > 0) {  // at plane 0, m in (1, 2] forces v = 0 and no future bits
      const double r0 = m - thrd;  // exact: m in (thrd, 2*thrd]
      // ceil(r0) - 1 without libm: r0 > 0, so trunc == floor, and ceil
      // differs from floor + 1 exactly when r0 is integral.
      const uint64_t t = uint64_t(r0);
      v = double(t) == r0 ? t - 1 : t;
      for (int32_t b = n - 1; b >= 0; --b)
        o.ref[size_t(b)].put_bits((v >> unsigned(b)) & uint64_t(1), 1);
    }
    const double recon = double((uint64_t(1) << n) + v) + 0.5;
    const double e = m - recon;
    o.terms.push_back(e * e - m * m);
    // Each coefficient is discovered once, so lanes never write one slot.
    if (recon_) recon_[idx] = (std::signbit(c) ? -recon : recon) * q_;
    ++o.found;
  }

  /// Emit plane n's refinement bits: every entry discovered at a plane
  /// above n already deposited its bit for plane n into out_.ref[n] (in
  /// discovery order — slice merges preserve it), so the pass is one
  /// word-batched append.
  void sweep_refinement_pass(int32_t n) {
    WordBitWriter& rb = out_.ref[size_t(n)];
    if (rb.bit_count()) {
      out_.bits.append_bits(rb.finish().data(), rb.bit_count());
      rb.clear();
    }
  }

  // --- legacy engine (budgeted mode and > 50 planes) ------------------------

  void put(bool bit) {
    bw_.put(bit);
    if (budget_ && bw_.bit_count() >= budget_) budget_hit_ = true;
  }

  void run_legacy() {
    for (int32_t n = n_max_; n >= 0 && !budget_hit_; --n) {
      const double thrd = std::ldexp(1.0, n);
      PassTiming pt;
      pt.plane = n;
      Timer t;
      const uint64_t b0 = bw_.bit_count();
      sorting_pass(n, thrd);
      pt.sorting_s = t.seconds();
      pt.sorting_bits = bw_.bit_count() - b0;
      if (!budget_hit_) {
        t.reset();
        const uint64_t b1 = bw_.bit_count();
        refinement_pass(thrd);
        pt.refinement_s = t.seconds();
        pt.refinement_bits = bw_.bit_count() - b1;
      }
      pass_times_.push_back(pt);
    }
  }

  void sorting_pass(int32_t n, double thrd) {
    ++planes_;
    for (size_t d = lis_.size(); d-- > 0;) {
      pending_.clear();
      pending_.swap(lis_[d]);
      for (const LisEntry& e : pending_) {
        process_entry(e, uint32_t(d), n, thrd);
        if (budget_hit_) return;
      }
    }
  }

  /// Examine one LIS entry: emit its significance bit, then — when
  /// significant — run the reference's recursive descent iteratively, with
  /// the budget checked on every emitted bit.
  void process_entry(LisEntry ent, uint32_t depth, int32_t n, double thrd) {
    const uint32_t id = ent.id;
    const bool sig = ent.plane >= n;
    put(sig);
    if (budget_hit_) return;
    if (!sig) {
      lis_[depth].push_back(ent);
      return;
    }
    if (tree_.is_leaf(id)) {
      found_significant(tree_.coeff_index(id), thrd);
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
      int32_t cplane = 0;
      if (!deducible) {
        cplane = tree_.plane(child);
        csig = cplane >= n;
        put(csig);
        if (budget_hit_) return;
      }
      f.any_sig |= csig;
      if (!csig) {
        lis_[depth + frames_.size()].push_back({child, cplane});
        continue;
      }
      if (tree_.is_leaf(child)) {
        found_significant(tree_.coeff_index(child), thrd);
        if (budget_hit_) return;
        continue;
      }
      frames_.push_back({child, 0, false});
    }
  }

  void found_significant(uint64_t idx, double thrd) {
    put(std::signbit(coeffs_[idx]));
    if (budget_hit_) return;  // sign bit emitted, entry dropped — as reference
    lnsp_.push_back({idx, mag(idx), 1.5 * thrd});
  }

  void refinement_pass(double thrd) {
    if (budget_ == 0) {
      // >50-plane fallback: the reference's residual walk with batched
      // emission through the word-at-a-time path.
      uint64_t word = 0;
      unsigned fill = 0;
      for (auto& p : lsp_) {
        const bool bit = p.residual > thrd;
        if (bit) p.residual -= thrd;
        p.recon += bit ? thrd / 2.0 : -thrd / 2.0;
        word |= uint64_t(bit) << fill;
        if (++fill == 64) {
          bw_.put_word(word);
          word = 0;
          fill = 0;
        }
      }
      if (fill) bw_.put_bits(word, fill);
    } else {
      // Budgeted: per-bit loop so encoding stops on the exact budget bit,
      // with that bit's state update skipped — as the reference does.
      for (auto& p : lsp_) {
        const bool bit = p.residual > thrd;
        put(bit);
        if (budget_hit_) return;
        if (bit) p.residual -= thrd;
        p.recon += bit ? thrd / 2.0 : -thrd / 2.0;
      }
    }
    for (auto& p : lnsp_) p.residual -= thrd;
    lsp_.insert(lsp_.end(), lnsp_.begin(), lnsp_.end());
    lnsp_.clear();
  }

  const double* coeffs_;
  Dims dims_;
  double q_;
  size_t budget_;
  bool budget_hit_ = false;
  double* recon_ = nullptr;  ///< sweep engine's recon destination (nullable)

  double mag_sq_sum_ = 0.0;
  double sq_ = 0.0;  ///< estimated-RMSE accumulator (see fold_terms)
  int32_t n_max_ = -1;
  size_t planes_ = 0;
  std::vector<PassTiming> pass_times_;

  SetTree tree_;

  bool int_path_ = false;  ///< packed-integer refinement (see constructor)
  int threads_ = 1;
  TaskPool* pool_ = nullptr;  ///< sweep lanes; null when serial
  Output out_;                ///< the stream and worklists (see Output)
  std::vector<Output> slices_;       ///< parallel sweep's per-slice outputs
  std::vector<size_t> spill_at_;     ///< merge offsets, [slice][depth]
  Frames sweep_frames_;              ///< serial sweep's descent stack
  std::vector<LaneFrames> lane_frames_;  ///< per-lane descent stacks
  PackedBits sig_;   ///< per-bucket packed significance bits (scratch)
  PackedBits live_;  ///< per-bucket packed liveness bits (scratch)

  std::vector<std::vector<LisEntry>> lis_;  ///< legacy worklists by depth
  std::vector<LisEntry> pending_;           ///< legacy per-bucket scratch
  std::vector<Frame> frames_;               ///< legacy engine's descent stack

  std::vector<SigEntry> lsp_;  ///< fallback paths: residual-walk entries
  std::vector<SigEntry> lnsp_;
  BitWriter bw_;  ///< legacy engine's stream
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
  // Node ids in the flattened tree are uint32; beyond this (far above any
  // real chunk) fall back to the reference coder.
  if (dims.total() >= (size_t(1) << 31))
    return encode_reference(coeffs, dims, q, budget_bits, stats, recon_out);
  std::unique_ptr<TaskPool> own;
  if (!pool) {
    own = make_pool(threads);
    pool = own.get();
  }
  if (recon_out) recon_out->assign(dims.total(), 0.0);
  FastEncoder enc(coeffs, dims, q, budget_bits, pool);
  return enc.run(stats, recon_out ? recon_out->data() : nullptr);
}

}  // namespace sperr::speck
