#pragma once

// User-facing compression configuration and statistics for SPERR.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sperr {

/// Termination criterion (paper §I): a compressor can bound size or error,
/// not both at once. target_rmse is the paper's §VII extension: the
/// near-orthogonal unit-norm wavelet makes the coefficient-domain L2 error
/// track the reconstruction L2 error, so an average-error target can be
/// met by choosing the quantization step — no outlier pass needed.
enum class Mode : uint8_t {
  pwe = 0,          ///< bound the maximum point-wise error (SPERR's headline mode)
  fixed_rate = 1,   ///< bound the output size (classic SPECK / ZFP-style)
  target_rmse = 2,  ///< aim for an average (root-mean-square) error
};

struct Config {
  Mode mode = Mode::pwe;

  /// PWE tolerance t > 0 (mode == pwe). Every reconstructed value is within
  /// t of the original.
  double tolerance = 0.0;

  /// Target bitrate in bits per point (mode == fixed_rate). The stream is
  /// truncated at this budget; no error guarantee.
  double bpp = 0.0;

  /// Target average error (mode == target_rmse). Achieved RMSE lands at or
  /// below this (typically within ~2x); no point-wise guarantee.
  double rmse = 0.0;

  /// Quantization step for coefficient coding, in units of the tolerance
  /// (q = q_over_t * t). The paper's sweep (§IV-D, Fig. 3) finds the sweet
  /// spot in [1.4, 1.8] and ships 1.5.
  double q_over_t = 1.5;

  /// Chunk extents for parallel execution (paper §III-D; default 256^3).
  /// Chunks need not divide the volume evenly nor be powers of two.
  Dims chunk_dims{256, 256, 256};

  /// The call's thread budget: OpenMP threads for chunk-parallel execution
  /// plus the lanes inside each chunk; 0 = runtime default.
  int num_threads = 0;

  /// Lanes *inside* each chunk: the wavelet passes, the SPECK coder's
  /// deterministic sweeps and the outlier comparison of one chunk share
  /// them, and the stream is byte-identical at every setting. 0 (default)
  /// applies chunk_lanes(): max(1, num_threads / chunks), so a single-chunk
  /// input gets every thread of the budget while inputs with at least as
  /// many chunks as threads stay one lane per chunk. Any other value is
  /// used as-is for every chunk.
  int intra_chunk_threads = 0;

  /// Apply the final lossless pass (paper §V uses ZSTD; we use the built-in
  /// LZ77+Huffman codec). Disable to inspect raw coder output.
  bool lossless_pass = true;

  /// Block granularity of the lossless pass in bytes (clamped to
  /// [4 KiB, 1 GiB] by the codec). Blocks are coded independently and in
  /// parallel, each carrying its own checksum; smaller blocks localize
  /// corruption and parallelize better, larger ones compress slightly
  /// tighter. The value is recorded in the stream, so any setting decodes
  /// everywhere.
  size_t lossless_block_size = size_t(1) << 20;
};

/// The one rule for splitting a call's thread budget: chunks run on a team
/// of min(threads, chunks), and each chunk gets max(1, threads / chunks)
/// lanes, so team * lanes never exceeds the budget. `intra` (a
/// Config::intra_chunk_threads value) overrides the lanes when non-zero.
inline int chunk_lanes(int threads, size_t chunks, int intra = 0) {
  if (intra != 0) return intra;
  if (chunks == 0 || threads <= 0) return 1;
  return size_t(threads) > chunks ? int(size_t(threads) / chunks) : 1;
}

/// The chunk loop's team under the same rule: min(threads, chunks), at least 1.
inline int chunk_team(int threads, size_t chunks) {
  if (threads < 1 || chunks == 0) return 1;
  return size_t(threads) < chunks ? threads : int(chunks);
}

/// Wall-clock seconds per pipeline stage (paper Fig. 6), summed over chunks
/// (i.e. total work, not elapsed time, when running multi-threaded), plus
/// the uncompressed payload bytes those stages processed so per-stage
/// throughput is trackable PR-over-PR (bench_micro's BENCH_wavelet.json).
struct StageTiming {
  double transform_s = 0.0;  ///< forward wavelet transform
  double speck_s = 0.0;      ///< SPECK coefficient coding
  double locate_s = 0.0;     ///< inverse transform + comparison to find outliers
  double outlier_s = 0.0;    ///< outlier coding
  double lossless_s = 0.0;   ///< final lossless pass over the container
  uint64_t bytes = 0;        ///< uncompressed input bytes covered by the times

  [[nodiscard]] double total() const {
    return transform_s + speck_s + locate_s + outlier_s + lossless_s;
  }

  /// Forward-transform stage throughput in MB/s (0 when unmeasured).
  [[nodiscard]] double transform_mbps() const {
    return transform_s > 0.0 ? double(bytes) / transform_s / 1e6 : 0.0;
  }

  /// Whole-pipeline throughput in MB/s (0 when unmeasured).
  [[nodiscard]] double total_mbps() const {
    return total() > 0.0 ? double(bytes) / total() / 1e6 : 0.0;
  }

  StageTiming& operator+=(const StageTiming& o) {
    transform_s += o.transform_s;
    speck_s += o.speck_s;
    locate_s += o.locate_s;
    outlier_s += o.outlier_s;
    lossless_s += o.lossless_s;
    bytes += o.bytes;
    return *this;
  }
};

/// What decompress_tolerant does with a chunk that fails verification or
/// decoding (v3 containers checksum every chunk, so damage is attributed to
/// exact chunk indices; see docs/FORMAT.md "Recovery semantics").
enum class Recovery : uint8_t {
  fail_fast = 0,    ///< report the first damaged chunk and give up (classic behavior)
  zero_fill = 1,    ///< damaged chunks come back as zeros; good chunks are untouched
  coarse_fill = 2,  ///< reconstruct damaged chunks from whatever SPECK prefix still
                    ///< decodes, falling back to the stored chunk-mean DC value
};

/// What recovery actually did to a damaged chunk.
enum class ChunkAction : uint8_t {
  none = 0,    ///< chunk decoded clean (or fail_fast left it as-is)
  zeroed = 1,  ///< region filled with zeros
  coarse = 2,  ///< best-effort SPECK decode (outlier corrections skipped)
  dc_fill = 3, ///< region filled with the directory's chunk mean
};

/// Per-chunk verdict from a tolerant decode or a verify pass.
struct ChunkReport {
  size_t index = 0;
  Status status = Status::ok;     ///< this chunk's decode/verification verdict
  bool checksum_present = false;  ///< v3 containers carry per-chunk checksums
  bool checksum_ok = false;       ///< stored == computed (false when absent)
  uint64_t checksum_stored = 0;
  uint64_t checksum_computed = 0;
  uint64_t offset = 0;       ///< byte offset of the chunk's streams in the inner container
  uint64_t speck_len = 0;    ///< advertised SPECK stream length
  uint64_t outlier_len = 0;  ///< advertised outlier stream length
  ChunkAction action = ChunkAction::none;
  double seconds = 0.0;  ///< wall-clock time spent verifying + decoding this chunk

  [[nodiscard]] bool damaged() const { return status != Status::ok; }
};

/// Full result of decompress_tolerant / verify_container: overall verdict
/// plus one ChunkReport per chunk, in chunk order.
struct DecodeReport {
  Status status = Status::ok;  ///< ok only when every chunk verified and decoded clean
  bool field_valid = false;    ///< the output field is usable (possibly recovered)
  bool header_ok = false;      ///< wrapper + container header + directory parsed
  uint8_t version = 0;         ///< container version (3 = per-chunk integrity)
  Recovery policy = Recovery::fail_fast;
  size_t damaged = 0;    ///< chunks that failed verification or decoding
  size_t recovered = 0;  ///< damaged chunks patched by the recovery policy
  std::vector<size_t> lossless_bad_blocks;  ///< corrupt blocks in the lossless payload
  std::vector<ChunkReport> chunks;
  double seconds = 0.0;

  /// Lowest damaged chunk index (SIZE_MAX when none) — deterministic even
  /// when chunks decode in parallel.
  [[nodiscard]] size_t first_damaged() const {
    for (const ChunkReport& c : chunks)
      if (c.damaged()) return c.index;
    return size_t(-1);
  }
};

struct Stats {
  size_t compressed_bytes = 0;  ///< final container size
  size_t speck_bytes = 0;       ///< coefficient-coding bytes before the lossless pass
  size_t outlier_bytes = 0;     ///< outlier-coding bytes before the lossless pass
  size_t num_outliers = 0;
  size_t num_chunks = 0;
  size_t lossless_blocks = 0;  ///< blocks in the final lossless pass (0 if disabled)
  double bpp = 0.0;  ///< achieved bits per point (final container)

  /// SPECK coder internals, summed over chunks (from speck::EncodeStats):
  /// payload bits actually emitted, bitplanes walked, and coefficients that
  /// left the dead zone. Ties the container size back to coder behaviour
  /// (e.g. Fig. 2's coefficient/outlier storage split).
  size_t speck_payload_bits = 0;
  size_t speck_planes_coded = 0;  ///< sum over chunks; divide by num_chunks for the mean
  size_t speck_significant = 0;

  /// SPECK per-pass wall-clock totals, summed over chunks and bitplanes
  /// (from speck::PassTiming). The reduction runs in chunk-index order in a
  /// serial post-loop — never inside the OpenMP chunk loop — so the sums
  /// are reproducible run-to-run for a fixed set of per-chunk timings
  /// (floating-point addition is not associative; a worker-completion-order
  /// sum would differ between runs even on identical inputs).
  double speck_sorting_s = 0.0;
  double speck_significance_s = 0.0;
  double speck_refinement_s = 0.0;
  StageTiming timing;
};

}  // namespace sperr
