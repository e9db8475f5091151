#pragma once

// Flattened SPECK set-partition hierarchy. The reference coder materializes
// sets lazily as 40-byte box entries and rediscovers each set's children
// (split_box) and maximum magnitude (a strided box scan) on demand, every
// plane. This tree precomputes both, once, into contiguous SoA arrays:
//
//   * structure  — node 0 is the root (whole grid); an internal node's
//     children occupy the contiguous id range [first(i), first(i)+nchild(i))
//     in exactly the order split_box() emits them, so a traversal that walks
//     child ids reproduces the reference traversal bit for bit;
//   * magnitudes — per node, the maximum significance plane of the
//     coefficients it covers, folded bottom-up in one reverse sweep.
//
// Ids are allocated by a depth-first walk (children always follow their
// parent), which makes the bottom-up fold a reverse linear sweep and keeps a
// subtree's nodes adjacent in memory — the generalized Morton layout: for a
// power-of-two cube, leaves appear exactly in Z-order. A leaf stores its
// coefficient's linear index instead of a child range.
//
// The structure depends only on the grid extents, so encoder and decoder
// build identical trees without communicating anything.
//
// Parallel build: a subtree's node count depends only on its box extents,
// so it is known before the subtree is built. build() expands the top
// kFrontierLevels levels serially, hands every internal node below them to
// a task that starts allocating at its precomputed DFS id offset, and runs
// the tasks on a pool — the ids come out exactly as the serial walk
// allocates them. fill_planes() then folds each task's id range on its own
// lane and the serial frontier last.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/threadpool.h"
#include "common/types.h"
#include "speck/common.h"

namespace sperr::speck {

/// Significance plane of a dead-zone coefficient (|c|/q <= 1): tested
/// planes are n >= 0, so -1 means "never significant".
inline constexpr int16_t kDeadPlane = -1;

/// Largest representable plane: thresholds 2^n for n > 1023 overflow to
/// +inf, where even an infinite magnitude fails the strict `m > thrd` test.
inline constexpr int16_t kMaxPlane = 1023;

/// Significance plane of a scaled magnitude m = |c| / q: the largest n >= 0
/// with m > 2^n, or kDeadPlane when there is none. Matches the reference
/// coder's per-plane `m > ldexp(1.0, n)` test for every n, and its top-plane
/// search, exactly (strict inequality: m == 2^k is NOT significant at k).
inline int16_t plane_of(double m) {
  if (!(m > 1.0)) return kDeadPlane;  // dead zone; also 0 and NaN
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(m));
  __builtin_memcpy(&bits, &m, sizeof(bits));
  const int e = int((bits >> 52) & 0x7ff) - 1023;  // m > 1 => positive normal
  if (e > 1023) return kMaxPlane;                  // +inf
  const bool exact_pow2 = (bits & ((uint64_t(1) << 52) - 1)) == 0;
  return int16_t(exact_pow2 ? e - 1 : e);
}

/// The flattened set-partition tree. Node ids are uint32: callers must
/// ensure dims.total() < 2^31 (the speck::encode/decode entry points fall
/// back to the reference coder above that).
///
/// Storage is one interleaved 8-byte record per node: the sorting-pass
/// descent reads a child's structure and max plane together, so each node
/// visit touches one cache line instead of three parallel arrays.
class SetTree {
 public:
  /// Build the structure for `dims`. Deterministic and data-independent:
  /// node for node the same tree with or without `pool`, whose lanes build
  /// disjoint subtrees.
  void build(Dims dims, TaskPool* pool = nullptr);

  /// Fill per-node max planes bottom-up from per-coefficient planes
  /// (indexed by linear coefficient index). Requires build() first; splits
  /// the work the way build() did.
  void fill_planes(const int16_t* coeff_planes, TaskPool* pool = nullptr);

  [[nodiscard]] size_t node_count() const { return count_; }
  /// Nodes at each depth (root = depth 0): a worklist bucket's capacity.
  [[nodiscard]] const std::vector<size_t>& depth_counts() const { return depth_counts_; }
  [[nodiscard]] bool is_leaf(uint32_t id) const { return nodes_[id].nchild == 0; }
  [[nodiscard]] uint32_t first_child(uint32_t id) const { return nodes_[id].first; }
  [[nodiscard]] uint32_t child_count(uint32_t id) const { return nodes_[id].nchild; }
  /// Linear coefficient index of a leaf node.
  [[nodiscard]] uint32_t coeff_index(uint32_t id) const { return nodes_[id].first; }
  [[nodiscard]] int16_t plane(uint32_t id) const { return nodes_[id].plane; }

 private:
  struct Node {
    uint32_t first;   ///< internal: first child id; leaf: coeff index
    uint16_t nchild;  ///< 0 for leaves, 2..8 otherwise
    int16_t plane;    ///< max significance plane over the set (fill_planes)
  };
  static_assert(sizeof(Node) == 8);

  /// An internal node whose descendants one lane builds: they take ids
  /// [first, end), allocated in DFS order from `first`.
  struct Task {
    Box box;
    uint32_t id;
    uint32_t first;
    uint32_t end;
  };

  /// Levels expanded serially before the rest is cut into tasks: up to 512
  /// tasks for a cube, 8 for a thin line — enough for lanes that claim
  /// tasks dynamically to balance their uneven sizes.
  static constexpr int kFrontierLevels = 3;

  /// Per-depth node counts by box extents (see settree.cpp).
  using CountMemo = std::map<std::array<uint32_t, 3>, std::vector<size_t>>;

  uint32_t split_frontier(const Box& b, uint32_t id, uint32_t next, int levels,
                          CountMemo& memo);
  void expand(const Task& t);

  Dims dims_;
  std::unique_ptr<Node[]> nodes_;  ///< every record is written by build()
  size_t count_ = 0;
  std::vector<size_t> depth_counts_;
  std::vector<Task> tasks_;
  std::vector<uint32_t> frontier_;  ///< ids allocated outside tasks, ascending
};

}  // namespace sperr::speck
