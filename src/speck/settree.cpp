#include "speck/settree.h"

#include <algorithm>

namespace sperr::speck {

namespace {

/// Nodes of a box's subtree at each relative depth (the box itself is depth
/// 0). Only the extents matter, and ceil/floor halving visits few distinct
/// extents, so the memo stays tiny.
template <class Memo>
const std::vector<size_t>& level_counts(const Box& b, Memo& memo) {
  const typename Memo::key_type key{b.nx, b.ny, b.nz};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  std::vector<size_t> counts{1};
  if (!b.is_single()) {
    Box children[8];
    const int nc = split_box(b, children);
    for (int i = 0; i < nc; ++i) {
      const std::vector<size_t>& c = level_counts(children[i], memo);
      if (counts.size() < c.size() + 1) counts.resize(c.size() + 1, 0);
      for (size_t k = 0; k < c.size(); ++k) counts[k + 1] += c[k];
    }
  }
  return memo.emplace(key, std::move(counts)).first->second;
}

/// Node records below a box: its whole subtree minus its own record.
template <class Memo>
uint32_t descendants(const Box& b, Memo& memo) {
  size_t total = 0;
  for (const size_t c : level_counts(b, memo)) total += c;
  return uint32_t(total - 1);
}

}  // namespace

void SetTree::build(Dims dims, TaskPool* pool) {
  dims_ = dims;
  tasks_.clear();
  frontier_.assign(1, 0);

  Box root;
  root.nx = uint32_t(dims.x);
  root.ny = uint32_t(dims.y);
  root.nz = uint32_t(dims.z);
  CountMemo memo;
  depth_counts_ = level_counts(root, memo);
  count_ = size_t(descendants(root, memo)) + 1;
  // Leaves = n; internal nodes are ~n/7 for octree bulk, up to n-1 in the
  // all-binary-splits worst case (thin 1-D grids). No value-initialization:
  // every record is written exactly once below, by the lane that owns it.
  nodes_.reset(new Node[count_]);
  if (root.is_single()) {
    nodes_[0] = {uint32_t(dims.index(root.x, root.y, root.z)), 0, 0};
    return;
  }
  nodes_[0] = {0, 0, 0};
  if (lane_count(pool) == 1) {
    tasks_.push_back({root, 0, 1, uint32_t(count_)});
  } else {
    split_frontier(root, 0, 1, kFrontierLevels, memo);
  }
  for_each_claimed(pool, tasks_.size(), [&](size_t i, int) { expand(tasks_[i]); });
}

/// Serial top of the tree: node `id` (box `b`) gets its children at
/// [next, next + nc); internal children either recurse (while `levels`
/// remain) or become tasks whose subtrees take the next id ranges in DFS
/// order. Returns the first id after everything allocated under `id`.
uint32_t SetTree::split_frontier(const Box& b, uint32_t id, uint32_t next,
                                 int levels, CountMemo& memo) {
  Box children[8];
  const int nc = split_box(b, children);
  const uint32_t base = next;
  nodes_[id].first = base;
  nodes_[id].nchild = uint16_t(nc);
  for (int i = 0; i < nc; ++i) {
    const Box& c = children[i];
    nodes_[base + uint32_t(i)] =
        c.is_single() ? Node{uint32_t(dims_.index(c.x, c.y, c.z)), 0, 0} : Node{0, 0, 0};
    frontier_.push_back(base + uint32_t(i));
  }
  next += uint32_t(nc);
  for (int i = 0; i < nc; ++i) {
    if (children[i].is_single()) continue;
    if (levels > 1) {
      next = split_frontier(children[i], base + uint32_t(i), next, levels - 1, memo);
    } else {
      const uint32_t end = next + descendants(children[i], memo);
      tasks_.push_back({children[i], base + uint32_t(i), next, end});
      next = end;
    }
  }
  return next;
}

void SetTree::expand(const Task& t) {
  struct Frame {
    Box box;
    uint32_t id;
  };
  std::vector<Frame> stack;
  stack.reserve(64 * 8);
  stack.push_back({t.box, t.id});
  uint32_t next = t.first;

  // Leaf children are finalized inline at parent expansion — only internal
  // children round-trip through the stack. Leaves are the bulk of the tree
  // (7/8 of an octree), so this cuts stack traffic ~8x.
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    Box children[8];
    const int nc = split_box(f.box, children);
    const uint32_t base = next;
    next += uint32_t(nc);
    nodes_[f.id].first = base;
    nodes_[f.id].nchild = uint16_t(nc);
    for (int i = 0; i < nc; ++i) {
      const Box& c = children[i];
      nodes_[base + uint32_t(i)] =
          c.is_single() ? Node{uint32_t(dims_.index(c.x, c.y, c.z)), 0, 0}
                        : Node{0, 0, 0};  // structure filled at its expansion
    }
    // Reverse push so child 0 is expanded next: the whole of child 0's
    // subtree is allocated before child 1's, giving the DFS id layout.
    for (int i = nc; i-- > 0;)
      if (!children[i].is_single()) stack.push_back({children[i], base + uint32_t(i)});
  }
}

void SetTree::fill_planes(const int16_t* coeff_planes, TaskPool* pool) {
  // DFS allocation puts every child after its parent, so one reverse sweep
  // sees all children before their parent — per task range, then over the
  // frontier (which holds the task roots), whose children are frontier
  // nodes or lie in task ranges.
  auto fold = [&](uint32_t i) {
    Node& nd = nodes_[i];
    if (nd.nchild == 0) {
      nd.plane = coeff_planes[nd.first];
      return;
    }
    const uint32_t f = nd.first;
    int16_t mx = nodes_[f].plane;
    for (uint32_t c = 1; c < nd.nchild; ++c) mx = std::max(mx, nodes_[f + c].plane);
    nd.plane = mx;
  };
  for_each_claimed(pool, tasks_.size(), [&](size_t k, int) {
    const Task& t = tasks_[k];
    for (uint32_t i = t.end; i-- > t.first;) fold(i);
  });
  for (size_t k = frontier_.size(); k-- > 0;) fold(frontier_[k]);
}

}  // namespace sperr::speck
