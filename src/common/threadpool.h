#pragma once

// Minimal fork-join worker pool for deterministic intra-chunk parallelism.
//
// The SPECK sweep engine dispatches many small parallel regions per encode
// (one per bitplane per worklist bucket), so spawning std::threads at every
// region would dominate the work. A TaskPool spawns its workers once and
// reuses them: run(fn) hands every worker the same callable with a distinct
// lane id in [0, threads) and blocks until all lanes finish.
//
// Determinism is the caller's contract, not the pool's: callers partition
// work into per-lane slices and merge the per-lane results in lane order,
// so the combined output is identical at every thread count (the pool never
// reorders, steals, or splits a lane).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sperr {

class TaskPool {
 public:
  /// Spawn `threads - 1` workers (lane 0 runs on the calling thread).
  /// threads <= 1 creates no workers and run() executes inline.
  explicit TaskPool(int threads) : threads_(threads < 1 ? 1 : threads) {
    workers_.reserve(size_t(threads_ - 1));
    for (int lane = 1; lane < threads_; ++lane)
      workers_.emplace_back([this, lane] { worker_loop(lane); });
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] int threads() const { return threads_; }

  /// Run fn(lane) for every lane in [0, threads()); returns when all lanes
  /// have finished. fn must be safe to call concurrently from different
  /// threads with distinct lane ids. Not reentrant.
  void run(const std::function<void(int)>& fn) {
    if (threads_ == 1) {
      fn(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      pending_ = threads_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }

 private:
  void worker_loop(int lane) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
      }
      (*fn)(lane);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  int threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;
  int pending_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Contiguous slice [begin, end) of `count` items for `lane` of `lanes`:
/// the fixed partition every parallel sweep uses. Lane boundaries depend
/// only on (count, lanes), and concatenating the lanes' outputs in lane
/// order reproduces the serial iteration order exactly.
struct LaneRange {
  size_t begin = 0;
  size_t end = 0;
};

inline LaneRange lane_range(size_t count, int lanes, int lane) {
  const size_t per = count / size_t(lanes);
  const size_t rem = count % size_t(lanes);
  const size_t b = per * size_t(lane) + std::min<size_t>(size_t(lane), rem);
  return {b, b + per + (size_t(lane) < rem ? 1 : 0)};
}

/// Resolve a thread-count knob: 1 stays serial, 0 (or negative) means one
/// lane per hardware thread, anything else is clamped to [1, 64].
inline int resolve_thread_count(int threads) {
  if (threads == 1) return 1;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? int(hw) : 1;
  }
  return std::clamp(threads, 1, 64);
}

/// A pool of resolve_thread_count(threads) lanes, or nullptr when that is 1
/// (serial callers then run inline and spawn nothing).
inline std::unique_ptr<TaskPool> make_pool(int threads) {
  const int t = resolve_thread_count(threads);
  return t > 1 ? std::make_unique<TaskPool>(t) : nullptr;
}

/// The lanes of `pool`; 1 for nullptr.
inline int lane_count(const TaskPool* pool) { return pool ? pool->threads() : 1; }

/// Run fn(begin, end, lane) on lane_range(count, lanes, lane) for every lane
/// with a non-empty slice. Inline as one slice when `pool` is nullptr.
template <class Fn>
void for_lane_ranges(TaskPool* pool, size_t count, Fn&& fn) {
  const int lanes = lane_count(pool);
  if (lanes == 1) {
    if (count) fn(size_t(0), count, 0);
    return;
  }
  pool->run([&](int lane) {
    const LaneRange r = lane_range(count, lanes, lane);
    if (r.begin < r.end) fn(r.begin, r.end, lane);
  });
}

/// Run fn(item, lane) for every item in [0, count), the lanes claiming items
/// one at a time in index order as they free up, so items of uneven cost
/// balance across lanes. Which lane runs an item varies run to run, so
/// callers keep per-item outputs and combine them in item order. Inline in
/// index order when `pool` is nullptr.
template <class Fn>
void for_each_claimed(TaskPool* pool, size_t count, Fn&& fn) {
  if (lane_count(pool) == 1) {
    for (size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  std::atomic<size_t> next{0};
  pool->run([&](int lane) {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count;)
      fn(i, lane);
  });
}

}  // namespace sperr
