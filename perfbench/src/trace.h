#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each library layer; nothing inside
// the library is instrumented. A span has a name, start and end (seconds on
// now_s()'s clock), the id of the span that caused it (0 for a root) and the
// id of the op it belongs to. Optional numeric attributes carry the work a
// call did (bytes, bits, counts). Spans are written as JSON lines once the
// run ends; self times are computed from them by perfbench/run.py.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  /// Open a span; returns its id. Thread-safe.
  uint64_t begin(const std::string& name, uint64_t parent, uint64_t op);
  /// Close span `id`, attaching `attrs`. Thread-safe.
  void end(uint64_t id, std::vector<std::pair<std::string, double>> attrs = {});
  /// A fresh op id (root spans use it as their own op).
  uint64_t new_op();

  [[nodiscard]] std::vector<Span> spans() const;
  /// Write every span as one JSON object per line. False on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_op_ = 1;
};

/// RAII span; a null tracer records nothing, so the same code path serves
/// the traced and the untraced replays.
class Scoped {
 public:
  Scoped(Tracer* t, const std::string& name, uint64_t parent, uint64_t op)
      : t_(t), id_(t ? t->begin(name, parent, op) : 0) {}
  ~Scoped() {
    if (t_) t_->end(id_, std::move(attrs_));
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void attr(const std::string& k, double v) { attrs_.emplace_back(k, v); }
  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  uint64_t id_;
  std::vector<std::pair<std::string, double>> attrs_;
};

}  // namespace perfbench
