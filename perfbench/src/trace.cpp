#include "trace.h"

#include <fstream>

#include "util.h"

namespace perfbench {

uint64_t Tracer::begin(const std::string& name, uint64_t parent, uint64_t op) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start = t;
  s.end = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(uint64_t id, std::vector<std::pair<std::string, double>> attrs) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[id - 1];
  s.end = t;
  s.attrs = std::move(attrs);
}

uint64_t Tracer::new_op() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_op_++;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : spans()) {
    Json j;
    j.integer("id", s.id)
        .integer("parent", s.parent)
        .integer("op", s.op)
        .str("name", s.name)
        .num("start", s.start)
        .num("end", s.end);
    if (!s.attrs.empty()) {
      Json a;
      for (const auto& [k, v] : s.attrs) a.num(k, v);
      j.obj("attrs", a);
    }
    f << j.dump() << '\n';
  }
  return bool(f);
}

}  // namespace perfbench
