#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

void Ops::record(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(problem);
}

void Ops::merge(const Ops& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (const auto& f : o.failures)
    if (failures.size() < 8) failures.push_back(f);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + json_escape(k) + "\":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += fmt_num(v);
  return *this;
}

Json& Json::integer(const std::string& k, uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"' + json_escape(v) + '"';
  return *this;
}

Json& Json::nums(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += '[';
  for (size_t i = 0; i < v.size(); ++i) body_ += (i ? "," : "") + fmt_num(v[i]);
  body_ += ']';
  return *this;
}

Json& Json::strs(const std::string& k, const std::vector<std::string>& v) {
  key(k);
  body_ += '[';
  for (size_t i = 0; i < v.size(); ++i)
    body_ += (i ? ",\"" : "\"") + json_escape(v[i]) + '"';
  body_ += ']';
  return *this;
}

Json& Json::obj(const std::string& k, const Json& v) {
  key(k);
  body_ += v.dump();
  return *this;
}

std::string Json::dump() const { return '{' + body_ + '}'; }

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB on Linux
}

sperr::Dims clamp_dims(sperr::Dims d, size_t cap) {
  return {std::min(d.x, cap), std::min(d.y, cap), std::min(d.z, cap)};
}

std::vector<double> corner_block(const std::vector<double>& vol, sperr::Dims vd,
                                 sperr::Dims sub) {
  std::vector<double> out(sub.total());
  for (size_t z = 0; z < sub.z; ++z)
    for (size_t y = 0; y < sub.y; ++y)
      std::copy_n(vol.data() + vd.index(0, y, z), sub.x,
                  out.data() + sub.index(0, y, z));
  return out;
}

}  // namespace perfbench
