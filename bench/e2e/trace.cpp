#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/metrics.hpp"

namespace pbl::e2e {

Tracer::NameId Tracer::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<NameId>(it - names_.begin());
  names_.push_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

std::size_t Tracer::begin(NameId name) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(Span{name, parent, mono_ns(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  spans_[span].end_ns = mono_ns();
  // Spans close in LIFO order on the single benchmark thread.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::string Tracer::self_time_table() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<NameId, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    ++r.count;
    r.total_ns += dur;
    r.self_ns += dur - child_ns[i];
  }
  std::vector<std::pair<NameId, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  char head[160];
  std::snprintf(head, sizeof head, "%-30s %8s %11s %11s %13s\n", "span",
                "count", "total_ms", "self_ms", "self_us/span");
  std::string out = head;
  for (const auto& [name, r] : sorted) {
    char line[160];
    std::snprintf(line, sizeof line, "%-30s %8llu %11.3f %11.3f %13.3f\n",
                  names_[name].c_str(),
                  static_cast<unsigned long long>(r.count),
                  static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e3 /
                      static_cast<double>(r.count));
    out += line;
  }
  return out;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string escaped;
  obs::append_json_escaped(escaped, workload);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    obs::append_json_escaped(name, names_[s.name]);
    std::fprintf(f, "{\"name\":%s,\"start_ns\":%lld,\"end_ns\":%lld,",
                 name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    if (s.parent < 0)
      std::fputs("\"parent\":null,", f);
    else
      std::fprintf(f, "\"parent\":%lld,", static_cast<long long>(s.parent));
    std::fprintf(f, "\"workload\":%s}%s\n", escaped.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pbl::e2e
