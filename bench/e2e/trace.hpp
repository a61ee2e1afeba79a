// In-memory span recorder for the traced ext_e2e run.
//
// A span is {name, start, end, parent}; spans nest by call order on the
// one benchmark thread.  Recording costs two clock reads and a vector
// push, and nothing is written until the run ends, so the traced run
// perturbs the server as little as an outside observer can.  Self time of
// a span is its duration minus the time its direct children cover.
#pragma once

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pbl::e2e {

inline std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
inline std::int64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
inline std::int64_t thread_cpu_ns() {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

class Tracer {
 public:
  using NameId = std::uint32_t;

  NameId intern(const std::string& name);
  /// Opens a span under the innermost open one; returns its index.
  std::size_t begin(NameId name);
  void end(std::size_t span);

  std::size_t size() const noexcept { return spans_.size(); }
  /// Per-name count, total and self time, sorted by self time.
  std::string self_time_table() const;
  /// Writes every span as {name, start_ns, end_ns, parent, workload};
  /// returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    NameId name;
    std::int64_t parent;  ///< index of the enclosing span, -1 at the root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer makes it free apart from one branch, so the
/// untraced run executes the same code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::NameId name)
      : tracer_(tracer), span_(tracer ? tracer->begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

}  // namespace pbl::e2e
