#pragma once
// In-memory span log for the traced run.  Spans are recorded by the
// benchmark around its calls into the library (nothing inside the library is
// instrumented), kept in memory, and written out when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 at top level
    std::uint64_t calls;  ///< library calls the span covers
    std::uint64_t work;   ///< nodes (or other work units) those calls did
  };

  SpanLog() { spans_.reserve(1 << 16); }

  std::int32_t open(const char* name) {
    spans_.push_back({name, now_ns(), 0, current_, 1, 0});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id, std::uint64_t calls, std::uint64_t work) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.calls = calls;
    s.work = work;
    current_ = s.parent;
  }
  /// A span measured elsewhere (a worker thread), under the current span.
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::uint64_t calls, std::uint64_t work) {
    spans_.push_back({name, start, end, current_, calls, work});
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes the spans as a JSON array, times relative to the first span.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%d,\"calls\":%llu,"
                   "\"work\":%llu}%s\n",
                   i, s.name, static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0), s.parent,
                   static_cast<unsigned long long>(s.calls),
                   static_cast<unsigned long long>(s.work),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a no-op without a log.  `elapsed_ns()` times the scope either
/// way, so callers time through it whether or not the run is traced.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1),
        start_(now_ns()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_, calls_, work_);
  }

  void count(std::uint64_t calls, std::uint64_t work) {
    calls_ = calls;
    work_ = work;
  }
  [[nodiscard]] std::uint64_t elapsed_ns() const { return now_ns() - start_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
  std::uint64_t start_;
  std::uint64_t calls_ = 1;
  std::uint64_t work_ = 0;
};

}  // namespace perfbench
