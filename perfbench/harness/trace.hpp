#pragma once

// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark around its calls into each layer (per-packet calls are
// grouped into one span per poll interval), kept in memory, and written out
// when the run ends. With tracing off every call is a branch and nothing is
// recorded, so untraced runs read no extra clocks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/arith.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  std::int32_t open(const char* name);
  /// Closes span `id` (a no-op for -1). Spans close innermost first.
  void close(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    std::size_t count = 0;
    TimeNs totalNs = 0;
    TimeNs selfNs = 0;
  };
  /// Count, summed duration and summed self time per span name.
  std::map<std::string, Totals> totals() const;
  /// Summed duration of the spans called `name`.
  TimeNs totalNs(const std::string& name) const;
  /// Durations of the spans called `name`, in recording order.
  std::vector<TimeNs> durations(const std::string& name) const;

  /// One JSON object per line: name, start_ns, end_ns, parent, tid, self_ns.
  bool writeJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
