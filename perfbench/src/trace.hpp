// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around the benchmark's own calls into each layer's
// public entry points (nothing inside the library is instrumented). A span
// holds its name ("layer.call", or "probe.layer.call" for a probe that
// re-runs a layer on the sweep's inputs), start and end on a steady clock,
// the id of the span open when it began (its parent), and the id of the
// sweep task it belongs to. Spans stay in memory and are written once, as
// a Chrome trace, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoSpan = -1;
inline constexpr std::int64_t kNoTask = -1;

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = kNoSpan;
  std::int64_t task = kNoTask;

  [[nodiscard]] double duration() const { return end_s - start_s; }
};

/// Single-threaded recorder: the traced run walks the sweep at jobs=1.
class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open span; returns its id.
  std::int64_t begin(std::string name, std::int64_t task);
  /// Closes the innermost open span, which must be `id`.
  void end(std::int64_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Seconds since the tracer was created.
  [[nodiscard]] double now() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span: closes on scope exit, exceptions included.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, std::int64_t task)
      : tracer_(tracer), id_(tracer.begin(std::move(name), task)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  Scoped(Scoped&&) = delete;
  Scoped& operator=(Scoped&&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Per span name: calls, total seconds and self seconds, as one JSON
/// object {"name": [calls, total_s, self_s], ...}.
void write_profile(std::ostream& os, const std::vector<Span>& spans);

/// The tracer's own cost for `spans`: a fresh tracer opens and closes one
/// span per recorded span, with the same names, and this returns the median
/// seconds of five such replays.
[[nodiscard]] double tracing_cost_s(const std::vector<Span>& spans);

/// Checks self_times on a hand-built span tree with known answers. Returns
/// an empty string on success, else what went wrong.
[[nodiscard]] std::string self_time_selftest();

}  // namespace perfbench
