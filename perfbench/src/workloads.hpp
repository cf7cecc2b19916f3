// The benchmark's four workloads, each run two ways:
//
//   run_timed   the workload's exec::sweep_* function at a given job count,
//               untraced — the end-to-end numbers come from here;
//   run_traced  a jobs=1 walk of the same tasks in sweep order through the
//               same public calls the sweep makes, with a span around each
//               call and "probe" spans that re-run single layers on the
//               sweep's own inputs — the per-layer numbers come from here.
//
// Both produce the workload's report bytes (the servernet-verify JSON
// layout), so the traced walk is checked byte-for-byte against the sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Named values in a fixed order: deterministic counts (the model guard)
/// or per-layer metrics.
using Values = std::vector<std::pair<std::string, double>>;

struct TimedRun {
  /// Roster plus one build() of every fabric, median of several repeats.
  /// The sweep drivers build their own copies, so this work is also inside
  /// run_s; it is timed apart so that work moved into build() shows.
  double setup_s = 0.0;
  /// Wall time of the sweep alone.
  double run_s = 0.0;
  /// Process CPU seconds (all threads) spent in the sweep.
  double cpu_s = 0.0;
  std::string report;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Deterministic outputs: a speed-only change leaves every one unchanged.
  Values counts;
};

struct TracedRun {
  std::string report;
  /// Per-layer metrics; a layer the workload does not exercise reads 0.
  Values metrics;
  /// Deterministic counts only the traced walk can see (probe counters).
  Values counts;
  /// Traced walk time with probe spans taken out.
  double real_s = 0.0;
  /// Empty when every probe reproduced the sweep's result exactly.
  std::string fidelity_error;
};

/// Median seconds of a fixed piece of work that uses no library code (graph
/// building and search, sorting, an ordered map). Its time tracks how fast
/// the host runs right now, and no change to the library can move it.
[[nodiscard]] double host_calibration_s();

/// `seed` reaches load-curves only (scenario + injection seed); the other
/// workloads enumerate every fault or item and fix their own samples.
[[nodiscard]] TimedRun run_timed(const std::string& workload, unsigned jobs, std::uint64_t seed);

[[nodiscard]] TracedRun run_traced(const std::string& workload, std::uint64_t seed,
                                   Tracer& tracer);

}  // namespace perfbench
