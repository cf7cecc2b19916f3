// perfbench — the benchmark executable run.py drives. Each subcommand does
// one job in a fresh process and prints one JSON object on stdout:
//
//   perfbench run   --workload W --jobs N --seed S --report FILE
//       one untraced sweep; writes the report bytes to FILE and prints
//       set-up time, sweep wall/CPU time, peak RSS, attempted/failed and
//       the deterministic counts;
//   perfbench trace --workload W --seed S --report FILE --trace-file FILE
//       the traced jobs=1 walk; writes the report bytes and a Chrome trace
//       and prints the per-layer metrics, the tracer's own cost, the probe
//       fidelity verdict and a per-span-name profile with self times;
//   perfbench selftest
//       self-time arithmetic on a synthetic span tree;
//   perfbench env
//       build and machine stamp.
#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Values;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void write_values(std::ostream& os, const Values& values) {
  os << "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "" : ", ") << quoted(values[i].first) << ": " << values[i].second;
  }
  os << "}";
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int usage() {
  std::cerr << "usage: perfbench run --workload W --jobs N --seed S --report FILE\n"
               "       perfbench trace --workload W --seed S --report FILE --trace-file FILE\n"
               "       perfbench selftest | env\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  const auto flag = [&](const char* name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string{} : it->second;
  };
  std::cout << std::setprecision(12);

  try {
    if (command == "selftest") {
      const std::string error = perfbench::self_time_selftest();
      std::cout << "{\"selftest\": " << quoted(error.empty() ? "ok" : error) << "}\n";
      return error.empty() ? 0 : 1;
    }
    if (command == "env") {
      std::cout << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
                << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
                << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
                << ", \"compiler\": " << quoted(PERFBENCH_COMPILER) << "}\n";
      return 0;
    }
    const std::string workload = flag("--workload");
    const std::string report_path = flag("--report");
    if (workload.empty() || report_path.empty()) return usage();
    const std::uint64_t seed = std::strtoull(flag("--seed").c_str(), nullptr, 10);

    if (command == "run") {
      const long jobs = std::strtol(flag("--jobs").c_str(), nullptr, 10);
      if (jobs < 1 || jobs > 1024) return usage();
      const double calib_s = perfbench::host_calibration_s();
      const perfbench::TimedRun run =
          perfbench::run_timed(workload, static_cast<unsigned>(jobs), seed);
      if (!write_file(report_path, run.report)) return 1;
      std::cout << "{\"calib_s\": " << calib_s << ", \"setup_s\": " << run.setup_s
                << ", \"run_s\": " << run.run_s
                << ", \"cpu_s\": " << run.cpu_s << ", \"peak_rss_mb\": " << peak_rss_mb()
                << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
                << ", \"counts\": ";
      write_values(std::cout, run.counts);
      std::cout << "}\n";
      return 0;
    }
    if (command == "trace") {
      const std::string trace_path = flag("--trace-file");
      if (trace_path.empty()) return usage();
      perfbench::Tracer tracer;
      const perfbench::TracedRun run = perfbench::run_traced(workload, seed, tracer);
      if (!write_file(report_path, run.report)) return 1;
      std::ofstream trace(trace_path);
      tracer.write_chrome_trace(trace);
      if (!trace) return 1;
      std::cout << "{\"real_s\": " << run.real_s << ", \"spans\": " << tracer.spans().size()
                << ", \"tracing_s\": " << perfbench::tracing_cost_s(tracer.spans())
                << ", \"fidelity_error\": " << quoted(run.fidelity_error) << ", \"metrics\": ";
      write_values(std::cout, run.metrics);
      std::cout << ", \"counts\": ";
      write_values(std::cout, run.counts);
      std::cout << ", \"profile\": ";
      perfbench::write_profile(std::cout, tracer.spans());
      std::cout << "}\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
