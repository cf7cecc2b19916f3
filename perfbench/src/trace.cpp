#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

std::int64_t Tracer::begin(std::string name, std::int64_t task) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? kNoSpan : open_.back();
  span.task = task;
  spans_.push_back(std::move(span));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  // Stamp last so the bookkeeping above is not inside the span.
  spans_.back().start_s = now();
  return id;
}

void Tracer::end(std::int64_t id) {
  const double t = now();
  if (open_.empty() || open_.back() != id) throw std::logic_error("span closed out of order");
  spans_[static_cast<std::size_t>(id)].end_s = t;
  open_.pop_back();
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n  {\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << std::fixed
       << s.start_s * 1e6 << ", \"dur\": " << s.duration() * 1e6 << std::defaultfloat
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"task\": " << s.task << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoSpan) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start_s;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, spans[i].end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, spans[i].end_s));
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

void write_profile(std::ostream& os, const std::vector<Span>& spans) {
  struct Row {
    std::size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  const std::vector<double> self = self_times(spans);
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    ++row.calls;
    row.total_s += spans[i].duration();
    row.self_s += self[i];
  }
  os << "{";
  const char* sep = "";
  for (const auto& [name, row] : rows) {
    os << sep << "\"" << name << "\": [" << row.calls << ", " << row.total_s << ", " << row.self_s
       << "]";
    sep = ", ";
  }
  os << "}";
}

double tracing_cost_s(const std::vector<Span>& spans) {
  constexpr int kReplays = 5;
  std::vector<double> times;
  for (int r = 0; r < kReplays; ++r) {
    Tracer replay;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Span& s : spans) replay.end(replay.begin(s.name, s.task));
    times.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[kReplays / 2];
}

std::string self_time_selftest() {
  // root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and
  // c [8, 12] (running past the root's end); a has a grandchild [2, 3]
  // that must not count against the root.
  const auto span = [](const char* name, double start, double end, std::int64_t parent) {
    Span s;
    s.name = name;
    s.start_s = start;
    s.end_s = end;
    s.parent = parent;
    return s;
  };
  const std::vector<Span> tree = {span("root", 0, 10, kNoSpan), span("a", 1, 4, 0),
                                  span("b", 3, 6, 0),           span("c", 8, 12, 0),
                                  span("a.x", 2, 3, 1),         span("leaf", 20, 21, kNoSpan)};
  const std::vector<double> expect = {10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0, 1.0};
  const std::vector<double> got = self_times(tree);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (std::fabs(got[i] - expect[i]) > 1e-12) {
      std::ostringstream os;
      os << "self time of '" << tree[i].name << "' is " << got[i] << ", expected " << expect[i];
      return os.str();
    }
  }
  return {};
}

}  // namespace perfbench
