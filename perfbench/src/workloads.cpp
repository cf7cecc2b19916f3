#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/channel_dependency.hpp"
#include "analysis/contention.hpp"
#include "analysis/incremental_cdg.hpp"
#include "analysis/modular_cdg.hpp"
#include "analysis/synth_condition.hpp"
#include "analysis/vc_cdg.hpp"
#include "core/fractahedron.hpp"
#include "exec/sharded_sweep.hpp"
#include "recovery/controller.hpp"
#include "recovery/replay.hpp"
#include "route/fat_tree_routes.hpp"
#include "route/multipath.hpp"
#include "route/repair.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault.hpp"
#include "util/stats.hpp"
#include "util/worker_pool.hpp"
#include "verify/compose.hpp"
#include "verify/faults.hpp"
#include "verify/load_sweep.hpp"
#include "verify/registry.hpp"
#include "workload/experiment.hpp"
#include "workload/injector.hpp"
#include "workload/scenario_registry.hpp"
#include "workload/scenarios.hpp"
#include "workload/traffic.hpp"

namespace perfbench {

namespace {

using namespace servernet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// The servernet-verify `--json --all` layout for per-combo reports.
template <class Report>
std::string json_array(const std::vector<Report>& reports) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i != 0) os << ",\n";
    reports[i].write_json(os);
  }
  os << "]\n";
  return os.str();
}

/// Runs `work` and returns the seconds it took plus the CPU seconds.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
Timed timed(const std::function<void()>& work) {
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  work();
  return {seconds_since(t0), cpu_seconds() - cpu0};
}

/// Set-up runs this many times per sweep process and reports the median: one
/// timing of a millisecond-scale set-up is mostly cache and allocator noise.
constexpr int kSetupRepeats = 5;

/// Median wall time of kSetupRepeats runs of `setup`, which must leave the
/// same state behind each time; the last run's state is what the sweep uses.
double timed_setup(const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) times.push_back(timed(setup).wall_s);
  return quantile(times, 0.5);
}

// ---- per-layer metric assembly ------------------------------------------

/// Every per-layer metric, in report order. A workload that does not touch
/// a layer reports 0 for it.
const char* const kLayerMetrics[] = {
    "topo.build_s",
    "topo.apply_fault_s",
    "topo.faults",
    "route.repair_s",
    "route.repairs",
    "route.repair_certified_frac",
    "analysis.cdg_build_s",
    "analysis.cdg_builds",
    "analysis.mask_check_s",
    "analysis.escape_s",
    "analysis.escape_calls",
    "analysis.extended_cdg_s",
    "analysis.synth_decide_s",
    "analysis.synth_search_nodes",
    "analysis.module_summary_s",
    "verify.healthy_s",
    "verify.classify_s",
    "verify.classify_p50_ms",
    "verify.classify_p99_ms",
    "verify.classify_calls",
    "verify.channel_faults_s",
    "verify.compose_item_p50_s",
    "verify.compose_item_max_s",
    "verify.cross_validate_s",
    "verify.glue_checks",
    "sim.router_cycles",
    "sim.ns_per_router_cycle.small",
    "sim.ns_per_router_cycle.mesh1k",
    "sim.drain_frac",
    "sim.flits_delivered",
    "sim.channel_util_mean",
    "workload.point_p50_ms",
    "workload.point_max_ms",
    "workload.measured_packets",
    "recovery.replay_p50_ms",
    "recovery.replay_p99_ms",
    "recovery.replays",
    "recovery.recover_latency_mean_cycles",
    "exec.tasks",
    "exec.longest_task_s",
};

bool is_probe(const std::string& name) { return name.rfind("probe.", 0) == 0; }

/// Durations of every span with `name`, in recording order.
std::vector<double> durations(const Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (s.name == name) out.push_back(s.duration());
  }
  return out;
}

/// The value named `name`; 0 when absent.
double lookup(const Values& values, const std::string& name) {
  for (const auto& [key, value] : values) {
    if (key == name) return value;
  }
  return 0.0;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Metrics every workload derives from its spans the same way, plus the
/// workload's own `extra` values, laid out in kLayerMetrics order.
Values layer_metrics(const Tracer& tracer, const Values& extra) {
  std::map<std::string, double> m;
  const auto total = [&](const char* span) { return sum(durations(tracer, span)); };
  const auto count = [&](const char* span) {
    return static_cast<double>(durations(tracer, span).size());
  };
  m["topo.build_s"] = total("topo.build");
  m["topo.apply_fault_s"] = total("probe.topo.apply_fault");
  m["topo.faults"] = count("probe.topo.apply_fault");
  m["route.repair_s"] = total("probe.route.repair");
  m["route.repairs"] = count("probe.route.repair");
  m["analysis.cdg_build_s"] = total("probe.analysis.cdg_build");
  m["analysis.cdg_builds"] = count("probe.analysis.cdg_build");
  m["analysis.mask_check_s"] = total("probe.analysis.mask_check");
  m["analysis.escape_s"] = total("probe.analysis.escape");
  m["analysis.escape_calls"] = count("probe.analysis.escape");
  m["analysis.extended_cdg_s"] = total("probe.analysis.extended_cdg");
  m["analysis.synth_decide_s"] = total("probe.analysis.synth_decide");
  m["analysis.module_summary_s"] = total("probe.analysis.module_summary");
  m["verify.healthy_s"] = total("verify.healthy");
  const std::vector<double> classify = durations(tracer, "verify.classify");
  m["verify.classify_s"] = sum(classify);
  m["verify.classify_p50_ms"] = quantile(classify, 0.50) * 1e3;
  m["verify.classify_p99_ms"] = quantile(classify, 0.99) * 1e3;
  m["verify.classify_calls"] = static_cast<double>(classify.size());
  m["verify.channel_faults_s"] = total("probe.verify.channel_faults");
  const std::vector<double> items = durations(tracer, "verify.compose_item");
  m["verify.compose_item_p50_s"] = quantile(items, 0.50);
  m["verify.compose_item_max_s"] = quantile(items, 1.0);
  m["verify.cross_validate_s"] =
      total("probe.verify.cross_validate_on") - total("probe.verify.cross_validate_off");
  const std::vector<double> points = durations(tracer, "workload.point");
  m["workload.point_p50_ms"] = quantile(points, 0.50) * 1e3;
  m["workload.point_max_ms"] = quantile(points, 1.0) * 1e3;
  const std::vector<double> replays = durations(tracer, "recovery.replay");
  m["recovery.replay_p50_ms"] = quantile(replays, 0.50) * 1e3;
  m["recovery.replay_p99_ms"] = quantile(replays, 0.99) * 1e3;
  m["recovery.replays"] = static_cast<double>(replays.size());

  // A task's own time excludes the probes that ride along inside it.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> task_real(spans.size(), 0.0);
  double tasks = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "exec.task") {
      task_real[i] += spans[i].duration();
      tasks += 1.0;
    }
    const std::int64_t parent = spans[i].parent;
    if (parent != kNoSpan && is_probe(spans[i].name) &&
        spans[static_cast<std::size_t>(parent)].name == "exec.task") {
      task_real[static_cast<std::size_t>(parent)] -= spans[i].duration();
    }
  }
  m["exec.tasks"] = tasks;
  m["exec.longest_task_s"] = *std::max_element(task_real.begin(), task_real.end());

  for (const auto& [name, value] : extra) m[name] = value;
  Values out;
  for (const char* const name : kLayerMetrics) out.emplace_back(name, m[name]);
  return out;
}

/// Seconds of the traced walk spent in probe spans (outermost only).
double probe_seconds(const Tracer& tracer) {
  double total = 0.0;
  for (const Span& s : tracer.spans()) {
    if (!is_probe(s.name)) continue;
    const bool nested = s.parent != kNoSpan &&
                        is_probe(tracer.spans()[static_cast<std::size_t>(s.parent)].name);
    if (!nested) total += s.duration();
  }
  return total;
}

// ---- fault-certify -------------------------------------------------------

std::vector<const verify::RegistryCombo*> sweep_combos(bool certified_only) {
  std::vector<const verify::RegistryCombo*> combos;
  for (const verify::RegistryCombo& c : verify::registry()) {
    if (!c.fault_sweep) continue;
    if (certified_only && !c.expect_certified) continue;
    combos.push_back(&c);
  }
  return combos;
}

Values fault_counts(const std::vector<verify::FaultSpaceReport>& reports) {
  std::array<double, verify::kFaultVerdictCount> verdicts{};
  double faults = 0.0;
  double repaired = 0.0;
  double repair_failed = 0.0;
  double attempted = 0.0;
  double certified = 0.0;
  for (const verify::FaultSpaceReport& r : reports) {
    for (const verify::FaultClassCounts* c : {&r.link, &r.router, &r.double_link}) {
      faults += static_cast<double>(c->total);
      for (std::size_t v = 0; v < verdicts.size(); ++v) {
        verdicts[v] += static_cast<double>(c->verdicts[v]);
      }
      repaired += static_cast<double>(c->repaired);
      repair_failed += static_cast<double>(c->repair_failed);
    }
    for (const verify::FaultOutcome& o : r.outcomes) {
      attempted += o.repair_attempted ? 1.0 : 0.0;
      certified += o.repair_certified ? 1.0 : 0.0;
    }
  }
  Values out{{"topo.faults", faults}};
  for (std::size_t v = 0; v < verdicts.size(); ++v) {
    out.emplace_back("faults." + verify::to_string(static_cast<verify::FaultVerdict>(v)),
                     verdicts[v]);
  }
  out.emplace_back("faults.repaired", repaired);
  out.emplace_back("faults.repair_failed", repair_failed);
  out.emplace_back("route.repairs_attempted", attempted);
  out.emplace_back("route.repair_certified_frac", attempted == 0.0 ? 0.0 : certified / attempted);
  out.emplace_back("exec.tasks", faults + static_cast<double>(reports.size()));
  return out;
}

TimedRun timed_faults(unsigned jobs) {
  TimedRun run;
  std::vector<const verify::RegistryCombo*> combos;
  run.setup_s = timed_setup([&] {
    combos = sweep_combos(/*certified_only=*/false);
    for (const verify::RegistryCombo* c : combos) (void)c->build();
  });
  std::vector<verify::FaultSpaceReport> reports;
  const Timed sweep = timed([&] { reports = exec::sweep_fault_spaces(combos, {jobs}); });
  run.run_s = sweep.wall_s;
  run.cpu_s = sweep.cpu_s;
  run.report = json_array(reports);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    ++run.attempted;
    if (!verify::faults_as_expected(*combos[i], reports[i])) ++run.failed;
  }
  run.counts = fault_counts(reports);
  return run;
}

TracedRun traced_faults(Tracer& tracer) {
  const std::vector<const verify::RegistryCombo*> combos = sweep_combos(false);
  std::vector<verify::FaultSpaceReport> reports(combos.size());
  double search_nodes = 0.0;
  std::int64_t task = 0;
  for (std::size_t c = 0; c < combos.size(); ++c) {
    // Heap-held and never moved: the options below point into it.
    std::unique_ptr<verify::BuiltFabric> built;
    {
      const Scoped span(tracer, "topo.build", kNoTask);
      built = std::make_unique<verify::BuiltFabric>(combos[c]->build());
    }
    const Network& net = *built->net;
    verify::FaultSpaceOptions options;
    options.base = verify::verify_options(*built);
    options.dual = built->dual.get();
    const std::vector<Fault> faults = verify::fault_space_list(net, options);
    verify::FaultSpaceReport& report = reports[c];
    report.fabric = combos[c]->name;
    report.seed = options.seed;

    std::optional<verify::FaultClassifier> classifier;
    std::optional<IncrementalCdg> inc;  // the mask-check probe's own copy
    {
      const Scoped task_span(tracer, "exec.task", task);
      {
        const Scoped span(tracer, "verify.healthy", task);
        report.healthy_certified =
            verify::verify_fabric(net, built->table, options.base, combos[c]->name).certified();
      }
      {
        const Scoped span(tracer, "verify.classifier_init", task);
        classifier.emplace(net, built->table, options);
      }
      report.healthy_acyclic = classifier->healthy_acyclic();
      if (built->selector == nullptr) {
        const Scoped span(tracer, "probe.analysis.cdg_build", task);
        inc.emplace(net, built->table);
      }
    }
    ++task;

    for (const Fault& fault : faults) {
      const Scoped task_span(tracer, "exec.task", task);
      verify::FaultOutcome outcome;
      {
        const Scoped span(tracer, "verify.classify", task);
        outcome = classifier->classify(fault);
      }
      std::optional<DegradedNetwork> degraded;
      {
        const Scoped span(tracer, "probe.topo.apply_fault", task);
        degraded.emplace(apply_fault(net, fault));
      }
      if (inc.has_value()) {
        const Scoped span(tracer, "probe.analysis.mask_check", task);
        inc->remove_channels(degraded->removed);
        (void)inc->is_acyclic();
        inc->restore_all();
      }
      if (built->selector != nullptr) {
        const Scoped span(tracer, "probe.analysis.extended_cdg", task);
        const std::unique_ptr<VcSelector> remapped = built->selector->remap(degraded->channel_map);
        if (remapped != nullptr) {
          (void)build_extended_cdg(degraded->net, built->table, *remapped, built->vcs_per_channel);
        }
      }
      if (built->multipath != nullptr) {
        const Scoped span(tracer, "probe.analysis.escape", task);
        const MultipathTable pruned = prune_to_network(*built->multipath, degraded->net);
        (void)analyze_escape(degraded->net, pruned, built->table);
      }
      if (outcome.repair_attempted) {
        {
          const Scoped span(tracer, "probe.route.repair", task);
          (void)synthesize_updown_repair(degraded->net);
        }
        const Scoped span(tracer, "probe.analysis.synth_decide", task);
        const analysis::SynthDecision decision =
            analysis::decide_routable(analysis::channel_graph_of(degraded->net));
        search_nodes += static_cast<double>(decision.search_nodes);
      }
      report.merge_outcome(std::move(outcome));
      ++task;
    }
  }

  TracedRun run;
  run.report = json_array(reports);
  const Values counts = fault_counts(reports);
  run.metrics =
      layer_metrics(tracer, {{"route.repair_certified_frac",
                              lookup(counts, "route.repair_certified_frac")},
                             {"analysis.synth_search_nodes", search_nodes}});
  run.counts = {{"analysis.synth_search_nodes", search_nodes}};
  return run;
}

// ---- recovery-replay -----------------------------------------------------

bool reaches_repair(verify::FaultVerdict v) {
  return v == verify::FaultVerdict::kStaleRoute || v == verify::FaultVerdict::kDeadlockProne ||
         v == verify::FaultVerdict::kSynthesizedRepair ||
         v == verify::FaultVerdict::kProvenUnroutable;
}

Values recovery_counts(const std::vector<recovery::RecoverySweepReport>& reports,
                       const std::vector<std::size_t>& routers) {
  double replays = 0.0;
  double agreements = 0.0;
  double router_cycles = 0.0;
  double offered = 0.0;
  double delivered = 0.0;
  double lost = 0.0;
  std::map<std::string, double> actions;
  double acted = 0.0;
  double recover_latency_sum = 0.0;
  for (std::size_t c = 0; c < reports.size(); ++c) {
    replays += static_cast<double>(reports[c].faults);
    agreements += static_cast<double>(reports[c].agreements);
    for (const recovery::ReplayFaultResult& r : reports[c].results) {
      router_cycles += static_cast<double>(r.drain_cycles) * static_cast<double>(routers[c]);
      offered += static_cast<double>(r.packets_offered);
      delivered += static_cast<double>(r.packets_delivered);
      lost += static_cast<double>(r.packets_lost);
      actions["recovery.action." + recovery::to_string(r.runtime_action)] += 1.0;
      if (r.runtime_action != recovery::RecoveryAction::kNone) {
        acted += 1.0;
        recover_latency_sum += static_cast<double>(r.recover_latency);
      }
    }
  }
  Values out{{"recovery.replays", replays},
             {"recovery.agreements", agreements},
             {"recovery.recover_latency_mean_cycles",
              acted == 0.0 ? 0.0 : recover_latency_sum / acted},
             {"recovery.recover_latency_sum_cycles", recover_latency_sum},
             {"recovery.packets_offered", offered},
             {"recovery.packets_delivered", delivered},
             {"recovery.packets_lost", lost},
             {"sim.router_cycles", router_cycles}};
  for (const auto& kv : actions) out.push_back(kv);
  out.emplace_back("exec.tasks", replays);
  return out;
}

TimedRun timed_recovery(unsigned jobs) {
  TimedRun run;
  std::vector<const verify::RegistryCombo*> combos;
  std::vector<std::size_t> routers;
  run.setup_s = timed_setup([&] {
    combos = sweep_combos(/*certified_only=*/true);
    routers.clear();
    for (const verify::RegistryCombo* c : combos) {
      routers.push_back(c->build().net->router_count());
    }
  });
  std::vector<recovery::RecoverySweepReport> reports;
  const Timed sweep = timed([&] { reports = exec::sweep_recovery(combos, {jobs}); });
  run.run_s = sweep.wall_s;
  run.cpu_s = sweep.cpu_s;
  run.report = json_array(reports);
  for (const recovery::RecoverySweepReport& r : reports) {
    run.attempted += r.faults;
    run.failed += r.faults - r.agreements;
  }
  run.counts = recovery_counts(reports, routers);
  return run;
}

TracedRun traced_recovery(Tracer& tracer) {
  const std::vector<const verify::RegistryCombo*> combos = sweep_combos(true);
  const recovery::RecoverySweepOptions replay;
  std::vector<recovery::RecoverySweepReport> reports(combos.size());
  std::vector<std::size_t> routers;
  double repairs = 0.0;
  double repairs_certified = 0.0;
  std::int64_t task = 0;
  for (std::size_t c = 0; c < combos.size(); ++c) {
    std::unique_ptr<verify::BuiltFabric> built;
    {
      const Scoped span(tracer, "topo.build", kNoTask);
      built = std::make_unique<verify::BuiltFabric>(combos[c]->build());
    }
    const Network& net = *built->net;
    routers.push_back(net.router_count());
    // What the recovery controller hands classify_channel_faults.
    verify::FaultSpaceOptions controller_options;
    controller_options.base = verify::verify_options(*built);
    controller_options.synthesize_repairs = false;
    controller_options.dual = built->dual.get();
    reports[c].fabric = combos[c]->name;

    for (const Fault& fault : recovery::recovery_fault_list(net, replay)) {
      const Scoped task_span(tracer, "exec.task", task);
      recovery::ReplayFaultResult result;
      {
        const Scoped span(tracer, "recovery.replay", task);
        result = recovery::replay_fault(*built, fault, replay);
      }
      const std::vector<ChannelId> dead = fault_channels(net, fault);
      {
        const Scoped span(tracer, "probe.verify.channel_faults", task);
        (void)verify::classify_channel_faults(net, built->table, dead, controller_options);
      }
      if (built->selector == nullptr) {
        const Scoped span(tracer, "probe.analysis.cdg_build", task);
        (void)IncrementalCdg(net, built->table);
      }
      if (reaches_repair(result.static_verdict) && built->dual == nullptr) {
        std::optional<DegradedRepair> repair;
        {
          const Scoped span(tracer, "probe.route.repair", task);
          repair.emplace(synthesize_repair(net, dead));
        }
        // Certified exactly as the fault certifier certifies its repairs.
        const Scoped span(tracer, "probe.route.repair_certify", task);
        verify::VerifyOptions options = controller_options.base;
        options.updown = &repair->route.cls;
        options.require_full_reachability = true;
        options.vc = {};
        options.multipath = nullptr;
        repairs += 1.0;
        if (verify::verify_fabric(repair->degraded.net, repair->route.table, options,
                                  result.description)
                .certified()) {
          repairs_certified += 1.0;
        }
      }
      reports[c].merge_result(std::move(result));
      ++task;
    }
  }

  TracedRun run;
  run.report = json_array(reports);
  const Values counts = recovery_counts(reports, routers);
  run.metrics = layer_metrics(
      tracer,
      {{"route.repair_certified_frac", repairs == 0.0 ? 0.0 : repairs_certified / repairs},
       {"sim.router_cycles", lookup(counts, "sim.router_cycles")},
       {"recovery.recover_latency_mean_cycles",
        lookup(counts, "recovery.recover_latency_mean_cycles")}});
  run.counts = {{"route.repairs_certified", repairs_certified}};
  return run;
}

// ---- load-curves ---------------------------------------------------------

/// Table 2's adversarial transfer sets, driven open-loop to their plateau:
/// a contention-C bottleneck moves one flit per cycle, so each sender's
/// accepted throughput plateaus at exactly 1/C.
struct PlateauSet {
  std::string name;
  std::shared_ptr<void> owner;
  const Network* net = nullptr;
  RoutingTable table;
  std::vector<Transfer> transfers;
  std::size_t contention = 0;
};

const double kPlateauOffered[] = {0.10, 0.20, 0.40, 0.60, 0.80, 1.00};
constexpr std::size_t kPlateauPoints = std::size(kPlateauOffered);

std::vector<PlateauSet> build_plateau_sets() {
  std::vector<PlateauSet> sets(2);
  auto tree = std::make_shared<FatTree>(FatTreeSpec{});
  sets[0].name = "fat-tree-quadrant-squeeze";
  sets[0].net = &tree->net();
  sets[0].table = fat_tree_routing(*tree);
  sets[0].transfers = scenarios::fat_tree_quadrant_squeeze(*tree);
  sets[0].owner = tree;
  auto fracta = std::make_shared<Fractahedron>(FractahedronSpec{});
  sets[1].name = "fractahedron-diagonal";
  sets[1].net = &fracta->net();
  sets[1].table = fracta->routing();
  sets[1].transfers = scenarios::fractahedron_diagonal(*fracta);
  sets[1].owner = fracta;
  for (PlateauSet& s : sets) s.contention = scenario_contention(*s.net, s.table, s.transfers);
  return sets;
}

workload::ExperimentConfig plateau_config(std::size_t point, std::uint64_t seed) {
  workload::ExperimentConfig config;
  config.offered_flits = kPlateauOffered[point];
  config.warmup_cycles = 1000;
  config.measure_cycles = 4000;
  config.drain_limit = 200000;
  config.seed = seed + point;
  return config;
}

/// Per-sender accepted throughput of one plateau point.
double per_sender(const PlateauSet& set, const workload::ExperimentResult& r) {
  return r.window_accepted_flits * static_cast<double>(set.net->node_count()) /
         static_cast<double>(set.transfers.size());
}

workload::ExperimentResult run_plateau_point(const PlateauSet& set, std::size_t point,
                                             std::uint64_t seed) {
  TransferListTraffic pattern(set.transfers, set.net->node_count());
  return workload::run_load_point(*set.net, set.table, pattern, plateau_config(point, seed));
}

/// Appends the plateau table to the load report and returns the model
/// error: the largest relative gap between a set's plateau and 1/C.
double write_plateaus(std::ostream& os, const std::vector<PlateauSet>& sets,
                      const std::vector<workload::ExperimentResult>& results) {
  double model_err = 0.0;
  os << "{\"plateaus\": [";
  for (std::size_t s = 0; s < sets.size(); ++s) {
    double plateau = 0.0;
    os << (s == 0 ? "" : ",") << "\n  {\"set\": \"" << sets[s].name
       << "\", \"contention\": " << sets[s].contention
       << ", \"senders\": " << sets[s].transfers.size() << ", \"per_sender\": [";
    for (std::size_t p = 0; p < kPlateauPoints; ++p) {
      const double value = per_sender(sets[s], results[s * kPlateauPoints + p]);
      plateau = std::max(plateau, value);
      os << (p == 0 ? "" : ", ") << std::setprecision(17) << value;
    }
    const double predicted = 1.0 / static_cast<double>(sets[s].contention);
    model_err = std::max(model_err, std::fabs(plateau - predicted) / predicted);
    os << "], \"plateau\": " << plateau << ", \"predicted\": " << predicted << "}"
       << std::setprecision(6);
  }
  os << "\n]}\n";
  return model_err;
}

std::vector<const verify::LoadItem*> load_items() {
  std::vector<const verify::LoadItem*> items;
  for (const verify::LoadItem& item : verify::load_roster()) items.push_back(&item);
  return items;
}

Values load_counts(const verify::LoadSweepReport& report, std::size_t plateau_points,
                   double model_err) {
  double points = 0.0;
  double packets = 0.0;
  double saturated = 0.0;
  double deadlocked = 0.0;
  for (const verify::LoadItemReport& item : report.items) {
    for (const verify::LoadPoint& p : item.points) {
      points += 1.0;
      packets += static_cast<double>(p.measured_packets);
      saturated += p.saturated ? 1.0 : 0.0;
      deadlocked += p.deadlocked ? 1.0 : 0.0;
    }
  }
  return {{"workload.points", points},
          {"workload.measured_packets", packets},
          {"workload.saturated_points", saturated},
          {"workload.deadlocked_points", deadlocked},
          {"model_err", model_err},
          {"exec.tasks", points + static_cast<double>(plateau_points)}};
}

TimedRun timed_load(unsigned jobs, std::uint64_t seed) {
  TimedRun run;
  std::vector<const verify::LoadItem*> items;
  std::vector<PlateauSet> sets;
  run.setup_s = timed_setup([&] {
    items = load_items();
    for (const verify::LoadItem* item : items) (void)item->build();
    sets = build_plateau_sets();
  });
  verify::LoadSweepReport report;
  std::vector<workload::ExperimentResult> plateaus(sets.size() * kPlateauPoints);
  const Timed sweep = timed([&] {
    report = exec::sweep_load(items, {jobs}, seed);
    WorkerPool pool(jobs);
    pool.run(plateaus.size(), [&](unsigned /*worker*/, std::size_t i) {
      plateaus[i] = run_plateau_point(sets[i / kPlateauPoints], i % kPlateauPoints, seed);
    });
  });
  run.run_s = sweep.wall_s;
  run.cpu_s = sweep.cpu_s;
  std::ostringstream os;
  report.write_json(os);
  const double model_err = write_plateaus(os, sets, plateaus);
  run.report = os.str();
  for (const verify::LoadItemReport& item : report.items) {
    for (const verify::LoadPoint& p : item.points) {
      ++run.attempted;
      if (p.deadlocked) ++run.failed;
    }
  }
  for (const workload::ExperimentResult& r : plateaus) {
    ++run.attempted;
    if (r.deadlocked) ++run.failed;
  }
  run.counts = load_counts(report, plateaus.size(), model_err);
  return run;
}

/// What the sim probe saw while re-running one load point.
struct SimProbe {
  workload::ExperimentResult result;
  std::uint64_t cycles = 0;
  std::uint64_t drain_cycles = 0;
  std::uint64_t flits = 0;
  std::uint64_t busy_channel_cycles = 0;
  std::uint64_t channel_cycles = 0;
};

/// workload::run_load_point, step for step, with the simulator exposed so
/// the probe can count what it simulated. Must reproduce the sweep's
/// result bit for bit (checked by the caller).
SimProbe probe_sim(const Network& net, const RoutingTable& table, TrafficPattern& pattern,
                   const workload::ExperimentConfig& config) {
  SimProbe probe;
  sim::WormholeSim simulator(net, table, config.sim);
  workload::BernoulliInjector injector(simulator, pattern, config.offered_flits, config.seed);
  const auto finish = [&]() -> SimProbe& {
    probe.cycles = simulator.now();
    const std::uint64_t window_end = config.warmup_cycles + config.measure_cycles;
    probe.drain_cycles = probe.cycles > window_end ? probe.cycles - window_end : 0;
    probe.flits = simulator.metrics().flits_delivered();
    for (const std::uint64_t busy : simulator.metrics().busy_cycles()) {
      probe.busy_channel_cycles += busy;
    }
    probe.channel_cycles = static_cast<std::uint64_t>(net.channel_count()) * probe.cycles;
    return probe;
  };
  workload::ExperimentResult& result = probe.result;
  if (!injector.run(config.warmup_cycles)) {
    result.deadlocked = true;
    return finish();
  }
  const std::size_t first_measured = simulator.packets_offered();
  if (!injector.run(config.measure_cycles)) {
    result.deadlocked = true;
    return finish();
  }
  const std::size_t last_measured = simulator.packets_offered();
  const sim::RunResult drain = simulator.run_until_drained(config.drain_limit);
  result.saturated = drain.outcome != sim::RunOutcome::kCompleted;
  result.deadlocked = drain.outcome == sim::RunOutcome::kDeadlocked;

  SampleSet latency;
  std::uint64_t delivered_flits = 0;
  for (std::size_t id = first_measured; id < last_measured; ++id) {
    const sim::PacketRecord& rec = simulator.packet(static_cast<sim::PacketId>(id));
    if (!rec.delivered) continue;
    latency.add(static_cast<double>(rec.delivered_cycle - rec.offered_cycle));
    delivered_flits += rec.flits;
  }
  const std::uint64_t window_start = config.warmup_cycles;
  const std::uint64_t window_end = config.warmup_cycles + config.measure_cycles;
  std::uint64_t window_flits = 0;
  for (std::size_t id = 0; id < simulator.packets_offered(); ++id) {
    const sim::PacketRecord& rec = simulator.packet(static_cast<sim::PacketId>(id));
    if (!rec.delivered) continue;
    if (rec.delivered_cycle < window_start || rec.delivered_cycle >= window_end) continue;
    window_flits += rec.flits;
  }
  const auto per_node_cycle = [&](std::uint64_t flits) {
    return static_cast<double>(flits) / static_cast<double>(config.measure_cycles) /
           static_cast<double>(net.node_count());
  };
  result.measured_packets = latency.size();
  result.accepted_flits = per_node_cycle(delivered_flits);
  result.window_accepted_flits = per_node_cycle(window_flits);
  if (!latency.empty()) {
    result.mean_latency = latency.mean();
    result.p50_latency = latency.quantile(0.5);
    result.p95_latency = latency.quantile(0.95);
  }
  return finish();
}

bool same_point(const verify::LoadPoint& p, const workload::ExperimentResult& r) {
  return p.accepted == r.window_accepted_flits && p.mean_latency == r.mean_latency &&
         p.p50_latency == r.p50_latency && p.p95_latency == r.p95_latency &&
         p.measured_packets == r.measured_packets && p.saturated == r.saturated &&
         p.deadlocked == r.deadlocked;
}

bool same_result(const workload::ExperimentResult& a, const workload::ExperimentResult& b) {
  return a.accepted_flits == b.accepted_flits &&
         a.window_accepted_flits == b.window_accepted_flits && a.mean_latency == b.mean_latency &&
         a.p50_latency == b.p50_latency && a.p95_latency == b.p95_latency &&
         a.measured_packets == b.measured_packets && a.saturated == b.saturated &&
         a.deadlocked == b.deadlocked;
}

/// Running totals of the sim probe, split by fabric size.
struct SimTotals {
  double router_cycles = 0.0;
  double cycles = 0.0;
  double drain_cycles = 0.0;
  double flits = 0.0;
  double busy = 0.0;
  double channel_cycles = 0.0;
  double small_s = 0.0;
  double small_router_cycles = 0.0;
  double mesh_s = 0.0;
  double mesh_router_cycles = 0.0;

  /// Fabrics at least this large count as the 1024-router working set.
  static constexpr std::size_t kLargeRouters = 1024;

  void add(const SimProbe& probe, std::size_t routers, double seconds) {
    const double rc = static_cast<double>(probe.cycles) * static_cast<double>(routers);
    router_cycles += rc;
    cycles += static_cast<double>(probe.cycles);
    drain_cycles += static_cast<double>(probe.drain_cycles);
    flits += static_cast<double>(probe.flits);
    busy += static_cast<double>(probe.busy_channel_cycles);
    channel_cycles += static_cast<double>(probe.channel_cycles);
    if (routers >= kLargeRouters) {
      mesh_s += seconds;
      mesh_router_cycles += rc;
    } else {
      small_s += seconds;
      small_router_cycles += rc;
    }
  }
};

TracedRun traced_load(Tracer& tracer, std::uint64_t seed) {
  const std::vector<const verify::LoadItem*> items = load_items();
  verify::LoadSweepReport report;
  SimTotals sim;
  std::ostringstream mismatches;
  std::int64_t task = 0;
  // Probe spans are timed twice: once as spans, once here for the split.
  const auto probe = [&](const Network& net, const RoutingTable& table,
                         const std::function<std::unique_ptr<TrafficPattern>()>& make_pattern,
                         const workload::ExperimentConfig& config) {
    const Scoped span(tracer, "probe.sim.step", task);
    const std::unique_ptr<TrafficPattern> pattern = make_pattern();
    const Clock::time_point t0 = Clock::now();
    const SimProbe result = probe_sim(net, table, *pattern, config);
    sim.add(result, net.router_count(), seconds_since(t0));
    return result;
  };

  for (const verify::LoadItem* item : items) {
    std::unique_ptr<verify::BuiltFabric> built;
    {
      const Scoped span(tracer, "topo.build", kNoTask);
      built = std::make_unique<verify::BuiltFabric>(item->build());
    }
    const Network& net = *built->net;
    const std::uint64_t effective = seed == 0 ? item->seed : seed;
    verify::LoadItemReport item_report;
    item_report.name = item->name;
    item_report.fabric = item->fabric;
    item_report.scenario = item->scenario;
    item_report.seed = effective;
    item_report.nodes = net.node_count();
    item_report.routers = net.router_count();
    for (std::size_t p = 0; p < item->offered.size(); ++p) {
      const Scoped task_span(tracer, "exec.task", task);
      verify::LoadPoint point;
      {
        const Scoped span(tracer, "workload.point", task);
        point = verify::run_load_point(*item, *built, item->offered[p], effective);
      }
      workload::ExperimentConfig config = item->experiment;
      config.offered_flits = item->offered[p];
      config.seed = effective + p;
      const auto scenario = [&] {
        return workload::make_scenario(item->scenario, net.node_count(), effective);
      };
      if (!same_point(point, probe(net, built->table, scenario, config).result)) {
        mismatches << item->name << " @ " << item->offered[p] << "; ";
      }
      item_report.points.push_back(point);
      ++task;
    }
    report.items.push_back(std::move(item_report));
  }

  std::vector<PlateauSet> sets;
  {
    const Scoped span(tracer, "topo.build", kNoTask);
    sets = build_plateau_sets();
  }
  std::vector<workload::ExperimentResult> plateaus;
  for (std::size_t i = 0; i < sets.size() * kPlateauPoints; ++i) {
    const PlateauSet& set = sets[i / kPlateauPoints];
    const Scoped task_span(tracer, "exec.task", task);
    {
      const Scoped span(tracer, "workload.plateau_point", task);
      plateaus.push_back(run_plateau_point(set, i % kPlateauPoints, seed));
    }
    const auto transfers = [&]() -> std::unique_ptr<TrafficPattern> {
      return std::make_unique<TransferListTraffic>(set.transfers, set.net->node_count());
    };
    if (!same_result(
            plateaus.back(),
            probe(*set.net, set.table, transfers, plateau_config(i % kPlateauPoints, seed)).result)) {
      mismatches << set.name << " point " << i % kPlateauPoints << "; ";
    }
    ++task;
  }

  TracedRun run;
  std::ostringstream os;
  report.write_json(os);
  const double model_err = write_plateaus(os, sets, plateaus);
  run.report = os.str();
  run.fidelity_error = mismatches.str();
  const Values counts = load_counts(report, plateaus.size(), model_err);
  const auto ns_per = [](double seconds, double router_cycles) {
    return router_cycles == 0.0 ? 0.0 : seconds * 1e9 / router_cycles;
  };
  run.counts = {{"sim.router_cycles", sim.router_cycles},
                {"sim.cycles", sim.cycles},
                {"sim.flits_delivered", sim.flits},
                {"sim.channel_util_mean", sim.busy / sim.channel_cycles},
                {"sim.drain_frac", sim.drain_cycles / sim.cycles}};
  Values extra = run.counts;
  extra.insert(extra.end(),
               {{"sim.ns_per_router_cycle.small", ns_per(sim.small_s, sim.small_router_cycles)},
                {"sim.ns_per_router_cycle.mesh1k", ns_per(sim.mesh_s, sim.mesh_router_cycles)},
                {"workload.measured_packets", lookup(counts, "workload.measured_packets")}});
  run.metrics = layer_metrics(tracer, extra);
  return run;
}

// ---- compose-scale -------------------------------------------------------

/// The depth compose_certify materializes its representative at.
constexpr std::uint32_t kRepresentativeLevels = 3;

std::vector<const verify::ComposeItem*> compose_items() {
  std::vector<const verify::ComposeItem*> items;
  for (const verify::ComposeItem& item : verify::compose_roster()) items.push_back(&item);
  return items;
}

Values compose_counts(const std::vector<verify::Report>& reports,
                      const std::vector<const verify::ComposeItem*>& items) {
  double glue = 0.0;
  double checks = 0.0;
  double certified = 0.0;
  for (const verify::Report& r : reports) {
    for (const verify::PassSummary& pass : r.passes()) {
      if (pass.pass == "glue") glue += static_cast<double>(pass.checks);
    }
    checks += static_cast<double>(r.total_checks());
    certified += r.certified() ? 1.0 : 0.0;
  }
  return {{"verify.glue_checks", glue},
          {"verify.total_checks", checks},
          {"compose.certified", certified},
          {"compose.indicted", static_cast<double>(reports.size()) - certified},
          {"exec.tasks", static_cast<double>(items.size())}};
}

TimedRun timed_compose(unsigned jobs) {
  TimedRun run;
  std::vector<const verify::ComposeItem*> items;
  run.setup_s = timed_setup([&] {
    items = compose_items();
    for (const verify::ComposeItem* item : items) (void)item->build();
  });
  std::vector<verify::Report> reports;
  const Timed sweep = timed([&] { reports = exec::sweep_compose(items, {jobs}); });
  run.run_s = sweep.wall_s;
  run.cpu_s = sweep.cpu_s;
  run.report = json_array(reports);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    ++run.attempted;
    if (reports[i].certified() != items[i]->expect_certified) ++run.failed;
  }
  run.counts = compose_counts(reports, items);
  return run;
}

TracedRun traced_compose(Tracer& tracer) {
  const std::vector<const verify::ComposeItem*> items = compose_items();
  std::vector<verify::Report> reports;
  std::int64_t task = 0;
  for (const verify::ComposeItem* item : items) {
    const Scoped task_span(tracer, "exec.task", task);
    // ComposeItem::build() only copies the spec; the fabrics are built
    // inside run_compose_item, so this is not a topo.build span.
    std::optional<verify::ComposeInput> input;
    {
      const Scoped span(tracer, "verify.compose_input", task);
      input.emplace(item->build());
    }
    {
      const Scoped span(tracer, "verify.compose_item", task);
      reports.push_back(verify::run_compose_item(*item, /*jobs=*/1));
    }

    // The module pass's summaries, on the representative it builds.
    FractahedronSpec rep_spec = input->spec;
    rep_spec.levels = std::min(rep_spec.levels, kRepresentativeLevels);
    std::optional<Fractahedron> rep;
    std::optional<ChannelDependencyGraph> cdg;
    {
      const Scoped span(tracer, "probe.analysis.module_summary_input", task);
      rep.emplace(rep_spec);
      cdg.emplace(build_cdg(rep->net(), rep->routing()));
    }
    {
      const Scoped span(tracer, "probe.analysis.module_summary", task);
      for (std::uint32_t k = 1; k <= rep_spec.levels; ++k) {
        for (std::size_t s = 0; s < rep->stacks(k); ++s) {
          for (std::size_t j = 0; j < rep->layers(k); ++j) {
            (void)analysis::summarize_module(*rep, *cdg, k, s, j);
          }
        }
      }
      if (rep_spec.cpu_pair_fanout) {
        for (std::size_t s = 0; s < rep->stacks(1); ++s) {
          for (std::uint32_t c = 0; c < rep->children_per_group(); ++c) {
            (void)analysis::summarize_fanout(*rep, *cdg, s, c);
          }
        }
      }
    }
    if (item->cross_validate) {
      verify::ComposeOptions options;
      options.cross_validate = true;
      {
        const Scoped span(tracer, "probe.verify.cross_validate_on", task);
        (void)verify::compose_certify(*input, options, item->name);
      }
      options.cross_validate = false;
      const Scoped span(tracer, "probe.verify.cross_validate_off", task);
      (void)verify::compose_certify(*input, options, item->name);
    }
    ++task;
  }

  TracedRun run;
  run.report = json_array(reports);
  const Values counts = compose_counts(reports, items);
  run.metrics =
      layer_metrics(tracer, {{"verify.glue_checks", lookup(counts, "verify.glue_checks")}});
  return run;
}

}  // namespace

double host_calibration_s() {
  constexpr int kRepeats = 25;
  constexpr std::uint32_t kNodes = 8192;
  constexpr std::uint32_t kEdges = 8;
  constexpr std::size_t kKeys = std::size_t{1} << 17;
  static volatile std::uint64_t sink = 0;  // keeps the work observable
  std::vector<double> times;
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // the same work every repeat
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const Clock::time_point t0 = Clock::now();
    // Graph building and breadth-first search, as in the CDG and routing
    // code; then a sort and an ordered map, as in roster and report code.
    std::vector<std::vector<std::uint32_t>> adj(kNodes);
    for (std::vector<std::uint32_t>& out : adj) {
      for (std::uint32_t e = 0; e < kEdges; ++e) out.push_back(next() % kNodes);
    }
    std::vector<std::int32_t> dist(kNodes, -1);
    std::vector<std::uint32_t> frontier{0};
    dist[0] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (const std::uint32_t w : adj[frontier[head]]) {
        if (dist[w] < 0) {
          dist[w] = dist[frontier[head]] + 1;
          frontier.push_back(w);
        }
      }
    }
    std::vector<std::uint32_t> keys(kKeys);
    for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(next());
    std::sort(keys.begin(), keys.end());
    std::map<std::uint32_t, std::uint32_t> tally;
    for (std::uint32_t i = 0; i < kKeys / 8; ++i) tally[keys[next() % kKeys] % 65536] += i;
    times.push_back(seconds_since(t0));
    sink = sink + frontier.size() + keys[kKeys / 2] + tally.size();
  }
  return quantile(times, 0.5);
}

TimedRun run_timed(const std::string& workload, unsigned jobs, std::uint64_t seed) {
  if (workload == "fault-certify") return timed_faults(jobs);
  if (workload == "recovery-replay") return timed_recovery(jobs);
  if (workload == "load-curves") return timed_load(jobs, seed);
  if (workload == "compose-scale") return timed_compose(jobs);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

TracedRun run_traced(const std::string& workload, std::uint64_t seed, Tracer& tracer) {
  TracedRun run;
  const Clock::time_point t0 = Clock::now();
  if (workload == "fault-certify") {
    run = traced_faults(tracer);
  } else if (workload == "recovery-replay") {
    run = traced_recovery(tracer);
  } else if (workload == "load-curves") {
    run = traced_load(tracer, seed);
  } else if (workload == "compose-scale") {
    run = traced_compose(tracer);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  run.real_s = seconds_since(t0) - probe_seconds(tracer);
  return run;
}

}  // namespace perfbench
