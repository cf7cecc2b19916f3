#!/usr/bin/env python3
"""Benchmark runner for the servernet certifier and simulator stack.

Run from the repository root:

    python3 perfbench/run.py --workload recovery-replay --seed 1996 --trace 0

Builds the `perfbench` executable (perfbench/CMakeLists.txt, which links
the library from ../src) into .bench_build/, then runs one workload:

  --trace 0  timed run, tracing off: the sweeps in SCHEDULE (three at
             jobs=1, five at jobs=N, interleaved), each in a fresh process,
             and the medians of the end-to-end metrics;
  --trace 1  the same timed sweeps plus the traced jobs=1 walk, and the
             per-layer metrics and the tracer's own overhead.

The number of sweeps is fixed, so every run takes the same number of
samples whatever the host's speed; --seconds is the time a run is expected
to take on the reference machine, recorded in the result file. The
end-to-end times are scaled to the reference machine's usual speed by a
calibration each sweep process times first (see REFERENCE_CALIB_S).

Every run checks the workload's own gate, that every report is
byte-identical to the jobs=1 report, and that the deterministic counts
repeat exactly. It writes a result file (environment stamp, samples,
counts, digests) under .bench_build/results/ and prints one JSON object as
the last line of stdout. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fault-certify", "recovery-replay", "load-curves", "compose-scale")
MAX_JOBS = 4
# The sweeps of one run, in order: 1 is jobs=1, 0 stands for jobs=N. A
# jobs=N sweep costs a third of a jobs=1 sweep and its time depends on how
# the longest tasks get scheduled, so it gets more samples.
SCHEDULE = (1, 0, 0, 1, 0, 1, 0, 0)
# host_calibration_s() on the reference machine (README: Noise). Each
# sweep's times are scaled by this over its own process's calibration, so
# the end-to-end times read as seconds on the reference host at its usual
# speed, whatever the neighbours on a shared host are doing.
REFERENCE_CALIB_S = 0.0140
# A whole run must end well inside 180 s; no child may outlive this.
CHILD_TIMEOUT_S = 170.0
MODEL_TOLERANCE = 1e-9

# Metric names and units come from the benchmark definition at the root.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def jobs_n():
    return max(1, min(MAX_JOBS, len(os.sched_getaffinity(0))))


def build(root, out):
    """Configures once, then builds incrementally; returns the binary path."""
    build_dir = out / "cmake"
    log_path = out / "build.log"
    with open(log_path, "a") as build_log:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT).returncode != 0:
                return None
        cmd = ["cmake", "--build", str(build_dir), "-j", str(jobs_n())]
        if subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT).returncode != 0:
            return None
    binary = build_dir / "perfbench"
    return binary if binary.exists() else None


def child(binary, *args):
    """Runs one perfbench subcommand; returns its JSON object or None."""
    proc = subprocess.run([str(binary), *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        log(f"perfbench {args[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest(root):
    """Content hash of everything the benchmark builds."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(root, binary, seed, n):
    env = child(binary, "env") or {}
    commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    env.update({"nproc": len(os.sched_getaffinity(0)), "jobs": n, "seed": seed})
    if commit.returncode == 0:
        env["git_commit"] = commit.stdout.strip()
    else:  # a checkout that is not a git repository
        env["source_sha256"] = source_digest(root)
    return env


class Runner:
    """Runs timed sweeps and checks every one against the first jobs=1 report."""

    def __init__(self, binary, out, workload, seed):
        self.binary, self.out, self.workload, self.seed = binary, out, workload, seed
        self.samples = []
        self.reference = None  # (digest, counts) of the first jobs=1 sweep
        self.errors = []

    def check(self, what, digest, counts=None):
        if self.reference is None:
            self.reference = (digest, counts)
            return
        if digest != self.reference[0]:
            self.errors.append(f"{what}: report differs from the jobs=1 report")
        if counts is not None and counts != self.reference[1]:
            self.errors.append(f"{what}: deterministic counts changed between sweeps")

    def sweep(self, jobs):
        report = self.out / f"{self.workload}-jobs{jobs}.report.json"
        result = child(self.binary, "run", "--workload", self.workload, "--jobs", str(jobs),
                       "--seed", str(self.seed), "--report", str(report))
        if result is None:
            self.errors.append(f"jobs={jobs} sweep crashed")
            return None
        result["jobs"] = jobs
        result["digest"] = sha256(report)
        result["host_factor"] = REFERENCE_CALIB_S / result["calib_s"]
        self.check(f"jobs={jobs} sweep", result["digest"], result["counts"])
        self.samples.append(result)
        return result

    def of(self, jobs, key):
        return [s[key] for s in self.samples if s["jobs"] == jobs]

    def scaled(self, key, jobs=None):
        """`key` of each sweep (of jobs=`jobs` only, if given) in
        reference-host seconds."""
        return [s[key] * s["host_factor"] for s in self.samples
                if jobs is None or s["jobs"] == jobs]


def timed_run(runner, n):
    """The sweeps in SCHEDULE; returns the seconds they took."""
    start = time.monotonic()
    for jobs in SCHEDULE:
        if runner.sweep(jobs or n) is None:
            break
    return time.monotonic() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


def run_all(args):
    """Every workload in turn, each in its own process, then one summary line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            log(f"{workload}: no result ({proc.returncode}): {proc.stderr.strip()}")
            correct = False
            continue
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted or 1, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_one(args):
    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "CMakeLists.txt").is_file():
        log("run from the repository root: CMakeLists.txt and src/ are missing here")
        return 2
    out = root / ".bench_build"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    binary = build(root, out)
    if binary is None:
        log(f"build failed; see {out / 'build.log'}")
        return 1
    selftest = child(binary, "selftest")

    n = jobs_n()
    runner = Runner(binary, results, args.workload, args.seed)
    if selftest is None:
        runner.errors.append("span self-time test failed")
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(root, binary, args.seed, n)}

    measured_s = timed_run(runner, n)
    record["environment"].update({"seconds": args.seconds, "measured_s": measured_s})
    if measured_s > args.seconds:
        log(f"note: the sweeps took {measured_s:.1f} s, more than --seconds {args.seconds:g}")
    if args.trace == 1:
        trace_file = results / f"{args.workload}-seed{args.seed}.trace.json"
        report = results / f"{args.workload}-traced.report.json"
        traced = child(binary, "trace", "--workload", args.workload, "--seed", str(args.seed),
                       "--report", str(report), "--trace-file", str(trace_file))
        if traced is None:
            runner.errors.append("traced walk crashed")
        else:
            runner.check("traced walk", sha256(report))
            if traced["fidelity_error"]:
                runner.errors.append("probe does not reproduce the sweep: "
                                     + traced["fidelity_error"])
            record["traced"] = traced
            record["trace_file"] = str(trace_file.relative_to(root))

    serial = runner.of(1, "run_s")
    wall = runner.of(n, "run_s")
    if len(serial) + len(wall) < len(SCHEDULE):
        runner.errors.append("a scheduled sweep did not complete")
    attempted = sum(s["attempted"] for s in runner.samples) or 1
    failed = sum(s["failed"] for s in runner.samples)
    counts = dict(runner.reference[1]) if runner.reference else {}
    counts.update(record.get("traced", {}).get("counts", {}))
    model_err = counts.get("model_err", 0.0)
    if model_err > MODEL_TOLERANCE:
        runner.errors.append(f"simulated plateau is off 1/contention by {model_err:.3g}")
    if runner.errors:
        failed = attempted  # a broken run fails as a whole

    med = lambda xs: statistics.median(xs) if xs else 0.0
    end_to_end = {
        "wall_s": med(runner.scaled("run_s", n)),
        "serial_s": med(runner.scaled("run_s", 1)),
        "setup_s": med(runner.scaled("setup_s")),
        # As measured on this host, for the per-layer figures and the record.
        "wall_raw_s": med(wall),
        "serial_raw_s": med(serial),
        "setup_raw_s": med([s["setup_s"] for s in runner.samples]),
        "host_factor": med([s["host_factor"] for s in runner.samples]),
        # Peak over the run: which worker builds which fabric copies varies
        # from sweep to sweep, and the largest footprint is the one to fit.
        "peak_rss_mb": max(runner.of(n, "peak_rss_mb"), default=0.0),
    }
    if args.trace == 0:
        shown = {m["name"]: (end_to_end[m["name"]], m["unit"]) for m in BENCHMARK["end_to_end"]}
    else:
        shown = per_layer(record.get("traced"), end_to_end, runner, n)
    # The JSON line carries the BENCHMARK.json metrics; the lines above it
    # and the result file carry every one (workloads outside BENCHMARK.json
    # have layer metrics of their own).
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]}
               for m in BENCHMARK[kind]}

    correct = not runner.errors and failed == 0
    record.update({
        "correct": correct, "errors": runner.errors, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "model_err": model_err, "end_to_end": end_to_end,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "counts": counts, "samples": runner.samples,
    })
    result_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} as measured on this host: wall {end_to_end['wall_raw_s']:.6g} s, "
          f"serial {end_to_end['serial_raw_s']:.6g} s, setup {end_to_end['setup_raw_s']:.6g} s; "
          f"host factor {end_to_end['host_factor']:.4g}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    if args.workload == "load-curves":
        print(f"{args.workload} model_err = {model_err:.6g} ratio")
    for jobs in sorted({s["jobs"] for s in runner.samples}):
        digests = sorted({s["digest"] for s in runner.samples if s["jobs"] == jobs})
        print(f"report sha256 jobs={jobs}: {' '.join(digests)}")
    for name, value in counts.items():
        print(f"count {name} = {value}")
    profile = record.get("traced", {}).get("profile", {})
    for name, (calls, total, self_s) in sorted(profile.items(), key=lambda kv: -kv[1][2]):
        print(f"span {name}: {calls} calls, {total:.6g} s total, {self_s:.6g} s self")
    for error in runner.errors:
        print(f"ERROR {error}")
    print(f"result file: {result_file.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name):
    """BENCHMARK.json's unit for a layer metric, else the one its name ends in."""
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(traced, e2e, runner, n):
    """{name: (value, unit)}: the traced walk's layer metrics plus the
    scheduling, throughput and tracer-overhead ones derived here."""
    layer = dict(traced["metrics"]) if traced else {}
    serial, wall = e2e["serial_raw_s"], e2e["wall_raw_s"]
    cpu = statistics.median(runner.of(n, "cpu_s")) if runner.of(n, "cpu_s") else 0.0
    layer.update({
        "exec.parallel_eff": serial / (n * wall) if wall else 0.0,
        "exec.cpu_s": cpu,
        "exec.cpu_overhead_s": cpu - serial,
        "sim_mrc_per_s": layer.get("sim.router_cycles", 0.0) / serial / 1e6 if serial else 0.0,
        # The tracer's own cost over the walk's time, both from one process.
        "trace.overhead_frac": traced["tracing_s"] / traced["real_s"] if traced else 0.0,
    })
    return {name: (value, layer_unit(name)) for name, value in layer.items()}


if __name__ == "__main__":
    sys.exit(main())
