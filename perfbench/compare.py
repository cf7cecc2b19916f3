#!/usr/bin/env python3
"""Model guard: diffs two benchmark result files on their deterministic outputs.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The result files are the ones perfbench/run.py writes under
.bench_build/results/. A change meant only to make the program faster must
leave every simulated statistic, verdict tally and report byte identical,
so this compares exactly those: every named count and the report digests.
Any difference is a model change, not a speed-up, and exits 1. Timings are
printed beside each other for information and never decide the exit code.
"""
import json
import sys


def digests(record):
    return sorted({s["digest"] for s in record["samples"]})


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (json.load(open(path)) for path in argv[1:])
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            print(f"not comparable: {key} {before[key]!r} vs {after[key]!r}", file=sys.stderr)
            return 2
    if before["environment"]["seed"] != after["environment"]["seed"]:
        print(f"not comparable: seed {before['environment']['seed']} vs "
              f"{after['environment']['seed']}", file=sys.stderr)
        return 2

    changes = []
    names = list(before["counts"]) + [k for k in after["counts"] if k not in before["counts"]]
    for name in names:
        a, b = before["counts"].get(name), after["counts"].get(name)
        if a != b:
            changes.append(f"count {name}: {a} -> {b}")
    if digests(before) != digests(after):
        changes.append(f"report sha256: {' '.join(digests(before))} -> "
                       f"{' '.join(digests(after))}")
    for kind in ("correct", "fail_frac", "model_err"):
        if before[kind] != after[kind]:
            changes.append(f"{kind}: {before[kind]} -> {after[kind]}")

    for name, value in before["metrics"].items():
        other = after["metrics"].get(name, {}).get("value")
        print(f"{name:36s} {value['value']:>14.6g} {other if other is None else format(other, '>14.6g')}"
              f" {value['unit']}")
    if changes:
        print(f"MODEL CHANGE on {before['workload']} ({len(changes)} difference(s)):")
        for change in changes:
            print(f"  {change}")
        return 1
    print(f"same model on {before['workload']}: {len(names)} counts and the report digest match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
