#!/usr/bin/env python3
"""Layered AMR benchmark: one command per (workload, seed, mode).

Run from the root of a checkout:

    python3 amrbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds the program and the benchmark
binary (CMake, Release) into $CARGO_TARGET_DIR or .bench_build. The
binary measures the deck and checks its state; this script adds the
golden-digest check, prints every metric by name with its unit, appends
the run to .bench_results/results.jsonl and prints one JSON result as
the last line of stdout. The exit code is non-zero when any check
failed.

    python3 amrbench/run.py --write-golden

re-records amrbench/golden.json (the cons digest of every deck and
seed variant) after a change that is meant to move the numerics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN = os.path.join(HERE, "golden.json")
RESULTS = os.path.join(ROOT, ".bench_results", "results.jsonl")
# Seeds map onto this many advection-velocity variants (amrbench.hpp).
VARIANTS = 48


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def scratch_env():
    """Keep compiler and program temporaries inside the build tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then build incrementally; returns the binary."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=scratch_env())
        if proc.returncode != 0:
            log("build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "amrbench")


def run_binary(binary, workload, seed, seconds, trace):
    workdir = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=scratch_env())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark binary failed with exit code", proc.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def golden_key(result):
    """Seeded decks keep one digest per velocity variant."""
    return str(result["variant"]) if result["variant"] >= 0 else "*"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def write_golden():
    binary = build()
    golden = {}
    for w in load_spec()["workloads"]:
        name = w["name"]
        golden[name] = {}
        for seed in range(VARIANTS):
            result = run_binary(binary, name, seed, 0, 0)
            bad = [c for c in result["checks"] if not c["ok"]]
            if bad:
                log("refusing to record a digest of a failing run:", bad)
                sys.exit(1)
            golden[name][golden_key(result)] = result["digests"][0]
            log(name, "variant", result["variant"], result["digests"][0])
            if result["variant"] < 0:
                break  # the deck ignores the seed
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.write_golden:
        write_golden()
        return 0

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))
    binary = build()
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)

    checks = list(result["checks"])
    with open(GOLDEN) as f:
        golden = json.load(f).get(args.workload, {})
    expected = golden.get(golden_key(result))
    for i, digest in enumerate(result["digests"]):
        checks.append({"name": "digest%d" % i, "ok": digest == expected,
                       "detail": "cons crc32 %s, golden %s"
                       % (digest, expected)})
    attempted = len(checks)
    failed = sum(1 for c in checks if not c["ok"])

    metrics = dict(result["metrics"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not args.trace:
        metrics["check_pass_rate"] = {
            "value": 1.0 - failed / attempted, "unit": "frac"}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        checks.append({"name": "metric_set", "ok": False,
                       "detail": "missing " + ", ".join(missing)})
        attempted += 1
        failed += 1
    metrics = {m["name"]: metrics[m["name"]] for m in wanted
               if m["name"] in metrics}

    print("%s seed %d (variant %d), %s" % (
        args.workload, args.seed, result["variant"],
        "traced: per-layer metrics" if args.trace
        else "untraced: end-to-end metrics"))
    for name, m in metrics.items():
        print("  %-42s %16.6g %s" % (name, m["value"], m["unit"]))
    for c in checks:
        if not c["ok"]:
            print("  FAILED %s: %s" % (c["name"], c["detail"]))
    print("  checks: %d attempted, %d failed" % (attempted, failed))

    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "a") as f:
        record = dict(line, workload=args.workload, seed=args.seed,
                      trace=args.trace, time=time.time())
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
