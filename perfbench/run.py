#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload train_offload --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/; later runs rebuild incrementally. The
benchmark's own stdout is passed through, and its last line is one JSON
object whose metrics are checked against BENCHMARK.json before it is
printed.

    python3 perfbench/run.py --selftest

runs every workload briefly, traced and untraced, and asserts that each
prints exactly the metrics BENCHMARK.json names, with their units, and that
its correctness checks ran and passed; it also asserts that an SH_*
environment override is refused.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
SELFTEST_SECONDS = 8

# Correctness checks each workload must report (besides finite_metrics).
EXPECTED_CHECKS = {
    "train_offload": ["finite_loss", "resume_replay_bitwise"],
    "train_dp": ["finite_loss", "ranks_bitwise_identical"],
    "serve_open": ["solo_decode_equal"],
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    # Build logs go to stderr so the result stays the last stdout line.
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_binary(workload, seed, seconds, trace, env=None):
    """Runs one workload; returns (returncode, stdout lines, stderr)."""
    workdir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    try:
        proc = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, env=env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def validate(result, spec, trace):
    """Returns a list of problems with one result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(declared.keys() - got.keys()):
        problems.append(f"metric {name} missing")
    for name in sorted(got.keys() - declared.keys()):
        problems.append(f"metric {name} not declared in BENCHMARK.json")
    for name in sorted(declared.keys() & got.keys()):
        if got[name] != declared[name]:
            problems.append(f"metric {name} has unit {got[name]}, "
                            f"BENCHMARK.json says {declared[name]}")
    return problems


def checks_line(lines):
    for line in lines:
        if line.startswith("perfbench checks "):
            return json.loads(line[len("perfbench checks "):])
    return {}


def selftest(spec):
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            # Long enough for train_offload to commit a periodic checkpoint.
            code, lines, err = run_binary(name, 1, SELFTEST_SECONDS, trace)
            tag = f"{name} --trace {trace}"
            if code != 0 or not lines:
                failures.append(f"{tag}: exit {code}: {err.strip()}")
                continue
            result = json.loads(lines[-1])
            failures += [f"{tag}: {p}" for p in validate(result, spec, trace)]
            checks = checks_line(lines)
            for c in EXPECTED_CHECKS[name] + ["finite_metrics"]:
                if checks.get(c) is not True:
                    failures.append(f"{tag}: check {c} is {checks.get(c)}")
            if result.get("correct") is not True:
                failures.append(f"{tag}: correct is {result.get('correct')}")
            print(f"selftest {tag}: {len(result['metrics'])} metrics, "
                  f"checks {checks}")
    env = dict(os.environ, SH_WINDOW_DTYPE="bf16")
    code, lines, err = run_binary(spec["workloads"][0]["name"], 1, 1, 0, env)
    if code == 0 or "SH_WINDOW_DTYPE" not in err:
        failures.append("an SH_WINDOW_DTYPE override was not refused")
    for f in failures:
        print(f"selftest FAILED: {f}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print("selftest ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.selftest:
        selftest(spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code, lines, err = run_binary(args.workload, args.seed, seconds,
                                  args.trace)
    sys.stderr.write(err)
    if code != 0 or not lines:
        fail(f"benchmark exited with {code}", code or 2)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a JSON result", 3)
    problems = validate(result, spec, args.trace)
    if problems:
        fail("; ".join(problems), 3)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
