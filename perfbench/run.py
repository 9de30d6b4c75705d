#!/usr/bin/env python3
"""Runs one workload of the advisor benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the benchmark
package (perfbench/Cargo.toml, release mode, offline) against the
advisor crates of that checkout, stamps the environment, runs the
workload in one child process and prints the child's report. The last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, where `metrics` holds exactly the metrics BENCHMARK.json
names for the mode: `end_to_end` for --trace 0, `per_layer` for
--trace 1 (a layer the workload never calls reports 0). Each result is
also appended, with its environment stamp, to .perfbench/results.jsonl.

The exit code is the child's: non-zero when any output check failed.
Build failures, a missing metric or a child that overruns its time
limit exit non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".perfbench")
BUILD_TIMEOUT_S = 840
# A run's set-up plus its timed phase plus its checks must end well
# inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def run_child(argv, timeout, **kwargs):
    """Runs `argv` to completion and returns (exit code, stdout). The
    child is killed and waited for if it overruns `timeout` or if this
    script is interrupted or terminated, so no process outlives it."""
    child = subprocess.Popen(argv, cwd=ROOT, **kwargs)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"{argv[0]} overran {timeout} s")
    return child.returncode, out


def command_output(argv):
    try:
        out = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the advisor's sources and manifests, so a result
    names the code it measured even where the checkout has no git."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(seed):
    loadavg = read("/proc/loadavg")
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "-V"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_at_start": loadavg,
    }


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    argv = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        code, _ = run_child(argv, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"build failed: {e}")
    if code != 0:
        fail(f"build failed with exit code {code}")
    return os.path.join(target, "release", "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be ≥ 0 and --seconds > 0")

    env = environment(args.seed)
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    argv = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", WORK_DIR,
    ]
    code, stdout = run_child(argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail(f"{args.workload} printed no result (exit code {code})")

    wanted = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    strays = sorted(set(raw["metrics"]) - known)
    if strays:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(strays)}")
    metrics = {}
    for spec in wanted:
        got = raw["metrics"].get(spec["name"])
        if got is None and args.trace == "1":
            got = {"value": 0.0, "unit": spec["unit"]}
        if got is None or got["value"] is None:
            fail(f"{args.workload} did not measure {spec['name']}")
        if got["unit"] != spec["unit"]:
            fail(f"{spec['name']} in {got['unit']}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }

    for line in lines[:-1]:
        print(line)
    print("# env " + json.dumps(env))
    record = {"workload": args.workload, "trace": int(args.trace), "env": env, "result": result}
    with open(os.path.join(WORK_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
