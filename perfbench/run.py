#!/usr/bin/env python3
"""Repo benchmark: build the argus libraries, argusd and argus_perfbench from
source, run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload daemon_crowd|daemon_level2 \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/ (an
incremental rebuild is a no-op). Human-readable lines go first; the last
stdout line is one JSON object with exactly the keys correct, attempted,
failed and metrics. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Exits non-zero without a
result when the sources are missing or the build or run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_BIN = os.path.join(BUILD, "argus_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (a no-op when cached) and build incrementally; build
    output goes to stderr so stdout stays the benchmark's."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def run_bench(args):
    cmd = [BENCH_BIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout takes down argus_perfbench and any argusd
    # it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"argus_perfbench timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"argus_perfbench exited {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("argus_perfbench printed no result")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["daemon_crowd", "daemon_level2"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        notes, result = run_bench(args)
    except (OSError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"error: argus_perfbench did not report {missing}")
        return 1
    metrics = {n: result["metrics"][n] for n in names}

    for line in notes:
        print(line)
    for name, ok in sorted(result["checks"].items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for n in names:
        print(f"{n:40s} {metrics[n]['value']:16.6f} {metrics[n]['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
