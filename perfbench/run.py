#!/usr/bin/env python3
"""Build the simulator from source and run one perfbench workload.

    python3 perfbench/run.py --workload ocean_detail --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --report [--seconds 30] [--seed N]

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (Release) into .bench_build/; later calls rebuild
incrementally. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. --report runs every workload untraced and
traced and prints every metric with its unit and the host fingerprint.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["ocean_detail", "mp3d_invalidate", "fmm_sampled"]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def bench_command(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    return cmd


def run_one(args):
    sys.stdout.flush()
    try:
        done = subprocess.run(bench_command(args.workload, args.seed, args.seconds, args.trace),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


def report(args):
    """Every workload, untraced then traced: one table of every metric."""
    rows, fingerprint, ok = [], None, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                done = subprocess.run(bench_command(workload, args.seed, args.seconds, trace),
                                      capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("# fingerprint "):
                    fingerprint = line[len("# fingerprint "):]
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            ok = ok and done.returncode == 0 and result["correct"]
            rows.append((workload, trace, result))
    print("fingerprint:", fingerprint)
    print("%-16s %-5s %-22s %18s  %s" % ("workload", "trace", "metric", "value", "unit"))
    for workload, trace, result in rows:
        status = "ok" if result["correct"] else "FAILED"
        print("%-16s %-5d %-22s %18s  runs attempted %s, failed %s"
              % (workload, trace, "(runs)", status, result.get("attempted"), result.get("failed")))
        for name, m in result["metrics"].items():
            print("%-16s %-5d %-22s %18.6g  %s" % (workload, trace, name, m["value"], m["unit"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="app seed (default: the app's built-in seed)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload untraced and traced; print all metrics")
    args = ap.parse_args()
    if not args.report and args.workload is None:
        ap.error("--workload or --report is required")
    build()
    return report(args) if args.report else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
