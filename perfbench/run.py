#!/usr/bin/env python3
"""Host-time benchmark of CellSweep: build, run one workload (or all), report.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a full checkout. The first run configures and
builds perfbench/ (a CMake project over the repository's src/) into
.bench_build/perfbench at the checkout root; later runs rebuild only what
changed. Each workload then measures for about S seconds, checks its
outputs, prints every metric as "name value unit", writes the full result
to .bench_out/<workload>-seed<N>-trace<T>.json and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). Exit status is 0 only when
every workload ran; a failed correctness check still exits 0 with
"correct": false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper50-functional", "fig5-ladder", "serve-mixed"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    """Runs cmd with its output appended to log; False on failure."""
    with open(log, "a") as f:
        f.write("$ " + " ".join(map(str, cmd)) + "\n")
        f.flush()
        try:
            return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it.
            f.write(f"timed out after {timeout} s\n")
            return False


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no CellSweep sources under {ROOT}; run from a full checkout")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout path
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    log.write_text("")
    if not cache.is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *gen,
                           "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S):
            text = log.read_text()
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed:\n" + text[-4000:])
    jobs = str(os.cpu_count() or 1)
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log,
                      BUILD_TIMEOUT_S):
        fail("build failed:\n" + log.read_text()[-4000:])
    return BUILD_DIR / "perfbench"


def run_workload(binary, name, args):
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [binary, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not out.is_file():
        fail(f"{name}: perfbench exited with status {proc.returncode}")
    result = json.loads(out.read_text())
    for key, m in result["metrics"].items():
        print(f"  {name} {key} {m['value']!r} {m['unit']}")
    fp = result["fingerprint"]
    print(f"  fingerprint: {fp['compiler']}, {fp['build_type']} "
          f"[{fp['flags']}], {fp['cpu_model']}, nproc {fp['nproc']}, "
          f"threads {fp['threads']}")
    print(f"  result file: {out}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of " + ", ".join(WORKLOADS) + ", or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}'; valid: "
             + ", ".join(WORKLOADS) + ", all", code=2)
    if args.seconds <= 0:
        fail("--seconds must be positive", code=2)

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {name: run_workload(binary, name, args) for name in names}

    if len(names) == 1:
        r = results[names[0]]
        metrics = r["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, r in results.items()
                   for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
