"""Benchmark entry point: one workload run, metrics on the last stdout line.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src``.
Each run starts fresh child processes (perfbench/child.py): a few that only
set up, to sample set-up time, then one that sets up, repeats the measured
stage chain through ``dire.cli.main`` for ``--seconds`` and checks every
output. The loop is closed with one client: stages run one after another
and the benchmark starts no threads. The program runs at its defaults;
the thread settings it saw are printed in the environment block.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracing.py). The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every stage succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run, set-up children included


def unit_of(name):
    for suffix, unit in (("_mib_per_s", "MiB/s"), ("gflop_per_s", "GFLOP/s"),
                         ("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"),
                         ("gflop", "GFLOP"), ("_ratio", "ratio"),
                         ("share_of_recover", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def high_percentile(samples):
    """Highest of p99, p95, p90, p75 and p50 with at least ten samples above
    it (nearest rank), or None when the run has too few samples."""
    s = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        v = s[max(0, math.ceil(p / 100 * len(s)) - 1)]
        if sum(x > v for x in s) >= 10:
            return p, v
    return None


def spawn(work, args, timeout):
    """Run one child in a new work directory; returns (spawn time, result)."""
    work.mkdir()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args[:2], str(work),
                           *args[2:]], stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args[:2])} exited {proc.returncode}")
    return t0, json.loads((work / "result.json").read_text())


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not (ROOT / "src" / "dire" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'dire'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = [args.workload, str(args.seed)]

    def remaining():
        return max(1.0, deadline - time.perf_counter())

    # compile bytecode once so no set-up sample pays for it
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                    " import dire.cli", str(ROOT / "src")], check=True, timeout=remaining())
    setup_s = []
    try:
        for i in range(w.setup_reps - 1):
            t0, r = spawn(work / f"setup{i}", [*common, "--setup-only"], remaining())
            setup_s.append(r["setup_end"] - t0)
        t0, r = spawn(work / "main", [*common, "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], remaining())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setup_s.append(r["setup_end"] - t0)
    for problem in r["problems"]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    if not r.get("walls") or (args.trace and not r["traced_walls"]):
        return 1

    print(f"perfbench env: {json.dumps(r['env'], sort_keys=True)}")
    print(f"perfbench {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{len(r['walls'])} timed repetitions after a {r['warmup_s']:.3f} s warm-up")
    if args.trace:
        metrics = dict(r["layers"])
        overhead = statistics.median(r["traced_walls"]) - statistics.median(r["walls"])
        metrics["trace.overhead_s"] = overhead
        print(f"  tracing overhead {overhead:.4f} s "
              f"(traced n={len(r['traced_walls'])}, untraced n={len(r['walls'])})")
        selfs = {k: v for k, v in metrics.items() if k.endswith(".layer_self_s")}
        print("  self time by layer: " + ", ".join(
            f"{k.split('.')[0]} {v:.4f}" for k, v in selfs.items())
            + f", benchmark {metrics['trace.bench_s']:.4f} s; unattributed "
            f"{metrics['trace.unattributed_s']:.2e} s of {metrics['trace.wall_s']:.4f} s")
        print(f"  kernels.gflop {metrics['kernels.gflop']:.4f} GFLOP and kernels.out_mib "
              f"{metrics['kernels.out_mib']:.1f} MiB are computed from call shapes "
              "(2*N*M*D, 8*N*M), not measured traffic")
        if metrics["synthesis.recover_s"]:
            print(f"  losses.share_of_recover {metrics['losses.share_of_recover']:.4f} "
                  f"(base synthesis.recover_s {metrics['synthesis.recover_s']:.4f} s)")
        if r["missing_hooks"]:
            print(f"  untraced, not found in the program: {', '.join(r['missing_hooks'])}")
    else:
        metrics = {"wall_s": statistics.median(r["walls"]),
                   "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": r["peak_rss_mib"]}
        hi = high_percentile(r["walls"])
        tail = f"p{hi[0]} {hi[1]:.4f} s" if hi else "no percentile has 10 samples above it"
        print(f"  wall_s     {metrics['wall_s']:.4f} s median, n={len(r['walls'])}, {tail}")
        print(f"  setup_s    {metrics['setup_s']:.4f} s median, n={len(setup_s)}")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MiB, n=1 (measuring child)")
        print(f"  error_rate {r['failed'] / max(1, r['attempted']):.4f} ratio, "
              f"n={r['attempted']} CLI stage calls")
        units = {"coverage": "ratio", "vendi": "count", "similarity": "cos",
                 "accuracy": "ratio"}
        for k, v in r["quality"].items():
            print(f"  {k:<10} {v:.9g} {units[k]}, n={len(r['walls']) + 1} "
                  "(bit-identical over repetitions)")
        for stage, times in r["stage_s"].items():
            if times:
                print(f"    stage {stage:<12} {statistics.median(times):.4f} s median")
    correct = not r["problems"] and r["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: {"value": v, "unit": unit_of(k) if args.trace else
                                      {"peak_rss_mb": "MiB"}.get(k, "s")}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
