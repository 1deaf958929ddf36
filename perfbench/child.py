"""One workload run in a fresh process: set up, repeat the chain, check.

Started by run.py as ``python3 perfbench/child.py <workload> <seed> <work dir>
[--seconds S --trace 0|1 | --setup-only]``. The process runs inside its own
fresh work directory, imports dire from the checkout's ``src``, and writes
``result.json`` there. With ``--setup-only`` it stops after set-up, so run.py
can sample set-up time several times in one run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dire  # noqa: E402
import dire.cli  # noqa: E402

from tracing import Tracer, run_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Chain:
    """Runs CLI stages in-process and counts calls and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, steps, tracer=None):
        """Run steps in order; stop at the first failure. Returns (ok,
        stdouts, per-stage seconds, wall seconds)."""
        stdouts, stage_s = [], []
        t_start = time.perf_counter()
        for argv in steps:
            self.attempted += 1
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(buf):
                    if tracer is None:
                        rc = dire.cli.main(argv)
                    else:
                        rc = tracer.call(f"cli.{argv[0]}", dire.cli.main, argv)
            except SystemExit as exc:  # argparse usage error
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = -1
            stage_s.append(time.perf_counter() - t0)
            stdouts.append(buf.getvalue())
            if rc != 0:
                self.failed += 1
                print(f"perfbench: stage {' '.join(argv)!r} exited {rc}", file=sys.stderr)
                return False, stdouts, stage_s, time.perf_counter() - t_start
        return True, stdouts, stage_s, time.perf_counter() - t_start


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "DIRE_THREADS": os.environ.get("DIRE_THREADS"),
        "kernel_workers": dire.kernels.worker_count(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("work")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    w = WORKLOADS[args.workload]
    result_path = Path(args.work).resolve() / "result.json"
    if Path(dire.__file__).resolve().parent != ROOT / "src" / "dire":
        raise SystemExit(f"perfbench: imported dire from {dire.__file__}, not {ROOT / 'src'}")
    os.chdir(args.work)

    chain = Chain()
    ok, _, _, _ = chain.run(w.setup(args.seed))
    out = {"setup_end": time.perf_counter(), "attempted": chain.attempted,
           "failed": chain.failed, "problems": []}
    if not ok:
        out["problems"].append("set-up failed")
    if args.setup_only or not ok:
        result_path.write_text(json.dumps(out))
        return

    steps = w.chain(args.seed)
    setup_files = set(os.listdir())

    def fresh_outputs():
        # ext4 flushes a file that is truncated and rewritten when it is
        # closed; under other tenants' I/O that stalls a repetition for up to
        # seconds. Each repetition therefore writes new files, as a first run does.
        for name in set(os.listdir()) - setup_files:
            os.unlink(name)

    tracer = Tracer() if args.trace else None
    observations, walls, traced, layer_runs, stage_runs = [], [], [], [], []
    ok, stdouts, _, out["warmup_s"] = chain.run(steps)  # first-call costs, untimed
    if ok:
        observations.append(w.observe(stdouts))
    t_end = time.perf_counter() + args.seconds
    # at least three timed repetitions; in trace mode untraced and traced alternate
    while ok and (time.perf_counter() < t_end or len(walls) + len(traced) < 3
                  or (tracer and not (walls and traced))):
        use = tracer if tracer and len(traced) < len(walls) else None
        fresh_outputs()
        if use:
            use.new_run()
            use.install()
        try:
            ok, stdouts, stage_s, wall = chain.run(steps, use)
        finally:
            if use:
                use.uninstall()
        if not ok:
            break
        if use:
            traced.append(wall)
            layer_runs.append(run_metrics(use, wall, chain.failed))
        else:
            walls.append(wall)
            stage_runs.append(stage_s)
        observations.append(w.observe(stdouts))

    # read before the checks, which allocate on their own
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ok:
        out["problems"] += w.check(args.seed, observations)
    else:
        out["problems"].append("a measured stage failed")
    out.update(
        attempted=chain.attempted, failed=chain.failed, walls=walls,
        stage_s={argv[0] + f"#{i}": [r[i] for r in stage_runs] for i, argv in enumerate(steps)},
        quality=w.quality(observations[0]) if observations else {},
        env=environment())
    if tracer:
        out["traced_walls"] = traced
        out["layers"] = {k: statistics.median(r[k] for r in layer_runs)
                         for k in layer_runs[0]} if layer_runs else {}
        out["missing_hooks"] = tracer.missing
        if layer_runs:
            write_spans(tracer, "spans.csv")
            for r in layer_runs:
                if abs(r["trace.unattributed_s"]) > 0.01 * r["trace.wall_s"]:
                    out["problems"].append(
                        f"trace: {r['trace.unattributed_s']:.6f} s of "
                        f"{r['trace.wall_s']:.3f} s traced wall time unattributed")
    result_path.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
