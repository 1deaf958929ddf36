"""Record the desk workload's reference quality metrics, one entry per seed.

    python3 perfbench/make_reference.py [number of seeds, default 100]

Runs the desk chain once for each seed 0..N-1 through ``dire.cli.main`` and
writes the regularizer-on arm's coverage, Vendi, intra-class cosine and
student accuracy to perfbench/reference.json. The desk check compares every
benchmark run against these values, so a change that alters the condensed
set fails the benchmark. Re-record only for a change meant to alter them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from child import ROOT, Chain
from workloads import REFERENCE, WORKLOADS


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    desk = WORKLOADS["desk"]
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    refs = {}
    for seed in range(n):
        run_dir = work / str(seed)
        run_dir.mkdir(parents=True)
        os.chdir(run_dir)
        ok, stdouts, _, _ = Chain().run(desk.chain(seed))
        if not ok:
            raise SystemExit(f"make_reference: desk chain failed for seed {seed}")
        refs[str(seed)] = desk.quality(desk.observe(stdouts))
        os.chdir(ROOT)
        shutil.rmtree(run_dir)
    REFERENCE.write_text(json.dumps({"desk": refs}, indent=1, sort_keys=True) + "\n")
    print(f"recorded desk quality for seeds 0..{n - 1} in {REFERENCE}")


if __name__ == "__main__":
    main()
