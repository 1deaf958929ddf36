import json
from pathlib import Path

import pytest

from dire import RunConfig, make_benchmark, run_arm

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_desk_seed0_matches_recorded_reference():
    """The desk arm's quality is pinned to the values the benchmark checks
    (perfbench/reference.json, seed 0) at the benchmark's rtol."""
    ref = json.loads(REFERENCE.read_text())["desk"]["0"]
    arm = run_arm(*make_benchmark(0), RunConfig(seed=0))
    for key in ("coverage", "similarity", "vendi", "accuracy"):
        assert getattr(arm, key) == pytest.approx(ref[key], rel=1e-6, abs=0.0), key
