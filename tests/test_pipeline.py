import json
from pathlib import Path

import pytest

from dire import (RunConfig, directional_comparison, make_benchmark, run_arm,
                  squeeze_train)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_desk_seed0_matches_recorded_reference():
    """The desk arm's quality is pinned to the values the benchmark checks
    (perfbench/reference.json, seed 0) at the benchmark's rtol."""
    ref = json.loads(REFERENCE.read_text())["desk"]["0"]
    arm = run_arm(*make_benchmark(0), RunConfig(seed=0))
    for key in ("coverage", "similarity", "vendi", "accuracy"):
        assert getattr(arm, key) == pytest.approx(ref[key], rel=1e-6, abs=0.0), key


def test_extractors_share_one_set_of_recovers():
    """Each report of a several-extractor comparison equals, row by row and
    field by field, a comparison run for that extractor alone."""
    bench = {"n_classes": 3, "dim": 4, "n_per_class": 30, "teacher_epochs": 5,
             "student_epochs": 3, "k": 3}
    cfg = RunConfig(ipc=2, iters=5)

    def second(train, seed):
        return squeeze_train(train, (6,), epochs=5, lr=0.5, seed=seed + 1000)

    both = directional_comparison(range(2), cfg, bench, (None, second))
    assert len(both) == 2
    for factory, got in zip((None, second), both):
        assert got == directional_comparison(range(2), cfg, bench, (factory,))[0]
