"""Desk benchmark and its experiments, all loops over one arm runner.

An arm is recover -> relabel -> extract -> metrics -> student for one
RunConfig, scored against a RealReference the caller builds once per
(embedding model, train split). The default benchmark is 10 classes in 16
dimensions with 500 points per class (80/20 split), ipc=10, 500 synthesis
iterations at lr 0.1.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet
from .errors import ParameterError
from .kernels import knn_distances
from .metrics import covered_fraction, report_with_coverage
from .synthesis import RunConfig, SyntheticDataset, recover
from .teacher import (LabeledDataset, TeacherModel, check_sgd_options,
                      evaluate_student, extract_features, gen_mixture, relabel,
                      squeeze_train)

DEFAULT_BENCHMARK = {
    "n_classes": 10,
    "dim": 16,
    "n_per_class": 500,
    "spread": 0.30,
    # the teacher is trained to full confidence on purpose: synthesis against
    # a soft teacher stalls before the redundancy the regularizer targets can
    # appear, while sharp confidence basins reproduce it at desk scale
    "teacher_hidden": (32,),
    "teacher_epochs": 200,
    "teacher_lr": 0.5,
    "student_hidden": (32,),
    "student_epochs": 60,
    "student_lr": 0.1,
    "k": 5,
}

SWEEP_RC_GRID = (0.1, 1.0, 10.0)
SWEEP_RE_GRID = (0.001, 0.01, 0.1)

DEFAULT_MASKS = (("cd",), ("cdm",), ("edm",), ("cd", "cdm"), ("cd", "edm"),
                 ("cdm", "edm"), ("cd", "cdm", "edm"))

ARM_METRICS = ("coverage", "similarity", "vendi", "accuracy")
REGULARIZER_OFF = {"r_c": 0.0, "r_e": 0.0, "components": ()}  # plain synthesis


@dataclass
class ArmResult:
    """One arm's metrics; an ablation also fills norm_* (min-max over masks)."""
    seed: int
    mask: tuple
    coverage: float
    similarity: float
    vendi: float
    accuracy: float
    norm_coverage: float = 0.0
    norm_similarity: float = 0.0
    norm_vendi: float = 0.0


def _medians(arms) -> dict:
    return {m: float(np.median([getattr(a, m) for a in arms])) for m in ARM_METRICS}


@dataclass(frozen=True)
class RealReference:
    """Per-class real embeddings of one (embedding model, train split) plus
    their pooled coverage radii. Passed explicitly, never cached: an
    identity-keyed cache can hand a later seed the radii of a freed array."""
    model: TeacherModel
    real: EmbeddingSet
    radii: np.ndarray
    k: int

    @classmethod
    def build(cls, model: TeacherModel, train: LabeledDataset, k: int):
        real = EmbeddingSet.from_labeled(extract_features(model, train.points),
                                         train.labels)
        return cls(model, real, knn_distances(real.pooled(), k), k)


def _report(ref: RealReference, syn):
    """metrics_report of syn at default scopes, embedded by ref's model."""
    e_syn = EmbeddingSet.from_labeled(extract_features(ref.model, syn.points),
                                      syn.labels)
    cov = covered_fraction(ref.real.pooled(), ref.radii, e_syn.pooled())
    return report_with_coverage(ref.real, e_syn, cov, ref.k)


def _student_accuracy(teacher, test, syn, b: dict, seed: int) -> float:
    """Accuracy of a student trained on syn; b as DEFAULT_BENCHMARK."""
    soft = syn.soft_labels if syn.soft_labels is not None else relabel(teacher, syn)
    return evaluate_student(
        syn.points, soft, test, hidden_sizes=b["student_hidden"],
        epochs=b["student_epochs"], lr=b["student_lr"], seed=seed)


def _run_arm(teacher, train, test, refs, b: dict, cfg: RunConfig) -> list:
    """The arm runner: recover, relabel and train the student once, then
    score the recovered set against each reference; one ArmResult per ref."""
    syn = recover(teacher, train, cfg)
    syn.soft_labels = relabel(teacher, syn, cfg.temperature)
    acc = _student_accuracy(teacher, test, syn, b, cfg.seed)
    reports = [_report(ref, syn) for ref in refs]
    return [ArmResult(cfg.seed, cfg.components, r.coverage,
                      r.mean_intra_class_cosine, r.vendi, acc) for r in reports]


def _desks(seeds, bench, extractor_factories=(None,)):
    """(seed, arm) per seed; arm(cfg) runs once and scores against one
    reference per extractor factory, built once per seed. A None factory
    stands for the seed's teacher."""
    b = dict(DEFAULT_BENCHMARK, **(bench or {}))
    for seed in seeds:
        train, test, teacher = make_benchmark(seed, bench)
        refs = [RealReference.build(f(train, seed) if f else teacher, train, b["k"])
                for f in extractor_factories]
        yield seed, functools.partial(_run_arm, teacher, train, test, refs, b)


def make_benchmark(seed: int, bench: dict | None = None):
    """(train, test, teacher) for one seed of the desk benchmark."""
    b = dict(DEFAULT_BENCHMARK, **(bench or {}))
    train, test = gen_mixture(b["n_classes"], b["dim"], b["n_per_class"],
                              b["spread"], seed)
    teacher = squeeze_train(train, hidden_sizes=b["teacher_hidden"],
                            epochs=b["teacher_epochs"], lr=b["teacher_lr"],
                            seed=seed)
    return train, test, teacher


def run_arm(train, test, teacher, cfg: RunConfig, bench: dict | None = None,
            extractor=None) -> ArmResult:
    """Recover + relabel + evaluate one configuration."""
    b = dict(DEFAULT_BENCHMARK, **(bench or {}))
    ref = RealReference.build(extractor or teacher, train, b["k"])
    return _run_arm(teacher, train, test, [ref], b, cfg)[0]


def evaluate_synthetic(teacher: TeacherModel, real_train: LabeledDataset,
                       real_test: LabeledDataset, syn: SyntheticDataset,
                       k: int = 5, student_hidden=(32,), student_epochs: int = 60,
                       student_lr: float = 0.1, student_seed: int = 0,
                       extractor: TeacherModel | None = None):
    """Metrics + student accuracy for one synthetic dataset.

    `extractor` overrides the embedding model for the metrics (the student
    is always trained on raw points); default is the teacher itself.
    """
    ref = RealReference.build(extractor or teacher, real_train, k)
    b = dict(student_hidden=student_hidden, student_epochs=student_epochs,
             student_lr=student_lr)
    return _report(ref, syn), _student_accuracy(teacher, real_test, syn, b, student_seed)


@dataclass
class ComparisonReport:
    """Regularizer-on vs regularizer-off across seeds."""
    with_dire: list
    without_dire: list

    def medians(self):
        on, off = _medians(self.with_dire), _medians(self.without_dire)
        return {f"{m}_{side}": med[m] for m in ARM_METRICS
                for side, med in (("on", on), ("off", off))}


def directional_comparison(seeds, base_cfg: RunConfig | None = None,
                           bench: dict | None = None,
                           extractor_factories=(None,)) -> list:
    """Run the benchmark for each seed with the regularizer on and off; one
    ComparisonReport per extractor factory, all from the same recovers.

    A factory `f(train, seed)` may supply an independently seeded embedding
    model for the metrics; None uses each seed's teacher.
    """
    base_cfg = base_cfg if base_cfg is not None else RunConfig()
    reports = [ComparisonReport(with_dire=[], without_dire=[])
               for _ in extractor_factories]
    for seed, arm in _desks(seeds, bench, extractor_factories):
        cfg = dataclasses.replace(base_cfg, seed=seed)
        on_rows = arm(cfg)
        off_rows = arm(dataclasses.replace(cfg, **REGULARIZER_OFF))
        for report, on, off in zip(reports, on_rows, off_rows):
            report.with_dire.append(on)
            report.without_dire.append(off)
    return reports


SWEEP_CSV_HEADER = "r_c,r_e,coverage,similarity,vendi,accuracy,composite,beats_baseline"


@dataclass
class SweepReport:
    rows: list  # dicts with r_c, r_e, median metrics, composite rank score
    baseline: dict = field(default_factory=dict)
    best: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r['r_c']:g},{r['r_e']:g},{r['coverage']:.6g},"
                         f"{r['similarity']:.6g},{r['vendi']:.6g},"
                         f"{r['accuracy']:.6g},{r['composite']:g},"
                         f"{int(r['beats_baseline'])}")
        return "\n".join(lines) + "\n"


def weight_sweep(seeds=(0, 1, 2), rc_grid=SWEEP_RC_GRID, re_grid=SWEEP_RE_GRID,
                 base_cfg: RunConfig | None = None,
                 bench: dict | None = None) -> SweepReport:
    """Grid-search r_c x r_e on the desk benchmark.

    Each cell gets the median metrics over the seeds; cells are ranked per
    metric (ascending) and scored by coverage rank + vendi rank - similarity
    rank. The winner is the highest-composite cell that also dominates the
    regularizer-off baseline on all three diversity metrics without losing
    more than half an accuracy point; a cell that merely scores well while
    losing to the baseline is not a usable default.
    """
    base_cfg = base_cfg if base_cfg is not None else RunConfig()
    arms = list(_desks(seeds, bench))

    def medians_over_seeds(**weights):
        return _medians([arm(dataclasses.replace(base_cfg, seed=seed, **weights))[0]
                         for seed, arm in arms])

    baseline = medians_over_seeds(**REGULARIZER_OFF)
    rows = []
    for r_c in rc_grid:
        for r_e in re_grid:
            row = {"r_c": r_c, "r_e": r_e, **medians_over_seeds(r_c=r_c, r_e=r_e)}
            row["beats_baseline"] = (
                row["coverage"] > baseline["coverage"]
                and row["vendi"] > baseline["vendi"]
                and row["similarity"] < baseline["similarity"]
                and row["accuracy"] >= baseline["accuracy"] - 0.005)
            rows.append(row)
    def ranks(key):
        vals = np.array([r[key] for r in rows])
        return np.argsort(np.argsort(vals))  # ascending rank, 0-based
    composite = ranks("coverage") + ranks("vendi") - ranks("similarity")
    for r, score in zip(rows, composite):
        r["composite"] = int(score)
    dominating = [r for r in rows if r["beats_baseline"]]
    pool = dominating if dominating else rows
    best = max(pool, key=lambda r: (r["composite"], r["accuracy"]))
    return SweepReport(rows=rows, baseline=baseline,
                       best={"r_c": best["r_c"], "r_e": best["r_e"]})


ABLATION_CSV_HEADER = ("mask,coverage,similarity,vendi,accuracy,"
                       "norm_coverage,norm_similarity,norm_vendi")


@dataclass
class AblationReport:
    rows: list  # ArmResult per mask, norm_* columns filled

    def to_csv(self) -> str:
        lines = [ABLATION_CSV_HEADER]
        for r in self.rows:
            lines.append(f"{'+'.join(r.mask)},{r.coverage:.9g},{r.similarity:.9g},"
                         f"{r.vendi:.9g},{r.accuracy:.9g},{r.norm_coverage:.6g},"
                         f"{r.norm_similarity:.6g},{r.norm_vendi:.6g}")
        return "\n".join(lines) + "\n"


def ablate(teacher: TeacherModel, real_train: LabeledDataset,
           real_test: LabeledDataset, cfg: RunConfig, masks=DEFAULT_MASKS,
           k: int = 5, student_hidden=(32,), student_epochs: int = 60,
           student_lr: float = 0.1) -> AblationReport:
    """Run recover once per component mask under shared seeds and report raw
    plus min-max-normalized diversity metrics with student accuracy. Every
    option is checked before the first recover."""
    if not masks:
        raise ParameterError("ablate: need at least one mask")
    check_sgd_options(student_epochs, student_lr)
    ref = RealReference.build(teacher, real_train, k)
    b = dict(student_hidden=student_hidden, student_epochs=student_epochs,
             student_lr=student_lr)
    arm = functools.partial(_run_arm, teacher, real_train, real_test, [ref], b)
    rows = [arm(dataclasses.replace(cfg, components=mask))[0] for mask in masks]
    for name in ("coverage", "similarity", "vendi"):
        vals = np.array([getattr(r, name) for r in rows])
        lo, hi = vals.min(), vals.max()
        normed = (vals - lo) / (hi - lo) if hi != lo else np.zeros_like(vals)
        for r, v in zip(rows, normed):
            setattr(r, f"norm_{name}", float(v))
    return AblationReport(rows=rows)
