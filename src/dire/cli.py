"""Command-line front end.

Subcommands sequence the pipeline: gen-data -> squeeze -> recover ->
relabel -> evaluate -> metrics, plus extract (embedding export), ablate,
bench, and sweep. A stage that writes a file also writes
{prefix}.{stage}.manifest.json with its argv, resolved config, wall time
and FNV-1a digests of inputs and outputs, so reruns can be verified
bit-for-bit (metrics takes its prefix from --csv, evaluate and bench from
--out). Exit codes: 0 success, 1 domain error (one-line diagnostic on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import DireError
from .fileio import (ExperimentManifest, load_config, read_emb, read_labels,
                     read_teacher, write_emb, write_labels, write_manifest,
                     write_teacher)
from .kernels import bench_kernels, bench_to_csv
from .embeddings import EmbeddingSet
from .metrics import metrics_report
from .pipeline import ablate, weight_sweep
from .synthesis import RunConfig, recover, trace_to_csv
from .teacher import (LabeledDataset, SoftLabels, evaluate_student,
                      extract_features, gen_mixture, relabel, squeeze_train)


def _parse_ints(items, flag: str) -> tuple:
    out = []
    for s in items:
        try:
            out.append(int(s))
        except ValueError:
            raise DireError(f"{flag}: expected an integer, got {s!r}") from None
    return tuple(out)


def _parse_hidden(text: str, flag: str) -> tuple:
    return _parse_ints((s for s in text.split(",") if s), flag)


def _parse_components(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _data_paths(prefix: str, split: str):
    return Path(f"{prefix}.{split}.emb"), Path(f"{prefix}.{split}.labels.csv")


def _class_count(labels) -> int:
    return int(labels.max()) + 1 if labels.size else 0


def _load_split(prefix: str, split: str) -> LabeledDataset:
    emb_path, lbl_path = _data_paths(prefix, split)
    points = read_emb(emb_path)
    labels = read_labels(lbl_path)
    return LabeledDataset(points, labels, _class_count(labels), split)


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


@contextmanager
def _stage(args, name: str, prefix, inputs, outputs, config=None):
    """Run a stage body and record it in {prefix}.{name}.manifest.json: argv,
    config, FNV-1a digests of the inputs (taken on entry) and of the outputs
    (taken after the body wrote them), and the wall time over the body and
    both digest passes. A stage without an output prefix records nothing."""
    if prefix is None:
        yield
        return
    t0 = time.perf_counter()
    manifest = ExperimentManifest(subcommand=name, argv=list(args._argv), config=config)
    for path in inputs:
        manifest.record_input(path)
    yield
    for path in outputs:
        manifest.record_output(path)
    manifest.wall_time_s = time.perf_counter() - t0
    write_manifest(f"{prefix}.{name}.manifest.json", manifest)


def cmd_gen_data(args) -> int:
    train, test = gen_mixture(args.classes, args.dim, args.per_class,
                              args.spread, args.seed)
    splits = {"train": train, "test": test}
    outputs = [p for split in splits for p in _data_paths(args.out, split)]
    with _stage(args, "gen-data", args.out, (), outputs):
        for split, data in splits.items():
            emb_path, lbl_path = _data_paths(args.out, split)
            write_emb(emb_path, data.points)
            write_labels(lbl_path, data.labels)
    print(json.dumps({"train": len(train), "test": len(test),
                      "classes": args.classes, "dim": args.dim}))
    return 0


def cmd_squeeze(args) -> int:
    hidden = _parse_hidden(args.hidden, "--hidden")
    with _stage(args, "squeeze", args.out, _data_paths(args.data, "train"), [args.out]):
        model = squeeze_train(_load_split(args.data, "train"), hidden_sizes=hidden,
                              epochs=args.epochs, lr=args.lr, seed=args.seed,
                              batch_size=args.batch_size)
        write_teacher(args.out, model)
    print(json.dumps({"train_accuracy": model.meta["train_accuracy"],
                      "hidden": list(model.hidden_sizes())}))
    return 0


def cmd_extract(args) -> int:
    with _stage(args, "extract", args.out, [args.teacher, args.points], [args.out]):
        model = read_teacher(args.teacher)
        write_emb(args.out, extract_features(model, read_emb(args.points)))
    return 0


def cmd_recover(args) -> int:
    cfg = _config_from_args(args)
    syn_emb, syn_labels, soft_emb, trace_csv = outputs = [
        f"{args.out}.{suffix}" for suffix in ("syn.emb", "syn.labels.csv", "soft.emb",
                                              "trace.csv")]
    with _stage(args, "recover", args.out, [args.teacher, *_data_paths(args.data, "train")],
                outputs, config=cfg.to_dict()):
        model = read_teacher(args.teacher)
        syn = recover(model, _load_split(args.data, "train"), cfg)
        soft = relabel(model, syn, cfg.temperature)
        write_emb(syn_emb, syn.points)
        write_labels(syn_labels, syn.labels)
        write_emb(soft_emb, soft.probs)
        Path(trace_csv).write_text(trace_to_csv(syn.trace))
    print(json.dumps({"iterations": len(syn.trace),
                      "final_total": float(syn.trace[-1, -1])}))
    return 0


def cmd_relabel(args) -> int:
    with _stage(args, "relabel", args.out, [args.teacher, args.points], [args.out]):
        model = read_teacher(args.teacher)
        write_emb(args.out, relabel(model, read_emb(args.points), args.temperature).probs)
    return 0


def cmd_evaluate(args) -> int:
    hidden = _parse_hidden(args.hidden, "--hidden")
    if not (args.soft or args.labels):
        raise DireError("evaluate: need --labels or --soft")
    train_labels = _data_paths(args.data, "train")[1]
    # a class the test split lacks is still one of the dataset's classes;
    # only hard labels need the count, since --soft wins over --labels
    widen = not args.soft and args.labels and train_labels.exists()
    inputs = [args.points, args.soft or args.labels, *_data_paths(args.data, "test")]
    if widen:
        inputs.append(train_labels)
    with _stage(args, "evaluate", args.out, inputs, [args.out]):
        points = read_emb(args.points)
        labels = (SoftLabels(read_emb(args.soft), temperature=1.0) if args.soft
                  else read_labels(args.labels))
        test = _load_split(args.data, "test")
        if widen:
            test.n_classes = max(test.n_classes, _class_count(read_labels(train_labels)))
        acc = evaluate_student(points, labels, test, hidden_sizes=hidden,
                               epochs=args.epochs, lr=args.lr, seed=args.seed)
        out = {"accuracy": acc, "n_train": int(points.shape[0]), "n_test": len(test)}
        if args.out:
            Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out))
    return 0


METRICS_CSV_HEADER = "method,ipc,coverage,similarity,vendi,k"


def cmd_metrics(args) -> int:
    with _stage(args, "metrics", args.csv,
                [args.real, args.labels_real, args.syn, args.labels_syn], [args.csv]):
        real = EmbeddingSet.from_labeled(read_emb(args.real), read_labels(args.labels_real))
        syn = EmbeddingSet.from_labeled(read_emb(args.syn), read_labels(args.labels_syn))
        report = metrics_report(real, syn, k=args.k, coverage_scope=args.coverage_scope,
                                vendi_scope=args.vendi_scope)
        if args.csv:
            path = Path(args.csv)
            row = (f"{args.method},{args.ipc},{report.coverage:.9g},"
                   f"{report.mean_intra_class_cosine:.9g},{report.vendi:.9g},{args.k}")
            head = path.read_text() if path.exists() else METRICS_CSV_HEADER + "\n"
            path.write_text(head + row + "\n")
    print(json.dumps(report.to_dict()))
    return 0


def cmd_ablate(args) -> int:
    student_hidden = _parse_hidden(args.student_hidden, "--student-hidden")
    cfg = _config_from_args(args)
    out_csv = f"{args.out}.ablation.csv"
    inputs = [args.teacher, *_data_paths(args.data, "train"), *_data_paths(args.data, "test")]
    with _stage(args, "ablate", args.out, inputs, [out_csv], config=cfg.to_dict()):
        report = ablate(read_teacher(args.teacher), _load_split(args.data, "train"),
                        _load_split(args.data, "test"), cfg, k=args.k,
                        student_hidden=student_hidden,
                        student_epochs=args.student_epochs,
                        student_lr=args.student_lr)
        Path(out_csv).write_text(report.to_csv())
    print(report.to_csv(), end="")
    return 0


def cmd_bench(args) -> int:
    shapes = []
    for part in args.shapes.split(","):
        dims = part.lower().split("x")
        if len(dims) != 3:
            raise DireError(f"bench: bad shape {part!r}, expected NxMxD")
        shapes.append(_parse_ints(dims, "--shapes"))
    kernels = _parse_components(args.kernels)
    csv_path, json_path = f"{args.out}.bench.csv", f"{args.out}.bench.json"
    with _stage(args, "bench", args.out, (), [csv_path, json_path]):
        reports = bench_kernels(shapes, reps=args.reps, kernels=kernels, seed=args.seed)
        csv_text = bench_to_csv(reports)
        if args.out:
            Path(csv_path).write_text(csv_text)
            Path(json_path).write_text(
                json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    print(csv_text, end="")
    return 0


def cmd_sweep(args) -> int:
    seeds = _parse_ints(args.seeds.split(","), "--seeds")
    csv_path, best_path = f"{args.out}.sweep.csv", f"{args.out}.sweep.best.json"
    with _stage(args, "sweep", args.out, (), [csv_path, best_path]):
        report = weight_sweep(seeds=seeds)
        Path(csv_path).write_text(report.to_csv())
        Path(best_path).write_text(json.dumps(report.best, indent=2) + "\n")
    print(json.dumps(report.best))
    return 0


def _add_config_flags(p):
    p.add_argument("--config", help="JSON RunConfig file; flags override it")
    p.add_argument("--ipc", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda-bn", dest="lambda_bn", type=float)
    p.add_argument("--rc", dest="r_c", metavar="RC", type=float,
                   help="cosine-term weight r_c")
    p.add_argument("--re", dest="r_e", metavar="RE", type=float,
                   help="euclidean-term weight r_e")
    p.add_argument("--components", type=_parse_components,
                   help="comma list from cd,cdm,edm")
    p.add_argument("--reduction", choices=["sum", "mean"])
    p.add_argument("--real-cap", dest="real_cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--temperature", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dire", description="Diversity-regularized dataset condensation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a seeded mixture dataset")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--per-class", dest="per_class", type=int, default=500)
    p.add_argument("--spread", type=float, default=0.30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("squeeze", help="train the teacher and store feature stats")
    p.add_argument("--data", required=True, help="gen-data output prefix")
    p.add_argument("--hidden", default="32", help="comma list of hidden sizes")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=cmd_squeeze)

    p = sub.add_parser("extract", help="export feature embeddings for points")
    p.add_argument("--teacher", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("recover", help="synthesize the condensed dataset")
    p.add_argument("--teacher", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("relabel", help="assign temperature-softmax soft labels")
    p.add_argument("--teacher", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_relabel)

    p = sub.add_parser("evaluate", help="train a student and score on the test split")
    p.add_argument("--points", required=True)
    p.add_argument("--labels", help="hard labels CSV")
    p.add_argument("--soft", help="soft labels EMB1 (overrides --labels)")
    p.add_argument("--data", required=True, help="gen-data prefix for the test split")
    p.add_argument("--hidden", default="32")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("metrics", help="diversity metrics for real vs synthetic embeddings")
    p.add_argument("--real", required=True)
    p.add_argument("--syn", required=True)
    p.add_argument("--labels-real", dest="labels_real", required=True)
    p.add_argument("--labels-syn", dest="labels_syn", required=True)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--coverage-scope", dest="coverage_scope", default="pooled",
                   choices=["pooled", "per_class"])
    p.add_argument("--vendi-scope", dest="vendi_scope", default="per_class",
                   choices=["pooled", "per_class"])
    p.add_argument("--csv", help="append a CSV row to this path")
    p.add_argument("--method", default="unnamed")
    p.add_argument("--ipc", type=int, default=0)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("ablate", help="run all component subsets under shared seeds")
    p.add_argument("--teacher", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--student-hidden", dest="student_hidden", default="32")
    p.add_argument("--student-epochs", dest="student_epochs", type=int, default=60)
    p.add_argument("--student-lr", dest="student_lr", type=float, default=0.1)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("bench", help="time naive vs fast pairwise kernels")
    p.add_argument("--shapes", required=True, help="comma list of NxMxD")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--kernels", default="cosine,euclidean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional output prefix for CSV/JSON")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sweep", help="grid-search r_c x r_e on the desk benchmark")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.fn(args)
    except DireError as exc:
        print(f"dire: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dire: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
