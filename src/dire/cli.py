"""Command-line front end.

Subcommands sequence the pipeline: gen-data -> squeeze -> recover ->
relabel -> evaluate -> metrics, plus extract (embedding export), ablate,
bench, and sweep. Every stage writes a JSON manifest recording its argv,
resolved config, and FNV-1a digests of inputs and outputs, so reruns can be
verified bit-for-bit. Exit codes: 0 success, 1 domain error (one-line
diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .errors import DireError
from .fileio import (ExperimentManifest, StageTimer, load_config, read_emb,
                     read_labels, read_teacher, write_emb, write_labels,
                     write_manifest, write_teacher)
from .kernels import bench_kernels, bench_to_csv
from .embeddings import EmbeddingSet
from .metrics import metrics_report
from .pipeline import ablate, weight_sweep
from .synthesis import RunConfig, recover, trace_to_csv
from .teacher import (LabeledDataset, SoftLabels, evaluate_student,
                      extract_features, gen_mixture, relabel, squeeze_train)


def _parse_hidden(text: str) -> tuple:
    return tuple(int(s) for s in text.split(",") if s)


def _parse_components(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _data_paths(prefix: str, split: str):
    return Path(f"{prefix}.{split}.emb"), Path(f"{prefix}.{split}.labels.csv")


def _load_split(prefix: str, split: str) -> LabeledDataset:
    emb_path, lbl_path = _data_paths(prefix, split)
    points = read_emb(emb_path)
    labels = read_labels(lbl_path)
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(points, labels, n_classes, split)


def _manifest_for(args, name: str) -> ExperimentManifest:
    return ExperimentManifest(subcommand=name, argv=list(args._argv))


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for key, attr in (("ipc", "ipc"), ("iters", "iters"), ("lr", "lr"),
                      ("lambda_bn", "lambda_bn"), ("r_c", "rc"), ("r_e", "re"),
                      ("reduction", "reduction"), ("real_cap", "real_cap"),
                      ("seed", "seed"), ("temperature", "temperature"),
                      ("optimizer", "optimizer")):
        v = getattr(args, attr, None)
        if v is not None:
            overrides[key] = v
    if getattr(args, "components", None) is not None:
        overrides["components"] = _parse_components(args.components)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_gen_data(args) -> int:
    train, test = gen_mixture(args.classes, args.dim, args.per_class,
                              args.spread, args.seed)
    manifest = _manifest_for(args, "gen-data")
    with StageTimer(manifest):
        for split, data in (("train", train), ("test", test)):
            emb_path, lbl_path = _data_paths(args.out, split)
            write_emb(emb_path, data.points)
            write_labels(lbl_path, data.labels)
            manifest.record_output(emb_path)
            manifest.record_output(lbl_path)
    write_manifest(f"{args.out}.gen-data.manifest.json", manifest)
    print(json.dumps({"train": len(train), "test": len(test),
                      "classes": args.classes, "dim": args.dim}))
    return 0


def cmd_squeeze(args) -> int:
    manifest = _manifest_for(args, "squeeze")
    with StageTimer(manifest):
        train = _load_split(args.data, "train")
        for p in _data_paths(args.data, "train"):
            manifest.record_input(p)
        model = squeeze_train(train, hidden_sizes=_parse_hidden(args.hidden),
                              epochs=args.epochs, lr=args.lr, seed=args.seed,
                              batch_size=args.batch_size)
        write_teacher(args.out, model)
        manifest.record_output(args.out)
    write_manifest(f"{args.out}.squeeze.manifest.json", manifest)
    print(json.dumps({"train_accuracy": model.meta["train_accuracy"],
                      "hidden": list(model.hidden_sizes())}))
    return 0


def cmd_extract(args) -> int:
    manifest = _manifest_for(args, "extract")
    with StageTimer(manifest):
        model = read_teacher(args.teacher)
        points = read_emb(args.points)
        manifest.record_input(args.teacher)
        manifest.record_input(args.points)
        write_emb(args.out, extract_features(model, points))
        manifest.record_output(args.out)
    write_manifest(f"{args.out}.extract.manifest.json", manifest)
    return 0


def cmd_recover(args) -> int:
    cfg = _config_from_args(args)
    manifest = _manifest_for(args, "recover")
    manifest.config = cfg.to_dict()
    with StageTimer(manifest):
        model = read_teacher(args.teacher)
        train = _load_split(args.data, "train")
        manifest.record_input(args.teacher)
        for p in _data_paths(args.data, "train"):
            manifest.record_input(p)
        syn = recover(model, train, cfg)
        soft = relabel(model, syn, cfg.temperature)
        outputs = {
            f"{args.out}.syn.emb": lambda p: write_emb(p, syn.points),
            f"{args.out}.syn.labels.csv": lambda p: write_labels(p, syn.labels),
            f"{args.out}.soft.emb": lambda p: write_emb(p, soft.probs),
            f"{args.out}.trace.csv": lambda p: Path(p).write_text(trace_to_csv(syn.trace)),
        }
        for path, writer in outputs.items():
            writer(path)
            manifest.record_output(path)
    write_manifest(f"{args.out}.recover.manifest.json", manifest)
    print(json.dumps({"iterations": syn.iterations,
                      "final_total": syn.final_loss.total}))
    return 0


def cmd_relabel(args) -> int:
    manifest = _manifest_for(args, "relabel")
    with StageTimer(manifest):
        model = read_teacher(args.teacher)
        points = read_emb(args.points)
        manifest.record_input(args.teacher)
        manifest.record_input(args.points)
        soft = relabel(model, points, args.temperature)
        write_emb(args.out, soft.probs)
        manifest.record_output(args.out)
    write_manifest(f"{args.out}.relabel.manifest.json", manifest)
    return 0


def cmd_evaluate(args) -> int:
    manifest = _manifest_for(args, "evaluate")
    with StageTimer(manifest):
        points = read_emb(args.points)
        manifest.record_input(args.points)
        if args.soft:
            labels = SoftLabels(read_emb(args.soft), temperature=1.0)
            manifest.record_input(args.soft)
        elif args.labels:
            labels = read_labels(args.labels)
            manifest.record_input(args.labels)
        else:
            raise DireError("evaluate: need --labels or --soft")
        test = _load_split(args.data, "test")
        for p in _data_paths(args.data, "test"):
            manifest.record_input(p)
        acc = evaluate_student(points, labels, test,
                               hidden_sizes=_parse_hidden(args.hidden),
                               epochs=args.epochs, lr=args.lr, seed=args.seed)
    out = {"accuracy": acc, "n_train": int(points.shape[0]), "n_test": len(test)}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
        manifest.record_output(args.out)
        write_manifest(f"{args.out}.evaluate.manifest.json", manifest)
    print(json.dumps(out))
    return 0


METRICS_CSV_HEADER = "method,ipc,coverage,similarity,vendi,k"


def cmd_metrics(args) -> int:
    real = EmbeddingSet.from_labeled(read_emb(args.real), read_labels(args.labels_real))
    syn = EmbeddingSet.from_labeled(read_emb(args.syn), read_labels(args.labels_syn))
    report = metrics_report(real, syn, k=args.k, coverage_scope=args.coverage_scope,
                            vendi_scope=args.vendi_scope)
    print(json.dumps(report.to_dict()))
    if args.csv:
        path = Path(args.csv)
        row = (f"{args.method},{args.ipc},{report.coverage:.9g},"
               f"{report.mean_intra_class_cosine:.9g},{report.vendi:.9g},{args.k}")
        if path.exists():
            path.write_text(path.read_text() + row + "\n")
        else:
            path.write_text(METRICS_CSV_HEADER + "\n" + row + "\n")
    return 0


def cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    manifest = _manifest_for(args, "ablate")
    manifest.config = cfg.to_dict()
    with StageTimer(manifest):
        model = read_teacher(args.teacher)
        train = _load_split(args.data, "train")
        test = _load_split(args.data, "test")
        manifest.record_input(args.teacher)
        for split in ("train", "test"):
            for p in _data_paths(args.data, split):
                manifest.record_input(p)
        report = ablate(model, train, test, cfg, k=args.k,
                        student_hidden=_parse_hidden(args.student_hidden),
                        student_epochs=args.student_epochs,
                        student_lr=args.student_lr)
        out_csv = f"{args.out}.ablation.csv"
        Path(out_csv).write_text(report.to_csv())
        manifest.record_output(out_csv)
    write_manifest(f"{args.out}.ablate.manifest.json", manifest)
    print(report.to_csv(), end="")
    return 0


def cmd_bench(args) -> int:
    shapes = []
    for part in args.shapes.split(","):
        dims = part.lower().split("x")
        if len(dims) != 3:
            raise DireError(f"bench: bad shape {part!r}, expected NxMxD")
        shapes.append(tuple(int(v) for v in dims))
    kernels = _parse_components(args.kernels)
    manifest = _manifest_for(args, "bench")
    with StageTimer(manifest):
        reports = bench_kernels(shapes, reps=args.reps, kernels=kernels,
                                seed=args.seed)
    csv_text = bench_to_csv(reports)
    json_text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    if args.out:
        Path(f"{args.out}.bench.csv").write_text(csv_text)
        Path(f"{args.out}.bench.json").write_text(json_text)
        manifest.record_output(f"{args.out}.bench.csv")
        manifest.record_output(f"{args.out}.bench.json")
        write_manifest(f"{args.out}.bench.manifest.json", manifest)
    print(csv_text, end="")
    return 0


def cmd_sweep(args) -> int:
    seeds = tuple(int(s) for s in args.seeds.split(","))
    manifest = _manifest_for(args, "sweep")
    with StageTimer(manifest):
        report = weight_sweep(seeds=seeds)
        Path(f"{args.out}.sweep.csv").write_text(report.to_csv())
        Path(f"{args.out}.sweep.best.json").write_text(
            json.dumps(report.best, indent=2) + "\n")
        manifest.record_output(f"{args.out}.sweep.csv")
        manifest.record_output(f"{args.out}.sweep.best.json")
    write_manifest(f"{args.out}.sweep.manifest.json", manifest)
    print(json.dumps(report.best))
    return 0


def _add_config_flags(p):
    p.add_argument("--config", help="JSON RunConfig file; flags override it")
    p.add_argument("--ipc", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda-bn", dest="lambda_bn", type=float)
    p.add_argument("--rc", type=float, help="cosine-term weight r_c")
    p.add_argument("--re", type=float, help="euclidean-term weight r_e")
    p.add_argument("--components", help="comma list from cd,cdm,edm")
    p.add_argument("--reduction", choices=["sum", "mean"])
    p.add_argument("--real-cap", dest="real_cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--optimizer", choices=["gd", "momentum"])


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
