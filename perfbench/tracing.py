"""Outside-in layer tracing: timing wrappers installed on the dire modules.

Modules import functions by name (``from .losses import dire_loss``), so a
wrapper on the defining module alone misses calls made through the importing
module. `Tracer.install` therefore patches every ``dire.*`` module attribute
that holds the original function, and the class attribute for methods.
Nothing under ``src/dire`` is changed; `Tracer.uninstall` restores the
originals so untraced repetitions run the bare program.

Each wrapped call records a span ``(id, parent id, name, start, end)`` in
memory. A layer is the part of the span name before the first dot.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, defining module, attribute; "Class.method" for a method)
HOOKS = (
    ("synthesis.recover", "dire.synthesis", "recover"),
    ("synthesis.loss_grad", "dire.synthesis", "total_loss_and_grad"),
    ("losses.dire_loss", "dire.losses", "dire_loss"),
    ("losses.cd", "dire.losses", "cd_loss"),
    ("losses.cdm", "dire.losses", "cdm_loss"),
    ("losses.edm", "dire.losses", "edm_loss"),
    ("embeddings.subsample", "dire.embeddings", "EmbeddingSet.subsample"),
    ("teacher.gen_mixture", "dire.teacher", "gen_mixture"),
    ("teacher.squeeze", "dire.teacher", "squeeze_train"),
    ("teacher.forward", "dire.teacher", "forward_activations"),
    ("teacher.backward", "dire.teacher", "input_gradient"),
    ("teacher.extract", "dire.teacher", "extract_features"),
    ("teacher.relabel", "dire.teacher", "relabel"),
    ("teacher.evaluate_student", "dire.teacher", "evaluate_student"),
    ("metrics.report", "dire.metrics", "metrics_report"),
    ("metrics.coverage", "dire.metrics", "coverage"),
    # k-NN radii of coverage; defined in kernels, reported with the metrics layer
    ("metrics.knn", "dire.kernels", "knn_distances"),
    ("metrics.vendi", "dire.metrics", "vendi_score"),
    ("metrics.eig", "dire.metrics", "sym_eigenvalues"),
    ("metrics.intra_cos", "dire.metrics", "intra_class_cosine"),
    ("kernels.euclid", "dire.kernels", "pairwise_euclidean_matrix"),
    ("kernels.cosine", "dire.kernels", "pairwise_cosine_matrix"),
    ("kernels.sum", "dire.kernels", "pairwise_euclidean_sum"),
    ("kernels.sum", "dire.kernels", "pairwise_cosine_sum"),
    ("fileio.digest", "dire.fileio", "digest_file"),
    ("fileio.read", "dire.fileio", "read_emb"),
    ("fileio.read", "dire.fileio", "read_labels"),
    ("fileio.read", "dire.fileio", "read_teacher"),
    ("fileio.write", "dire.fileio", "write_emb"),
    ("fileio.write", "dire.fileio", "write_labels"),
    ("fileio.write", "dire.fileio", "write_teacher"),
    ("fileio.write", "dire.fileio", "write_manifest"),
)

# counted, not timed: a span per call would cost more than the call
COUNTERS = (("matrix.rng_splits", "dire.matrix", "Rng.split"),)

LAYERS = ("cli", "synthesis", "losses", "embeddings", "matrix", "teacher",
          "metrics", "kernels", "fileio")

MIB = float(1 << 20)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.run_id = 0
        self.spans = []    # (id, parent, name, start, end) of the current run
        self.stack = []
        self.next_id = 0
        self.counts = Counter()
        self.amounts = defaultdict(float)
        self.fingerprints = set()
        self.missing = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def new_run(self):
        # cleared in place: installed wrappers hold these containers
        self.run_id += 1
        self.next_id = 0
        for store in (self.spans, self.stack, self.counts, self.amounts,
                      self.fingerprints):
            store.clear()

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, stack[-1] if stack else -1, name, t0, t1))
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching --------------------------------------------------------

    def install(self):
        self.missing = []
        for name, module, attr in HOOKS:
            self._patch(module, attr, lambda fn, n=name: self.wrap(n, fn, NOTES.get(n)))
        for name, module, attr in COUNTERS:
            self._patch(module, attr, lambda fn, n=name: self.counter(n, fn))

    def _patch(self, module, attr, make):
        home = sys.modules.get(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        fn = getattr(owner, fn_name, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(fn)
        sites = [(owner, fn_name)] if owner_name else [
            (mod, key) for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").split(".")[0] == "dire"
            for key, value in list(vars(mod).items()) if value is fn]
        for obj, key in sites:
            self._patches.append((obj, key, fn))
            setattr(obj, key, wrapper)

    def uninstall(self):
        while self._patches:
            obj, key, fn = self._patches.pop()
            setattr(obj, key, fn)


# -- per-call notes: work derived from arguments, recorded after the span ----

def _note_pairwise(tracer, args, result):
    n, d = np.shape(args[0])
    m = np.shape(args[1])[0]
    # computed from the call's shapes, not measured traffic
    tracer.amounts["kernels.gflop"] += 2.0 * n * m * d / 1e9
    tracer.amounts["kernels.out_mib"] += 8.0 * n * m / MIB


def _note_file(key):
    def note(tracer, args, result):
        tracer.amounts[key] += os.path.getsize(args[0]) / MIB
    return note


def _note_eig(tracer, args, result):
    n = np.shape(args[0])[0]
    tracer.amounts["metrics.eig_max_n"] = max(tracer.amounts["metrics.eig_max_n"], n)


def _note_subsample(tracer, args, result):
    # cheap identity of the drawn subset: shape, sum and end rows per class
    tracer.fingerprints.add(tuple(
        (c, m.shape, float(m.sum()), m[0].tobytes(), m[-1].tobytes())
        for c, m in sorted(result.by_class.items())))


NOTES = {
    "kernels.euclid": _note_pairwise,
    "kernels.cosine": _note_pairwise,
    "kernels.sum": _note_pairwise,
    "fileio.digest": _note_file("fileio.digest_mib"),
    "fileio.read": _note_file("fileio.read_mib"),
    "fileio.write": _note_file("fileio.write_mib"),
    "metrics.eig": _note_eig,
    "embeddings.subsample": _note_subsample,
}

CLI_STAGES = ("gen-data", "squeeze", "extract", "recover", "relabel",
              "evaluate", "metrics")


def run_metrics(tracer, wall_s, cli_failed):
    """Per-layer metrics of one traced run of the measured chain.

    `wall_s` is the traced wall time of the chain. Self time of a span is
    its duration minus that of its direct children; the benchmark's own
    time is the part of the wall time outside the top-level ``cli`` spans.
    """
    total, calls, child = defaultdict(float), Counter(), defaultdict(float)
    for sid, parent, name, t0, t1 in tracer.spans:
        total[name] += t1 - t0
        calls[name] += 1
        if parent >= 0:
            child[parent] += t1 - t0
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    roots = 0.0
    for sid, parent, name, t0, t1 in tracer.spans:
        s = t1 - t0 - child[sid]
        own[name] += s
        layer_self[name.split(".", 1)[0]] += s
        if parent < 0:
            roots += t1 - t0

    def per_call_ms(name):
        return 1000.0 * total[name] / calls[name] if calls[name] else 0.0

    a, c = tracer.amounts, tracer.counts
    kernel_s = total["kernels.euclid"] + total["kernels.cosine"] + total["kernels.sum"]
    out = {f"cli.{stage}_s": total[f"cli.{stage}"] for stage in CLI_STAGES}
    out.update({
        "cli.calls": sum(calls[f"cli.{stage}"] for stage in CLI_STAGES),
        "cli.failed": cli_failed,
        "synthesis.recover_s": total["synthesis.recover"],
        "synthesis.loss_grad_calls": calls["synthesis.loss_grad"],
        "synthesis.loss_grad_ms": per_call_ms("synthesis.loss_grad"),
        "synthesis.self_s": own["synthesis.loss_grad"],
        "losses.dire_loss_s": total["losses.dire_loss"],
        "losses.dire_loss_calls": calls["losses.dire_loss"],
        "losses.dire_loss_ms": per_call_ms("losses.dire_loss"),
        "losses.cd_s": total["losses.cd"],
        "losses.cdm_s": total["losses.cdm"],
        "losses.edm_s": total["losses.edm"],
        "losses.self_s": own["losses.dire_loss"],
        "losses.share_of_recover": (total["losses.dire_loss"] / total["synthesis.recover"]
                                    if total["synthesis.recover"] else 0.0),
        "embeddings.subsample_calls": calls["embeddings.subsample"],
        "embeddings.subsample_s": total["embeddings.subsample"],
        "embeddings.subsample_useful_ratio": (len(tracer.fingerprints) / calls["embeddings.subsample"]
                                              if calls["embeddings.subsample"] else 0.0),
        "matrix.rng_splits": c["matrix.rng_splits"],
        "teacher.squeeze_s": total["teacher.squeeze"],
        "teacher.forward_calls": calls["teacher.forward"],
        "teacher.forward_s": total["teacher.forward"],
        "teacher.backward_s": total["teacher.backward"],
        "teacher.extract_s": total["teacher.extract"],
        "teacher.evaluate_student_s": total["teacher.evaluate_student"],
        "metrics.report_s": total["metrics.report"],
        "metrics.coverage_s": total["metrics.coverage"],
        "metrics.knn_s": total["metrics.knn"],
        "metrics.vendi_s": total["metrics.vendi"],
        "metrics.eig_s": total["metrics.eig"],
        "metrics.eig_max_n": a["metrics.eig_max_n"],
        "metrics.intra_cos_s": total["metrics.intra_cos"],
        "kernels.euclid_calls": calls["kernels.euclid"],
        "kernels.euclid_s": total["kernels.euclid"],
        "kernels.cosine_calls": calls["kernels.cosine"],
        "kernels.cosine_s": total["kernels.cosine"],
        "kernels.sum_calls": calls["kernels.sum"],
        "kernels.sum_s": total["kernels.sum"],
        "kernels.gflop": a["kernels.gflop"],
        "kernels.out_mib": a["kernels.out_mib"],
        "kernels.gflop_per_s": a["kernels.gflop"] / kernel_s if kernel_s else 0.0,
        "fileio.digest_s": total["fileio.digest"],
        "fileio.digest_mib": a["fileio.digest_mib"],
        "fileio.digest_mib_per_s": (a["fileio.digest_mib"] / total["fileio.digest"]
                                    if total["fileio.digest"] else 0.0),
        "fileio.read_s": total["fileio.read"],
        "fileio.read_mib": a["fileio.read_mib"],
        "fileio.write_s": total["fileio.write"],
        "fileio.write_mib": a["fileio.write_mib"],
    })
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = layer_self[layer]
    bench_s = wall_s - roots
    out["trace.wall_s"] = wall_s
    out["trace.bench_s"] = bench_s
    out["trace.unattributed_s"] = wall_s - sum(layer_self.values()) - bench_s
    out["trace.spans"] = len(tracer.spans)
    return out


def write_spans(tracer, path):
    """Spans of the last traced run as CSV: run,id,parent,name,start_s,end_s."""
    with open(path, "w") as fh:
        fh.write("run,id,parent,name,start_s,end_s\n")
        for sid, parent, name, t0, t1 in sorted(tracer.spans):
            fh.write(f"{tracer.run_id},{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")
