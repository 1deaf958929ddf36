import json
from types import SimpleNamespace

import numpy as np
import pytest

from dire import (Rng, read_emb, read_labels, rng_normal, write_emb,
                  write_labels, write_teacher)
from dire.cli import main
from dire.fileio import EMB_HEADER, digest_file, read_manifest


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def toy_data(tmp_path, capsys):
    """A 3-class, 6-dim gen-data split under tmp_path, plus six points."""
    prefix = str(tmp_path / "toy")
    assert main(["gen-data", "--classes", "3", "--dim", "6", "--per-class", "10",
                 "--seed", "1", "--out", prefix]) == 0
    write_emb(tmp_path / "p.emb", rng_normal(Rng(2), 6, 6))
    capsys.readouterr()
    return prefix


def _write_nan_emb(path, rows, cols):
    """An EMB1 file holding NaN, by hand: write_emb refuses non-finite values."""
    payload = np.full((rows, cols), np.nan, dtype="<f8")
    path.write_bytes(EMB_HEADER.pack(b"EMB1", 1, rows, cols) + payload.tobytes())


def _checkpoint(path, stats_dim=10, second_in=10, in_dim=6):
    """Write an all-zero in_dim -> 10 -> 3 DIRT file, bypassing the model's
    own checks, so other arguments make its layers or stats disagree."""
    write_teacher(path, SimpleNamespace(
        weights=[np.zeros((in_dim, 10)), np.zeros((second_in, 3))],
        biases=[np.zeros(10), np.zeros(3)], feature_layer=1,
        feature_mean=np.zeros(stats_dim), feature_var=np.ones(stats_dim)))


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data"])
        assert exc.value.code == 2

    def test_domain_error_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "metrics",
                               "--real", str(tmp_path / "missing.emb"),
                               "--syn", str(tmp_path / "missing.emb"),
                               "--labels-real", str(tmp_path / "x.csv"),
                               "--labels-syn", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error" in err

    def test_mistyped_config_is_one_line_domain_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"ipc": "10"}')
        code, _, err = run_cli(capsys, "recover", "--teacher", str(tmp_path / "t.ckpt"),
                               "--data", str(tmp_path / "d"), "--config", str(cfg_path),
                               "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.count("\n") == 1 and "ipc" in err

    @pytest.mark.parametrize("argv, flag", [
        (("sweep", "--seeds", "0,a", "--out", "{tmp}/s"), "--seeds"),
        (("bench", "--shapes", "4x4xa"), "--shapes"),
        (("squeeze", "--data", "{tmp}/d", "--hidden", "16,x", "--out", "{tmp}/t"),
         "--hidden"),
        (("evaluate", "--points", "{tmp}/p.emb", "--data", "{tmp}/d", "--hidden", "1.5"),
         "--hidden"),
        (("ablate", "--teacher", "{tmp}/t", "--data", "{tmp}/d", "--out", "{tmp}/a",
          "--student-hidden", "eight"), "--student-hidden"),
    ])
    def test_non_integer_list_is_one_line_domain_error(self, capsys, tmp_path, argv, flag):
        code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("dire: error:") and flag in err

    @pytest.mark.parametrize("argv, names", [
        (("squeeze", "--data", "{data}", "--batch-size", "-5", "--out", "{tmp}/t"),
         "batch_size"),
        (("squeeze", "--data", "{data}", "--batch-size", "0", "--out", "{tmp}/t"),
         "batch_size"),
        (("evaluate", "--points", "{tmp}/p.emb", "--labels", "{tmp}/neg.csv",
          "--data", "{data}"), "labels"),
        (("evaluate", "--points", "{tmp}/p.emb", "--labels", "{tmp}/big.csv",
          "--data", "{data}"), "labels"),
        (("evaluate", "--points", "{tmp}/p.emb", "--soft", "{tmp}/soft2.emb",
          "--data", "{data}"), "soft labels"),
        (("evaluate", "--points", "{tmp}/p.emb", "--labels", "{tmp}/ok.csv",
          "--data", "{data}", "--lr", "-1"), "lr must be >= 0"),
        # the teacher takes 4-wide input and the data is 6 wide, so any work
        # fails: only a check made before it can name the student lr
        (("ablate", "--teacher", "{tmp}/dim4.ckpt", "--data", "{data}",
          "--student-lr", "-5", "--out", "{tmp}/a"), "lr must be >= 0"),
    ], ids=["batch-neg", "batch-zero", "label-neg", "label-big", "soft-width", "lr-neg",
            "ablate-lr-neg"])
    def test_bad_training_input_is_one_line_domain_error(self, capsys, tmp_path,
                                                         toy_data, argv, names):
        write_labels(tmp_path / "neg.csv", [0, 1, 2, 0, 1, -1])
        write_labels(tmp_path / "big.csv", [0, 1, 2, 0, 1, 5])
        write_labels(tmp_path / "ok.csv", [0, 1, 2, 0, 1, 2])
        write_emb(tmp_path / "soft2.emb", np.full((6, 2), 0.5))
        _checkpoint(tmp_path / "dim4.ckpt", in_dim=4)
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path, data=toy_data)
                                           for a in argv))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("dire: error:")
        assert names in err

    @pytest.mark.parametrize("command, stats_dim, second_in", [
        ("extract", 10, 8), ("relabel", 10, 8), ("recover", 10, 8), ("recover", 2, 10),
    ], ids=["extract-layers", "relabel-layers", "recover-layers", "recover-stats"])
    def test_inconsistent_checkpoint_is_one_line_domain_error(
            self, capsys, tmp_path, toy_data, command, stats_dim, second_in):
        ckpt = tmp_path / "bad.ckpt"
        _checkpoint(ckpt, stats_dim, second_in)
        if command == "recover":
            argv = ("recover", "--teacher", str(ckpt), "--data", toy_data,
                    "--iters", "2", "--out", str(tmp_path / "run"))
        else:
            argv = (command, "--teacher", str(ckpt), "--points", str(tmp_path / "p.emb"),
                    "--out", str(tmp_path / "out.emb"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "TeacherModel" in err

    def test_non_finite_embedding_is_one_line_domain_error(self, capsys, tmp_path):
        real = rng_normal(Rng(3), 20, 4)
        nan_emb = tmp_path / "syn.emb"
        _write_nan_emb(nan_emb, 4, 4)
        write_emb(tmp_path / "real.emb", real)
        write_labels(tmp_path / "real.csv", np.repeat([0, 1], 10))
        write_labels(tmp_path / "syn.csv", [0, 0, 1, 1])
        code, out, err = run_cli(capsys, "metrics", "--real", str(tmp_path / "real.emb"),
                                 "--syn", str(nan_emb),
                                 "--labels-real", str(tmp_path / "real.csv"),
                                 "--labels-syn", str(tmp_path / "syn.csv"))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "non-finite" in err

    @pytest.mark.parametrize("flag", ["--points", "--soft"])
    def test_non_finite_evaluate_input_names_the_file(self, capsys, tmp_path, toy_data,
                                                      flag):
        write_emb(tmp_path / "soft.emb", np.full((6, 3), 1.0 / 3.0))
        nan_path = tmp_path / "nan.emb"
        _write_nan_emb(nan_path, 6, 6 if flag == "--points" else 3)
        files = {"--points": str(tmp_path / "p.emb"), "--soft": str(tmp_path / "soft.emb"),
                 flag: str(nan_path)}
        code, out, err = run_cli(capsys, "evaluate", "--points", files["--points"],
                                 "--soft", files["--soft"], "--data", toy_data,
                                 "--epochs", "0")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("dire: error:")
        assert str(nan_path) in err and "non-finite" in err


class TestEvaluateCommand:
    def test_hard_labels_of_a_class_missing_from_the_test_split(self, capsys, tmp_path,
                                                                toy_data):
        test_emb, test_csv = f"{toy_data}.test.emb", f"{toy_data}.test.labels.csv"
        keep = read_labels(test_csv) != 2
        write_emb(test_emb, read_emb(test_emb)[keep])
        write_labels(test_csv, read_labels(test_csv)[keep])
        write_labels(tmp_path / "hard.csv", [0, 1, 2, 0, 1, 2])
        code, out, err = run_cli(capsys, "evaluate", "--points", str(tmp_path / "p.emb"),
                                 "--labels", str(tmp_path / "hard.csv"), "--data", toy_data,
                                 "--epochs", "2")
        assert code == 0 and err == ""
        assert 0.0 <= json.loads(out)["accuracy"] <= 1.0


class TestMetricsCommand:
    def test_json_on_stdout_and_csv_append(self, capsys, tmp_path):
        rng = Rng(0)
        real = rng_normal(rng.split(0), 40, 4)
        real_labels = np.repeat([0, 1], 20)
        syn = rng_normal(rng.split(1), 10, 4)
        syn_labels = np.repeat([0, 1], 5)
        paths = {}
        for name, arr, writer in (("r.emb", real, write_emb),
                                  ("s.emb", syn, write_emb),
                                  ("lr.csv", real_labels, write_labels),
                                  ("ls.csv", syn_labels, write_labels)):
            paths[name] = str(tmp_path / name)
            writer(paths[name], arr)
        csv_path = str(tmp_path / "rows.csv")
        code, out, _ = run_cli(capsys, "metrics", "--real", paths["r.emb"],
                               "--syn", paths["s.emb"],
                               "--labels-real", paths["lr.csv"],
                               "--labels-syn", paths["ls.csv"],
                               "-k", "5", "--csv", csv_path,
                               "--method", "demo", "--ipc", "5")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"coverage", "vendi", "mean_intra_class_cosine", "k_used"}
        # second append keeps a single header line
        code, _, _ = run_cli(capsys, "metrics", "--real", paths["r.emb"],
                             "--syn", paths["s.emb"],
                             "--labels-real", paths["lr.csv"],
                             "--labels-syn", paths["ls.csv"],
                             "--csv", csv_path, "--method", "demo2")
        lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
        assert lines[0] == "method,ipc,coverage,similarity,vendi,k"
        assert len(lines) == 3


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Full gen-data -> squeeze -> recover -> relabel pipeline, small sizes."""
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "toy")
    ckpt = str(root / "teacher.ckpt")
    out = str(root / "run")
    assert main(["gen-data", "--classes", "3", "--dim", "6", "--per-class", "40",
                 "--spread", "0.15", "--seed", "3", "--out", data]) == 0
    assert main(["squeeze", "--data", data, "--hidden", "10", "--epochs", "20",
                 "--lr", "0.2", "--seed", "3", "--out", ckpt]) == 0
    assert main(["recover", "--teacher", ckpt, "--data", data, "--out", out,
                 "--ipc", "3", "--iters", "30", "--seed", "3",
                 "--real-cap", "50"]) == 0
    return root, data, ckpt, out


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        root, data, ckpt, out = pipeline_dir
        for suffix in (".syn.emb", ".syn.labels.csv", ".soft.emb", ".trace.csv",
                       ".recover.manifest.json"):
            assert (root / f"run{suffix}").exists()

    def test_soft_labels_are_row_stochastic(self, pipeline_dir):
        _, _, _, out = pipeline_dir
        soft = read_emb(out + ".soft.emb")
        np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)

    def test_trace_has_documented_columns(self, pipeline_dir):
        root, _, _, out = pipeline_dir
        header = (root / "run.trace.csv").read_text().splitlines()[0]
        assert header == "iter,l_ce,l_bn,cd,cdm,edm,total"

    def test_printed_final_total_is_the_last_trace_row(self, capsys, pipeline_dir,
                                                       tmp_path):
        _, data, ckpt, _ = pipeline_dir
        code, out, _ = run_cli(capsys, "recover", "--teacher", ckpt, "--data", data,
                               "--ipc", "2", "--iters", "7", "--out", str(tmp_path / "r"))
        assert code == 0
        printed = json.loads(out)
        header, *_, last = (tmp_path / "r.trace.csv").read_text().splitlines()
        last = dict(zip(header.split(","), last.split(",")))
        assert printed["iterations"] == int(last["iter"]) == 7
        assert f"{printed['final_total']:.9g}" == last["total"]

    def test_relabel_subcommand(self, capsys, pipeline_dir):
        root, _, ckpt, out = pipeline_dir
        soft_path = str(root / "resoft.emb")
        code, _, _ = run_cli(capsys, "relabel", "--teacher", ckpt,
                             "--points", out + ".syn.emb",
                             "--temperature", "2.0", "--out", soft_path)
        assert code == 0
        probs = read_emb(soft_path)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_extract_and_metrics_flow(self, capsys, pipeline_dir):
        root, data, ckpt, out = pipeline_dir
        real_emb = str(root / "real.emb")
        syn_emb = str(root / "syn_feat.emb")
        assert main(["extract", "--teacher", ckpt, "--points", data + ".train.emb",
                     "--out", real_emb]) == 0
        assert main(["extract", "--teacher", ckpt, "--points", out + ".syn.emb",
                     "--out", syn_emb]) == 0
        code, out_text, _ = run_cli(capsys, "metrics", "--real", real_emb,
                                    "--syn", syn_emb,
                                    "--labels-real", data + ".train.labels.csv",
                                    "--labels-syn", out + ".syn.labels.csv",
                                    "-k", "3")
        assert code == 0
        doc = json.loads(out_text)
        assert 0.0 <= doc["coverage"] <= 1.0

    def test_evaluate_subcommand(self, capsys, pipeline_dir):
        root, data, ckpt, out = pipeline_dir
        code, out_text, _ = run_cli(capsys, "evaluate",
                                    "--points", out + ".syn.emb",
                                    "--soft", out + ".soft.emb",
                                    "--data", data, "--hidden", "10",
                                    "--epochs", "10", "--seed", "3")
        assert code == 0
        doc = json.loads(out_text)
        assert 0.0 <= doc["accuracy"] <= 1.0

    def test_rerun_is_digest_identical(self, pipeline_dir, tmp_path):
        root, data, ckpt, out = pipeline_dir
        manifest = read_manifest(out + ".recover.manifest.json")
        out2 = str(tmp_path / "rerun")
        argv = [a if a != out else out2 for a in manifest["argv"]]
        assert main(argv) == 0
        for suffix in (".syn.emb", ".syn.labels.csv", ".soft.emb", ".trace.csv"):
            assert digest_file(out + suffix) == digest_file(out2 + suffix)

    def test_config_file_with_flag_override(self, pipeline_dir, tmp_path, capsys):
        root, data, ckpt, _ = pipeline_dir
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ipc": 2, "iters": 5, "seed": 11}))
        out = str(tmp_path / "cfgrun")
        code, out_text, _ = run_cli(capsys, "recover", "--teacher", ckpt,
                                    "--data", data, "--config", str(cfg_path),
                                    "--iters", "8", "--out", out)
        assert code == 0
        manifest = read_manifest(out + ".recover.manifest.json")
        assert manifest["config"]["ipc"] == 2
        assert manifest["config"]["iters"] == 8  # flag wins
        labels = read_labels(out + ".syn.labels.csv")
        assert len(labels) == 6


class TestBenchCommand:
    def test_csv_output(self, capsys, tmp_path):
        out = str(tmp_path / "b")
        code, out_text, _ = run_cli(capsys, "bench", "--shapes", "16x16x8",
                                    "--reps", "3", "--kernels", "cosine",
                                    "--out", out)
        assert code == 0
        lines = out_text.strip().splitlines()
        assert lines[0] == "kernel,N,M,D,naive_s,fast_s,speedup,max_dev"
        assert (tmp_path / "b.bench.csv").exists()
        assert (tmp_path / "b.bench.json").exists()

    def test_bad_shape_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--shapes", "16x16")
        assert code == 1
        assert "shape" in err


@pytest.fixture(scope="module")
def stage_world(tmp_path_factory):
    """Inputs for every stage: a toy gen-data split, a teacher and a recover run."""
    root = tmp_path_factory.mktemp("world")
    assert main(["gen-data", "--classes", "3", "--dim", "6", "--per-class", "10",
                 "--seed", "2", "--out", str(root / "toy")]) == 0
    assert main(["squeeze", "--data", str(root / "toy"), "--hidden", "8", "--epochs", "3",
                 "--seed", "2", "--out", str(root / "teacher.ckpt")]) == 0
    assert main(["recover", "--teacher", str(root / "teacher.ckpt"), "--data",
                 str(root / "toy"), "--ipc", "2", "--iters", "3", "--seed", "2",
                 "--out", str(root / "run")]) == 0
    return root


TOY_TRAIN = ["{w}/toy.train.emb", "{w}/toy.train.labels.csv"]
TOY_TEST = ["{w}/toy.test.emb", "{w}/toy.test.labels.csv"]
TEACHER = "{w}/teacher.ckpt"
# stage: (argv, manifest path, inputs, outputs); {w} is the world, {t} the test's dir
STAGE_MANIFESTS = {
    "gen-data": (["gen-data", "--classes", "3", "--dim", "6", "--per-class", "10",
                  "--out", "{t}/g"], "{t}/g.gen-data.manifest.json", [],
                 ["{t}/g.train.emb", "{t}/g.train.labels.csv",
                  "{t}/g.test.emb", "{t}/g.test.labels.csv"]),
    "squeeze": (["squeeze", "--data", "{w}/toy", "--hidden", "4", "--epochs", "1",
                 "--out", "{t}/t.ckpt"], "{t}/t.ckpt.squeeze.manifest.json",
                TOY_TRAIN, ["{t}/t.ckpt"]),
    "extract": (["extract", "--teacher", TEACHER, "--points", "{w}/run.syn.emb",
                 "--out", "{t}/f.emb"], "{t}/f.emb.extract.manifest.json",
                [TEACHER, "{w}/run.syn.emb"], ["{t}/f.emb"]),
    "recover": (["recover", "--teacher", TEACHER, "--data", "{w}/toy", "--ipc", "1",
                 "--iters", "2", "--out", "{t}/r"], "{t}/r.recover.manifest.json",
                [TEACHER, *TOY_TRAIN],
                ["{t}/r.syn.emb", "{t}/r.syn.labels.csv", "{t}/r.soft.emb",
                 "{t}/r.trace.csv"]),
    "relabel": (["relabel", "--teacher", TEACHER, "--points", "{w}/run.syn.emb",
                 "--out", "{t}/s.emb"], "{t}/s.emb.relabel.manifest.json",
                [TEACHER, "{w}/run.syn.emb"], ["{t}/s.emb"]),
    "evaluate-soft": (["evaluate", "--points", "{w}/run.syn.emb", "--soft", "{w}/run.soft.emb",
                       "--data", "{w}/toy", "--epochs", "2", "--out", "{t}/e.json"],
                      "{t}/e.json.evaluate.manifest.json",
                      ["{w}/run.syn.emb", "{w}/run.soft.emb", *TOY_TEST], ["{t}/e.json"]),
    "evaluate-labels": (["evaluate", "--points", "{w}/run.syn.emb",
                         "--labels", "{w}/run.syn.labels.csv", "--data", "{w}/toy",
                         "--epochs", "2", "--out", "{t}/e.json"],
                        "{t}/e.json.evaluate.manifest.json",
                        ["{w}/run.syn.emb", "{w}/run.syn.labels.csv", *TOY_TEST,
                         "{w}/toy.train.labels.csv"], ["{t}/e.json"]),
    "evaluate-both": (["evaluate", "--points", "{w}/run.syn.emb", "--soft", "{w}/run.soft.emb",
                       "--labels", "{w}/run.syn.labels.csv", "--data", "{w}/toy",
                       "--epochs", "2", "--out", "{t}/e.json"],
                      "{t}/e.json.evaluate.manifest.json",
                      ["{w}/run.syn.emb", "{w}/run.soft.emb", *TOY_TEST], ["{t}/e.json"]),
    "metrics": (["metrics", "--real", "{w}/toy.train.emb", "--syn", "{w}/run.syn.emb",
                 "--labels-real", "{w}/toy.train.labels.csv",
                 "--labels-syn", "{w}/run.syn.labels.csv", "-k", "3", "--csv", "{t}/m.csv"],
                "{t}/m.csv.metrics.manifest.json",
                ["{w}/toy.train.emb", "{w}/run.syn.emb", "{w}/toy.train.labels.csv",
                 "{w}/run.syn.labels.csv"], ["{t}/m.csv"]),
    "ablate": (["ablate", "--teacher", TEACHER, "--data", "{w}/toy", "--ipc", "2",
                "--iters", "2", "-k", "3", "--student-epochs", "1", "--out", "{t}/a"],
               "{t}/a.ablate.manifest.json", [TEACHER, *TOY_TRAIN, *TOY_TEST],
               ["{t}/a.ablation.csv"]),
    "bench": (["bench", "--shapes", "8x8x4", "--reps", "3", "--kernels", "cosine",
               "--out", "{t}/b"], "{t}/b.bench.manifest.json", [],
              ["{t}/b.bench.csv", "{t}/b.bench.json"]),
}
MANIFEST_FIELDS = {"argv", "config", "inputs", "outputs", "subcommand", "tool_version",
                   "wall_time_s"}


def _fill(templates, world, tmp):
    return [s.format(w=world, t=tmp) for s in templates]


class TestStageManifests:
    @pytest.mark.parametrize("stage", sorted(STAGE_MANIFESTS))
    def test_manifest_records_exactly_what_the_stage_read_and_wrote(
            self, capsys, stage_world, tmp_path, stage):
        argv, path, inputs, outputs = STAGE_MANIFESTS[stage]
        argv = _fill(argv, stage_world, tmp_path)
        assert main(argv) == 0
        capsys.readouterr()
        manifest = read_manifest(path.format(w=stage_world, t=tmp_path))
        assert set(manifest) == MANIFEST_FIELDS
        assert manifest["subcommand"] == argv[0] and manifest["argv"] == argv
        assert (manifest["config"] is not None) == (argv[0] in ("recover", "ablate"))
        for kind, want in (("inputs", inputs), ("outputs", outputs)):
            assert sorted(manifest[kind]) == sorted(_fill(want, stage_world, tmp_path))
            for file, digest in manifest[kind].items():
                assert digest == digest_file(file)
        assert manifest["wall_time_s"] > 0

    @pytest.mark.parametrize("stage", ["evaluate-soft", "metrics", "bench"])
    def test_no_output_prefix_writes_no_manifest(self, capsys, stage_world, tmp_path,
                                                 stage):
        argv = _fill(STAGE_MANIFESTS[stage][0], stage_world, tmp_path)
        cut = argv.index("--csv" if stage == "metrics" else "--out")
        before = sorted(stage_world.glob("*.manifest.json"))
        assert main(argv[:cut] + argv[cut + 2:]) == 0
        capsys.readouterr()
        assert sorted(stage_world.glob("*.manifest.json")) == before
        assert list(tmp_path.iterdir()) == []
