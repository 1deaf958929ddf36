import json

import numpy as np
import pytest

from dire import Rng, read_emb, read_labels, rng_normal, write_emb, write_labels
from dire.cli import main
from dire.fileio import digest_file, read_manifest


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
