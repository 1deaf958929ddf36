import json

import numpy as np
import pytest

from dire import (ConfigError, FormatError, ParameterError, Rng, RunConfig,
                  digest_file, dump_config, extract_features, fnv1a64,
                  gen_mixture, load_config, read_emb, read_labels,
                  read_teacher, rng_normal, squeeze_train, write_emb,
                  write_labels, write_teacher)
from dire.fileio import EMB_HEADER, ExperimentManifest


class TestEmbFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        m = rng_normal(Rng(3), 3, 5)
        path = tmp_path / "m.emb"
        write_emb(path, m)
        assert np.array_equal(read_emb(path), m)

    def test_empty_matrix_is_header_only(self, tmp_path):
        path = tmp_path / "empty.emb"
        write_emb(path, np.zeros((0, 0)))
        assert path.stat().st_size == EMB_HEADER.size
        out = read_emb(path)
        assert out.shape == (0, 0)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.emb"
        write_emb(path, rng_normal(Rng(1), 4, 4))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="byte offset"):
            read_emb(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        write_emb(path, np.eye(2))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_emb(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.emb"
        write_emb(path, np.eye(2))
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            read_emb(path)

    def test_non_finite_rejected_at_write(self, tmp_path):
        m = np.array([[1.0, np.nan]])
        with pytest.raises(ParameterError):
            write_emb(tmp_path / "nan.emb", m)


class TestLabelsCsv:
    def test_roundtrip(self, tmp_path):
        labels = np.array([0, 2, 1, 2], dtype=np.int64)
        path = tmp_path / "labels.csv"
        write_labels(path, labels)
        assert np.array_equal(read_labels(path), labels)
        assert path.read_text().splitlines()[0] == "label"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0\n1\n")
        with pytest.raises(FormatError, match="header"):
            read_labels(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("label\nfoo\n")
        with pytest.raises(FormatError):
            read_labels(path)


class TestTeacherCheckpoint:
    def test_roundtrip_identical_features(self, tmp_path):
        train, _ = gen_mixture(3, 5, 30, 0.2, seed=1)
        model = squeeze_train(train, (9,), epochs=5, lr=0.1, seed=1)
        path = tmp_path / "teacher.ckpt"
        write_teacher(path, model)
        again = read_teacher(path)
        x = rng_normal(Rng(8), 7, 5)
        assert np.array_equal(extract_features(model, x), extract_features(again, x))
        np.testing.assert_array_equal(model.feature_mean, again.feature_mean)
        np.testing.assert_array_equal(model.feature_var, again.feature_var)

    def test_truncation_detected(self, tmp_path):
        train, _ = gen_mixture(2, 4, 20, 0.2, seed=2)
        model = squeeze_train(train, (6,), epochs=2, lr=0.1, seed=2)
        path = tmp_path / "t.ckpt"
        write_teacher(path, model)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="truncated"):
            read_teacher(path)

    def test_stats_required_for_write(self, tmp_path):
        from dire import TeacherModel
        model = TeacherModel([np.zeros((2, 3)), np.zeros((3, 2))],
                             [np.zeros(3), np.zeros(2)], feature_layer=1)
        with pytest.raises(ParameterError):
            write_teacher(tmp_path / "x.ckpt", model)


class TestConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert load_config(path) == RunConfig()

    def test_negative_lr_rejected_naming_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lr": -1}')
        with pytest.raises(ConfigError, match="lr"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lerning_rate": 0.1}')
        with pytest.raises(ConfigError, match="lerning_rate"):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize("raw, key", [
        ('{"ipc": "10"}', "ipc"),
        ('{"ipc": 10.0}', "ipc"),
        ('{"iters": true}', "iters"),
        ('{"real_cap": 2.5}', "real_cap"),
        ('{"seed": "0"}', "seed"),
        ('{"lr": "0.1"}', "lr"),
        ('{"include_diagonal_cd": 1}', "include_diagonal_cd"),
        ('{"components": "cd"}', "components"),
        ('{"components": ["cd", 3]}', "components"),
    ])
    def test_mistyped_value_rejected_naming_key(self, tmp_path, raw, key):
        path = tmp_path / "cfg.json"
        path.write_text(raw)
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_json_numbers_and_null_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lr": 1, "real_cap": null, "components": ["cd"]}')
        cfg = load_config(path)
        assert cfg.lr == 1 and cfg.real_cap is None and cfg.components == ("cd",)

    def test_dump_load_idempotent(self, tmp_path):
        cfg = RunConfig(ipc=7, r_c=2.5, components=("cdm", "edm"), real_cap=None)
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(cfg))
        loaded = load_config(path)
        assert loaded == cfg
        assert dump_config(loaded) == dump_config(cfg)


class TestDigests:
    def test_fnv1a_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_digest_file_stable(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"hello world")
        assert digest_file(path) == digest_file(path)
        assert len(digest_file(path)) == 16

    def test_manifest_records(self, tmp_path):
        path = tmp_path / "in.bin"
        path.write_bytes(b"payload")
        manifest = ExperimentManifest(subcommand="demo", argv=["demo"])
        manifest.record_input(path)
        manifest.record_output(path)
        doc = json.loads(manifest.to_json())
        assert doc["inputs"][str(path)] == doc["outputs"][str(path)]
        assert doc["subcommand"] == "demo"
