import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dire import (ConfigError, DimensionError, DireError, FormatError, ParameterError, Rng,
                  RunConfig, digest_file, dump_config, extract_features, fnv1a64,
                  gen_mixture, load_config, read_emb, read_labels,
                  read_teacher, rng_normal, squeeze_train, write_emb,
                  write_labels, write_teacher)
from dire.fileio import (_GEMM_BYTES, _INV_POWER_LIMBS, _LABEL_BLOCK, _LIMB_SHIFTS,
                         DIGEST_CHUNK, EMB_HEADER, ExperimentManifest, _fnv1a64_update,
                         emb_reader, emb_writer)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_at_read_naming_file(self, tmp_path, bad):
        path = tmp_path / "bad.emb"  # by hand: write_emb refuses non-finite values
        payload = np.array([[1.0, 2.0], [3.0, bad]], dtype="<f8")
        path.write_bytes(EMB_HEADER.pack(b"EMB1", 1, 2, 2) + payload.tobytes())
        with pytest.raises(FormatError, match="non-finite") as exc:
            read_emb(path)
        assert str(path) in str(exc.value)


    def test_absurd_header_refused_before_allocating(self, tmp_path):
        path = tmp_path / "huge.emb"
        path.write_bytes(EMB_HEADER.pack(b"EMB1", 1, 2**32 - 1, 2**32 - 1))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="payload truncated at byte offset 14"):
                read_emb(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "long.emb"
        write_emb(path, np.eye(3))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="byte offset 87 \\(expected 86\\)"):
            read_emb(path)

    def test_payload_cut_mid_row_rejected(self, tmp_path):
        path = tmp_path / "cut.emb"
        write_emb(path, rng_normal(Rng(4), 3, 4))
        path.write_bytes(path.read_bytes()[:EMB_HEADER.size + 8 * 6])
        with pytest.raises(FormatError, match="byte offset 62 \\(expected 110\\)"):
            read_emb(path)

    def test_zero_row_matrix_roundtrips(self, tmp_path):
        path = tmp_path / "rows0.emb"
        write_emb(path, np.zeros((0, 3)))
        assert path.stat().st_size == EMB_HEADER.size
        assert read_emb(path).shape == (0, 3)

    def test_read_array_is_a_fresh_native_matrix(self, tmp_path):
        path = tmp_path / "m.emb"
        write_emb(path, rng_normal(Rng(5), 4, 3))
        out = read_emb(path)
        assert out.flags.writeable and out.flags.c_contiguous and out.flags.owndata
        assert out.dtype == np.float64 and out.dtype.isnative

    def test_read_peak_is_one_payload(self, tmp_path):
        m = rng_normal(Rng(6), 20_000, 16)
        path = tmp_path / "big.emb"
        write_emb(path, m)
        tracemalloc.start()
        try:
            out = read_emb(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, m)
        assert peak <= 1.1 * m.nbytes


BLOCK = 4  # rows per block in the block I/O tests
# (rows, cols): no rows, no columns, and k blocks, k blocks - 1 and k blocks + 1
BLOCK_SHAPES = [(0, 0), (0, 3), (5, 0), (1, 3), *((k * BLOCK + d, 3) for k in (1, 2, 3)
                                                  for d in (-1, 0, 1))]


def _blocks(path, block_rows=BLOCK):
    with emb_reader(path, block_rows) as (shape, blocks):
        return shape, list(blocks)


def _emb_file(path, m):
    """An EMB1 file holding m, by hand, so m may hold non-finite values."""
    path.write_bytes(EMB_HEADER.pack(b"EMB1", 1, *m.shape) + m.astype("<f8").tobytes())


class TestEmbBlocks:
    @pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
    def test_blocks_concatenate_to_read_emb(self, tmp_path, shape):
        path = tmp_path / "m.emb"
        write_emb(path, Rng(shape[0]).generator.normal(size=shape))
        got_shape, blocks = _blocks(path)
        assert got_shape == shape
        assert [b.shape[0] for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
        assert 0 < len(blocks) == max(1, -(-shape[0] // BLOCK))
        whole = np.concatenate(blocks)
        assert whole.shape == shape and np.array_equal(whole, read_emb(path))

    @pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
    def test_written_blocks_are_write_emb_bytes(self, tmp_path, shape):
        m = Rng(shape[0] + 1).generator.normal(size=shape)
        write_emb(tmp_path / "one.emb", m)
        with emb_writer(tmp_path / "blocks.emb", shape) as write:
            for lo in range(0, max(shape[0], 1), BLOCK):
                write(m[lo:lo + BLOCK])
        assert (tmp_path / "blocks.emb").read_bytes() == (tmp_path / "one.emb").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.emb", "one.emb"]

    def test_file_cut_in_a_later_block_refused_on_open(self, tmp_path):
        path = tmp_path / "cut.emb"
        write_emb(path, rng_normal(Rng(4), 3 * BLOCK, 2))
        path.write_bytes(path.read_bytes()[:EMB_HEADER.size + 8 * 2 * (BLOCK + 1)])
        msg = "payload truncated at byte offset 94 \\(expected 206\\)"
        with pytest.raises(FormatError, match=msg):
            read_emb(path)
        with pytest.raises(FormatError, match=msg):
            _blocks(path)

    def test_file_shrinking_while_read_reports_its_offset(self, tmp_path):
        # 8 KiB rows, so the reader's buffer cannot hold the third block early
        path = tmp_path / "shrink.emb"
        write_emb(path, rng_normal(Rng(5), 3 * BLOCK, 1024))
        with emb_reader(path, BLOCK) as (_, blocks):
            next(blocks)
            with open(path, "r+b") as fh:  # cut 3 values into the third block
                fh.truncate(EMB_HEADER.size + 8 * 1024 * 2 * BLOCK + 24)
            next(blocks)
            with pytest.raises(FormatError,
                               match=f"{path}: payload truncated at byte offset 65574 "
                                     "\\(expected 98318\\)"):
                next(blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_a_later_block_names_file(self, tmp_path, bad):
        m = rng_normal(Rng(6), 2 * BLOCK + 1, 2)
        m[2 * BLOCK, 1] = bad
        path = tmp_path / "bad.emb"
        _emb_file(path, m)
        with pytest.raises(FormatError, match="non-finite") as whole:
            read_emb(path)
        with emb_reader(path, BLOCK) as (_, blocks):
            assert np.array_equal(next(blocks), m[:BLOCK])
            assert np.array_equal(next(blocks), m[BLOCK:2 * BLOCK])
            with pytest.raises(FormatError, match="non-finite") as blocked:
                next(blocks)
        assert str(blocked.value) == str(whole.value) == f"{path}: non-finite value in payload"

    @pytest.mark.parametrize("header, match", [
        (EMB_HEADER.pack(b"NOPE", 1, 2, 2), "magic"),
        (EMB_HEADER.pack(b"EMB1", 99, 2, 2), "version"),
        (b"EMB1", "truncated header"),
    ], ids=["magic", "version", "short"])
    def test_bad_header_refused_on_open(self, tmp_path, header, match):
        path = tmp_path / "h.emb"
        path.write_bytes(header + bytes(32 if len(header) > 4 else 0))
        with pytest.raises(FormatError, match=match):
            _blocks(path)

    @pytest.mark.parametrize("blocks, error", [
        ([np.ones((BLOCK, 3)), np.full((1, 3), np.nan)], ParameterError),
        ([np.ones((BLOCK, 3)), np.ones((1, 2))], DimensionError),
        ([np.ones((BLOCK, 3))], DimensionError),
        ([np.ones((BLOCK, 3)), np.ones((2, 3))], DimensionError),
    ], ids=["non-finite", "wrong-width", "too-few-rows", "too-many-rows"])
    def test_refused_block_or_row_total_leaves_no_file(self, tmp_path, blocks, error):
        with pytest.raises(error):
            with emb_writer(tmp_path / "out.emb", (BLOCK + 1, 3)) as write:
                for block in blocks:
                    write(block)
        assert issubclass(error, DireError)
        assert list(tmp_path.iterdir()) == []

    def test_failing_producer_leaves_an_earlier_file_as_it_was(self, tmp_path):
        path = tmp_path / "out.emb"
        write_emb(path, np.eye(2))
        before = path.read_bytes()
        with pytest.raises(FormatError):
            with emb_writer(path, (2 * BLOCK, 2)) as write:
                write(np.ones((BLOCK, 2)))
                raise FormatError("the producer failed")
        assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]

    def test_write_emb_refuses_non_finite_before_touching_path(self, tmp_path):
        path = tmp_path / "out.emb"
        write_emb(path, np.eye(2))
        before = path.read_bytes()
        with pytest.raises(ParameterError, match="non-finite"):
            write_emb(path, np.array([[1.0, np.inf]]))
        assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]

    def test_blocks_may_be_written_back_over_their_own_file(self, tmp_path):
        m = rng_normal(Rng(7), 3 * BLOCK + 1, 1024)  # more than the reader's buffer
        path = tmp_path / "m.emb"
        write_emb(path, m)
        with emb_reader(path, BLOCK) as (shape, blocks), emb_writer(path, shape) as write:
            for block in blocks:
                write(2.0 * block)
        assert np.array_equal(read_emb(path), 2.0 * m)


class TestLabelsCsv:
    def test_roundtrip(self, tmp_path):
        labels = np.array([0, 2, 1, 2], dtype=np.int64)
        path = tmp_path / "labels.csv"
        write_labels(path, labels)
        assert np.array_equal(read_labels(path), labels)
        assert path.read_text().splitlines()[0] == "label"

    @pytest.mark.parametrize("n", [0, 1, 1000, 2 * _LABEL_BLOCK + 1])
    def test_bytes_match_one_line_per_label(self, tmp_path, n):
        labels = Rng(n).generator.integers(-3, 1000, n)
        path = tmp_path / "labels.csv"
        write_labels(path, labels)
        per_row = "label\n" + "".join(f"{int(v)}\n" for v in labels)
        assert path.read_bytes() == per_row.encode()

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

    def test_non_finite_weight_rejected_at_read(self, tmp_path):
        train, _ = gen_mixture(2, 4, 20, 0.2, seed=2)
        model = squeeze_train(train, (6,), epochs=2, lr=0.1, seed=2)
        model.biases[0][1] = np.nan
        path = tmp_path / "t.ckpt"
        write_teacher(path, model)
        with pytest.raises(FormatError, match="non-finite"):
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
        # an old file that still sets the removed optimizer fails by name
        path = tmp_path / "cfg.json"
        for text, key in (('{"lerning_rate": 0.1}', "lerning_rate"),
                          ('{"ipc": 4, "optimizer": "gd", "momentum": 0.9}', "momentum"),
                          ('{"optimizer": "momentum"}', "optimizer")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
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


CONFIG_KEYS = st.sampled_from(sorted(RunConfig().to_dict())) | st.text(max_size=8)
JSON_VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               | st.lists(st.text(max_size=4) | st.integers(), max_size=3))


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    """A scratch dir and one well-formed file per reader: {kind: (reader, bytes)}."""
    root = tmp_path_factory.mktemp("clean")
    train, _ = gen_mixture(2, 3, 10, 0.2, seed=4)
    write_teacher(root / "t.ckpt", squeeze_train(train, (4,), epochs=1, lr=0.1, seed=4))
    write_emb(root / "m.emb", rng_normal(Rng(4), 3, 2))
    return root, {"dirt": (read_teacher, (root / "t.ckpt").read_bytes()),
                  "emb": (read_emb, (root / "m.emb").read_bytes())}


class TestCorruptInputProperties:
    """Whatever a config or a file holds, readers fail only with DireError."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=4))
    def test_config_from_dict_raises_only_dire_errors(self, raw):
        try:
            RunConfig.from_dict(raw)
        except DireError:
            pass

    @pytest.mark.parametrize("kind", ["dirt", "emb"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_bit_flipped_file_raises_only_dire_errors(self, clean_files,
                                                                    kind, data):
        root, files = clean_files
        reader, clean = files[kind]
        corrupt = bytearray(clean[:data.draw(st.integers(0, len(clean)), label="cut")])
        for bit in data.draw(st.lists(st.integers(0, 8 * len(clean) - 1), max_size=3),
                             label="flips"):
            if bit // 8 < len(corrupt):
                corrupt[bit // 8] ^= 1 << (bit % 8)
        path = root / f"corrupt.{kind}"
        path.write_bytes(bytes(corrupt))
        try:
            reader(path)
        except DireError:
            pass


def _fnv1a64_oracle(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    """The FNV-1a definition, one byte at a time, from state h."""
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


CHUNK_LENGTHS = [0, 1, 63, 64, 65,
                 _GEMM_BYTES - 1, _GEMM_BYTES, _GEMM_BYTES + 1, 2 * _GEMM_BYTES + 17,
                 DIGEST_CHUNK - 1, DIGEST_CHUNK, DIGEST_CHUNK + 1, 2 * DIGEST_CHUNK + 17]


class TestDigests:
    def test_fnv1a_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=600))
    def test_fnv1a_matches_byte_loop(self, data):
        assert fnv1a64(data) == _fnv1a64_oracle(data)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, (1 << 64) - 1),
           st.one_of(st.binary(max_size=600),
                     st.sampled_from([255, 256, 257]).flatmap(
                         lambda n: st.binary(min_size=n, max_size=n))),
           st.integers(0, 600))
    def test_update_from_any_state_matches_byte_loop(self, h, data, cut):
        # every state bit is 1 in some h, so each plane's carry-in is
        # exercised; a second chunk may be empty or longer than the first
        b = np.frombuffer(data, np.uint8)
        want = _fnv1a64_oracle(data, h)
        assert _fnv1a64_update(h, [b]) == want
        assert _fnv1a64_update(h, [b[:cut], b[cut:]]) == want

    def test_closing_gemm_is_exact_in_float32(self):
        # every partial sum of a GEMM row must be an integer float32 holds
        # exactly, whatever order the GEMM sums in
        row_length = _INV_POWER_LIMBS.shape[0]
        limb_max = (1 << int(_LIMB_SHIFTS[1] - _LIMB_SHIFTS[0])) - 1
        assert _INV_POWER_LIMBS.dtype == np.float32
        assert _INV_POWER_LIMBS.min() >= 0 and _INV_POWER_LIMBS.max() <= limb_max
        assert row_length * 255 * limb_max < 1 << (np.finfo(np.float32).nmant + 1)

    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    def test_fnv1a_matches_byte_loop_at_chunk_edges(self, n):
        random = Rng(n).generator.integers(0, 256, n, dtype=np.uint8).tobytes()
        for data in (random, b"\x00" * n, b"\xff" * n):
            assert fnv1a64(data) == _fnv1a64_oracle(data)

    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    def test_streamed_digest_matches_whole_file(self, tmp_path, n):
        path = tmp_path / "x.bin"
        path.write_bytes(Rng(n).generator.integers(0, 256, n, dtype=np.uint8).tobytes())
        assert digest_file(path) == f"{fnv1a64(path.read_bytes()):016x}"

    def test_streamed_digest_memory_is_bounded(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(bytes(range(256)) * (128 << 10))  # 32 MiB
        tracemalloc.start()
        try:
            digest_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

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
