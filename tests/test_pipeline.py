"""Pipeline: data files, resampling, windows, synthesis, training drivers, CLI."""

import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smbg import pipeline as pl
from smbg import postprocess as pp
from smbg import tensor as t
from smbg.cli import main as cli_main
from smbg.labels import ActionInstance, TemporalGrid
from smbg.net import SmbgNet, load_checkpoint, save_arrays, save_checkpoint

RNG = t.init_rng(61)


def tiny_run_config(tmp_path, **kw):
    defaults = dict(
        temporal_length=20,
        band_spec={"edges": [0, 6, 20], "kernel_sizes": [3, 5]},
        in_channels=4, base_hidden=6, base_channels=4, sec_hidden=6, dilation=2,
        batch_size=4, epochs=1, seed=0,
        checkpoint_dir=str(tmp_path / "ckpt"), out_dir=str(tmp_path / "out"),
    )
    defaults.update(kw)
    return pl.RunConfig(**defaults)


def tiny_datasets(n_train=6, n_eval=3, seed=0):
    return pl.make_benchmark_datasets(seed, n_train=n_train, n_eval=n_eval, channels=4)


TINY_WINDOW = dict(window_mode=True, window_length=16,
                   band_spec={"edges": [0, 5, 16], "kernel_sizes": [3, 5]})


def at_frame_rate(dataset, seconds_per_frame):
    """The same videos with `seconds_per_frame` seconds between feature frames."""
    r = seconds_per_frame
    return {vid: {"features": d["features"],
                  "duration_seconds": d["features"].shape[1] * r,
                  "instances": [ActionInstance(i.t_start * r, i.t_end * r)
                                for i in d["instances"]]}
            for vid, d in dataset.items()}


def two_branch_infer(config, checkpoint_path, dataset):
    """Inference as one branch per mode, kept as the oracle for pl.infer.

    Rescale mode forwards batches of rescaled videos; window mode forwards
    all windows of one video at once, ignores batch_size and never clamps
    ends to the duration. The network runs through pl._forward_arrays, so
    this checks the video-to-view mapping exactly; the network itself is
    checked against the dense reference path in tests/test_net.py.
    Returns {vid: [(t_start, t_end, score)]}.
    """
    net, _ = load_checkpoint(checkpoint_path)
    T = net.config.temporal_length
    nms = (config.snms_sigma, config.snms_floor, config.max_proposals)

    def forward(x):
        return pl._forward_arrays(net, x, "oracle batch")

    vids = sorted(dataset)
    proposals = {}
    if not config.window_mode:
        for lo in range(0, len(vids), config.batch_size):
            chunk = vids[lo:lo + config.batch_size]
            maps = forward(np.stack([pl.rescale_linear(dataset[v]["features"], T)
                                     for v in chunk]))
            for j, vid in enumerate(chunk):
                grid = TemporalGrid(T, dataset[vid]["duration_seconds"])
                _, _, ts, te, sc = pp.fuse_scores(*(m[j] for m in maps), grid)
                proposals[vid] = list(zip(*pp.soft_nms(ts, te, sc, *nms)))
        return proposals
    for vid in vids:
        d = dataset[vid]
        dt_raw = d["duration_seconds"] / d["features"].shape[1]
        wins = pl.sliding_windows(d["features"], T, config.window_overlap)
        maps = forward(np.stack([w[0] for w in wins]))
        parts = []
        for j, (_, offset, valid) in enumerate(wins):
            grid = TemporalGrid(T, T * dt_raw)
            ss, ee, ts, te, sc = pp.fuse_scores(*(m[j] for m in maps), grid)
            keep = (ss < valid) & (ee < valid)
            parts.append((ts[keep] + offset * dt_raw, te[keep] + offset * dt_raw, sc[keep]))
        ts, te, sc = pp.merge_window_duplicates(*(np.concatenate(a) for a in zip(*parts)))
        proposals[vid] = list(zip(*pp.soft_nms(ts, te, sc, *nms)))
    return proposals


class TestFeatureFiles:
    def test_csv_shape(self, tmp_path):
        path = str(tmp_path / "f.csv")
        feats = RNG.standard_normal((3, 5))
        pl.save_features_csv(path, feats)
        loaded = pl.load_features(path)
        assert loaded.shape == (3, 5)
        np.testing.assert_array_equal(loaded, feats)

    def test_nan_cell_rejected_with_location(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("c0,c1\n1.0,2.0\nnan,3.0\n")
        with pytest.raises(ValueError, match="row 3, column 1"):
            pl.load_features(str(path))

    @pytest.mark.parametrize("text, message", [
        ("c0,c1\n1.0,2.0\n3.0,abc\n", "non-numeric cell at row 3, column 2: 'abc'"),
        ("c0,c1\n1.0,2.0\n\n4.0,inf\n", "non-finite cell at row 4, column 2"),  # blank row 3
        ("1.0,2.0\nnan,x\n", "non-finite cell at row 2, column 1"),  # first bad cell wins
    ])
    def test_bad_cell_named_by_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            pl.load_features(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged row 2"):
            pl.load_features(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            pl.load_features(str(path))

    def test_corrupt_first_row_is_named_not_dropped(self, tmp_path):
        # a first row with a number in it is data, not a header
        path = tmp_path / "f.csv"
        path.write_text("1.0,abc\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(ValueError, match="non-numeric cell at row 1, column 2: 'abc'"):
            pl.load_features(str(path))

    @pytest.mark.parametrize("text", ["", "c0,c1\n", "\n\n"])
    def test_no_data_rejected_without_a_warning(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty feature file"):
                pl.load_features(str(path))

    def test_headerless_csv_accepted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(pl.load_features(str(path)),
                                      [[1.0, 3.0], [2.0, 4.0]])

    def test_csv_roundtrip_bit_identical(self, tmp_path):
        path = str(tmp_path / "f.csv")
        feats = RNG.standard_normal((4, 9)) * 1e3
        pl.save_features_csv(path, feats)
        once = pl.load_features(path)
        pl.save_features_csv(path, once)
        twice = pl.load_features(path)
        assert np.array_equal(once, twice)
        assert np.array_equal(once, feats)

    def test_binary_container_roundtrip(self, tmp_path):
        path = str(tmp_path / "f.bin")
        feats = RNG.standard_normal((3, 7))
        pl.save_features_bin(path, feats)
        np.testing.assert_array_equal(pl.load_features(path), feats)

    def test_binary_container_without_features_named(self, tmp_path):
        path = str(tmp_path / "f.bin")
        save_arrays(path, {"kind": "features"}, [("feats", RNG.standard_normal((3, 7)))])
        with pytest.raises(ValueError, match=r"f\.bin: feature container has no 'features'"):
            pl.load_features(path)

    def test_binary_container_with_1d_features_named(self, tmp_path):
        path = str(tmp_path / "f.bin")
        pl.save_features_bin(path, RNG.standard_normal(4))
        with pytest.raises(ValueError, match=r"f\.bin: features must be \[channels, T\], "
                                             r"got shape \(4,\)"):
            pl.load_features(path)


def _read_outcome(read, path):
    """The array `read` returns, or the message of the ValueError it raises."""
    try:
        return read(path)
    except ValueError as e:
        return str(e)


def assert_reads_like_scanner(path):
    """load_features gives the scanner's array bit for bit, or its message."""
    fast = _read_outcome(pl.load_features, path)
    scanned = _read_outcome(pl._scan_features_csv, path)
    if isinstance(scanned, str):
        assert fast == scanned
    else:
        assert isinstance(fast, np.ndarray), fast
        assert fast.dtype == scanned.dtype and fast.flags.c_contiguous
        assert np.array_equal(fast, scanned)


_CSV_CASES = {
    "header": "c0,c1\n1.5,2.5\n3.5,4.5\n",
    "no_header": "1.5,2.5\n3.5,4.5\n",
    "crlf": "c0,c1\r\n1.5,2.5\r\n3.5,4.5\r\n",
    "cr": "1.5,2.5\r3.5,4.5\r",
    "no_final_newline": "c0,c1\n1.5,2.5\n3.5,4.5",
    "blank_lines": "\n1.5,2.5\n\n3.5,4.5\n\n",
    "blank_before_header": "\nc0,c1\n1.5,2.5\n",
    "whitespace_line": "1.5,2.5\n  \n3.5,4.5\n",
    "whitespace_line_one_column": "1.5\n\t\n3.5\n",
    "whitespace_first_line": " \n1.5,2.5\n",
    "spaces_around_cells": "1.5 , 2.5\n 3.5,4.5 \n",
    "quoted_numbers": '"1.5","2.5"\n3.5,4.5\n',
    "quoted_header": '"c0","c1"\n1.5,2.5\n',
    "quoted_header_with_number": '"1",c1\n1.5,2.5\n',
    "underscores": "1_000,2\n3,4_5\n",
    "hash_header": "#c0,c1\n1,2\n",
    "hash_cell": "#1.0,2.0\n3,4\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "bom_header": "\ufeffc0,c1\n1,2\n",
    "bom_first_cell": "\ufeff1,2\n3,4\n",
    "nan": "c0,c1\n1,nan\n",
    "inf_first_row": "inf,1\n2,3\n",
    "ragged_short": "1,2\n3\n",
    "ragged_long": "c0,c1\n1,2\n3,4,5\n",
    "corrupt_first_row": "1.0,abc\n3.0,4.0\n5.0,6.0\n",
    "one_cell": "7\n",
    "empty": "",
    "header_only": "c0,c1\n",
}

# cells loadtxt and float() both take, cells only float() takes, and bad cells
_CSV_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["0", "-0.0", " 1.5 ", "1e-320", "1e309", "nan", "-inf", "1_000",
                     '"2.5"', "#", "#3", "", " ", "abc", "c0", "\ufeff1", "0x10"]))


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 3))
    row = st.lists(_CSV_CELLS, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, row, row, st.just([]),
                                   st.lists(_CSV_CELLS, min_size=1, max_size=4)),
                         max_size=6))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(",".join(cells) for cells in rows)
    return text + eol if rows and draw(st.booleans()) else text


class TestCsvFastPath:
    @pytest.mark.parametrize("name", sorted(_CSV_CASES))
    def test_reads_like_scanner(self, tmp_path, name):
        path = tmp_path / "f.csv"
        with open(path, "w", newline="") as f:
            f.write(_CSV_CASES[name])
        assert_reads_like_scanner(str(path))

    @settings(max_examples=300, deadline=None)
    @given(_csv_texts())
    def test_generated_files_read_like_scanner(self, text):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "f.csv")
            with open(path, "w", newline="") as f:
                f.write(text)
            assert_reads_like_scanner(path)

    @pytest.mark.parametrize("name", ["header", "no_header", "crlf", "cr",
                                      "no_final_newline", "blank_lines",
                                      "whitespace_first_line", "spaces_around_cells",
                                      "hash_header", "bom_header", "one_cell"])
    def test_clean_files_skip_the_scanner(self, tmp_path, monkeypatch, name):
        path = tmp_path / "f.csv"
        with open(path, "w", newline="") as f:
            f.write(_CSV_CASES[name])
        expected = pl._scan_features_csv(str(path))

        def scan(path):
            raise AssertionError(f"{path} reached the scanner")

        monkeypatch.setattr(pl, "_scan_features_csv", scan)
        assert np.array_equal(pl.load_features(str(path)), expected)


_HELD_HEAP_SCRIPT = """
import os, resource, tempfile
from smbg import pipeline as pl
train, _, evals, _ = pl.make_benchmark_datasets(0, n_train=64, n_eval=8)
with tempfile.TemporaryDirectory() as d:
    for rep in range(2):
        cfg = pl.RunConfig(epochs=1, checkpoint_dir=os.path.join(d, str(rep)))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pl.infer(cfg, pl.train(cfg, train).checkpoints[-1], evals)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


class TestKeepFreedMemory:
    def test_sets_both_thresholds_once(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(pl.ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=mallopt))
        pl._keep_freed_memory.cache_clear()
        try:
            assert [pl._keep_freed_memory() for _ in range(3)] == [True] * 3
        finally:
            pl._keep_freed_memory.cache_clear()
        assert calls == [(-3, 1 << 30), (-1, 1 << 30)]

    @pytest.mark.parametrize("libc", [types.SimpleNamespace(), None])
    def test_without_mallopt_does_nothing(self, monkeypatch, libc):
        def cdll(name):
            if libc is None:
                raise OSError("no C library")
            return libc

        monkeypatch.setattr(pl.ctypes, "CDLL", cdll)
        assert pl._keep_freed_memory.__wrapped__() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
    def test_second_train_and_infer_take_no_fresh_pages(self):
        # a fresh process, so no earlier test has set the thresholds; with glibc's
        # defaults the second 4-step toy train + infer takes over 12,000 minor faults
        src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _HELD_HEAP_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=600)
        assert int(out.stdout) <= 1000


class TestRescale:
    def test_constant_channel_stays_constant(self):
        out = pl.rescale_linear(np.full((2, 13), 3.25), 100)
        np.testing.assert_array_equal(out, 3.25)

    def test_ramp_interpolation(self):
        out = pl.rescale_linear(np.array([[0.0, 1.0, 2.0, 3.0]]), 7)
        np.testing.assert_allclose(out[0], [0, 0.5, 1, 1.5, 2, 2.5, 3])

    def test_length_preserving_is_identity(self):
        feats = RNG.standard_normal((3, 11))
        np.testing.assert_array_equal(pl.rescale_linear(feats, 11), feats)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            pl.rescale_linear(np.ones((2, 1)), 10)

    def test_there_and_back_constant(self):
        feats = np.full((1, 37), -1.5)
        out = pl.rescale_linear(pl.rescale_linear(feats, 100), 37)
        np.testing.assert_array_equal(out, feats)


class TestSlidingWindows:
    def test_double_length_offsets(self):
        wins = pl.sliding_windows(RNG.standard_normal((2, 256)), 128, 0.5)
        assert [w[1] for w in wins] == [0, 64, 128]
        assert all(w[2] == 128 for w in wins)

    def test_exact_length_single_window(self):
        wins = pl.sliding_windows(RNG.standard_normal((2, 128)), 128, 0.5)
        assert len(wins) == 1 and wins[0][1] == 0

    def test_short_video_zero_padded(self):
        feats = RNG.standard_normal((2, 100))
        wins = pl.sliding_windows(feats, 128, 0.5)
        assert len(wins) == 1
        chunk, offset, valid = wins[0]
        assert chunk.shape == (2, 128) and offset == 0 and valid == 100
        np.testing.assert_array_equal(chunk[:, 100:], 0.0)

    def test_tail_window_right_aligned(self):
        wins = pl.sliding_windows(RNG.standard_normal((1, 300)), 128, 0.5)
        assert [w[1] for w in wins] == [0, 64, 128, 172]

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            pl.sliding_windows(np.ones((1, 10)), 4, 1.0)


class TestSynthetic:
    def test_same_spec_identical_bytes(self):
        spec = pl.SyntheticSpec(num_videos=3, channels=4, seed=5)
        a, ann_a = pl.synth_dataset(spec)
        b, ann_b = pl.synth_dataset(spec)
        for vid in a:
            assert np.array_equal(a[vid]["features"], b[vid]["features"])
            assert a[vid]["instances"] == b[vid]["instances"]

    def test_zero_instances_allowed(self):
        spec = pl.SyntheticSpec(num_videos=2, channels=3, seed=1,
                                instances_range=(0, 0))
        ds, ann = pl.synth_dataset(spec)
        for vid in ds:
            assert ds[vid]["instances"] == []

    def test_high_snr_signal_energy_inside_instance(self):
        spec = pl.SyntheticSpec(num_videos=4, channels=8, seed=2, snr=1e6,
                                instances_range=(1, 1))
        ds, _ = pl.synth_dataset(spec)
        for vid, d in ds.items():
            inst = d["instances"][0]
            power = (d["features"] ** 2).mean(axis=0)
            frames = np.arange(d["features"].shape[1])
            inside = (frames >= inst.t_start + 1) & (frames <= inst.t_end - 2)
            outside = (frames < inst.t_start - 3) | (frames > inst.t_end + 3)
            assert power[inside].mean() > power[outside].mean()

    def test_infeasible_packing_rejected(self):
        spec = pl.SyntheticSpec(num_videos=1, channels=2, seed=0,
                                duration_range=(30, 30), instances_range=(9, 9),
                                instance_fraction_range=(0.2, 0.3))
        with pytest.raises(ValueError, match="pack"):
            pl.synth_dataset(spec)

    def test_dataset_files_roundtrip(self, tmp_path):
        spec = pl.SyntheticSpec(num_videos=2, channels=3, seed=7)
        ds, _ = pl.synth_dataset(spec)
        ann_path = pl.write_dataset(ds, str(tmp_path))
        loaded = pl.read_dataset(str(tmp_path / "features"), ann_path)
        for vid in ds:
            assert np.array_equal(loaded[vid]["features"], ds[vid]["features"])
            assert loaded[vid]["instances"] == ds[vid]["instances"]

    def test_missing_feature_file_names_video_and_paths(self, tmp_path):
        spec = pl.SyntheticSpec(num_videos=2, channels=3, seed=7)
        ds, _ = pl.synth_dataset(spec)
        ann_path = pl.write_dataset(ds, str(tmp_path))
        os.remove(tmp_path / "features" / "video_0001.csv")
        with pytest.raises(FileNotFoundError,
                           match=r"'video_0001'.*video_0001\.csv.*video_0001\.bin"):
            pl.read_dataset(str(tmp_path / "features"), ann_path)


class TestRunConfig:
    def test_json_roundtrip_lossless(self, tmp_path):
        cfg = tiny_run_config(tmp_path, epochs=3, learning_rate=5e-4, window_mode=False)
        path = str(tmp_path / "cfg.json")
        cfg.save(path)
        loaded = pl.RunConfig.load(path)
        assert loaded.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("field,value", [("batch_size", 0), ("batch_size", -3),
                                             ("window_overlap", 1.0),
                                             ("window_overlap", 1.5),
                                             ("window_overlap", -0.1),
                                             ("map_label_mode", "dice"),
                                             ("snms_sigma", 0.0), ("snms_sigma", -0.5),
                                             ("snms_sigma", float("nan")),
                                             ("negative_ratio", 0),
                                             ("batch_size", 2.5), ("epochs", "3"),
                                             ("seed", 1.5), ("max_proposals", True),
                                             ("temporal_length", 100.0),
                                             ("window_length", "128"),
                                             ("learning_rate", "0.1"),
                                             ("learning_rate", float("nan")),
                                             ("snms_floor", "x"),
                                             ("guidance_beta", float("inf")),
                                             ("positive_threshold", True),
                                             ("window_overlap", "0.5"),
                                             ("epochs", -2), ("max_proposals", 0),
                                             ("seed", -1), ("seed", 2 ** 64)])
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"RunConfig.{field}"):
            pl.RunConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [("learning_rate", 0.0), ("snms_floor", 0.0),
                                             ("guidance_beta", 1), ("epochs", 0),
                                             ("max_proposals", 1), ("seed", 2 ** 64 - 1),
                                             ("confidence_lambda", np.float64(2.0))])
    def test_boundary_values_accepted(self, field, value):
        assert getattr(pl.RunConfig(**{field: value}), field) == value

    def test_duration_mask_mode_in_config_file_loads(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dict(cfg.to_dict(), mask_mode="duration")))
        assert pl.RunConfig.load(str(path)).to_dict() == cfg.to_dict()

    def test_retired_workers_field_in_config_file_dropped(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dict(cfg.to_dict(), workers=4)))
        assert pl.RunConfig.load(str(path)).to_dict() == cfg.to_dict()

    def test_literal_mask_mode_in_config_file_rejected(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        path = tmp_path / "literal.json"
        path.write_text(json.dumps(dict(cfg.to_dict(), mask_mode="literal")))
        with pytest.raises(ValueError, match="mask_mode 'literal'"):
            pl.RunConfig.load(str(path))

    def test_unknown_field_in_config_file_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(tiny_run_config(tmp_path).to_dict(), widths=4)))
        with pytest.raises(ValueError, match=r"cfg\.json: .*unexpected keyword argument "
                                             r"'widths'"):
            pl.RunConfig.load(str(path))

    def test_non_object_config_file_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=r"cfg\.json: expected a JSON object, got list"):
            pl.RunConfig.load(str(path))

    def test_bad_value_in_config_file_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(tiny_run_config(tmp_path).to_dict(), batch_size=0)))
        with pytest.raises(ValueError, match=r"cfg\.json: RunConfig\.batch_size"):
            pl.RunConfig.load(str(path))

    @pytest.mark.parametrize("kw", [
        dict(temporal_length=24),                                  # edges end at 20
        dict(window_mode=True, window_length=32),                  # model T is 32
        dict(band_spec={"edges": [0, 6, 20], "kernel_sizes": [3, 4]}),
        dict(band_spec={"edges": [0, 20]}),
        dict(band_spec=[0, 20]),
        dict(band_spec={"edges": [0, "a"], "kernel_sizes": [3]}),
    ])
    def test_band_spec_checked_at_config_time(self, tmp_path, kw):
        with pytest.raises(ValueError, match=r"RunConfig\.band_spec"):
            tiny_run_config(tmp_path, **kw)

    # a ModelConfig field error is named by the RunConfig field it came from
    @pytest.mark.parametrize("kw, message", [
        (dict(dilation=0), "dilation must be >= 1"),
        (dict(temporal_length=0), "temporal_length must be >= 1, got 0"),
        (dict(window_mode=True, window_length=0, band_spec=None),
         "window_length must be >= 1, got 0"),
    ])
    def test_model_fields_checked_at_config_time(self, tmp_path, kw, message):
        with pytest.raises(ValueError, match=rf"^RunConfig\.{message}"):
            tiny_run_config(tmp_path, **kw)

    # a value of the wrong type is named by its field, not blamed on the band spec
    @pytest.mark.parametrize("kw, field", [
        (dict(dilation="7"), "dilation"),
        (dict(temporal_length=100.5), "temporal_length"),
        (dict(window_mode=True, window_length=128.0), "window_length"),
    ])
    def test_model_field_of_wrong_type_named(self, kw, field):
        with pytest.raises(ValueError, match=rf"^RunConfig\.{field} must be an integer, "
                                             rf"got {re.escape(repr(kw[field]))}$"):
            pl.RunConfig(**kw)

    def test_model_temporal_length_tracks_mode(self, tmp_path):
        cfg = tiny_run_config(tmp_path, window_mode=True, window_length=32,
                              band_spec={"edges": [0, 8, 32], "kernel_sizes": [3, 5]})
        assert cfg.model_temporal_length == 32
        assert cfg.model_config().temporal_length == 32


class TestTraining:
    def test_loss_log_and_checkpoints(self, tmp_path):
        cfg = tiny_run_config(tmp_path, epochs=2)
        train_ds, *_ = tiny_datasets()
        result = pl.train(cfg, train_ds)
        assert len(result.checkpoints) == 3  # init + 2 epochs
        assert len(result.epoch_mean_loss) == 2
        lines = [json.loads(l) for l in open(result.log_path)]
        assert {"step", "L_B", "L_C", "L_G", "total", "seed"} <= set(lines[0])
        assert [l["step"] for l in lines] == list(range(len(lines)))

    @staticmethod
    def _checkpoint_arrays_equal(path_a, path_b):
        # header echoes run paths, so compare the stored arrays themselves
        from smbg.net import load_arrays
        _, a = load_arrays(path_a)
        _, b = load_arrays(path_b)
        assert a.keys() == b.keys()
        return all(np.array_equal(a[k], b[k]) for k in a)

    def test_fixed_seed_identical_trajectory(self, tmp_path):
        train_ds, *_ = tiny_datasets()
        cfg_a = tiny_run_config(tmp_path / "a")
        cfg_b = tiny_run_config(tmp_path / "b")
        ra = pl.train(cfg_a, train_ds)
        rb = pl.train(cfg_b, train_ds)
        assert ra.epoch_mean_loss == rb.epoch_mean_loss
        assert self._checkpoint_arrays_equal(ra.checkpoints[-1], rb.checkpoints[-1])
        assert open(ra.log_path, "rb").read() == open(rb.log_path, "rb").read()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        train_ds, *_ = tiny_datasets()
        full_cfg = tiny_run_config(tmp_path / "full", epochs=2)
        full = pl.train(full_cfg, train_ds)
        half_cfg = tiny_run_config(tmp_path / "half", epochs=1)
        half = pl.train(half_cfg, train_ds)
        resumed_cfg = tiny_run_config(tmp_path / "half", epochs=2)
        resumed = pl.train(resumed_cfg, train_ds, resume=half.checkpoints[-1])
        assert resumed.epoch_mean_loss == full.epoch_mean_loss[1:]
        assert self._checkpoint_arrays_equal(full.checkpoints[-1], resumed.checkpoints[-1])

    def test_resume_drops_log_lines_past_checkpoint(self, tmp_path):
        train_ds, *_ = tiny_datasets()
        full = pl.train(tiny_run_config(tmp_path / "full", epochs=2), train_ds)
        half = pl.train(tiny_run_config(tmp_path / "half", epochs=1), train_ds)
        # a crash in epoch 2 left a line for the first step the resume repeats,
        # and a torn line without its newline
        with open(half.log_path, "a") as log:
            log.write(json.dumps({"step": half.steps, "total": 0.0}) + "\n")
            log.write('{"step": ')
        pl.train(tiny_run_config(tmp_path / "half", epochs=2), train_ds,
                 resume=half.checkpoints[-1])
        with open(half.log_path, "rb") as a, open(full.log_path, "rb") as b:
            assert a.read() == b.read()

    def test_resume_without_optimizer_state_named(self, tmp_path):
        from smbg.net import SmbgNet, save_checkpoint
        cfg = tiny_run_config(tmp_path)
        path = str(tmp_path / "weights_only.ckpt")
        save_checkpoint(path, SmbgNet(cfg.model_config(), seed=0),
                        {"epoch": 0, "global_step": 0})
        train_ds, *_ = tiny_datasets(n_train=4)
        with pytest.raises(ValueError, match=r"weights_only\.ckpt is missing optimizer "
                                             r"array 'adam_step'"):
            pl.train(cfg, train_ds, resume=path)

    def test_zero_learning_rate_constant_loss_on_fixed_batch(self, tmp_path):
        from smbg import losses
        from smbg.net import SmbgNet
        cfg = tiny_run_config(tmp_path, learning_rate=0.0)
        train_ds, *_ = tiny_datasets(n_train=4)
        samples = pl.build_samples(train_ds, cfg)
        net = SmbgNet(cfg.model_config(), seed=0)
        opt = t.AdamState(net.parameters(), lr=0.0)
        x = np.stack([s["x"] for s in samples])
        g_s = np.stack([s["g_s"] for s in samples])
        g_e = np.stack([s["g_e"] for s in samples])
        g_c = np.stack([s["g_c"] for s in samples])
        vals = []
        for _ in range(3):
            out = net.forward(t.Tensor(x), train=True)
            loss, bd = losses.total_loss(out, g_s, g_e, g_c, cfg.sampling_config(7))
            opt.zero_grad(); loss.backward(); opt.step()
            vals.append(bd.total)
        assert vals[0] == vals[1] == vals[2]

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            pl.train(tiny_run_config(tmp_path), {})

    def test_divergence_halts_with_step_logged(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        train_ds, *_ = tiny_datasets(n_train=4)
        vid = sorted(train_ds)[0]
        train_ds[vid]["features"] = train_ds[vid]["features"].copy()
        train_ds[vid]["features"][0, :] = np.nan
        with pytest.raises(RuntimeError, match="non-finite loss at step 0: L_B, L_C, L_G "):
            pl.train(cfg, train_ds)
        last = open(os.path.join(cfg.checkpoint_dir, "loss_log.jsonl")).read().splitlines()[-1]
        entry = json.loads(last)
        assert set(entry) == {"step", "error"} and entry["step"] == 0
        # the NaN video's batch row, at its first frame
        assert re.fullmatch(r"non-finite loss: L_B, L_C, L_G non-finite; "
                            r"first non-finite output P_s at index \(\d, 0\)", entry["error"])

    @pytest.mark.parametrize("key,index,terms", [
        ("P_s", (1, 2), "L_B, L_G"),         # one start probability
        ("P_r", ..., "L_C, L_G"),            # the whole regression map
    ])
    def test_divergence_names_losses_and_first_non_finite_output(self, tmp_path, monkeypatch,
                                                                 key, index, terms):
        cfg = tiny_run_config(tmp_path)
        train_ds, *_ = tiny_datasets(n_train=4)
        forward = SmbgNet.forward

        def poisoned(net, x, train=False):
            out = forward(net, x, train)
            out[key].data[index] = np.nan
            return out

        monkeypatch.setattr(SmbgNet, "forward", poisoned)
        first = index if index is not ... else (0, 0, 0)
        what = f"{terms} non-finite; first non-finite output {key} at index {first}"
        with pytest.raises(RuntimeError) as err:
            pl.train(cfg, train_ds)
        assert str(err.value) == f"training diverged: non-finite loss at step 0: {what}"
        last = open(os.path.join(cfg.checkpoint_dir, "loss_log.jsonl")).read().splitlines()[-1]
        assert json.loads(last) == {"step": 0, "error": f"non-finite loss: {what}"}


class TestInference:
    def test_empty_video_list_gives_valid_empty_json(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        train_ds, *_ = tiny_datasets(n_train=4)
        result = pl.train(cfg, train_ds)
        out = str(tmp_path / "props.json")
        props = pl.infer(cfg, result.checkpoints[-1], {}, out)
        assert props == {}
        assert json.loads(open(out).read()) == {}

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        train_ds, _, eval_ds, _ = tiny_datasets(n_train=4, n_eval=2)
        result = pl.train(cfg, train_ds)
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        pl.infer(cfg, result.checkpoints[-1], eval_ds, out_a)
        pl.infer(cfg, result.checkpoints[-1], eval_ds, out_b)
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_channel_mismatch_rejected_with_shapes(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        train_ds, *_ = tiny_datasets(n_train=4)
        result = pl.train(cfg, train_ds)
        bad = {"v": {"features": np.zeros((9, 30)), "duration_seconds": 30.0,
                     "instances": []}}
        with pytest.raises(ValueError, match="9 channels.*expects 4"):
            pl.infer(cfg, result.checkpoints[-1], bad)

    def test_window_mode_smoke_and_second_mapping(self, tmp_path):
        cfg = tiny_run_config(tmp_path, window_mode=True, window_length=16,
                              band_spec={"edges": [0, 5, 16], "kernel_sizes": [3, 5]},
                              epochs=1, batch_size=4)
        spec = pl.SyntheticSpec(num_videos=3, channels=4, seed=3,
                                duration_range=(30, 40))
        ds, ann = pl.synth_dataset(spec)
        result = pl.train(cfg, ds)
        props = pl.infer(cfg, result.checkpoints[-1], ds)
        for vid, plist in props.items():
            dur = ds[vid]["duration_seconds"]
            for p in plist:
                assert 0.0 <= p.t_start < p.t_end <= dur

    def test_window_mode_long_video_from_init_checkpoint(self, tmp_path, monkeypatch):
        # 600 frames at L=128, overlap 0.5: 9 windows, which batch_size=4
        # must split into forwards of at most 4 without changing a byte
        cfg = pl.RunConfig(window_mode=True, seed=0, batch_size=4)
        duration = 600
        spec = pl.SyntheticSpec(num_videos=1, channels=cfg.in_channels, seed=5,
                                duration_range=(duration, duration))
        ds, _ = pl.synth_dataset(spec)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
        batches = []
        predict = SmbgNet.predict

        def counting_predict(net, x):
            batches.append(x.shape[0])
            return predict(net, x)

        monkeypatch.setattr(SmbgNet, "predict", counting_predict)
        (plist,) = pl.infer(cfg, ckpt, ds, str(tmp_path / "b4.json")).values()
        assert batches == [4, 4, 1]
        assert 0 < len(plist) <= cfg.max_proposals
        scores = [p.score for p in plist]
        assert scores == sorted(scores, reverse=True)
        for p in plist:
            assert 0.0 <= p.t_start < p.t_end <= duration
        batches.clear()
        cfg16 = pl.RunConfig.from_dict(dict(cfg.to_dict(), batch_size=16))
        pl.infer(cfg16, ckpt, ds, str(tmp_path / "b16.json"))
        assert batches == [9]
        assert (tmp_path / "b4.json").read_bytes() == (tmp_path / "b16.json").read_bytes()

    @pytest.mark.parametrize("window", [False, True], ids=["rescale", "window"])
    def test_proposal_bytes_do_not_depend_on_batch_size(self, tmp_path, monkeypatch, window):
        cfg = tiny_run_config(tmp_path, **(TINY_WINDOW if window else {}))
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
        rng = np.random.default_rng(11)
        dataset = {f"v{k}": {"features": rng.standard_normal((4, frames)),
                             "duration_seconds": float(rng.uniform(20.0, 300.0)),
                             "instances": []}
                   for k, frames in enumerate([17, 60, 23, 41, 90, 30, 16])}
        rows = []  # candidate counts of each soft_nms_batch call
        soft_nms_batch = pp.soft_nms_batch

        def counting(cands, *args):
            rows.append([c[0].size for c in cands])
            return soft_nms_batch(cands, *args)

        monkeypatch.setattr(pp, "soft_nms_batch", counting)
        written = []
        for b in (1, 3, 16):
            rows.clear()
            path = tmp_path / f"b{b}.json"
            pl.infer(pl.RunConfig.from_dict(dict(cfg.to_dict(), batch_size=b)), ckpt,
                     dataset, str(path))
            written.append(path.read_bytes())
        # at batch 16 the videos share forwards and are suppressed together
        if window:
            assert any(len(set(r)) > 1 for r in rows)
        else:
            assert rows == [[210] * 7]
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("window", [False, True], ids=["rescale", "window"])
    def test_infer_computes_upper_cells_and_training_all(self, tmp_path, monkeypatch,
                                                         window):
        cfg = tiny_run_config(tmp_path, **(TINY_WINDOW if window else {}))
        T = cfg.model_temporal_length
        train_ds, *_ = tiny_datasets(n_train=4)
        cells = []  # packed cells per item of each first map conv
        band_map_conv = t.band_map_conv

        def spy(*args, **kw):
            out = band_map_conv(*args, **kw)
            cells.append(out.shape[2])
            return out

        monkeypatch.setattr(t, "band_map_conv", spy)
        ckpt = pl.train(cfg, train_ds).checkpoints[-1]
        # training: the cells e >= s, the 2 * dilation diagonals below them that the
        # 3x3 map conv reaches, and one stand-in for the cells further below
        strip = sum(T - d for d in range(1, 2 * cfg.dilation + 1))
        assert 2 * cfg.dilation < T - 1
        assert cells and set(cells) == {T * (T + 1) // 2 + strip + 1}
        cells.clear()
        pl.infer(cfg, ckpt, train_ds)
        assert cells and set(cells) == {T * (T + 1) // 2}

    def test_runs_predict_without_batchnorm_or_map_convs(self, tmp_path, monkeypatch):
        cfg = tiny_run_config(tmp_path)
        spec = pl.SyntheticSpec(num_videos=5, channels=4, seed=2, duration_range=(30, 60))
        ds, _ = pl.synth_dataset(spec)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))

        def refuse(*args, **kwargs):
            raise AssertionError("inference ran a full-map op")

        for name in ("batchnorm_lite", "conv2d_dilated", "assemble_band_maps"):
            monkeypatch.setattr(t, name, refuse)
        batches = []
        predict = SmbgNet.predict

        def counting_predict(net, x):
            batches.append(x.shape[0])
            return predict(net, x)

        monkeypatch.setattr(SmbgNet, "predict", counting_predict)
        props = pl.infer(cfg, ckpt, ds)
        assert batches == [4, 1] and all(props.values())

    def test_non_finite_outputs_name_the_videos(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        train_ds, _, eval_ds, _ = tiny_datasets(n_train=4, n_eval=2)
        ckpt = pl.train(cfg, train_ds).checkpoints[-1]
        net, header = load_checkpoint(ckpt)
        net.sec_c3.b.data[0] = np.nan
        bad_ckpt = str(tmp_path / "nan.ckpt")
        save_checkpoint(bad_ckpt, net, header)
        with pytest.raises(FloatingPointError, match=r"P_c of videos \['"):
            pl.infer(cfg, bad_ckpt, eval_ds)

    @pytest.mark.parametrize("window", [False, True], ids=["rescale", "window"])
    @pytest.mark.parametrize("seconds_per_frame", [1.0, 0.37, 1 / 0.3, 4.3097],
                             ids=["1Hz", "0.37s", "0.3Hz", "4.31s"])
    def test_matches_two_branch_oracle(self, tmp_path, window, seconds_per_frame):
        cfg = tiny_run_config(tmp_path, batch_size=3, **(TINY_WINDOW if window else {}))
        spec = pl.SyntheticSpec(num_videos=5, channels=4, seed=11, duration_range=(30, 75))
        ds = at_frame_rate(pl.synth_dataset(spec)[0], seconds_per_frame)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
        got = pl.infer(cfg, ckpt, ds)
        want = two_branch_infer(cfg, ckpt, ds)
        assert list(got) == list(want)
        for vid, plist in got.items():
            dur = ds[vid]["duration_seconds"]
            clamped = [(a, min(b, dur), s) for a, b, s in want[vid]]
            if all(b <= dur for _, b, _ in want[vid]):
                assert plist == clamped
            else:
                # a clamped end moves the IoUs Soft-NMS decays by, so by an ulp
                # or so the scores it leaves
                assert [p[:2] for p in plist] == [c[:2] for c in clamped]
                np.testing.assert_allclose([p.score for p in plist],
                                           [c[2] for c in clamped], rtol=1e-12, atol=0)

    def test_proposals_ranked_with_unit_scores(self, tmp_path):
        for kw in ({}, TINY_WINDOW):
            cfg = tiny_run_config(tmp_path, **kw)
            spec = pl.SyntheticSpec(num_videos=3, channels=4, seed=2, duration_range=(20, 50))
            ds, _ = pl.synth_dataset(spec)
            ckpt = str(tmp_path / "init.ckpt")
            save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
            for plist in pl.infer(cfg, ckpt, ds).values():
                scores = [p.score for p in plist]
                assert scores == sorted(scores, reverse=True)
                for p in plist:
                    assert type(p) is pp.ScoredProposal
                    assert p.t_end > p.t_start
                    assert 0.0 <= p.score <= 1.0

    def test_window_ends_clamped_to_duration(self, tmp_path):
        # offset + in-window end can round past the duration on a video's
        # last window; 172 frames over this duration did so by 1.1e-13 s
        cfg = pl.RunConfig(window_mode=True, seed=0, max_proposals=10**6, snms_floor=0.0)
        duration = 741.2797033202315
        spec = pl.SyntheticSpec(num_videos=1, channels=cfg.in_channels, seed=5,
                                duration_range=(172, 172), instances_range=(0, 0))
        ds = at_frame_rate(pl.synth_dataset(spec)[0], duration / 172)
        (video,) = ds.values()
        video["duration_seconds"] = duration
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
        (plist,) = pl.infer(cfg, ckpt, ds).values()
        ends = [p.t_end for p in plist]
        assert max(ends) == duration
        assert all(e <= duration for e in ends)

    def test_window_ends_clamped_over_frames_and_durations(self, tmp_path, monkeypatch):
        cfg = tiny_run_config(tmp_path, **TINY_WINDOW)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
        rng = np.random.default_rng(7)
        candidates = []
        soft_nms_batch = pp.soft_nms_batch

        def keeping_soft_nms_batch(cands, *args):
            candidates.extend(te for _, te, _ in cands)
            return soft_nms_batch(cands, *args)

        monkeypatch.setattr(pp, "soft_nms_batch", keeping_soft_nms_batch)
        dataset = {}
        for k in range(24):
            frames = int(rng.integers(130, 701))
            dataset[f"v{k:02d}"] = {"features": rng.standard_normal((4, frames)),
                                    "duration_seconds": float(rng.uniform(50.0, 900.0)),
                                    "instances": []}
        props = pl.infer(cfg, ckpt, dataset)
        for (vid, plist), te in zip(props.items(), candidates):
            dur = dataset[vid]["duration_seconds"]
            assert te.max() <= dur
            assert all(p.t_end <= dur for p in plist)

    @pytest.mark.parametrize("window", [False, True], ids=["rescale", "window"])
    def test_single_frame_video_named(self, tmp_path, window):
        cfg = tiny_run_config(tmp_path, **(TINY_WINDOW if window else {}))
        ds = {"short_one": {"features": np.ones((4, 1)), "duration_seconds": 1.0,
                            "instances": []}}
        with pytest.raises(ValueError, match="'short_one' has 1 frame"):
            pl.build_samples(ds, cfg)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
        with pytest.raises(ValueError, match="'short_one' has 1 frame"):
            pl.infer(cfg, ckpt, ds)

    def test_window_offset_seconds_equivalence(self):
        # propose cell (s,e) inside a window at offset w: seconds must match
        # the same cells addressed on the full sequence
        t_raw, L, offset = 64, 16, 32
        dt = 0.5
        grid = TemporalGrid(L, L * dt)
        s, e = 3, 7
        t0 = s * grid.dt + offset * dt
        t1 = (e + 1) * grid.dt + offset * dt
        full_grid = TemporalGrid(t_raw, t_raw * dt)
        assert t0 == (offset + s) * full_grid.dt
        assert t1 == (offset + e + 1) * full_grid.dt


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("probe")
    cfg = tiny_run_config(tmp_path, epochs=1)
    train_ds, _, eval_ds, _ = tiny_datasets(n_train=4, n_eval=2)
    result = pl.train(cfg, train_ds)
    return cfg, result.checkpoints[-1], eval_ds


class TestNoiseProbe:

    def test_zero_fraction_zero_delta(self, trained, tmp_path):
        cfg, ckpt, ds = trained
        vid = sorted(ds)[0]
        report = pl.noise_probe(cfg, ckpt, ds, vid, fractions=(0.0,), trials=2,
                                out_dir=str(tmp_path / "probe0"))
        assert report["per_fraction"][0]["mean_delta"] == 0.0

    def test_fractions_reported_in_order(self, trained):
        cfg, ckpt, ds = trained
        vid = sorted(ds)[0]
        report = pl.noise_probe(cfg, ckpt, ds, vid, fractions=(0.2, 0.4, 0.6), trials=1)
        assert [r["fraction"] for r in report["per_fraction"]] == [0.2, 0.4, 0.6]

    def test_short_instances_skipped_with_note(self, trained, tmp_path):
        cfg, ckpt, ds = trained
        vid = sorted(ds)[0]
        d = dict(ds[vid])
        d["instances"] = list(d["instances"]) + [ActionInstance(0.1, 1.2)]
        report = pl.noise_probe(cfg, ckpt, {vid: d}, vid, fractions=(0.2,), trials=1)
        assert any("skipped" in s["note"] for s in report["skipped"])

    def test_snapshots_written(self, trained, tmp_path):
        cfg, ckpt, ds = trained
        vid = sorted(ds)[0]
        out = tmp_path / "probe_snaps"
        pl.noise_probe(cfg, ckpt, ds, vid, fractions=(0.4,), trials=1, out_dir=str(out))
        assert (out / "map_clean.csv").exists()
        assert (out / "map_f040.csv").exists()
        assert (out / "probe_report.json").exists()

    def test_channel_mismatch_names_video_and_checkpoint(self, trained):
        cfg, ckpt, ds = trained
        vid = sorted(ds)[0]
        bad = {vid: dict(ds[vid], features=np.zeros((9, ds[vid]["features"].shape[1])))}
        msg = re.escape(f"mismatch for {vid}: features have 9 channels, "
                        f"checkpoint {ckpt} expects 4")
        with pytest.raises(ValueError, match=msg):
            pl.noise_probe(cfg, ckpt, bad, vid)
        with pytest.raises(ValueError, match=msg):
            pl.infer(cfg, ckpt, bad)

    def test_window_mode_probes_the_window_holding_each_instance(self, tmp_path):
        # L=16 windows at stride 8 over a 200 s video at 1 Hz
        cfg = tiny_run_config(tmp_path, **TINY_WINDOW)
        net = SmbgNet(cfg.model_config(), seed=3)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, net)
        feats = t.init_rng(8).standard_normal((4, 200))
        held = [(ActionInstance(50.3, 59.2), 48), (ActionInstance(150.2, 153.9), 144)]
        too_long = ActionInstance(100.5, 130.0)  # 29.5 s: no 16 s window holds it
        vid = "long_video"
        ds = {vid: {"features": feats, "duration_seconds": 200.0,
                    "instances": [held[0][0], too_long, held[1][0]]}}
        out = tmp_path / "probe"
        report = pl.noise_probe(cfg, ckpt, ds, vid, fractions=(0.0,), trials=1,
                                out_dir=str(out))
        assert report["skipped"] == [{"instance": [100.5, 130.0],
                                      "note": "no view holds the whole instance; skipped"}]
        grid = TemporalGrid(16, 16.0)
        maps = []
        for inst, offset in held:
            x = feats[None, :, offset:offset + 16]
            p_c = pl._forward_arrays(net, x, "window")[2][0]
            s, e = pl._gt_cell(inst.t_start - offset, inst.t_end - offset, grid)
            key = f"{inst.t_start:.2f}-{inst.t_end:.2f}"
            assert report["clean_confidence"][key] == p_c[s, e]
            maps.append(p_c)
        assert report["per_fraction"][0]["mean_delta"] == 0.0
        # the snapshots are maps of the window that holds the first probed instance
        for name in ("map_clean.csv", "map_f000.csv"):
            np.testing.assert_allclose(np.loadtxt(out / name, delimiter=","), maps[0],
                                       rtol=0, atol=5e-7)

    def test_no_instances_rejected(self, trained):
        cfg, ckpt, ds = trained
        vid = sorted(ds)[0]
        d = dict(ds[vid])
        d["instances"] = []
        with pytest.raises(ValueError, match="no annotated instances"):
            pl.noise_probe(cfg, ckpt, {vid: d}, vid)


class TestSweep:
    def test_dilation_sweep_rows(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        train_ds, _, eval_ds, eval_ann = tiny_datasets(n_train=4, n_eval=2)
        rows = pl.sweep(cfg, "r_d", [1, 2], train_ds, eval_ds, eval_ann,
                        out_csv=str(tmp_path / "sweep.csv"))
        assert len(rows) == 2
        assert [r["value"] for r in rows] == ["1", "2"]
        lines = open(tmp_path / "sweep.csv").read().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("axis,value,ar_at_5")

    def test_kernel_sweep_single_vs_multi_band(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        train_ds, _, eval_ds, eval_ann = tiny_datasets(n_train=4, n_eval=2)
        values = [{"edges": [0, 20], "kernel_sizes": [5]},
                  {"edges": [0, 6, 20], "kernel_sizes": [3, 5]}]
        rows = pl.sweep(cfg, "kernel_sizes", values, train_ds, eval_ds, eval_ann)
        assert len(rows) == 2
        assert rows[0]["value"] == "5" and rows[1]["value"] == "3/5"

    def test_repeat_run_identical_row(self, tmp_path):
        train_ds, _, eval_ds, eval_ann = tiny_datasets(n_train=4, n_eval=2)
        r1 = pl.sweep(tiny_run_config(tmp_path / "s1"), "r_d", [2], train_ds,
                      eval_ds, eval_ann)
        r2 = pl.sweep(tiny_run_config(tmp_path / "s2"), "r_d", [2], train_ds,
                      eval_ds, eval_ann)
        assert r1 == r2

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="axis"):
            pl.sweep(tiny_run_config(tmp_path), "widths", [1], {}, {}, {})


class TestCli:
    def test_synth_writes_dataset(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        cfg.synthetic = {"num_videos": 2, "channels": 4, "seed": 3}
        cfg_path = str(tmp_path / "cfg.json")
        cfg.save(cfg_path)
        out = str(tmp_path / "synth_out")
        assert cli_main(["--config", cfg_path, "--out", out, "synth"]) == 0
        assert os.path.exists(os.path.join(out, "annotations.json"))
        assert len(os.listdir(os.path.join(out, "features"))) == 2

    def test_seed_flag_checked_like_the_config_field(self, tmp_path):
        with pytest.raises(ValueError, match=r"RunConfig\.seed must be in \[0, 2\*\*64\)"):
            cli_main(["--seed", "-1", "--out", str(tmp_path), "cost"])

    def test_cost_command(self, tmp_path, capsys):
        cfg = tiny_run_config(tmp_path)
        cfg_path = str(tmp_path / "cfg.json")
        cfg.save(cfg_path)
        out = str(tmp_path / "cost_out")
        assert cli_main(["--config", cfg_path, "--out", out, "cost",
                         "--variant", "mpfg", "--full-scale"]) == 0
        data = json.loads(open(os.path.join(out, "cost_mpfg.json")).read())
        assert data["block_total"] == 1_350_041_600
        assert "1,350,041,600" in capsys.readouterr().out

    def test_train_infer_eval_roundtrip(self, tmp_path, capsys):
        ds_dir = str(tmp_path / "data")
        spec = pl.SyntheticSpec(num_videos=4, channels=4, seed=9)
        ds, _ = pl.synth_dataset(spec)
        ann_path = pl.write_dataset(ds, ds_dir)
        cfg = tiny_run_config(tmp_path, features_dir=os.path.join(ds_dir, "features"),
                              annotations_path=ann_path)
        cfg_path = str(tmp_path / "cfg.json")
        cfg.save(cfg_path)
        out = str(tmp_path / "run_out")
        assert cli_main(["--config", cfg_path, "--out", out, "train"]) == 0
        ckpt = os.path.join(out, "checkpoints", "epoch_001.ckpt")
        assert os.path.exists(ckpt)
        assert cli_main(["--config", cfg_path, "--out", out, "infer",
                         "--checkpoint", ckpt]) == 0
        props_path = os.path.join(out, "proposals.json")
        assert os.path.exists(props_path)
        assert cli_main(["--config", cfg_path, "--out", out, "eval",
                         "--proposals", props_path, "--annotations", ann_path]) == 0
        report = json.loads(open(os.path.join(out, "eval_report.json")).read())
        assert 0.0 <= report["auc"] <= 100.0

    def test_train_resume_numbers_the_epochs_it_ran(self, tmp_path, capsys):
        ds_dir = str(tmp_path / "data")
        ds, _ = pl.synth_dataset(pl.SyntheticSpec(num_videos=4, channels=4, seed=9))
        ann_path = pl.write_dataset(ds, ds_dir)
        paths = {}
        for epochs in (1, 2):
            cfg = tiny_run_config(tmp_path, epochs=epochs, annotations_path=ann_path,
                                  features_dir=os.path.join(ds_dir, "features"))
            paths[epochs] = str(tmp_path / f"cfg{epochs}.json")
            cfg.save(paths[epochs])
        out = str(tmp_path / "run_out")
        assert cli_main(["--config", paths[1], "--out", out, "train"]) == 0
        capsys.readouterr()
        ckpt = os.path.join(out, "checkpoints", "epoch_001.ckpt")
        assert cli_main(["--config", paths[2], "--out", out, "train", "--resume", ckpt]) == 0
        printed = capsys.readouterr().out
        assert "trained 1 epochs" in printed
        assert "epoch 2:" in printed and "epoch 1:" not in printed

    def test_bench_command_with_size_flags(self, tmp_path, capsys):
        out = str(tmp_path / "bench_out")
        assert cli_main(["--out", out, "bench", "--repetitions", "10", "--batch", "2",
                         "--temporal-length", "8", "--channels", "2"]) == 0
        data = json.loads(open(os.path.join(out, "bench.json")).read())
        assert data["mpfg"]["repetitions"] == 10
        assert "speedup" in capsys.readouterr().out

    def test_probe_command(self, tmp_path, capsys):
        ds_dir = str(tmp_path / "data")
        spec = pl.SyntheticSpec(num_videos=2, channels=4, seed=4)
        ds, _ = pl.synth_dataset(spec)
        ann_path = pl.write_dataset(ds, ds_dir)
        cfg = tiny_run_config(tmp_path, features_dir=os.path.join(ds_dir, "features"),
                              annotations_path=ann_path)
        cfg_path = str(tmp_path / "cfg.json")
        cfg.save(cfg_path)
        out = str(tmp_path / "probe_run")
        assert cli_main(["--config", cfg_path, "--out", out, "train"]) == 0
        ckpt = os.path.join(out, "checkpoints", "epoch_001.ckpt")
        assert cli_main(["--config", cfg_path, "--out", out, "probe",
                         "--checkpoint", ckpt, "--fractions", "0.2", "--trials", "2"]) == 0
        assert "fraction 0.20" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "probe_report.json"))

    def test_sweep_command(self, tmp_path, capsys):
        cfg = tiny_run_config(tmp_path)
        cfg_path = str(tmp_path / "cfg.json")
        cfg.save(cfg_path)
        out = str(tmp_path / "sweep_out")
        assert cli_main(["--config", cfg_path, "--out", out, "sweep", "--axis", "r_d",
                         "--values", "1", "2", "--train-videos", "4",
                         "--eval-videos", "2"]) == 0
        lines = open(os.path.join(out, "sweep_r_d.csv")).read().strip().splitlines()
        assert len(lines) == 3

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = tiny_run_config(tmp_path)
        cfg.synthetic = {"num_videos": 1, "channels": 4, "seed": 0}
        cfg_path = str(tmp_path / "cfg.json")
        cfg.save(cfg_path)
        env_out = str(tmp_path / "env_out")
        monkeypatch.setenv("SMBG_OUT", env_out)
        assert cli_main(["--config", cfg_path, "synth"]) == 0
        assert os.path.exists(os.path.join(env_out, "annotations.json"))


class TestRunPipeline:
    def test_full_pipeline_produces_reports(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        out = str(tmp_path / "pipe")
        result = pl.run_pipeline(cfg, out, n_train=4, n_eval=2)
        assert os.path.exists(result["proposals_path"])
        assert os.path.exists(result["report_path"])
        assert 0.0 <= result["report"].auc <= 100.0
