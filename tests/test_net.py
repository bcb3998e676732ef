"""Network blocks: masks, band layer + oracle, heads, baseline, checkpoints."""

import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smbg import losses, tensor as t
from smbg.net import (BandSpec, BandSpecError, BmnConfig, BmnPfgReference, ModelConfig,
                      ModelFieldError, SmbgNet, band_cells, build_masks, default_band_spec,
                      load_checkpoint, mpfg_naive_oracle, save_arrays, save_checkpoint)

RNG = t.init_rng(77)


def tiny_config(T=8, bands=None, **kw):
    spec = bands or BandSpec([0, 3, T], [3, 5])
    defaults = dict(in_channels=3, temporal_length=T, base_hidden=4, base_channels=2,
                    sec_hidden=4, dilation=2, band_spec=spec)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestBandSpec:
    def test_default_matches_stock_layout(self):
        spec = default_band_spec(100)
        assert spec.edges == [0, 17, 33, 57, 100]
        assert spec.kernel_sizes == [17, 33, 57, 99]

    def test_edges_not_reaching_t_rejected(self):
        with pytest.raises(ValueError, match="reach"):
            BandSpec([0, 17, 33, 57, 100], [17, 33, 57, 99]).validate(128)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            BandSpec([0, 4, 8], [3, 4]).validate(8)

    def test_kernel_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            BandSpec([0, 4, 8], [3]).validate(8)

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            BandSpec([0, 5, 5, 8], [3, 3, 3]).validate(8)


class TestMasks:
    def test_stock_spec_covers_upper_triangle(self):
        masks = build_masks(100, default_band_spec(100))
        assert sum(m.sum() for m in masks) == 100 * 101 / 2

    def test_first_band_cell_count(self):
        # durations 0..16: sum_{d=0}^{16} (100 - d) = 1564
        masks = build_masks(100, default_band_spec(100))
        assert masks[0].sum() == 1564

    def test_small_enumeration(self):
        masks = build_masks(4, BandSpec([0, 2, 4], [3, 3]))
        assert masks[0].sum() == 7 and masks[1].sum() == 3

    def test_band_boundary_cell_uses_next_band(self):
        # duration exactly at an edge belongs to the higher band (half-open)
        masks = build_masks(10, BandSpec([0, 3, 10], [3, 3]))
        assert masks[0][0, 2] == 1 and masks[1][0, 3] == 1

    def test_partition_is_exact(self):
        masks = build_masks(20, BandSpec([0, 5, 11, 20], [3, 3, 3]))
        total = np.sum(masks, axis=0)
        np.testing.assert_array_equal(total, np.triu(np.ones((20, 20))))

    def test_band_cells_are_row_runs(self):
        cells = band_cells(build_masks(5, BandSpec([0, 2, 5], [3, 3])))
        assert cells[0] == ((0, 0, 2), (1, 1, 3), (2, 2, 4), (3, 3, 5), (4, 4, 5))
        assert cells[1] == ((0, 2, 5), (1, 3, 5), (2, 4, 5))

    def test_band_cells_cover_exactly_the_mask(self):
        mask = np.zeros((4, 6))
        mask[0, [0, 1, 3, 5]] = 1  # three runs in one row
        mask[2, 2:6] = 1
        (runs,) = band_cells([mask])
        assert runs == ((0, 0, 2), (0, 3, 4), (0, 5, 6), (2, 2, 6))
        rebuilt = np.zeros_like(mask)
        for s, e0, e1 in runs:
            rebuilt[s, e0:e1] = 1
        np.testing.assert_array_equal(rebuilt, mask)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(5, 40), st.data())
    def test_partition_random_specs(self, T, data):
        n_cuts = data.draw(st.integers(0, min(4, T - 1)))
        cuts = sorted(data.draw(st.sets(st.integers(1, T - 1), min_size=n_cuts,
                                        max_size=n_cuts)))
        edges = [0] + cuts + [T]
        spec = BandSpec(edges, [3] * (len(edges) - 1))
        total = np.sum(build_masks(T, spec), axis=0)
        np.testing.assert_array_equal(total, np.triu(np.ones((T, T))))


class TestBaseAndBoundary:
    def test_zero_input_zero_bias_gives_zero(self):
        net = SmbgNet(tiny_config(), seed=0)
        out = net.base_module(t.Tensor(np.zeros((2, 3, 8))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape_contract(self):
        cfg = tiny_config()
        net = SmbgNet(cfg, seed=0)
        out = net.base_module(t.Tensor(RNG.standard_normal((3, 3, 8))))
        assert out.data.shape == (3, cfg.base_channels, 8)

    def test_temporal_length_mismatch_rejected(self):
        net = SmbgNet(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="temporal length"):
            net.base_module(t.Tensor(np.zeros((1, 3, 9))))

    def test_bad_temporal_length_rejected(self):
        with pytest.raises(ValueError, match="temporal length"):
            ModelConfig(in_channels=3, temporal_length=0)

    # every integer field, including any added later, is type-checked by name
    @pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig) if f.type == "int"])
    @pytest.mark.parametrize("value", [4.0, "4", True])
    def test_integer_field_of_wrong_type_named(self, name, value):
        with pytest.raises(ModelFieldError) as info:
            tiny_config(**{name: value})
        assert info.value.field == name
        assert info.value.problem == f"must be an integer, got {value!r}"

    @pytest.mark.parametrize("spec", [[0, 8], {"edges": [0, "a"], "kernel_sizes": [3]}])
    def test_malformed_band_spec_is_band_spec_error(self, spec):
        with pytest.raises(BandSpecError):
            tiny_config(bands=spec)

    def test_band_spec_defaults_to_temporal_length(self):
        assert ModelConfig(temporal_length=40).band_spec == default_band_spec(40)

    def test_boundary_outputs_in_open_unit_interval(self):
        net = SmbgNet(tiny_config(), seed=1)
        p_s, p_e = net.boundary_head(net.base_module(t.Tensor(RNG.standard_normal((2, 3, 8)))))
        for p in (p_s, p_e):
            assert p.data.shape == (2, 8)
            assert np.all(p.data > 0) and np.all(p.data < 1)

    def test_zero_weights_give_half(self):
        net = SmbgNet(tiny_config(), seed=0)
        for layer in (net.start1, net.start2, net.end1, net.end2):
            layer.w.data[...] = 0.0
        p_s, p_e = net.boundary_head(net.base_module(t.Tensor(RNG.standard_normal((1, 3, 8)))))
        np.testing.assert_array_equal(p_s.data, 0.5)
        np.testing.assert_array_equal(p_e.data, 0.5)


class TestMpfg:
    def test_zero_band_convs_give_zero_map(self):
        net = SmbgNet(tiny_config(), seed=0)
        for conv in net.band_starts + net.band_ends:
            conv.w.data[...] = 0.0
        f_b = t.Tensor(RNG.standard_normal((2, 2, 8)))
        np.testing.assert_array_equal(net.mpfg_forward(f_b).data, 0.0)

    def test_single_band_identity_kernels_trace_features(self):
        cfg = tiny_config(bands=BandSpec([0, 8], [1]))
        net = SmbgNet(cfg, seed=0)
        eye = np.eye(cfg.band_channels)[:, :, None]
        net.band_starts[0].w.data[...] = eye
        net.band_ends[0].w.data[...] = eye
        net.band_starts[0].b.data[...] = 0.0
        net.band_ends[0].b.data[...] = 0.0
        f_b = t.Tensor(RNG.standard_normal((2, 2, 8)))
        f_p = net.mpfg_forward(f_b).data
        C = cfg.band_channels
        for s in range(8):
            for e in range(s, 8):
                np.testing.assert_allclose(f_p[:, :C, s, e], f_b.data[:, :, s])
                np.testing.assert_allclose(f_p[:, C:, s, e], f_b.data[:, :, e])

    @pytest.mark.parametrize("T", [8, 16])
    def test_matches_naive_oracle(self, T):
        cfg = tiny_config(T=T, bands=BandSpec([0, max(2, T // 3), T], [5, 7]),
                          band_channels=3)
        net = SmbgNet(cfg, seed=4)
        for trial in range(5):
            f_b = t.Tensor(RNG.standard_normal((2, 2, T)))
            got = net.mpfg_forward(f_b).data
            want = mpfg_naive_oracle(f_b, cfg.band_spec, net)
            assert np.abs(got - want).max() < 1e-12

    def test_zero_below_diagonal(self):
        net = SmbgNet(tiny_config(), seed=2)
        f_p = net.mpfg_forward(t.Tensor(RNG.standard_normal((1, 2, 8)))).data
        assert np.abs(np.tril(f_p, -1)).max() == 0.0

    def test_no_grad_forward_equals_graph_forward(self):
        # the benchmark times mpfg_forward without a graph; it must be the same map
        cfg = tiny_config(T=12, bands=BandSpec([0, 4, 12], [3, 7]), band_channels=4)
        net = SmbgNet(cfg, seed=5)
        x = RNG.standard_normal((3, 2, 12))
        graph = net.mpfg_forward(t.Tensor(x, requires_grad=True))
        with t.no_grad():
            bare = net.mpfg_forward(t.Tensor(x, requires_grad=True))
        assert graph.requires_grad and not bare.requires_grad and not bare._parents
        np.testing.assert_array_equal(bare.data, graph.data)

    def test_locality_of_cell_features(self):
        # k_max = 5 -> features farther than 2 from both s and e are invisible
        cfg = tiny_config(T=16, bands=BandSpec([0, 16], [5]))
        net = SmbgNet(cfg, seed=6)
        x = RNG.standard_normal((1, 2, 16))
        base = net.mpfg_forward(t.Tensor(x)).data[0, :, 3, 12]
        x2 = x.copy()
        x2[:, :, 7] += 10.0  # distance 4 from s=3, 5 from e=12
        moved = net.mpfg_forward(t.Tensor(x2)).data[0, :, 3, 12]
        np.testing.assert_array_equal(base, moved)


def _forward_cases():
    from smbg import pipeline as pl
    return [pl.RunConfig().model_config(),
            tiny_config(T=16, bands=BandSpec([0, 1, 6, 16], [5, 3, 9]), band_channels=3,
                        sec_hidden=5, dilation=9),
            pl.RunConfig(window_mode=True).model_config(),
            # dilation 6 reaches 12 diagonals below e = s: 6 cells lie further below
            tiny_config(T=16, bands=BandSpec([0, 1, 6, 16], [5, 3, 9]), band_channels=3,
                        sec_hidden=5, dilation=6)]


def _desk_batch():
    """RunConfig() and one desk training batch (B=16, T=100): x and (g_s, g_e, g_c)."""
    from smbg import pipeline as pl
    cfg = pl.RunConfig()
    train_ds, *_ = pl.make_benchmark_datasets(0, n_train=cfg.batch_size, n_eval=1,
                                              channels=cfg.in_channels)
    batch = pl.build_samples(train_ds, cfg)[:cfg.batch_size]
    labels = tuple(np.stack([b[k] for b in batch]) for k in ("g_s", "g_e", "g_c"))
    return cfg, np.stack([b["x"] for b in batch]), labels


def _train_step(cfg, outputs, labels):
    """Loss and backward of one training step on the forward's outputs."""
    loss, _ = losses.total_loss(outputs, *labels, cfg.sampling_config(),
                                beta=cfg.guidance_beta, lam=cfg.confidence_lambda)
    loss.backward()


def _dense_tail_forward(net, x):
    """forward(x, train=True) with the tail unweighted on all T*T cells: the far cells'
    stand-in is copied to every cell it stands for before the tail runs."""
    T = net.config.temporal_length
    f_b = net.base_module(x)
    p_s, p_e = net.boundary_head(f_b)
    starts, ends = net.band_sequences(f_b)
    h = t.band_map_conv(starts, ends, net.config.band_spec.edges, net.sec_dil.w,
                        net.sec_dil.b, net.sec_dil.dilation, lower=True)
    B, H, n, _ = h.shape
    cells = np.minimum(np.arange(T * T), n - 1)
    h = t.take_cells(h, (np.arange(B)[:, None, None, None], np.arange(H)[None, :, None, None],
                         cells[None, None, :, None], np.zeros((1, 1, 1, 1), dtype=int)))
    maps = t.scatter_upper(net._sec_tail(h, True), T)
    return {"P_s": p_s, "P_e": p_e,
            "P_c": t.select_channel(maps, 0), "P_r": t.select_channel(maps, 1)}


class TestFusedForward:
    """forward() fuses sec_dil into the band layer; sec_head(mpfg_forward) is its reference."""

    @pytest.mark.parametrize("train", [True, False])
    def test_matches_dense_reference_path(self, train):
        # desk T=100, T=16 with odd bands and dilation 9 > T/2 (no cell below the strip),
        # window T=128, and T=16 with 6 cells below the strip
        for config in _forward_cases():
            net = SmbgNet(config, seed=13)
            ref_net = SmbgNet(config, seed=13)
            for n in (net, ref_net):
                _non_identity_batchnorm(n, seed=14)
            T = config.temporal_length
            x = t.Tensor(RNG.standard_normal((2, config.in_channels, T)))
            got = net.forward(x, train=train)
            f_b = ref_net.base_module(x)
            want = ref_net.sec_head(ref_net.mpfg_forward(f_b), train=train)
            upper = np.triu(np.ones((T, T), dtype=bool))
            for key, ref in zip(("P_c", "P_r"), want):
                assert got[key].data.shape == (2, T, T)
                assert np.abs(got[key].data[:, upper] - ref.data[:, upper]).max() <= 1e-12
                assert np.all(got[key].data[:, ~upper] == 0.0)
            # train mode pools all T*T cells into the batchnorm running statistics, the
            # cells below the strip through their one stand-in
            for name in ("sec_bn1", "sec_bn2", "sec_bn3"):
                for stat in ("running_mean", "running_var"):
                    np.testing.assert_allclose(getattr(getattr(net, name), stat),
                                               getattr(getattr(ref_net, name), stat),
                                               rtol=0, atol=1e-12)

    def test_desk_step_grads_match_unweighted_dense_tail(self):
        cfg, x, labels = _desk_batch()
        grads = []
        for forward in (lambda net, x: net.forward(x, train=True), _dense_tail_forward):
            net = SmbgNet(cfg.model_config(), seed=0)
            _train_step(cfg, forward(net, t.Tensor(x)), labels)
            grads.append([(name, p.grad) for name, p in net.named_parameters()])
        for (name, got), (_, want) in zip(*grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_desk_step_peak_memory(self):
        # forward, loss and backward of one desk step peak near 171 MB. Keeping every
        # intermediate gradient until the graph is dropped peaks near 218 MB, an
        # unfused relu -> batchnorm -> 1x1 conv tail near 413 MB, and a tail run on
        # all T*T cells instead of the strip and one stand-in near 574 MB
        cfg, x, labels = _desk_batch()
        net = SmbgNet(cfg.model_config(), seed=0)
        tracemalloc.start()
        try:
            _train_step(cfg, net.forward(t.Tensor(x), train=True), labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 250e6, f"peak {peak / 1e6:.1f} MB"

    def test_output_has_no_proposal_map(self):
        net = SmbgNet(tiny_config(), seed=1)
        out = net.forward(t.Tensor(RNG.standard_normal((1, 3, 8))))
        assert set(out) == {"f_b", "P_s", "P_e", "P_c", "P_r"}

    def test_training_step_never_builds_map_or_im2col(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense proposal map path used")

        monkeypatch.setattr(t, "assemble_band_maps", refuse)
        monkeypatch.setattr(t, "_im2col2d", refuse)
        net = SmbgNet(tiny_config(T=12, bands=BandSpec([0, 4, 12], [3, 5])), seed=2)
        out = net.forward(t.Tensor(RNG.standard_normal((2, 3, 12))), train=True)
        t.tsum(t.add(out["P_c"], out["P_r"])).backward()
        assert net.sec_dil.w.grad is not None and net.band_starts[0].w.grad is not None


def _non_identity_batchnorm(net, seed):
    """Running statistics and affine far from a fresh BatchNormState's near-identity."""
    rng = t.init_rng(seed)
    for bn in (net.sec_bn1, net.sec_bn2, net.sec_bn3):
        n = bn.gamma.data.size
        bn.running_mean = rng.normal(0.0, 0.7, n)
        bn.running_var = rng.uniform(0.2, 4.0, n)
        bn.gamma.data[...] = rng.uniform(0.3, 2.5, n) * rng.choice([-1.0, 1.0], n)
        bn.beta.data[...] = rng.normal(0.0, 0.5, n)


def _predict_cases():
    from smbg import costmodel, pipeline as pl
    return [
        ("desk_T100_B16", pl.RunConfig().model_config(), 16),
        ("published_B2", costmodel.full_scale_model_config(), 2),
        ("T16_odd_bands_dilation9",
         tiny_config(T=16, bands=BandSpec([0, 1, 6, 16], [5, 3, 9]), band_channels=3,
                     sec_hidden=5, dilation=9), 3),
        ("window_T128", pl.RunConfig(window_mode=True).model_config(), 3),
    ]


def _dense_eval_reference(net, x):
    """The dense eval forward's (P_c, P_r): the proposal map, each eval batchnorm its own
    op; one video at a time, so the dense 3x3 im2col stays one video's size."""
    outs = []
    for video in x:
        h = net.sec_dil(net.mpfg_forward(net.base_module(t.Tensor(video[None]))))
        for bn, conv in ((net.sec_bn1, net.sec_c1), (net.sec_bn2, net.sec_c2),
                         (net.sec_bn3, net.sec_c3)):
            h = conv(t.batchnorm_lite(t.relu(h), bn, False))
        outs.append(t.sigmoid(h).data[0])
    out = np.stack(outs)
    return out[:, 0], out[:, 1]


class TestPredict:
    """predict() is forward(x, train=False) without a graph; its reference is the dense
    map head with unfolded eval batchnorm."""

    @pytest.mark.parametrize("config,B", [c[1:] for c in _predict_cases()],
                             ids=[c[0] for c in _predict_cases()])
    def test_matches_eval_forward_on_valid_cells(self, config, B):
        net = SmbgNet(config, seed=21)
        _non_identity_batchnorm(net, seed=22)
        T = config.temporal_length
        x = RNG.standard_normal((B, config.in_channels, T))
        got = dict(zip(("P_s", "P_e", "P_c", "P_r"), net.predict(x)))
        with t.no_grad():
            p_s, p_e = net.boundary_head(net.base_module(t.Tensor(x)))
            want = _dense_eval_reference(net, x)
        np.testing.assert_array_equal(got["P_s"], p_s.data)
        np.testing.assert_array_equal(got["P_e"], p_e.data)
        upper = np.triu(np.ones((T, T), dtype=bool))
        for key, ref in zip(("P_c", "P_r"), want):
            assert got[key].shape == (B, T, T)
            assert np.abs(got[key][:, upper] - ref[:, upper]).max() <= 1e-12
            assert np.all(got[key][:, ~upper] == 0.0)

    def test_is_eval_forward_without_graph(self, monkeypatch):
        net = SmbgNet(tiny_config(T=12, bands=BandSpec([0, 4, 12], [3, 5])), seed=5)
        calls = []
        forward = net.forward

        def spied(x, train=False):
            calls.append((t._grad_enabled, train))
            return forward(x, train)

        monkeypatch.setattr(net, "forward", spied)
        x = RNG.standard_normal((2, 3, 12))
        got = net.predict(x)
        assert calls == [(False, False)]
        want = forward(t.Tensor(x), train=False)
        for g, key in zip(got, ("P_s", "P_e", "P_c", "P_r")):
            assert isinstance(g, np.ndarray)
            np.testing.assert_array_equal(g, want[key].data)

    def test_band_convs_run_only_where_read(self, monkeypatch):
        cfg = tiny_config(T=16, bands=BandSpec([0, 1, 6, 16], [5, 3, 9]), dilation=9)
        seen = []
        band_map_conv = t.band_map_conv

        def computed_rows(x):
            rows = np.flatnonzero(np.any(x.data != 0.0, axis=(0, 1)))
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
            return int(rows[0]), int(rows[-1]) + 1

        def spy(starts, ends, edges, *rest, **kw):
            assert all(x.shape == (2, cfg.band_channels, 16) for x in (*starts, *ends))
            seen.append(([computed_rows(x) for x in starts], [computed_rows(x) for x in ends]))
            return band_map_conv(starts, ends, edges, *rest, **kw)

        monkeypatch.setattr(t, "band_map_conv", spy)
        net = SmbgNet(cfg, seed=3)
        x = RNG.standard_normal((2, 3, 16))
        net.predict(x)
        net.forward(t.Tensor(x), train=True)
        assert seen == [([(0, 16), (0, 15), (0, 10)], [(0, 16), (1, 16), (6, 16)])] * 2

    def test_forward_and_predict_get_band_sequences_from_one_place(self, monkeypatch):
        net = SmbgNet(tiny_config(T=12, bands=BandSpec([0, 4, 12], [3, 5])), seed=6)
        calls = []
        band_sequences = net.band_sequences

        def spied(f_b):
            calls.append(f_b.data.shape)
            return band_sequences(f_b)

        monkeypatch.setattr(net, "band_sequences", spied)
        x = RNG.standard_normal((2, 3, 12))
        net.forward(t.Tensor(x), train=True)
        net.predict(x)
        with t.no_grad():
            net.mpfg_forward(net.base_module(t.Tensor(x)))
        assert calls == [(2, 2, 12)] * 3

    def test_folded_batchnorm_is_the_eval_affine(self):
        net = SmbgNet(tiny_config(sec_hidden=6), seed=4)
        _non_identity_batchnorm(net, seed=5)
        h = RNG.standard_normal((3, 6, 8, 8))
        w, b = net.sec_c1.w.data, net.sec_c1.b.data
        with t.no_grad():
            want = net.sec_c1(t.batchnorm_lite(t.Tensor(h), net.sec_bn1, False)).data
        w2, b2 = t.fold_batchnorm(net.sec_bn1, w[:, :, 0, 0], b)
        got = np.einsum("oc,bchw->bohw", w2, h) + b2[:, None, None]
        assert np.abs(got - want).max() <= 1e-12


class TestTrimBound:
    """Band i's start sequence is read only at s < T - edges[i], its end sequence
    only at e >= edges[i]: values elsewhere change no cell and get no gradient."""

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("bands,dilation", [(BandSpec([0, 1, 6, 16], [5, 3, 9]), 9),
                                                (BandSpec([0, 4, 9, 16], [3, 5, 7]), 2)])
    def test_unread_band_positions_change_no_cell(self, monkeypatch, train, bands, dilation):
        cfg = tiny_config(T=16, bands=bands, band_channels=3, sec_hidden=5,
                          dilation=dilation)
        x = t.Tensor(RNG.standard_normal((2, 3, 16)))
        noise = t.init_rng(9)
        outs, seqs, received = [], [], {}

        def receiving(seq, adjoint):  # the sweep frees seq.grad once this has run
            def backward(g):
                received[id(seq)] = g
                return adjoint(g)
            return backward

        for perturb in (False, True):
            net = SmbgNet(cfg, seed=8)
            _non_identity_batchnorm(net, seed=10)
            band_sequences = net.band_sequences

            def spied(f_b, perturb=perturb):
                starts, ends = band_sequences(f_b)
                for lo, s, e in zip(bands.edges, starts, ends):
                    if perturb:  # only where the trim bound says nothing reads
                        s.data[:, :, 16 - lo:] += noise.normal(0, 50, (2, 3, lo))
                        e.data[:, :, :lo] += noise.normal(0, 50, (2, 3, lo))
                for seq in (*starts, *ends):
                    seq._backward = receiving(seq, seq._backward)
                seqs.append((starts, ends))
                return starts, ends

            monkeypatch.setattr(net, "band_sequences", spied)
            out = net.forward(x, train=train)
            if train:
                t.tsum(t.mul(t.add(out["P_c"], out["P_r"]),
                             RNG.standard_normal(out["P_c"].shape))).backward()
            outs.append((out["P_c"].data, out["P_r"].data))
        for got, want in zip(*outs):
            np.testing.assert_array_equal(got, want)  # all T*T cells
        if train:
            starts, ends = seqs[1]
            for lo, s, e in zip(bands.edges, starts, ends):
                gs, ge = received[id(s)], received[id(e)]
                assert np.all(gs[:, :, 16 - lo:] == 0) and np.all(ge[:, :, :lo] == 0)
                assert np.any(gs[:, :, :16 - lo] != 0) and np.any(ge[:, :, lo:] != 0)


class TestSecHead:
    def test_outputs_in_unit_interval(self):
        net = SmbgNet(tiny_config(), seed=3)
        out = net.forward(t.Tensor(RNG.standard_normal((2, 3, 8))), train=True)
        upper = np.triu(np.ones((8, 8), dtype=bool))  # cells e < s are defined as 0
        for key in ("P_c", "P_r"):
            cells = out[key].data[:, upper]
            assert np.all(cells > 0) and np.all(cells < 1)

    def test_zero_weights_give_half(self):
        net = SmbgNet(tiny_config(), seed=0)
        net.sec_c3.w.data[...] = 0.0
        net.sec_c3.b.data[...] = 0.0
        out = net.forward(t.Tensor(RNG.standard_normal((1, 3, 8))), train=False)
        upper = np.triu(np.ones((8, 8), dtype=bool))  # cells e < s are defined as 0
        np.testing.assert_array_equal(out["P_c"].data[:, upper], 0.5)

    def test_receptive_field_bounded_by_dilation(self):
        # eval-mode head: cell (s,e) only sees f_p within Chebyshev distance r_d
        cfg = tiny_config(T=16, dilation=3)
        net = SmbgNet(cfg, seed=7)
        f_p = RNG.standard_normal((1, 2 * cfg.band_channels, 16, 16))
        a = net.sec_head(t.Tensor(f_p), train=False)[0].data[0, 4, 9]
        f_p2 = f_p.copy()
        f_p2[:, :, 9, 14] += 5.0  # Chebyshev distance 5 > r_d = 3
        b = net.sec_head(t.Tensor(f_p2), train=False)[0].data[0, 4, 9]
        assert a == b
        f_p3 = f_p.copy()
        f_p3[:, :, 4 + 3, 9 + 3] += 5.0  # exactly at distance r_d: visible
        c = net.sec_head(t.Tensor(f_p3), train=False)[0].data[0, 4, 9]
        assert c != a


def sample_loop_oracle(ref, x):
    """Direct per-point interpolation; oracle for BmnPfgReference.sample()."""
    B, N, T = x.shape
    c = ref.config
    out = np.zeros((B, N, c.sample_count, T, T))
    for s in range(T):
        for e in range(s, T):
            pts = ref.sample_positions(s, e, c.sample_count, c.expansion, T)
            for q, p in enumerate(pts):
                i0 = int(np.floor(p))
                i1 = min(i0 + 1, T - 1)
                f = p - i0
                out[:, :, q, s, e] = (1.0 - f) * x[:, :, i0] + f * x[:, :, i1]
    return out


class TestBmnReference:
    def test_constant_features_sample_to_constant(self):
        cfg = BmnConfig(channels=3, temporal_length=12, sample_count=8)
        ref = BmnPfgReference(cfg, seed=0)
        out = ref.sample(np.full((1, 3, 12), 4.25))
        ss, ee = np.triu_indices(12)
        np.testing.assert_allclose(out[:, :, :, ss, ee], 4.25)
        lo, hi = np.tril_indices(12, -1)
        np.testing.assert_array_equal(out[:, :, :, lo, hi], 0.0)

    def test_degenerate_cell_samples_near_start(self):
        cfg = BmnConfig(channels=1, temporal_length=10, sample_count=4)
        pts = BmnPfgReference.sample_positions(3, 3, cfg.sample_count, cfg.expansion, 10)
        assert np.all(pts >= 2.7) and np.all(pts <= 4.3)

    def test_matches_interpolation_loop(self):
        cfg = BmnConfig(channels=4, temporal_length=16, sample_count=6)
        ref = BmnPfgReference(cfg, seed=1)
        x = RNG.standard_normal((2, 4, 16))
        fast = ref.sample(x)
        slow = sample_loop_oracle(ref, x)
        assert np.abs(fast - slow).max() < 1e-12

    def test_forward_block_shape(self):
        cfg = BmnConfig(channels=3, temporal_length=10, sample_count=4,
                        hidden_3d=6, hidden_2d=5)
        ref = BmnPfgReference(cfg, seed=2)
        out = ref.forward_block(RNG.standard_normal((2, 3, 10)))
        assert out.shape == (2, 2, 10, 10)


class TestFullForwardGradient:
    def test_forward_pass_matches_finite_differences(self):
        cfg = tiny_config(T=8)
        net = SmbgNet(cfg, seed=9)
        rng = t.init_rng(99)
        for name, p in net.named_parameters():
            if name.endswith(".b") or name.endswith("beta"):
                p.data[...] = rng.standard_normal(p.data.shape) * 0.05
        x = rng.standard_normal((2, 3, 8))
        r_t = rng.standard_normal((2, 8))
        r_m = rng.standard_normal((2, 8, 8))

        def f(_):
            out = net.forward(t.Tensor(x), train=True)
            return t.add(t.add(t.tsum(t.mul(out["P_s"], r_t)), t.tsum(t.mul(out["P_e"], r_t))),
                         t.add(t.tsum(t.mul(out["P_c"], r_m)), t.tsum(t.mul(out["P_r"], r_m))))

        assert t.grad_check(f, net.parameters(), eps=1e-5) < 1e-4


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = tiny_config()
        net = SmbgNet(cfg, seed=11)
        net.sec_bn1.running_mean[...] = RNG.standard_normal(cfg.sec_hidden)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, net, {"epoch": 3})
        net2, header = load_checkpoint(path)
        assert header["epoch"] == 3
        for (n1, p1), (n2, p2) in zip(net.named_parameters(), net2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        np.testing.assert_array_equal(net.sec_bn1.running_mean, net2.sec_bn1.running_mean)

    def test_missing_file_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    @staticmethod
    def _saved(tmp_path, name="model.ckpt"):
        path = str(tmp_path / name)
        save_checkpoint(path, SmbgNet(tiny_config(), seed=15), {"epoch": 1})
        return path

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "ab") as f:
            f.write(b"\0" * 8)
        with pytest.raises(ValueError, match=r"model\.ckpt: 8 trailing bytes after array "
                                             r"'sec_bn3\.running_var'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep,what", [(7, "header length"), (40, "header"),
                                           (-3, "array 'sec_bn3.running_var'")])
    def test_truncated_file_names_the_part(self, tmp_path, keep, what):
        path = self._saved(tmp_path)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:keep])
        with pytest.raises(ValueError, match=rf"model\.ckpt: truncated in {what}"):
            load_checkpoint(path)

    def test_missing_buffer_named(self, tmp_path):
        net = SmbgNet(tiny_config(), seed=14)
        path = str(tmp_path / "nobuf.ckpt")
        save_arrays(path, {"model_config": net.config.to_dict()},
                    [(n, p.data) for n, p in net.named_parameters()])
        with pytest.raises(ValueError, match=r"nobuf\.ckpt is missing buffer "
                                             r"'sec_bn1\.running_mean'"):
            load_checkpoint(path)

    def test_interrupted_save_leaves_previous_file(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "rb") as f:
            before = f.read()
        with pytest.raises(ValueError):
            # the second array cannot become float64, so the write stops midway
            save_arrays(path, {}, [("a", np.ones(4)), ("b", np.array(["x"]))])
        with open(path, "rb") as f:
            assert f.read() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_checkpoint_with_duration_mask_mode_loads(self, tmp_path):
        net = SmbgNet(tiny_config(), seed=14)
        path = str(tmp_path / "old.ckpt")
        header = {"model_config": dict(net.config.to_dict(), mask_mode="duration")}
        save_arrays(path, header, [(n, p.data) for n, p in net.named_parameters()]
                    + net.named_buffers())
        net2, _ = load_checkpoint(path)
        np.testing.assert_array_equal(net2.sec_dil.w.data, net.sec_dil.w.data)

    def test_checkpoint_with_literal_mask_mode_rejected(self, tmp_path):
        net = SmbgNet(tiny_config(), seed=14)
        path = str(tmp_path / "literal.ckpt")
        header = {"model_config": dict(net.config.to_dict(), mask_mode="literal")}
        save_arrays(path, header, [(n, p.data) for n, p in net.named_parameters()]
                    + net.named_buffers())
        with pytest.raises(ValueError, match="mask_mode 'literal'"):
            load_checkpoint(path)

    @staticmethod
    def _saved_with_model_config(tmp_path, model_config):
        net = SmbgNet(tiny_config(), seed=14)
        path = str(tmp_path / "bad.ckpt")
        header = {} if model_config is None else {"model_config": model_config}
        save_arrays(path, header, [(n, p.data) for n, p in net.named_parameters()]
                    + net.named_buffers())
        return path

    def test_missing_model_config_named(self, tmp_path):
        path = self._saved_with_model_config(tmp_path, None)
        with pytest.raises(ValueError, match=r"bad\.ckpt: header has no 'model_config'"):
            load_checkpoint(path)

    def test_unknown_model_config_field_named(self, tmp_path):
        cfg = dict(tiny_config().to_dict(), widths=[1, 2])
        path = self._saved_with_model_config(tmp_path, cfg)
        with pytest.raises(ValueError, match=r"bad\.ckpt: model_config: .*unexpected "
                                             r"keyword argument 'widths'"):
            load_checkpoint(path)

    def test_band_spec_without_kernel_sizes_named(self, tmp_path):
        cfg = dict(tiny_config().to_dict(), band_spec={"edges": [0, 3, 8]})
        path = self._saved_with_model_config(tmp_path, cfg)
        with pytest.raises(ValueError,
                           match=r"bad\.ckpt: model_config\.band_spec: .*'kernel_sizes'"):
            load_checkpoint(path)

    def test_band_spec_not_fitting_t_named(self, tmp_path):
        cfg = dict(tiny_config().to_dict(), band_spec={"edges": [0, 3, 10],
                                                       "kernel_sizes": [3, 5]})
        path = self._saved_with_model_config(tmp_path, cfg)
        with pytest.raises(ValueError, match=r"bad\.ckpt: model_config\.band_spec: band "
                                             r"edges must reach T=8, got 10"):
            load_checkpoint(path)

    def test_field_of_wrong_type_named(self, tmp_path):
        cfg = dict(tiny_config().to_dict(), dilation="2")
        path = self._saved_with_model_config(tmp_path, cfg)
        with pytest.raises(ValueError, match=r"bad\.ckpt: model_config\.dilation must be an "
                                             r"integer, got '2'$"):
            load_checkpoint(path)

    def test_forward_after_roundtrip_identical(self, tmp_path):
        cfg = tiny_config()
        net = SmbgNet(cfg, seed=12)
        x = RNG.standard_normal((2, 3, 8))
        with t.no_grad():
            want = net.forward(t.Tensor(x))["P_c"].data
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, net)
        net2, _ = load_checkpoint(path)
        with t.no_grad():
            got = net2.forward(t.Tensor(x))["P_c"].data
        np.testing.assert_array_equal(want, got)
