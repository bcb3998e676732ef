"""MAC formulas, the counting oracle, and the benchmark harness."""

import numpy as np
import pytest

from smbg import costmodel as cm
from smbg import tensor as t
from smbg.net import BandSpec, BmnConfig, BmnPfgReference, ModelConfig, SmbgNet

RNG = t.init_rng(41)


class TestFormulas:
    def test_conv1d_unit(self):
        assert cm.macs_conv1d(1, 1, 1, 1) == 1

    def test_conv1d_product(self):
        assert cm.macs_conv1d(128, 128, 17, 100) == 27_852_800

    def test_conv1d_linear_in_cout(self):
        assert cm.macs_conv1d(16, 8, 5, 30) * 2 == cm.macs_conv1d(16, 16, 5, 30)

    def test_conv1d_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cm.macs_conv1d(0, 1, 1, 1)

    def test_mpfg_documented_scale_hits_published_figure(self):
        got = cm.macs_mpfg(128, 256, [17, 33, 57, 99], 100)
        assert got == 2 * 128 * 256 * 100 * (17 + 33 + 57 + 99)
        assert got == 1_350_041_600
        assert abs(got - 1.35e9) / 1.35e9 < 1e-4

    def test_mpfg_minimal(self):
        assert cm.macs_mpfg(1, 1, [1], 1) == 2

    def test_mpfg_linear_in_t(self):
        assert cm.macs_mpfg(8, 8, [3, 5], 50) * 2 == cm.macs_mpfg(8, 8, [3, 5], 100)

    def test_bmn_sampling_term(self):
        cfg = BmnConfig(channels=128, temporal_length=100, sample_count=32)
        layers = cm.bmn_layer_macs(cfg)
        assert layers["sampling"] == 128 * 100 * 100 * 100 * 32
        assert layers["sampling"] == 4_096_000_000

    def test_bmn_block_within_factor_two_of_published(self):
        total = cm.macs_bmn_pfg(BmnConfig())
        assert 5.01e10 / 2 <= total <= 5.01e10 * 2

    def test_block_ratio_at_full_scale(self):
        mpfg = cm.macs_mpfg(128, 256, [17, 33, 57, 99], 100)
        bmn = cm.macs_bmn_pfg(BmnConfig())
        assert mpfg / bmn <= 0.05

    def test_zero_samples_leaves_conv_stack(self):
        cfg = BmnConfig(sample_count=1)
        layers = cm.bmn_layer_macs(cfg)
        stack = sum(v for k, v in layers.items() if k != "sampling")
        assert stack > 0
        assert cm.macs_bmn_pfg(cfg) == layers["sampling"] + stack

    def test_counts_scale_linearly_with_batch(self):
        cfg = ModelConfig(in_channels=4, temporal_length=10, base_hidden=4,
                          base_channels=4, sec_hidden=4,
                          band_spec=BandSpec([0, 3, 10], [3, 5]))
        one = cm.smbg_layer_macs(cfg, batch=1)
        three = cm.smbg_layer_macs(cfg, batch=3)
        assert all(three[k] == 3 * one[k] for k in one)

    def test_map_layers_quadratic_in_t(self):
        a = cm.smbg_layer_macs(ModelConfig(in_channels=4, temporal_length=10,
                                           base_hidden=4, base_channels=4, sec_hidden=4,
                                           band_spec=BandSpec([0, 10], [3])))
        b = cm.smbg_layer_macs(ModelConfig(in_channels=4, temporal_length=20,
                                           base_hidden=4, base_channels=4, sec_hidden=4,
                                           band_spec=BandSpec([0, 20], [3])))
        assert b["sec_dil"] == 4 * a["sec_dil"]      # map domain: T^2
        assert b["base1"] == 2 * a["base1"]          # sequence domain: T


def tiny_model(T, seed=0):
    cfg = ModelConfig(in_channels=2, temporal_length=T, base_hidden=3, base_channels=2,
                      boundary_hidden=1, sec_hidden=3, dilation=min(7, max(1, T // 3)),
                      band_spec=BandSpec([0, max(1, T // 3), T],
                                         [3, min(2 * T - 1, 5)]))
    return cfg, SmbgNet(cfg, seed=seed)


class TestInstrumentation:
    @pytest.mark.parametrize("T", [8, 16])
    def test_smbg_counter_equals_formulas(self, T):
        cfg, net = tiny_model(T)
        x = RNG.standard_normal((1, 2, T))
        _, counter = cm.instrument_smbg_forward(net, x)
        want = cm.smbg_layer_macs(cfg, batch=1)
        assert counter.per_layer == want
        assert counter.count == sum(want.values())

    def test_smbg_counter_with_batch(self):
        cfg, net = tiny_model(8)
        x = RNG.standard_normal((3, 2, 8))
        _, counter = cm.instrument_smbg_forward(net, x)
        assert counter.per_layer == cm.smbg_layer_macs(cfg, batch=3)

    def test_instrumented_outputs_match_vectorized_forward(self):
        cfg, net = tiny_model(12, seed=5)
        x = RNG.standard_normal((2, 2, 12))
        ref_out, _ = cm.instrument_smbg_forward(net, x)
        with t.no_grad():
            fast = net.forward(t.Tensor(x), train=False)
        for key in ("P_s", "P_e"):
            np.testing.assert_allclose(ref_out[key], fast[key].data, atol=1e-12)
        upper = np.triu(np.ones((12, 12), dtype=bool))  # forward defines cells e < s as 0
        for key in ("P_c", "P_r"):
            np.testing.assert_allclose(ref_out[key][:, upper], fast[key].data[:, upper],
                                       atol=1e-12)

    def test_instrumented_map_equals_graph_map(self):
        # integer weights and inputs keep every sum exact, so the scalar
        # reference convs and the graph convs must give the same map bit for bit
        cfg = ModelConfig(in_channels=2, temporal_length=12, base_hidden=3, base_channels=2,
                          band_channels=3, boundary_hidden=1, sec_hidden=3, dilation=2,
                          band_spec=BandSpec([0, 2, 5, 12], [3, 5, 7]))
        net = SmbgNet(cfg, seed=3)
        rng = np.random.default_rng(3)
        for _, p in net.named_parameters():
            p.data[...] = rng.integers(-2, 3, p.data.shape)
        x = rng.integers(-3, 4, (2, 2, 12)).astype(float)
        ref_out, _ = cm.instrument_smbg_forward(net, x)
        f_b = net.base_module(t.Tensor(x)).data
        np.testing.assert_array_equal(ref_out["f_b"], f_b)
        graph = net.mpfg_forward(t.Tensor(f_b)).data
        np.testing.assert_array_equal(ref_out["f_p"], graph)
        assert np.count_nonzero(np.triu(graph[0, 0], 5)) > 0  # the last band is populated

    @pytest.mark.parametrize("T", [8, 16])
    def test_bmn_counter_equals_formulas(self, T):
        cfg = BmnConfig(channels=2, temporal_length=T, sample_count=3,
                        hidden_3d=3, hidden_2d=2)
        ref = BmnPfgReference(cfg, seed=1)
        x = RNG.standard_normal((1, 2, T))
        _, counter = cm.instrument_bmn_forward(ref, x)
        assert counter.per_layer == cm.bmn_layer_macs(cfg, batch=1)

    def test_bmn_instrumented_matches_block_forward(self):
        cfg = BmnConfig(channels=2, temporal_length=8, sample_count=3,
                        hidden_3d=3, hidden_2d=2)
        ref = BmnPfgReference(cfg, seed=1)
        x = RNG.standard_normal((2, 2, 8))
        slow, _ = cm.instrument_bmn_forward(ref, x)
        fast = ref.forward_block(x)
        np.testing.assert_allclose(slow, fast, atol=1e-12)


class TestReports:
    def test_smbg_report_totals(self):
        cfg, _ = tiny_model(8)
        report = cm.smbg_cost_report(cfg, batch=2)
        assert report.module_total == sum(l.macs for l in report.layers)
        band_macs = sum(l.macs for l in report.layers if l.name.startswith("band"))
        assert report.block_total == band_macs
        assert report.batch == 2
        assert "channel_assumptions" in report.notes

    def test_bmn_report_totals(self):
        report = cm.bmn_cost_report(BmnConfig(channels=4, temporal_length=10,
                                              sample_count=4, hidden_3d=6, hidden_2d=4))
        assert report.block_total == report.module_total
        assert report.block_total == sum(l.macs for l in report.layers)

    def test_report_json_and_table(self, tmp_path):
        report = cm.smbg_cost_report(tiny_model(8)[0])
        cm.save_cost_report(str(tmp_path / "c.json"), report)
        import json
        loaded = json.loads((tmp_path / "c.json").read_text())
        assert loaded["module_total"] == report.module_total
        table = report.table()
        assert "block total" in table and "module total" in table

    def test_full_scale_config_echo(self):
        cfg = cm.full_scale_model_config()
        assert cfg.base_channels == 128 and cfg.band_channels == 256
        report = cm.smbg_cost_report(cfg)
        assert report.block_total == 1_350_041_600


class TestBench:
    def test_smoke_completes_quickly_at_t8(self):
        import time
        smbg_cfg, _ = tiny_model(8)
        bmn_cfg = BmnConfig(channels=2, temporal_length=8, sample_count=3,
                            hidden_3d=3, hidden_2d=2)
        t0 = time.time()
        result = cm.bench_compare(repetitions=10, warmup=3, batch=2,
                                  smbg_config=smbg_cfg, bmn_config=bmn_cfg)
        assert time.time() - t0 < 10.0
        for variant in ("mpfg", "bmn_pfg"):
            stats = result[variant]
            assert stats["repetitions"] == 10
            assert len(stats["times_s"]) == 10
            assert stats["mean_s"] > 0

    def test_minimum_repetitions_enforced(self):
        with pytest.raises(ValueError, match="repetitions"):
            cm.bench("mpfg", repetitions=5, warmup=3, batch=1,
                     smbg_config=tiny_model(8)[0])
        with pytest.raises(ValueError, match="warmup"):
            cm.bench("mpfg", repetitions=10, warmup=1, batch=1,
                     smbg_config=tiny_model(8)[0])

    def test_mpfg_times_the_model_band_layer_without_gradients(self, monkeypatch):
        calls = []
        forward = SmbgNet.mpfg_forward

        def spy(net, f_b):
            out = forward(net, f_b)
            calls.append((t._grad_enabled, out.requires_grad, out.data.shape))
            return out

        monkeypatch.setattr(SmbgNet, "mpfg_forward", spy)
        cfg, _ = tiny_model(8)
        result = cm.bench("mpfg", repetitions=10, warmup=3, batch=2, smbg_config=cfg)
        assert len(calls) == 13 and len(result.times_s) == 10
        assert set(calls) == {(False, False, (2, 2 * cfg.band_channels, 8, 8))}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            cm.bench("what", repetitions=10, warmup=3)
