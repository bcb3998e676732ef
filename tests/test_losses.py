"""Objectives: weighted logistic loss, sampling rules, fused guidance, totals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smbg import losses, tensor as t
from smbg.labels import ActionInstance, TemporalGrid, build_label_set

RNG = t.init_rng(55)


def upper_cells(B, T):
    ss, ee = np.triu_indices(T)
    return np.repeat(np.arange(B), ss.size), np.tile(ss, B), np.tile(ee, B)


class TestWeightedBlLoss:
    def test_confident_correct_is_near_zero(self):
        p = t.Tensor(np.array([0.999, 0.999, 0.001, 0.001]))
        g = np.array([1.0, 1.0, 0.0, 0.0])
        assert losses.weighted_bl_loss(p, g).item() < 5e-3

    def test_balanced_closed_form(self):
        p = t.Tensor(np.full(4, 0.5))
        g = np.array([1.0, 1.0, 0.0, 0.0])
        assert losses.weighted_bl_loss(p, g).item() == pytest.approx(2 * np.log(2), abs=1e-9)

    def test_imbalanced_closed_form(self):
        p = t.Tensor(np.full(4, 0.5))
        g = np.array([1.0, 0.0, 0.0, 0.0])
        # alpha+ = 4, alpha- = 4/3: (1/4)(4 ln2 + 3*(4/3) ln2) = 2 ln2
        assert losses.weighted_bl_loss(p, g).item() == pytest.approx(2 * np.log(2), abs=1e-9)

    def test_no_positives_drops_positive_term(self):
        p = t.Tensor(np.array([0.2, 0.3]))
        g = np.zeros(2)
        want = -np.mean(np.log(1 - np.array([0.2, 0.3])))
        assert losses.weighted_bl_loss(p, g).item() == pytest.approx(want, abs=1e-12)

    def test_no_negatives_drops_negative_term(self):
        p = t.Tensor(np.array([0.8, 0.6]))
        g = np.ones(2)
        want = -np.mean(np.log(np.array([0.8, 0.6])))
        assert losses.weighted_bl_loss(p, g).item() == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            losses.weighted_bl_loss(t.Tensor(np.zeros(0)), np.zeros(0))

    def test_nonnegative(self):
        for _ in range(20):
            p = t.Tensor(RNG.uniform(0.01, 0.99, 12))
            g = RNG.uniform(0, 1, 12)
            assert losses.weighted_bl_loss(p, g).item() >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_permutation_invariance(self, seed):
        rng = t.init_rng(seed)
        p = rng.uniform(0.05, 0.95, 10)
        g = rng.uniform(0, 1, 10)
        perm = rng.permutation(10)
        a = losses.weighted_bl_loss(t.Tensor(p), g).item()
        b = losses.weighted_bl_loss(t.Tensor(p[perm]), g[perm]).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradient(self):
        p = t.Tensor(RNG.uniform(0.1, 0.9, 16), requires_grad=True)
        g = (RNG.uniform(0, 1, 16) > 0.6).astype(float)
        assert t.grad_check(lambda i: losses.weighted_bl_loss(i[0], g), [p]) < 1e-4


class TestBoundaryLoss:
    def test_confident_predictions_near_zero(self):
        g = np.array([[1.0, 0.0, 0.0, 1.0]])
        p = t.Tensor(np.clip(g, 1e-3, 1 - 1e-3))
        assert losses.boundary_loss(p, p, g, g).item() < 1e-2

    def test_symmetric_in_start_end(self):
        p1 = t.Tensor(RNG.uniform(0.1, 0.9, (2, 6)))
        p2 = t.Tensor(RNG.uniform(0.1, 0.9, (2, 6)))
        g1 = RNG.uniform(0, 1, (2, 6))
        g2 = RNG.uniform(0, 1, (2, 6))
        a = losses.boundary_loss(p1, p2, g1, g2).item()
        b = losses.boundary_loss(p2, p1, g2, g1).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_hand_case_doubles_single_term(self):
        p = t.Tensor(np.full(4, 0.5))
        g = np.array([1.0, 1.0, 0.0, 0.0])
        assert losses.boundary_loss(p, p, g, g).item() == pytest.approx(4 * np.log(2), abs=1e-9)


class TestSampling:
    def test_ratio_contract(self):
        g = np.zeros(22)
        g[:2] = 0.9   # 2 positives, 20 negatives
        cfg = losses.SamplingConfig(rng_seed=3)
        cls_idx, _, picked_neg, _ = losses.select_confidence_samples(g, cfg)
        assert len(picked_neg) == 10
        assert len(cls_idx) == 12

    def test_fewer_negatives_than_cap(self):
        g = np.array([0.9, 0.9, 0.1])
        cfg = losses.SamplingConfig(rng_seed=3)
        _, _, picked_neg, _ = losses.select_confidence_samples(g, cfg)
        assert len(picked_neg) == 1

    def test_zero_positives_still_samples(self):
        g = np.zeros(40)
        cfg = losses.SamplingConfig(rng_seed=9)
        cls_idx, reg_idx, picked_neg, picked_zero = losses.select_confidence_samples(g, cfg)
        assert len(picked_neg) == cfg.negative_ratio
        assert len(picked_zero) == 1

    def test_regression_balances_nonzero_and_zero(self):
        g = np.concatenate([np.full(4, 0.3), np.zeros(30)])
        cfg = losses.SamplingConfig(rng_seed=1)
        _, reg_idx, _, picked_zero = losses.select_confidence_samples(g, cfg)
        assert len(picked_zero) == 4 and len(reg_idx) == 8

    def test_sampling_disabled_uses_everything(self):
        g = np.concatenate([np.full(3, 0.8), np.zeros(9)])
        cfg = losses.SamplingConfig(rng_seed=1, sample_classification=False,
                                    sample_regression=False)
        cls_idx, reg_idx, _, _ = losses.select_confidence_samples(g, cfg)
        assert len(cls_idx) == 12 and len(reg_idx) == 12

    def test_deterministic_given_seed(self):
        g = RNG.uniform(0, 1, 50)
        a = losses.select_confidence_samples(g, losses.SamplingConfig(rng_seed=7))
        b = losses.select_confidence_samples(g, losses.SamplingConfig(rng_seed=7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestConfidenceLoss:
    def _maps(self, T=8, B=2):
        g_c = np.zeros((B, T, T))
        g_c[0, 1, 4] = 0.9
        g_c[1, 2, 6] = 0.7
        g_c[0, 0, 7] = 0.2
        return g_c

    def test_regression_offset_closed_form(self):
        g_c = self._maps()
        p_c = t.Tensor(np.clip(g_c, 1e-3, 1 - 1e-3))
        cfg = losses.SamplingConfig(rng_seed=5)
        base = losses.confidence_loss(p_c, t.Tensor(np.clip(g_c, 0.0, 1.0)), g_c, cfg)[0].item()
        shifted = losses.confidence_loss(p_c, t.Tensor(np.clip(g_c + 0.1, 0.0, 1.0)), g_c,
                                         cfg)[0].item()
        assert shifted - base == pytest.approx(losses.CONFIDENCE_LAMBDA * 0.01, abs=1e-9)

    def test_matching_binary_maps_near_zero(self):
        T = 8
        g_c = np.zeros((1, T, T))
        g_c[0, 2, 5] = 1.0
        p = t.Tensor(np.clip(g_c, 1e-4, 1 - 1e-4))
        cfg = losses.SamplingConfig(rng_seed=2)
        assert losses.confidence_loss(p, p, g_c, cfg)[0].item() < 5e-3

    def test_bitwise_deterministic(self):
        g_c = self._maps()
        p_c = t.Tensor(RNG.uniform(0.1, 0.9, g_c.shape))
        p_r = t.Tensor(RNG.uniform(0.1, 0.9, g_c.shape))
        cfg = losses.SamplingConfig(rng_seed=11)
        a = losses.confidence_loss(p_c, p_r, g_c, cfg)[0].item()
        b = losses.confidence_loss(p_c, p_r, g_c, cfg)[0].item()
        assert a == b

    def test_gradient(self):
        g_c = self._maps()
        p_c = t.Tensor(RNG.uniform(0.2, 0.8, g_c.shape), requires_grad=True)
        p_r = t.Tensor(RNG.uniform(0.2, 0.8, g_c.shape), requires_grad=True)
        cfg = losses.SamplingConfig(rng_seed=4)
        err = t.grad_check(lambda i: losses.confidence_loss(i[0], i[1], g_c, cfg)[0],
                           [p_c, p_r])
        assert err < 1e-4


class TestGlobalGuidance:
    def test_all_zero_labels_near_zero_with_small_predictions(self):
        T = 6
        g = np.zeros((1, T)), np.zeros((1, T)), np.zeros((1, T, T))
        small = t.Tensor(np.full((1, T), 1e-3))
        small_map = t.Tensor(np.full((1, T, T), 1e-3))
        loss = losses.global_guidance_loss(small, small, small_map, small_map, *g)
        assert loss.item() < 1e-6  # the probability clamp floors this at ~1e-7

    def test_grid_aligned_instance_fuses_to_one(self):
        grid = TemporalGrid(10, 10.0)
        g_s, g_e, g_c = build_label_set([ActionInstance(3.0, 6.0)], grid)
        g_m = g_s[:, None] * g_e[None, :] * g_c * g_c
        assert g_m[3, 5] == 1.0
        g_m[3, 5] = 0.0
        assert g_m.max() < 1.0

    def test_zeroing_gt_cell_increases_loss(self):
        grid = TemporalGrid(10, 10.0)
        g_s, g_e, g_c = build_label_set([ActionInstance(3.0, 6.0)], grid)
        G_s, G_e, G_c = g_s[None], g_e[None], g_c[None]
        p_s = t.Tensor(np.clip(G_s, 0.05, 0.95))
        p_e = t.Tensor(np.clip(G_e, 0.05, 0.95))
        p_r = t.Tensor(np.clip(G_c, 0.05, 0.95))
        good = t.Tensor(np.clip(G_c, 0.05, 0.95))
        masked_data = np.clip(G_c, 0.05, 0.95).copy()
        masked_data[0, 3, 5] = 0.05
        masked = t.Tensor(masked_data)
        l_good = losses.global_guidance_loss(p_s, p_e, good, p_r, G_s, G_e, G_c).item()
        l_masked = losses.global_guidance_loss(p_s, p_e, masked, p_r, G_s, G_e, G_c).item()
        assert l_masked > l_good

    def test_gradient(self):
        T = 6
        g_s = RNG.uniform(0, 1, (2, T))
        g_e = RNG.uniform(0, 1, (2, T))
        g_c = np.triu(RNG.uniform(0, 1, (2, T, T)))
        p_s = t.Tensor(RNG.uniform(0.2, 0.8, (2, T)), requires_grad=True)
        p_e = t.Tensor(RNG.uniform(0.2, 0.8, (2, T)), requires_grad=True)
        p_c = t.Tensor(RNG.uniform(0.2, 0.8, (2, T, T)), requires_grad=True)
        p_r = t.Tensor(RNG.uniform(0.2, 0.8, (2, T, T)), requires_grad=True)
        err = t.grad_check(
            lambda i: losses.global_guidance_loss(i[0], i[1], i[2], i[3], g_s, g_e, g_c),
            [p_s, p_e, p_c, p_r])
        assert err < 1e-4


class TestTotalLoss:
    def _outputs(self, T=6, B=2):
        return {
            "P_s": t.Tensor(RNG.uniform(0.1, 0.9, (B, T))),
            "P_e": t.Tensor(RNG.uniform(0.1, 0.9, (B, T))),
            "P_c": t.Tensor(RNG.uniform(0.1, 0.9, (B, T, T))),
            "P_r": t.Tensor(RNG.uniform(0.1, 0.9, (B, T, T))),
        }

    def _labels(self, T=6, B=2):
        g_c = np.triu(RNG.uniform(0, 1, (B, T, T)))
        return RNG.uniform(0, 1, (B, T)), RNG.uniform(0, 1, (B, T)), g_c

    def test_weighting_identity(self):
        out = self._outputs()
        g_s, g_e, g_c = self._labels()
        cfg = losses.SamplingConfig(rng_seed=13)
        total, bd = losses.total_loss(out, g_s, g_e, g_c, cfg)
        assert bd.total == pytest.approx(
            bd.boundary + bd.confidence + losses.GUIDANCE_BETA * bd.guidance, abs=1e-12)

    def test_arithmetic_example(self):
        # total = L_B + L_C + 0.2 * L_G with the stock beta
        assert 1.0 + 2.0 + losses.GUIDANCE_BETA * 5.0 == 4.0

    def test_beta_zero_drops_guidance(self):
        out = self._outputs()
        g_s, g_e, g_c = self._labels()
        cfg = losses.SamplingConfig(rng_seed=13)
        total, bd = losses.total_loss(out, g_s, g_e, g_c, cfg, beta=0.0)
        assert bd.total == pytest.approx(bd.boundary + bd.confidence, abs=1e-12)

    def test_same_seed_identical(self):
        out = self._outputs()
        g_s, g_e, g_c = self._labels()
        cfg = losses.SamplingConfig(rng_seed=21)
        a = losses.total_loss(out, g_s, g_e, g_c, cfg)[1]
        b = losses.total_loss(out, g_s, g_e, g_c, cfg)[1]
        assert a.total == b.total
        assert np.array_equal(a.sampled_negative_indices, b.sampled_negative_indices)

    def test_breakdown_records_sampled_indices(self):
        out = self._outputs()
        g_s, g_e, g_c = self._labels()
        _, bd = losses.total_loss(out, g_s, g_e, g_c, losses.SamplingConfig(rng_seed=2))
        assert bd.sampled_negative_indices.size > 0
        for idx in (bd.sampled_negative_indices, bd.sampled_zero_indices):
            assert idx.dtype == np.intp and not idx.flags.writeable
        assert bd.seed == 2
