"""Objectives: weighted logistic loss, sampling rules, fused guidance, totals."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smbg import losses, pipeline as pl, tensor as t
from smbg.labels import ActionInstance, TemporalGrid, build_label_set
from smbg.net import SmbgNet

RNG = t.init_rng(55)


def upper_cells(B, T):
    ss, ee = np.triu_indices(T)
    return np.repeat(np.arange(B), ss.size), np.tile(ss, B), np.tile(ee, B)


def cell_vector(maps):
    """The valid cells of [B, T, T] maps as one flat vector, in total_loss's order."""
    B, T, _ = maps.shape
    return maps[upper_cells(B, T)]


# -- the map formulation total_loss replaced, kept as its oracle: each map loss
# gathers every map's valid cells itself, so P_c and P_r are gathered twice

def map_confidence_loss(p_c, p_r, g_c, cfg, lam=losses.CONFIDENCE_LAMBDA):
    cells = upper_cells(*p_c.data.shape[:2])
    g_valid = np.asarray(g_c, dtype=np.float64)[cells]
    cls_idx, reg_idx, picked_neg, picked_zero = losses.select_confidence_samples(g_valid, cfg)
    p_c_valid = t.take_cells(p_c, cells)
    p_r_valid = t.take_cells(p_r, cells)
    cls = losses.weighted_bl_loss(t.take_cells(p_c_valid, (cls_idx,)), g_valid[cls_idx],
                                  cfg.positive_threshold)
    diff = t.sub(t.take_cells(p_r_valid, (reg_idx,)), g_valid[reg_idx])
    reg = t.tmean(t.square(diff))
    return t.add(cls, t.mul(reg, lam)), picked_neg, picked_zero


def map_global_guidance_loss(p_s, p_e, p_c, p_r, g_s, g_e, g_c, theta=0.5):
    b_idx, ss, ee = upper_cells(*p_c.data.shape[:2])
    pm = t.mul(t.mul(t.take_cells(p_s, (b_idx, ss)), t.take_cells(p_e, (b_idx, ee))),
               t.mul(t.take_cells(p_c, (b_idx, ss, ee)), t.take_cells(p_r, (b_idx, ss, ee))))
    g_c = np.asarray(g_c, dtype=np.float64)
    gm = (np.asarray(g_s)[b_idx, ss] * np.asarray(g_e)[b_idx, ee]
          * g_c[b_idx, ss, ee] * g_c[b_idx, ss, ee])
    return losses.weighted_bl_loss(pm, gm, theta)


def map_total_loss(outputs, g_s, g_e, g_c, cfg, beta=losses.GUIDANCE_BETA,
                   lam=losses.CONFIDENCE_LAMBDA):
    l_b = losses.boundary_loss(outputs["P_s"], outputs["P_e"], g_s, g_e, cfg.positive_threshold)
    l_c, picked_neg, picked_zero = map_confidence_loss(outputs["P_c"], outputs["P_r"], g_c, cfg,
                                                       lam)
    l_g = map_global_guidance_loss(outputs["P_s"], outputs["P_e"], outputs["P_c"],
                                   outputs["P_r"], g_s, g_e, g_c, cfg.positive_threshold)
    total = t.add(t.add(l_b, l_c), t.mul(l_g, beta))
    return total, (l_b.item(), l_c.item(), l_g.item(), picked_neg, picked_zero)


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
        g_c = cell_vector(self._maps())
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
        g_c = cell_vector(g_c)
        p = t.Tensor(np.clip(g_c, 1e-4, 1 - 1e-4))
        cfg = losses.SamplingConfig(rng_seed=2)
        assert losses.confidence_loss(p, p, g_c, cfg)[0].item() < 5e-3

    def test_bitwise_deterministic(self):
        g_c = cell_vector(self._maps())
        p_c = t.Tensor(RNG.uniform(0.1, 0.9, g_c.shape))
        p_r = t.Tensor(RNG.uniform(0.1, 0.9, g_c.shape))
        cfg = losses.SamplingConfig(rng_seed=11)
        a = losses.confidence_loss(p_c, p_r, g_c, cfg)[0].item()
        b = losses.confidence_loss(p_c, p_r, g_c, cfg)[0].item()
        assert a == b

    def test_gradient(self):
        g_c = cell_vector(self._maps())
        p_c = t.Tensor(RNG.uniform(0.2, 0.8, g_c.shape), requires_grad=True)
        p_r = t.Tensor(RNG.uniform(0.2, 0.8, g_c.shape), requires_grad=True)
        cfg = losses.SamplingConfig(rng_seed=4)
        err = t.grad_check(lambda i: losses.confidence_loss(i[0], i[1], g_c, cfg)[0],
                           [p_c, p_r])
        assert err < 1e-4


class TestGlobalGuidance:
    def test_all_zero_labels_near_zero_with_small_predictions(self):
        T = 6
        g = np.zeros((1, T)), np.zeros((1, T)), np.zeros(T * (T + 1) // 2)
        small = t.Tensor(np.full((1, T), 1e-3))
        small_map = t.Tensor(np.full(T * (T + 1) // 2, 1e-3))
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
        p_r = t.Tensor(cell_vector(np.clip(G_c, 0.05, 0.95)))
        good = t.Tensor(cell_vector(np.clip(G_c, 0.05, 0.95)))
        masked_data = np.clip(G_c, 0.05, 0.95).copy()
        masked_data[0, 3, 5] = 0.05
        masked = t.Tensor(cell_vector(masked_data))
        G_c = cell_vector(G_c)
        l_good = losses.global_guidance_loss(p_s, p_e, good, p_r, G_s, G_e, G_c).item()
        l_masked = losses.global_guidance_loss(p_s, p_e, masked, p_r, G_s, G_e, G_c).item()
        assert l_masked > l_good

    def test_gradient(self):
        T = 6
        g_s = RNG.uniform(0, 1, (2, T))
        g_e = RNG.uniform(0, 1, (2, T))
        g_c = cell_vector(np.triu(RNG.uniform(0, 1, (2, T, T))))
        p_s = t.Tensor(RNG.uniform(0.2, 0.8, (2, T)), requires_grad=True)
        p_e = t.Tensor(RNG.uniform(0.2, 0.8, (2, T)), requires_grad=True)
        p_c = t.Tensor(cell_vector(RNG.uniform(0.2, 0.8, (2, T, T))), requires_grad=True)
        p_r = t.Tensor(cell_vector(RNG.uniform(0.2, 0.8, (2, T, T))), requires_grad=True)
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

    @pytest.mark.parametrize("bad", [
        {"g_c": (2, 7, 7)},    # another T: the loss would read g_c's top-left triangle
        {"g_c": (3, 4, 4)},    # another batch size
        {"g_s": (2, 5)}, {"g_e": (1, 4)}, {"P_r": (2, 4, 5)}, {"P_e": (2, 4, 1)},
        {"P_s": (2, 4, 4)},
    ])
    def test_shape_mismatch_names_both_shapes(self, bad):
        shapes = {"P_s": (2, 4), "P_e": (2, 4), "P_c": (2, 4, 4), "P_r": (2, 4, 4),
                  "g_s": (2, 4), "g_e": (2, 4), "g_c": (2, 4, 4)} | bad
        arrays = {k: RNG.uniform(0.1, 0.9, v) for k, v in shapes.items()}
        out = {k: t.Tensor(arrays[k]) for k in ("P_s", "P_e", "P_c", "P_r")}
        (name, shape), = bad.items()
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} has shape {shape} and P_s {shapes['P_s']}")):
            losses.total_loss(out, arrays["g_s"], arrays["g_e"], arrays["g_c"],
                              losses.SamplingConfig(rng_seed=1))


def _assert_total_loss_matches_map_oracle(make_outputs, labels, cfg, leaves):
    """total_loss and map_total_loss on the same forward: equal loss terms and sampled
    indices, and equal gradients on every leaf, all bit for bit."""
    runs = []
    for loss_fn in (losses.total_loss, map_total_loss):
        for leaf in leaves():
            leaf.zero_grad()
        total, bd = loss_fn(make_outputs(), *labels, cfg)
        total.backward()
        if loss_fn is losses.total_loss:
            bd = (bd.boundary, bd.confidence, bd.guidance, bd.sampled_negative_indices,
                  bd.sampled_zero_indices)
        runs.append((total.item(), bd, [leaf.grad.copy() for leaf in leaves()]))
    (new_total, new_bd, new_grads), (old_total, old_bd, old_grads) = runs
    assert new_total == old_total
    assert new_bd[:3] == old_bd[:3]
    for a, b in zip(new_bd[3:], old_bd[3:]):
        assert np.array_equal(a, b)
    assert len(new_grads) == len(old_grads) > 0
    for a, b in zip(new_grads, old_grads):
        assert np.array_equal(a, b)


def _desk_batch(B):
    """RunConfig() desk model and B of its training samples: cfg, net, x, labels."""
    cfg = pl.RunConfig()
    train_ds, *_ = pl.make_benchmark_datasets(0, n_train=B, n_eval=1, channels=cfg.in_channels)
    batch = pl.build_samples(train_ds, cfg)[:B]
    labels = tuple(np.stack([b[k] for b in batch]) for k in ("g_s", "g_e", "g_c"))
    return cfg, SmbgNet(cfg.model_config(), seed=0), np.stack([b["x"] for b in batch]), labels


def _graph_nodes(root):
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node._parents)
    return out


class TestTotalLossOneGather:
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("T", [1, 6, 16])
    @pytest.mark.parametrize("sample_cls", [True, False])
    @pytest.mark.parametrize("sample_reg", [True, False])
    def test_equals_map_formulation(self, B, T, sample_cls, sample_reg):
        rng = t.init_rng(1000 * B + T)
        shapes = {"P_s": (B, T), "P_e": (B, T), "P_c": (B, T, T), "P_r": (B, T, T)}
        leaves = {k: t.Tensor(rng.uniform(0.05, 0.95, v), requires_grad=True)
                  for k, v in shapes.items()}
        g_c = np.triu(rng.uniform(0, 1, (B, T, T)))
        g_c[g_c < 0.5] *= rng.uniform(size=g_c[g_c < 0.5].shape) < 0.5  # exact zeros
        labels = rng.uniform(0, 1, (B, T)), rng.uniform(0, 1, (B, T)), g_c
        cfg = losses.SamplingConfig(rng_seed=17 * T + B, sample_classification=sample_cls,
                                    sample_regression=sample_reg)
        _assert_total_loss_matches_map_oracle(lambda: dict(leaves), labels, cfg,
                                              lambda: list(leaves.values()))

    def test_desk_forward_equals_map_formulation(self):
        cfg, net, x, labels = _desk_batch(16)
        params = [p for _, p in net.named_parameters()]
        _assert_total_loss_matches_map_oracle(
            lambda: net.forward(t.Tensor(x), train=True), labels,
            cfg.sampling_config(rng_seed=3), lambda: params)

    def test_training_graph_gathers_two_maps(self):
        B = 2
        cfg, net, x, labels = _desk_batch(B)
        T = cfg.temporal_length

        def map_gathers(loss_fn):
            total, _ = loss_fn(net.forward(t.Tensor(x), train=True), *labels,
                               cfg.sampling_config())
            return sum(n.op == "take_cells" and n._parents[0].shape == (B, T, T)
                       for n in _graph_nodes(total))

        assert map_gathers(losses.total_loss) == 2
        assert map_gathers(map_total_loss) == 4
