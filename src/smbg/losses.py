"""Training objectives: boundary, confidence-map and global guidance losses.

All losses consume network outputs as graph tensors and labels as plain
arrays, and pool positions across the batch. Map losses only ever see
the valid upper triangle (end >= start). Sampling decisions depend on
the labels and the seed alone, never on predictions, so a fixed seed
makes every loss bitwise reproducible and finite-difference friendly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as t

PROB_EPS = 1e-7          # clamp for log arguments
CONFIDENCE_LAMBDA = 10.0  # regression weight inside the confidence loss
GUIDANCE_BETA = 0.2       # weight of the global guidance term


@dataclass
class SamplingConfig:
    negative_ratio: int = 5
    positive_threshold: float = 0.5
    rng_seed: int = 0
    sample_classification: bool = True
    sample_regression: bool = True

    def __post_init__(self):
        if self.negative_ratio < 1:
            raise ValueError(f"negative_ratio must be >= 1, got {self.negative_ratio}")


def _frozen(indices):
    """Cell indices as a read-only intp array; an intp array is not copied."""
    out = np.asarray(indices, dtype=np.intp)
    out.flags.writeable = False
    return out


@dataclass
class LossBreakdown:
    boundary: float
    confidence: float
    guidance: float
    total: float
    sampled_negative_indices: np.ndarray = field(default_factory=lambda: _frozen([]))
    sampled_zero_indices: np.ndarray = field(default_factory=lambda: _frozen([]))
    seed: int = 0


def weighted_bl_loss(p, g, theta=0.5):
    """Class-balanced binary logistic loss over matching flat shapes.

    Positions with label >= theta count as positive; each class is
    reweighted by total/count so sparse positives still matter. A side
    with zero members contributes nothing. Probabilities are clamped to
    [1e-7, 1 - 1e-7] before the logs.
    """
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    if g.size == 0:
        raise ValueError("weighted_bl_loss needs at least one position")
    p = p if isinstance(p, t.Tensor) else t.Tensor(p)
    p = t.reshape(p, (-1,))
    if p.data.shape != g.shape:
        raise ValueError(f"shape mismatch: predictions {p.data.shape} vs labels {g.shape}")
    b = (g >= theta).astype(np.float64)
    l_total = float(g.size)
    l_pos = float(b.sum())
    l_neg = l_total - l_pos
    alpha_pos = l_total / l_pos if l_pos > 0 else 0.0
    alpha_neg = l_total / l_neg if l_neg > 0 else 0.0
    p_hat = t.clamp(p, PROB_EPS, 1.0 - PROB_EPS)
    pos_term = t.tsum(t.mul(t.log(p_hat), b))
    neg_term = t.tsum(t.mul(t.log(t.sub(1.0, p_hat)), 1.0 - b))
    return t.mul(t.add(t.mul(pos_term, alpha_pos), t.mul(neg_term, alpha_neg)), -1.0 / l_total)


def boundary_loss(p_s, p_e, g_s, g_e, theta=0.5):
    """Sum of the start and end weighted logistic losses."""
    return t.add(weighted_bl_loss(p_s, g_s, theta), weighted_bl_loss(p_e, g_e, theta))


def _valid_cells(shape):
    """(b, s, e) index arrays for the upper triangle of [B,T,T] maps."""
    B, T, _ = shape
    ss, ee = np.triu_indices(T)
    n = ss.size
    return (np.repeat(np.arange(B), n), np.tile(ss, B), np.tile(ee, B))


def select_confidence_samples(g_valid, cfg):
    """Classification and regression index sets over flattened valid cells.

    Classification keeps every positive (label >= threshold) plus
    uniformly drawn negatives capped at negative_ratio per positive;
    regression keeps every nonzero-label cell plus an equal count of
    exact-zero cells. Depends only on the labels and the seed.
    """
    rng = t.init_rng(cfg.rng_seed)
    pos = np.nonzero(g_valid >= cfg.positive_threshold)[0]
    neg = np.nonzero(g_valid < cfg.positive_threshold)[0]
    if cfg.sample_classification:
        want = cfg.negative_ratio * max(1, pos.size)
        picked_neg = np.sort(rng.choice(neg, size=min(want, neg.size), replace=False))
        cls_idx = np.concatenate([pos, picked_neg])
    else:
        picked_neg = neg
        cls_idx = np.arange(g_valid.size)
    nonzero = np.nonzero(g_valid > 0)[0]
    zero = np.nonzero(g_valid == 0)[0]
    if cfg.sample_regression:
        want = max(1, nonzero.size)
        picked_zero = np.sort(rng.choice(zero, size=min(want, zero.size), replace=False))
        reg_idx = np.concatenate([nonzero, picked_zero])
    else:
        picked_zero = zero
        reg_idx = np.arange(g_valid.size)
    return cls_idx, reg_idx, picked_neg, picked_zero


def confidence_loss(p_c, p_r, g_c, cfg, lam=CONFIDENCE_LAMBDA):
    """Sampled classification loss plus weighted MSE regression loss.

    Returns (loss tensor, sampled negative indices, sampled zero indices);
    indices are positions in the flattened valid-cell list, kept for
    reproducibility logs as read-only intp arrays.
    """
    cells = _valid_cells(p_c.data.shape)
    g_valid = np.asarray(g_c, dtype=np.float64)[cells]
    cls_idx, reg_idx, picked_neg, picked_zero = select_confidence_samples(g_valid, cfg)
    p_c_valid = t.take_cells(p_c, cells)
    p_r_valid = t.take_cells(p_r, cells)
    cls = weighted_bl_loss(t.take_cells(p_c_valid, (cls_idx,)), g_valid[cls_idx],
                           cfg.positive_threshold)
    diff = t.sub(t.take_cells(p_r_valid, (reg_idx,)), g_valid[reg_idx])
    reg = t.tmean(t.square(diff))
    loss = t.add(cls, t.mul(reg, lam))
    return loss, _frozen(picked_neg), _frozen(picked_zero)


def global_guidance_loss(p_s, p_e, p_c, p_r, g_s, g_e, g_c, theta=0.5):
    """Weighted logistic loss on the fused product map.

    Predictions fuse as P_s[s] * P_e[e] * P_c[s,e] * P_r[s,e] over valid
    cells; labels fuse the same way with G_c standing in for both map
    factors. This ties every branch to the score actually used at
    inference time.
    """
    b_idx, ss, ee = _valid_cells(p_c.data.shape)
    pm = t.mul(t.mul(t.take_cells(p_s, (b_idx, ss)), t.take_cells(p_e, (b_idx, ee))),
               t.mul(t.take_cells(p_c, (b_idx, ss, ee)), t.take_cells(p_r, (b_idx, ss, ee))))
    g_c = np.asarray(g_c, dtype=np.float64)
    gm = (np.asarray(g_s)[b_idx, ss] * np.asarray(g_e)[b_idx, ee]
          * g_c[b_idx, ss, ee] * g_c[b_idx, ss, ee])
    return weighted_bl_loss(pm, gm, theta)


def total_loss(outputs, g_s, g_e, g_c, cfg, beta=GUIDANCE_BETA, lam=CONFIDENCE_LAMBDA):
    """Boundary + confidence + beta * guidance; returns (tensor, breakdown)."""
    l_b = boundary_loss(outputs["P_s"], outputs["P_e"], g_s, g_e, cfg.positive_threshold)
    l_c, picked_neg, picked_zero = confidence_loss(outputs["P_c"], outputs["P_r"], g_c, cfg, lam)
    l_g = global_guidance_loss(outputs["P_s"], outputs["P_e"], outputs["P_c"], outputs["P_r"],
                               g_s, g_e, g_c, cfg.positive_threshold)
    total = t.add(t.add(l_b, l_c), t.mul(l_g, beta))
    breakdown = LossBreakdown(
        boundary=l_b.item(), confidence=l_c.item(), guidance=l_g.item(),
        total=total.item(), sampled_negative_indices=picked_neg,
        sampled_zero_indices=picked_zero, seed=cfg.rng_seed,
    )
    return total, breakdown
