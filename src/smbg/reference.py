"""Scalar-loop reference kernels and scalar interval overlaps.

These deliberately avoid the vectorized code paths in ``tensor`` and
``labels``: they serve as independent oracles for the fast kernels and
the broadcasting interval forms and, through
``MacCounter``, as the measured side of the analytic MAC formulas. The
counter is bumped once per multiply-accumulate actually executed, and
zero-padding taps are executed (multiplied by zero) so the counts match
the closed-form layer formulas exactly.
"""

from __future__ import annotations

import numpy as np


class MacCounter:
    """Counts multiply-accumulate executions in the reference kernels."""

    def __init__(self):
        self.count = 0
        self.per_layer = {}

    def charge(self, layer, n):
        self.count += n
        self.per_layer[layer] = self.per_layer.get(layer, 0) + n


def conv1d_same_ref(x, w, b, counter=None, layer="conv1d"):
    """Triple-loop 'same' 1D correlation; mirrors conv1d_same_raw."""
    B, Ci, T = x.shape
    Co, _, k = w.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p)))
    out = np.zeros((B, Co, T))
    macs = 0
    for bi in range(B):
        for o in range(Co):
            for t in range(T):
                acc = 0.0
                for c in range(Ci):
                    for j in range(k):
                        acc += w[o, c, j] * xp[bi, c, t + j]
                        macs += 1
                out[bi, o, t] = acc + (b[o] if b is not None else 0.0)
    if counter is not None:
        counter.charge(layer, macs)
    return out


def conv2d_dilated_ref(x, w, b, dilation, counter=None, layer="conv2d"):
    """Loop reference for the dilated 'same' 2D correlation."""
    B, Ci, H, W = x.shape
    Co, _, kh, kw = w.shape
    p = dilation * (kh - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((B, Co, H, W))
    macs = 0
    for bi in range(B):
        for o in range(Co):
            for y in range(H):
                for xpos in range(W):
                    acc = 0.0
                    for c in range(Ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += w[o, c, dy, dx] * xp[bi, c, y + dilation * dy, xpos + dilation * dx]
                                macs += 1
                    out[bi, o, y, xpos] = acc + (b[o] if b is not None else 0.0)
    if counter is not None:
        counter.charge(layer, macs)
    return out


def matmul_ref(a, bmat, counter=None, layer="matmul"):
    """Loop reference for a plain 2D matrix product."""
    n, k = a.shape
    k2, m = bmat.shape
    out = np.zeros((n, m))
    macs = 0
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * bmat[l, j]
                macs += 1
            out[i, j] = acc
    if counter is not None:
        counter.charge(layer, macs)
    return out


def relu_ref(x):
    return np.maximum(x, 0.0)


def sigmoid_ref(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def batchnorm_eval_ref(x, gamma, beta, mean, var, eps=1e-5):
    """Eval-mode normalization; no MACs under the multiply-only convention."""
    bshape = (1, -1) + (1,) * (x.ndim - 2)
    return gamma.reshape(bshape) * (x - mean.reshape(bshape)) / np.sqrt(
        var.reshape(bshape) + eps) + beta.reshape(bshape)


def ior(region_a, region_b):
    """Intersection of the intervals over the length of region_a; the
    oracle of labels.interval_ior."""
    a0, a1 = region_a
    b0, b1 = region_b
    if a1 <= a0:
        raise ValueError(f"region_a must have positive length, got [{a0}, {a1}]")
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    return inter / (a1 - a0)


def iou(interval_a, interval_b):
    """Intersection over union, the oracle of labels.interval_iou; two
    empty intervals give 0 by convention."""
    a0, a1 = interval_a
    b0, b1 = interval_b
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = max(a1, b1) - min(a0, b0)
    if union <= 0:
        return 0.0
    return inter / union
