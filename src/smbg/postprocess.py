"""Score fusion and Soft-NMS: network outputs to a ranked proposal list."""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

SOFT_NMS_SIGMA = 0.4
SCORE_FLOOR = 1e-4
MAX_PROPOSALS = 100


class ScoredProposal(NamedTuple):
    t_start: float
    t_end: float
    score: float


def fuse_scores(p_s, p_e, p_c, p_r, grid):
    """Dense proposals: one per valid (s, e) cell.

    Cell score is P_s[s] * P_e[e] * P_c[s,e] * P_r[s,e]; indices convert
    to seconds through the grid (cell (s, e) spans [s*dt, (e+1)*dt]). The
    product (e+1)*dt can round a few ulp past the duration, so ends are
    clamped to it.
    Returns parallel arrays (starts, ends, t_starts, t_ends, scores).
    """
    p_s, p_e = np.asarray(p_s), np.asarray(p_e)
    T = p_s.shape[0]
    ss, ee = np.triu_indices(T)
    scores = p_s[ss] * p_e[ee] * np.asarray(p_c)[ss, ee] * np.asarray(p_r)[ss, ee]
    t_ends = np.minimum((ee + 1) * grid.dt, grid.duration)
    return ss, ee, ss * grid.dt, t_ends, scores


def interval_iou_one_vs_many(t0, t1, starts, ends):
    inter = np.maximum(0.0, np.minimum(t1, ends) - np.maximum(t0, starts))
    union = np.maximum(t1, ends) - np.minimum(t0, starts)
    return np.where(union > 0, inter / np.maximum(union, 1e-30), 0.0)


def soft_nms(t_starts, t_ends, scores, sigma=SOFT_NMS_SIGMA,
             score_floor=SCORE_FLOOR, max_out=MAX_PROPOSALS):
    """Gaussian-decay suppression.

    Repeatedly selects the highest-scoring remaining proposal (ties break
    toward the earlier start, then earlier end) and decays every other
    remaining score by exp(-iou^2 / sigma) against it. Stops after
    max_out selections or when everything left is below score_floor.
    Returns (t_starts, t_ends, scores) ranked by final score.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    t_starts = np.asarray(t_starts, dtype=np.float64).copy()
    t_ends = np.asarray(t_ends, dtype=np.float64).copy()
    scores = np.asarray(scores, dtype=np.float64).copy()
    n = scores.size
    if n == 0:
        return t_starts, t_ends, scores
    alive = np.ones(n, dtype=bool)
    picked = []
    while len(picked) < max_out and alive.any():
        live_idx = np.nonzero(alive)[0]
        live_scores = scores[live_idx]
        best = live_scores.max()
        if best < score_floor:
            break
        tied = live_idx[live_scores == best]
        if tied.size > 1:
            order = np.lexsort((t_ends[tied], t_starts[tied]))
            chosen = tied[order[0]]
        else:
            chosen = tied[0]
        picked.append(chosen)
        alive[chosen] = False
        rest = np.nonzero(alive)[0]
        if rest.size:
            ious = interval_iou_one_vs_many(t_starts[chosen], t_ends[chosen],
                                            t_starts[rest], t_ends[rest])
            scores[rest] *= np.exp(-(ious * ious) / sigma)
    picked = np.array(picked, dtype=int)
    if picked.size:
        order = np.lexsort((t_ends[picked], t_starts[picked], -scores[picked]))
        picked = picked[order]
    return t_starts[picked], t_ends[picked], scores[picked]


def merge_window_duplicates(t_starts, t_ends, scores, iou_threshold=0.95):
    """Collapse near-identical intervals from overlapping windows, keeping max score.

    Greedy in stable descending-score order: a candidate is dropped when
    some already kept interval has IoU >= iou_threshold with it. Returns
    the kept (t_starts, t_ends, scores) in that order.

    Only kept intervals whose start lies near the candidate's are compared.
    IoU >= thr > 0 needs an overlap, and then union - inter =
    |d_start| + |d_end| while inter <= len, so |d_start| <= (1/thr - 1) * len
    for the candidate's own length len. The IoU and the window bounds carry
    relative rounding errors of a few ulp; the reach is widened far beyond
    that (1e-9 of itself and of the endpoint magnitudes), so no pair whose
    computed IoU reaches the threshold falls outside the window.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    t_starts = np.asarray(t_starts, dtype=np.float64)
    t_ends = np.asarray(t_ends, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    by_start = np.argsort(t_starts, kind="stable")
    sorted_ts, sorted_te = t_starts[by_start], t_ends[by_start]
    rank = np.empty_like(by_start)
    rank[by_start] = np.arange(by_start.size)
    width = np.maximum(t_ends - t_starts, 0.0)
    with np.errstate(over="ignore"):
        reach = (width / iou_threshold - width) * (1 + 1e-9)
    reach += 1e-9 * (np.abs(t_starts) + np.abs(t_ends))
    lo = np.searchsorted(sorted_ts, t_starts - reach, side="left")
    hi = np.searchsorted(sorted_ts, t_starts + reach, side="right")
    kept = np.zeros(by_start.size, dtype=bool)
    keep = []
    for i in order:
        near = np.flatnonzero(kept[lo[i]:hi[i]]) + lo[i]
        if near.size:
            ious = interval_iou_one_vs_many(t_starts[i], t_ends[i],
                                            sorted_ts[near], sorted_te[near])
            if ious.max() >= iou_threshold:
                continue
        kept[rank[i]] = True
        keep.append(i)
    keep = np.array(keep, dtype=np.intp)
    return t_starts[keep], t_ends[keep], scores[keep]


def save_proposals(path, proposals_by_video):
    """{video_id: ranked [{t_start, t_end, score}]} JSON."""
    raw = {
        vid: [{"t_start": p.t_start, "t_end": p.t_end, "score": p.score} for p in props]
        for vid, props in proposals_by_video.items()
    }
    with open(path, "w") as f:
        json.dump(raw, f, indent=2, sort_keys=True)
        f.write("\n")


def load_proposals(path):
    with open(path) as f:
        raw = json.load(f)
    return {
        vid: [ScoredProposal(float(p["t_start"]), float(p["t_end"]), float(p["score"]))
              for p in props]
        for vid, props in raw.items()
    }
