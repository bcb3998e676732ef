"""Proposal-quality metrics: recall at IoU thresholds, AR@AN and AUC."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_THRESHOLDS = np.round(np.arange(0.5, 0.951, 0.05), 10)
DEFAULT_AN_GRID = np.arange(1, 101)


def _iou_matrix(proposals, gts):
    """[P, G] IoU of every proposal (t0, t1, score) with every ground truth.

    Same float operations as labels.iou, so every entry equals it exactly.
    """
    p = np.array([(t0, t1) for t0, t1, _ in proposals], dtype=float).reshape(-1, 1, 2)
    g = np.array(gts, dtype=float).reshape(1, -1, 2)
    inter = np.maximum(0.0, np.minimum(p[..., 1], g[..., 1]) - np.maximum(p[..., 0], g[..., 0]))
    union = np.maximum(p[..., 1], g[..., 1]) - np.minimum(p[..., 0], g[..., 0])
    positive = union > 0
    return np.where(positive, inter / np.where(positive, union, 1.0), 0.0)


def _match_ranks(ious, tiou):
    """Greedy one-to-one matching in rank order over a [P, G] IoU matrix.

    Row r is the proposal of rank r + 1. For each ground-truth instance,
    the 1-based rank of the proposal that claims it (IoU >= tiou, best
    unmatched instance first, the first one on ties), or 0 for never
    matched. Truncating the list to the top AN proposals matches exactly
    the instances with 0 < rank <= AN, because greedy decisions only
    depend on earlier proposals.
    """
    ranks = np.zeros(ious.shape[1], dtype=int)
    hit = ious >= tiou
    taken = np.zeros(ious.shape[1], dtype=bool)
    left = ious.shape[1]
    for r in np.flatnonzero(hit.any(axis=1)):
        free = hit[r] & ~taken
        if not free.any():
            continue
        j = int(np.argmax(np.where(free, ious[r], -np.inf)))
        taken[j] = True
        ranks[j] = r + 1
        left -= 1
        if not left:
            break
    return ranks


def _sorted_proposals(proposals):
    return sorted(proposals, key=lambda p: (-p[2], p[0], p[1]))


def recall_at(proposals_by_video, gts_by_video, an, tiou):
    """Pooled instance recall keeping the top `an` proposals per video."""
    hit = total = 0
    for vid, gts in gts_by_video.items():
        if not gts:
            continue
        props = _sorted_proposals(proposals_by_video.get(vid, []))[: int(an)]
        ranks = _match_ranks(_iou_matrix(props, gts), tiou)
        hit += int((ranks > 0).sum())
        total += len(gts)
    return hit / total if total else 0.0


def average_recall(proposals_by_video, gts_by_video, an, thresholds=DEFAULT_THRESHOLDS):
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("need at least one IoU threshold")
    vals = [recall_at(proposals_by_video, gts_by_video, an, th) for th in thresholds]
    return float(np.mean(vals))


@dataclass
class EvalReport:
    ar_at_an: dict
    auc: float
    recall_table: dict = field(default_factory=dict)  # tiou -> [recall per AN]
    an_grid: list = field(default_factory=list)
    thresholds: list = field(default_factory=list)

    def to_dict(self):
        return {
            "auc": self.auc,
            "ar_at_an": {str(k): v for k, v in self.ar_at_an.items()},
            "an_grid": [int(a) for a in self.an_grid],
            "thresholds": [float(t) for t in self.thresholds],
            "recall_table": {str(k): v for k, v in self.recall_table.items()},
        }


def evaluate(proposals_by_video, gts_by_video, an_grid=DEFAULT_AN_GRID,
             thresholds=DEFAULT_THRESHOLDS):
    """Full AR-vs-AN sweep and its area.

    Each video's proposals are sorted and scored against its ground truth
    once; match ranks are then computed per (video, threshold), and every
    AN cutoff is a thresholded count, which keeps the sweep linear. AUC is
    the trapezoidal integral of AR(AN) over the AN grid, normalized by the
    grid span, in percent.
    """
    an_grid = np.asarray(list(an_grid), dtype=int)
    thresholds = list(thresholds)
    ious = [_iou_matrix(_sorted_proposals(proposals_by_video.get(vid, [])), gts)
            for vid, gts in gts_by_video.items() if gts]
    total = sum(m.shape[1] for m in ious)

    recall_table = {}
    per_threshold = []
    for th in thresholds:
        ranks = (np.concatenate([_match_ranks(m, th) for m in ious]) if ious
                 else np.zeros(0, int))
        hits = np.array([((ranks > 0) & (ranks <= an)).sum() for an in an_grid])
        rec = hits / total if total else np.zeros(len(an_grid))
        recall_table[float(th)] = rec.tolist()
        per_threshold.append(rec)
    ar = np.mean(per_threshold, axis=0) if per_threshold else np.zeros(len(an_grid))
    if len(an_grid) > 1:
        auc = float(np.trapezoid(ar, an_grid) / (an_grid[-1] - an_grid[0]) * 100.0)
    else:
        auc = float(ar[0] * 100.0)
    ar_at_an = {int(an): float(v) * 100.0 for an, v in zip(an_grid, ar)}
    return EvalReport(ar_at_an=ar_at_an, auc=auc, recall_table=recall_table,
                      an_grid=an_grid.tolist(), thresholds=[float(t) for t in thresholds])


def save_report(path, report):
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def save_curve_csv(path, report):
    """AN, AR rows for plotting."""
    with open(path, "w") as f:
        f.write("an,average_recall\n")
        for an in report.an_grid:
            f.write(f"{an},{report.ar_at_an[int(an)] / 100.0!r}\n")
