"""Score fusion and Soft-NMS: network outputs to a ranked proposal list.

fuse_scores turns one view's maps into dense candidates;
merge_window_duplicates collapses the near-copies overlapping windows
make; soft_nms_batch suppresses several videos' candidates at once, one
padded row per video in layouts of similar counts, and gives each row the
bytes soft_nms gives that video alone (soft_nms is its one-video form).
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .labels import interval_iou

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


def soft_nms(t_starts, t_ends, scores, sigma=SOFT_NMS_SIGMA,
             score_floor=SCORE_FLOOR, max_out=MAX_PROPOSALS):
    """Gaussian-decay suppression of one video's candidates.

    Repeatedly selects the highest-scoring remaining proposal (ties break
    toward the earlier start, then earlier end) and decays every other
    remaining score by exp(-iou^2 / sigma) against it. Stops after
    max_out selections or when everything left is below score_floor.
    Returns (t_starts, t_ends, scores) ranked by final score. One row of
    soft_nms_batch, which gives the same bytes.
    """
    return soft_nms_batch([(t_starts, t_ends, scores)], sigma, score_floor, max_out)[0]


def soft_nms_batch(candidates, sigma=SOFT_NMS_SIGMA, score_floor=SCORE_FLOOR,
                   max_out=MAX_PROPOSALS):
    """soft_nms of every video in `candidates`, a list of (t_starts, t_ends,
    scores), each pick step run once for a group of them.

    Videos of similar counts share one padded layout (see _count_groups),
    so padding at most doubles the cells a pick step passes over, however
    ragged the batch; each row gets the bytes soft_nms gives that video
    alone, whatever the other rows hold.
    Returns one (t_starts, t_ends, scores) per video, ranked by final score.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    rows_in = []  # per video: t_starts, t_ends, scores, (start, end) order
    for t_starts, t_ends, scores in candidates:
        t_starts = np.asarray(t_starts, dtype=np.float64)
        t_ends = np.asarray(t_ends, dtype=np.float64)
        scores = np.asarray(scores, dtype=np.float64)
        rows_in.append((t_starts, t_ends, scores, np.lexsort((t_ends, t_starts))))
    out = [None] * len(rows_in)
    for group in _count_groups([r[3].size for r in rows_in]):
        kept = _soft_nms_layout([rows_in[v] for v in group], sigma, score_floor, max_out)
        for v, row in zip(group, kept):
            out[v] = row
    return out


def _count_groups(counts):
    """Video indices in groups of similar count: ascending, each group's
    largest count at most twice its smallest."""
    by_count = np.argsort(counts, kind="stable")
    sorted_counts = np.asarray(counts, dtype=np.intp)[by_count]
    groups, a = [], 0
    while a < by_count.size:
        b = np.searchsorted(sorted_counts, 2 * sorted_counts[a], side="right")
        groups.append(by_count[a:b])
        a = b
    return groups


def _soft_nms_layout(rows_in, sigma, score_floor, max_out):
    """soft_nms of the videos in rows_in, as rows of one padded [V, N] layout.

    Each row is in its own (start, end) order, where the first maximum is
    the documented tie-break. A pick is a row-wise argmax; the decay is a
    few in-place passes over the whole layout with the float operations of
    labels.interval_iou, so each row gets the bytes soft_nms gives that
    video alone. A picked or padding cell scores -inf and ends at inf: its
    union with any pick is inf and its IoU 0, so its decay is exactly 1 and
    it stays -inf (a decay that underflows to 0 would make it NaN). Where
    the pick has positive length the union is positive, so only a row whose
    pick has length <= 0 needs interval_iou's zero-union guard. A row
    leaves the layout after min(max_out, its count) picks or when its best
    score is below score_floor. Times are assumed finite.
    """
    counts = np.array([r[3].size for r in rows_in], dtype=np.intp)
    V, N = len(rows_in), int(counts.max(initial=0))
    ts, te, live = np.full((V, N), np.inf), np.full((V, N), np.inf), np.full((V, N), -np.inf)
    for v, (t_starts, t_ends, scores, order) in enumerate(rows_in):
        ts[v, :order.size] = t_starts[order]
        te[v, :order.size] = t_ends[order]
        live[v, :order.size] = scores[order]
    none = np.empty(0, dtype=np.intp)
    log = [(none, none, np.empty(0))]           # (rows, columns, scores) per pick step
    rows = np.arange(V)                         # video of each layout row
    todo = np.minimum(counts, max(max_out, 0))  # picks left per layout row
    here = np.arange(V)
    iou, union, low = (np.empty_like(live) for _ in range(3))
    neg_sigma = -sigma  # x / -sigma has the bits of -x / sigma
    go = todo > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        while go.any():
            if not go.all():  # drop finished rows, and the padding only they needed
                rows, todo = rows[go], todo[go]
                width = int(counts[rows].max())
                ts, te, live = (a[go, :width] for a in (ts, te, live))
                iou, union, low = (np.empty_like(live) for _ in range(3))
                here = np.arange(rows.size)
            best = np.argmax(live, axis=1)
            top = live[here, best]
            take = ~(top < score_floor)
            log.append((rows[take], best[take], top[take]))
            todo -= 1
            todo[~take] = 0
            go = todo > 0
            a0, a1 = ts[here, best][:, None], te[here, best][:, None]
            live[here, best] = -np.inf
            te[here, best] = np.inf
            # a row that stopped decays too; it leaves the layout before the next pick
            np.minimum(a1, te, out=iou)
            np.subtract(iou, np.maximum(a0, ts, out=low), out=iou)
            np.maximum(0.0, iou, out=iou)
            np.maximum(a1, te, out=union)
            np.subtract(union, np.minimum(a0, ts, out=low), out=union)
            np.divide(iou, union, out=iou)
            flat = (a1 <= a0)[:, 0]
            if flat.any():
                iou[flat] = interval_iou(a0[flat], a1[flat], ts[flat], te[flat])
            np.multiply(iou, iou, out=iou)
            np.divide(iou, neg_sigma, out=iou)
            np.exp(iou, out=iou)
            np.multiply(live, iou, out=live)
    rows, cols, kept = (np.concatenate(a) for a in zip(*log))
    by_row = np.argsort(rows, kind="stable")  # each row's picks in pick order
    bounds = np.cumsum(np.bincount(rows, minlength=V))[:-1]
    out = []
    for (t_starts, t_ends, _, order), picked, scores in zip(
            rows_in, np.split(cols[by_row], bounds), np.split(kept[by_row], bounds)):
        t_s, t_e = t_starts[order[picked]], t_ends[order[picked]]
        rank = np.lexsort((t_e, t_s, -scores))
        out.append((t_s[rank], t_e[rank], scores[rank]))
    return out


def merge_window_duplicates(t_starts, t_ends, scores, iou_threshold=0.95):
    """Collapse near-identical intervals from overlapping windows, keeping max score.

    Greedy in stable descending-score order: a candidate is dropped when
    some already kept interval has IoU >= iou_threshold with it. Returns
    the kept (t_starts, t_ends, scores) in that order.

    Only intervals whose start and end both lie near the candidate's own
    are compared. IoU >= thr > 0 needs an overlap, and then union - inter =
    |d_start| + |d_end| while inter <= len, so |d_start| + |d_end| <=
    (1/thr - 1) * len for the candidate's own length len: each endpoint lies
    within that reach of the candidate's. The IoU and the box bounds carry
    relative rounding errors of a few ulp; the reach is widened far beyond
    that (1e-9 of itself and of the endpoint magnitudes), so no pair whose
    computed IoU reaches the threshold falls outside the box. An interval
    of length <= 0 has IoU 0 with everything: it is always kept and never
    compared.

    The boxes are searched on a (start, end) index (see _Boxes), in
    score-ordered blocks of _MERGE_BLOCK candidates. A block is first
    checked in bulk against the intervals kept by earlier blocks; its
    survivors are then checked against each other, and the pairs among
    them that conflict are settled in score order. Pairs are expanded at
    most _PAIR_BUDGET at a time (more only where one candidate's box holds
    more), so memory stays linear in the number of candidates however
    densely they pile up.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    t_starts = np.asarray(t_starts, dtype=np.float64)
    t_ends = np.asarray(t_ends, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    boxes = _Boxes(t_starts, t_ends, iou_threshold)
    ts, te = boxes.ts, boxes.te
    seq = boxes.position[order]  # positions in score order
    rank = np.empty_like(seq)
    rank[seq] = np.arange(seq.size)

    def conflicts(p, q):
        return interval_iou(ts[p], te[p], ts[q], te[q]) >= iou_threshold

    kept = np.ones(seq.size, dtype=bool)
    index = np.empty(0, dtype=np.intp)  # sorted kept positions of positive length
    active = seq[te[seq] > ts[seq]]
    for a in range(0, active.size, _MERGE_BLOCK):
        block = active[a:a + _MERGE_BLOCK]
        for p, q in boxes.pairs(np.sort(block), index):
            kept[p[conflicts(p, q)]] = False
        block = block[kept[block]]
        for p, q in boxes.pairs(block, np.sort(block)):
            hit = rank[q] < rank[p]
            hit[hit] = conflicts(p[hit], q[hit])
            p, q = p[hit], q[hit]
            if not p.size:
                continue
            # pairs come in score order of p: a q before this run's first p
            # is settled, one inside the run is settled before a later p reads it
            settled = rank[q] < rank[p[0]]
            kept[p[settled & kept[q]]] = False
            rest = ~settled & kept[p]
            for i, j in zip(p[rest].tolist(), q[rest].tolist()):
                if kept[j]:
                    kept[i] = False
        new = np.sort(block[kept[block]])
        index = np.insert(index, np.searchsorted(index, new), new)
    keep = order[kept[seq]]
    return t_starts[keep], t_ends[keep], scores[keep]


_MERGE_BLOCK = 2048
_PAIR_BUDGET = 1 << 14


class _Boxes:
    """Intervals in (start, end) order, each with its search box.

    An interval's position is its place in (start, end) order. Its key is
    its start's rank among the distinct starts times the number of distinct
    ends, plus its end's rank, so keys rise with position and the intervals
    of one start whose end lies in a range form one key range. Its box is
    the rank ranges [s_lo, s_hi) and [e_lo, e_hi) of the distinct starts
    and ends within reach of its own, closed at both ends.
    """

    def __init__(self, t_starts, t_ends, iou_threshold):
        starts, s_rank = np.unique(t_starts, return_inverse=True)
        ends, e_rank = np.unique(t_ends, return_inverse=True)
        self.n_ends = ends.size
        key = s_rank * self.n_ends + e_rank
        by_key = np.argsort(key, kind="stable")
        self.position = np.empty_like(by_key)
        self.position[by_key] = np.arange(by_key.size)
        self.key, self.ts, self.te = key[by_key], t_starts[by_key], t_ends[by_key]
        width = np.maximum(self.te - self.ts, 0.0)
        with np.errstate(over="ignore"):
            reach = (width / iou_threshold - width) * (1 + 1e-9)
        reach += 1e-9 * (np.abs(self.ts) + np.abs(self.te))
        self.s_lo = np.searchsorted(starts, self.ts - reach, side="left")
        self.s_hi = np.searchsorted(starts, self.ts + reach, side="right")
        self.e_lo = np.searchsorted(ends, self.te - reach, side="left")
        self.e_hi = np.searchsorted(ends, self.te + reach, side="right")

    def pairs(self, queries, members):
        """Yield (p, q) position arrays: every q of members in the box of query p.

        members must be sorted. Pairs come grouped by query, in the order of
        queries, at most _PAIR_BUDGET at a time unless one query's box holds
        more: per query, one key range for each start that members have
        within reach.
        """
        keys = self.key[members]
        groups = np.unique(keys // self.n_ends)  # start ranks that members have
        g_lo = np.searchsorted(groups, self.s_lo[queries])
        g_hi = np.searchsorted(groups, self.s_hi[queries])
        for a, b in _runs(g_hi - g_lo):
            p, g = _expand(queries[a:b], g_lo[a:b], g_hi[a:b])
            base = groups[g] * self.n_ends
            lo = np.searchsorted(keys, base + self.e_lo[p])
            hi = np.searchsorted(keys, base + self.e_hi[p])
            for c, d in _runs(hi - lo):
                p_run, k = _expand(p[c:d], lo[c:d], hi[c:d])
                yield p_run, members[k]


def _expand(items, lo, hi):
    """items[i] repeated hi[i] - lo[i] times, beside lo[i], ..., hi[i] - 1."""
    counts = hi - lo
    skip = np.repeat(np.cumsum(counts) - counts - lo, counts)
    return np.repeat(items, counts), np.arange(skip.size) - skip


def _runs(counts):
    """Slices [a, b) of counts that sum to at most _PAIR_BUDGET (or hold one item)."""
    ends = np.cumsum(counts)
    a = 0
    while a < counts.size:
        done = ends[a - 1] if a else 0
        b = max(int(np.searchsorted(ends, done + _PAIR_BUDGET, side="right")), a + 1)
        yield a, b
        a = b


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
