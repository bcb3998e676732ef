"""Score fusion and Soft-NMS behavior."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smbg import pipeline as pl
from smbg import postprocess as pp
from smbg import tensor as t
from smbg.labels import TemporalGrid, interval_iou, valid_cells
from smbg.net import SmbgNet, save_checkpoint
from smbg.reference import iou

RNG = t.init_rng(31)


class TestFuseScores:
    def test_all_ones_score_one(self):
        T = 4
        grid = TemporalGrid(T, 8.0)
        _, _, _, _, sc = pp.fuse_scores(np.ones(T), np.ones(T), np.ones((T, T)),
                                        np.ones((T, T)), grid)
        np.testing.assert_array_equal(sc, 1.0)

    def test_zero_start_probability_zeroes_its_proposals(self):
        T = 4
        grid = TemporalGrid(T, 4.0)
        p_s = np.ones(T)
        p_s[1] = 0.0
        ss, ee, _, _, sc = pp.fuse_scores(p_s, np.ones(T), np.ones((T, T)),
                                          np.ones((T, T)), grid)
        assert np.all(sc[ss == 1] == 0.0)
        assert np.all(sc[ss != 1] == 1.0)

    def test_hand_enumeration_t3(self):
        grid = TemporalGrid(3, 3.0)
        p_s = np.array([0.9, 0.5, 0.2])
        p_e = np.array([0.1, 0.6, 0.8])
        p_c = np.arange(9, dtype=float).reshape(3, 3) / 10.0
        p_r = np.full((3, 3), 0.5)
        ss, ee, ts, te, sc = pp.fuse_scores(p_s, p_e, p_c, p_r, grid)
        assert len(sc) == 6
        want = {(s, e): p_s[s] * p_e[e] * p_c[s, e] * 0.5
                for s in range(3) for e in range(s, 3)}
        for s, e, v in zip(ss, ee, sc):
            assert v == pytest.approx(want[(s, e)], rel=1e-12)

    @pytest.mark.parametrize("duration", [110.0, 70.3, 123.456, 99.9, 1e3 / 3])
    def test_ends_never_pass_duration(self, duration):
        T = 100
        grid = TemporalGrid(T, duration)
        *_, ts, te, _ = pp.fuse_scores(np.ones(T), np.ones(T), np.ones((T, T)),
                                       np.ones((T, T)), grid)
        assert te.max() == duration
        assert np.all(te <= duration) and np.all(ts < te)

    @pytest.mark.parametrize("duration", [8.0, 70.3, 110.0])
    def test_intervals_are_cell_intervals(self, duration):
        # at 110 the last cells' (e+1)*dt rounds past the duration; fuse_scores
        # clamps exactly those ends to it and keeps every other bit
        T = 100
        grid = TemporalGrid(T, duration)
        ss, ee, ts, te, _ = pp.fuse_scores(np.ones(T), np.ones(T), np.ones((T, T)),
                                           np.ones((T, T)), grid)
        lo, hi = grid.cell_interval(*valid_cells(T))
        assert ss is valid_cells(T)[0] and ee is valid_cells(T)[1]
        np.testing.assert_array_equal(ts, lo)
        np.testing.assert_array_equal(te, np.minimum(hi, duration))
        if duration == 110.0:
            assert hi.max() > duration and te.max() == duration

    def test_seconds_follow_grid_convention(self):
        grid = TemporalGrid(4, 8.0)  # dt = 2
        ss, ee, ts, te, _ = pp.fuse_scores(np.ones(4), np.ones(4), np.ones((4, 4)),
                                           np.ones((4, 4)), grid)
        i = np.nonzero((ss == 1) & (ee == 2))[0][0]
        assert (ts[i], te[i]) == (2.0, 6.0)


class TestSoftNms:
    def test_single_proposal_unchanged(self):
        ts, te, sc = pp.soft_nms(np.array([1.0]), np.array([2.0]), np.array([0.7]))
        assert sc[0] == 0.7 and ts[0] == 1.0 and te[0] == 2.0

    def test_identical_pair_closed_form(self):
        ts, te, sc = pp.soft_nms(np.array([0.0, 0.0]), np.array([5.0, 5.0]),
                                 np.array([0.9, 0.8]), sigma=0.4)
        assert sc[0] == 0.9
        assert sc[1] == pytest.approx(0.8 * np.exp(-2.5), abs=1e-9)

    def test_disjoint_pair_unchanged(self):
        ts, te, sc = pp.soft_nms(np.array([0.0, 10.0]), np.array([2.0, 12.0]),
                                 np.array([0.9, 0.8]))
        np.testing.assert_array_equal(np.sort(sc)[::-1], [0.9, 0.8])

    def test_empty_input(self):
        ts, te, sc = pp.soft_nms(np.zeros(0), np.zeros(0), np.zeros(0))
        assert len(sc) == 0

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            pp.soft_nms(np.array([0.0]), np.array([1.0]), np.array([0.5]), sigma=0.0)

    def test_scores_never_exceed_inputs(self):
        for _ in range(25):
            n = 30
            ts = RNG.uniform(0, 50, n)
            te = ts + RNG.uniform(0.5, 20, n)
            sc = RNG.uniform(0, 1, n)
            order = np.argsort(-sc)
            _, _, out = pp.soft_nms(ts, te, sc, max_out=n)
            assert np.all(out <= np.sort(sc)[::-1][: len(out)] + 1e-15)

    def test_output_ordering_non_increasing(self):
        n = 40
        ts = RNG.uniform(0, 30, n)
        te = ts + RNG.uniform(0.5, 10, n)
        sc = RNG.uniform(0, 1, n)
        _, _, out = pp.soft_nms(ts, te, sc, max_out=n)
        assert np.all(np.diff(out) <= 1e-15)

    def test_small_sigma_approaches_hard_nms(self):
        ts = np.array([0.0, 0.1, 10.0])
        te = np.array([5.0, 5.1, 15.0])
        sc = np.array([0.9, 0.85, 0.8])
        _, _, out = pp.soft_nms(ts, te, sc, sigma=1e-6, score_floor=1e-30, max_out=3)
        # the overlapping runner-up is annihilated (suppressed outright),
        # the disjoint proposal is untouched
        np.testing.assert_array_equal(out, [0.9, 0.8])

    def test_max_out_limits_selection(self):
        n = 20
        ts = np.arange(n, dtype=float) * 100
        te = ts + 1
        sc = RNG.uniform(0.5, 1.0, n)
        _, _, out = pp.soft_nms(ts, te, sc, max_out=5)
        assert len(out) == 5

    def test_score_floor_stops_selection(self):
        ts = np.array([0.0, 100.0])
        te = np.array([1.0, 101.0])
        _, _, out = pp.soft_nms(ts, te, np.array([0.5, 1e-6]), score_floor=1e-4)
        assert len(out) == 1

    def test_deterministic_tie_break(self):
        ts = np.array([3.0, 1.0, 1.0])
        te = np.array([4.0, 9.0, 5.0])
        sc = np.array([0.5, 0.5, 0.5])
        out_ts, out_te, _ = pp.soft_nms(ts, te, sc, sigma=10.0, max_out=3)
        assert (out_ts[0], out_te[0]) == (1.0, 5.0)  # earlier start, then earlier end

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40))
    def test_monotone_non_increase_property(self, seed, n):
        rng = t.init_rng(seed)
        ts = rng.uniform(0, 40, n)
        te = ts + rng.uniform(0.1, 15, n)
        sc = rng.uniform(0, 1, n)
        _, _, out = pp.soft_nms(ts, te, sc, max_out=n, score_floor=0.0)
        assert np.all(np.diff(out) <= 1e-15)
        assert out.max(initial=0.0) <= sc.max() + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 300), st.sampled_from([0.4, 1e-6, 5.0]),
           st.sampled_from([1e-4, 0.0]), st.integers(1, 120))
    def test_equals_index_bookkeeping_oracle(self, seed, n, sigma, floor, max_out):
        # coarse grids make ties in score and in (start, end), and exact duplicates
        rng = t.init_rng(seed)
        ts = rng.integers(0, 20, n).astype(float)
        te = ts + rng.integers(1, 8, n)
        sc = rng.integers(0, 6, n) / 5.0
        dup = rng.integers(0, max(n, 1), n // 4)
        ts, te, sc = (np.concatenate([a, a[dup]]) for a in (ts, te, sc))
        perm = rng.permutation(ts.size)
        ts, te, sc = ts[perm], te[perm], sc[perm]
        got = pp.soft_nms(ts, te, sc, sigma, floor, max_out)
        want = soft_nms_oracle(ts, te, sc, sigma, floor, max_out)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_equals_oracle_on_dense_grid(self):
        T = 100
        grid = TemporalGrid(T, 73.0)
        rng = t.init_rng(5)
        *_, ts, te, sc = pp.fuse_scores(rng.uniform(size=T), rng.uniform(size=T),
                                        rng.uniform(size=(T, T)), rng.uniform(size=(T, T)), grid)
        for g, w in zip(pp.soft_nms(ts, te, sc), soft_nms_oracle(ts, te, sc)):
            np.testing.assert_array_equal(g, w)


def _nms_row(rng, n):
    """n candidates on coarse grids: ties in score and in (start, end), exact
    duplicates, zero-length intervals and zero scores."""
    ts = rng.integers(0, 20, n).astype(float)
    te = ts + rng.integers(0, 8, n)
    sc = rng.integers(0, 6, n) / 5.0
    dup = rng.integers(0, max(n, 1), n // 4 if n else 0)
    ts, te, sc = (np.concatenate([a, a[dup]])[:n] for a in (ts, te, sc))
    perm = rng.permutation(n)
    return ts[perm], te[perm], sc[perm]


class TestSoftNmsBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.lists(st.integers(0, 300), min_size=1, max_size=6),
           st.sampled_from([0.4, 1e-6, 5.0]), st.sampled_from([1e-4, 0.0]),
           st.integers(0, 320))
    @example(0, [0, 1, 300], 1e-6, 0.0, 320)
    @example(1, [1], 0.4, 1e-4, 0)
    @example(2, [300, 0, 7, 300, 1, 40], 1e-6, 1e-4, 5)
    def test_rows_equal_oracle_alone_in_batch_and_at_any_position(
            self, seed, sizes, sigma, floor, max_out):
        rng = t.init_rng(seed)
        rows = [_nms_row(rng, n) for n in sizes]
        want = [soft_nms_oracle(*row, sigma, floor, max_out) for row in rows]
        got = pp.soft_nms_batch(rows, sigma, floor, max_out)
        assert len(got) == len(rows)
        for g, w, row in zip(got, want, rows):
            assert_same_arrays(g, w)
            assert_same_arrays(pp.soft_nms(*row, sigma, floor, max_out), w)
        for k in range(1, len(rows)):
            rolled = pp.soft_nms_batch(rows[k:] + rows[:k], sigma, floor, max_out)
            for g, w in zip(rolled, want[k:] + want[:k]):
                assert_same_arrays(g, w)

    def test_each_row_stops_at_its_own_count_whatever_the_floor(self):
        rng = t.init_rng(4)
        rows = [_nms_row(rng, n) for n in (3, 0, 12, 1)]
        for floor in (-np.inf, 0.0, 0.5):
            got = pp.soft_nms_batch(rows, 0.4, floor, 10)
            for row, g in zip(rows, got):
                assert_same_arrays(g, soft_nms_oracle(*row, 0.4, floor, 10))
                assert g[2].size <= min(10, row[0].size)
                if floor == -np.inf:
                    assert g[2].size == min(10, row[0].size)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 6), max_size=20))
    def test_count_groups_partition_with_padding_at_most_double(self, counts):
        groups = pp._count_groups(counts)
        assert sorted(np.concatenate(groups + [np.empty(0, int)]).tolist()) == list(
            range(len(counts)))
        sizes = [np.asarray(counts)[g] for g in groups]
        for a, b in zip(sizes, sizes[1:]):
            assert a.max() < b.min()
        for c in sizes:
            assert c.max() <= 2 * c.min()

    def test_ragged_batch_runs_in_layouts_of_similar_counts(self):
        rng = t.init_rng(5)
        sizes = (2000, 40, 0, 55, 1100, 3, 90, 1)
        rows = [_nms_row(rng, n) for n in sizes]
        layouts = []
        real = pp._soft_nms_layout

        def spy(rows_in, *args):
            layouts.append([r[0].size for r in rows_in])
            return real(rows_in, *args)

        with mock.patch.object(pp, "_soft_nms_layout", spy):
            got = pp.soft_nms_batch(rows, 0.4, 1e-4, 100)
        assert sorted(n for layout in layouts for n in layout) == sorted(sizes)
        assert all(max(layout) <= 2 * min(layout) for layout in layouts)
        assert sorted(layouts) == [[0], [1], [3], [40, 55], [90], [1100, 2000]]
        for g, row in zip(got, rows):
            assert_same_arrays(g, soft_nms_oracle(*row, 0.4, 1e-4, 100))

    def test_empty_batch(self):
        assert pp.soft_nms_batch([]) == []

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            pp.soft_nms_batch([(np.array([0.0]), np.array([1.0]), np.array([0.5]))], 0.0)


def soft_nms_oracle(t_starts, t_ends, scores, sigma=pp.SOFT_NMS_SIGMA,
                    score_floor=pp.SCORE_FLOOR, max_out=pp.MAX_PROPOSALS):
    """Soft-NMS with explicit alive-index bookkeeping and per-pick tie handling."""
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
            ious = interval_iou(t_starts[chosen], t_ends[chosen], t_starts[rest], t_ends[rest])
            scores[rest] *= np.exp(-(ious * ious) / sigma)
    picked = np.array(picked, dtype=int)
    if picked.size:
        order = np.lexsort((t_ends[picked], t_starts[picked], -scores[picked]))
        picked = picked[order]
    return t_starts[picked], t_ends[picked], scores[picked]


def greedy_merge_oracle(t_starts, t_ends, scores, iou_threshold=0.95):
    """The all-pairs greedy merge: each candidate, in stable descending-score
    order, is compared with every interval kept so far through the scalar
    reference.iou."""
    order = np.argsort(-scores, kind="stable")
    keep_ts, keep_te, keep_sc = [], [], []
    for i in order:
        if any(iou((t_starts[i], t_ends[i]), kept) >= iou_threshold
               for kept in zip(keep_ts, keep_te)):
            continue
        keep_ts.append(t_starts[i])
        keep_te.append(t_ends[i])
        keep_sc.append(scores[i])
    return np.array(keep_ts), np.array(keep_te), np.array(keep_sc)


def start_window_merge_oracle(t_starts, t_ends, scores, iou_threshold=0.95):
    """The greedy merge one candidate at a time: each is compared with the
    kept intervals whose start lies within its reach (see
    merge_window_duplicates), found by searchsorted on the sorted starts and
    a kept mask."""
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
            ious = interval_iou(t_starts[i], t_ends[i], sorted_ts[near], sorted_te[near])
            if ious.max() >= iou_threshold:
                continue
        kept[rank[i]] = True
        keep.append(i)
    keep = np.array(keep, dtype=np.intp)
    return t_starts[keep], t_ends[keep], scores[keep]


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def assert_merge_matches_oracle(ts, te, sc, thr):
    """The merge, with its stock blocks and with blocks and pair runs so
    small that every branch runs, and the start-window oracle all equal the
    all-pairs greedy oracle."""
    want = greedy_merge_oracle(ts, te, sc, iou_threshold=thr)
    assert_same_arrays(pp.merge_window_duplicates(ts, te, sc, iou_threshold=thr), want)
    with mock.patch.multiple(pp, _MERGE_BLOCK=3, _PAIR_BUDGET=4):
        assert_same_arrays(pp.merge_window_duplicates(ts, te, sc, iou_threshold=thr), want)
    assert_same_arrays(start_window_merge_oracle(ts, te, sc, iou_threshold=thr), want)


def window_grid_candidates(L, dt, rng):
    """Every cell of three half-overlapping L-step windows, in seconds as
    window-mode inference makes them, with scores rounded to 2 decimals so
    that ties occur."""
    ss, ee = np.triu_indices(L)
    offsets = [o * dt for o in (0, L // 2, L)]
    ts = np.concatenate([ss * dt + o for o in offsets])
    te = np.concatenate([(ee + 1) * dt + o for o in offsets])
    return ts, te, rng.uniform(0, 1, ts.size).round(2)


def merge_peak_bytes(ts, te, sc, thr=0.95):
    """Kept arrays of the merge, and the peak of memory it allocates."""
    tracemalloc.start()
    try:
        out = pp.merge_window_duplicates(ts, te, sc, iou_threshold=thr)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MERGE_PEAK_LIMIT = 16 * 2 ** 20

# name: (n -> (t_starts, t_ends), n, n compared with the oracle, n kept or None)
DENSE_INPUTS = {
    # one interval over and over: only the first in score order is kept
    "copies": (lambda n: (np.full(n, 3.0), np.full(n, 10.0)), 20000, 20000, 1),
    # zero-length intervals at one time: every union is 0, so all are kept
    "zero_length": (lambda n: (np.full(n, 5.0), np.full(n, 5.0)), 20000, 5000, 20000),
    # nested intervals [0, k], k = 1..n
    "nested": (lambda n: (np.zeros(n), np.arange(1.0, n + 1)), 3000, 3000, None),
}


def _shifted(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return x


@st.composite
def _merge_candidates(draw):
    """Coarse-grid intervals (exact duplicates, tied scores, zero lengths),
    plus copies of some with the start or the end moved to within a few ulp
    of where their IoU with the original crosses 0.95."""
    unit = draw(st.sampled_from([1.0, 0.25, 1 / 3, 600 / 577]))
    offset = draw(st.sampled_from([0.0, 64.0, 1e4 + 0.1]))
    grid = st.tuples(st.integers(0, 12), st.integers(0, 12))
    cells = draw(st.lists(grid, max_size=25))
    ts = [offset + s * unit for s, _ in cells]
    te = [offset + (s + n) * unit for s, n in cells]
    for j in draw(st.lists(st.integers(0, max(len(cells) - 1, 0)), max_size=6)
                  if cells else st.just([])):
        width = te[j] - ts[j]
        ulps = draw(st.integers(-3, 3))
        if draw(st.booleans()):
            ts.append(_shifted(ts[j] + 0.05 * width, ulps))
            te.append(te[j])
        else:
            ts.append(ts[j])
            te.append(_shifted(te[j] - 0.05 * width, ulps))
    level = st.sampled_from([0.2, 0.5, 0.9])
    scores = draw(st.lists(level | st.floats(0, 1), min_size=len(ts), max_size=len(ts)))
    return (np.array(ts, dtype=np.float64), np.array(te, dtype=np.float64),
            np.array(scores, dtype=np.float64))


class TestMergeWindowDuplicates:
    @settings(max_examples=400, deadline=None)
    @given(_merge_candidates(),
           st.sampled_from([0.95, 1.0]) | st.floats(0, 1, exclude_min=True))
    # two copies of a one-ulp interval below 0: union and intersection are both
    # the smallest subnormal, so their IoU is exactly 1
    @example((np.array([0.0, -5e-324, -5e-324]), np.zeros(3), np.full(3, 0.2)), 0.95)
    def test_bit_identical_to_greedy_oracle(self, candidates, thr):
        assert_merge_matches_oracle(*candidates, thr)

    def test_empty_and_single(self):
        empty = np.array([], dtype=np.float64)
        assert_merge_matches_oracle(empty, empty, empty, 0.95)
        assert_merge_matches_oracle(np.array([2.0]), np.array([3.0]), np.array([0.5]), 0.95)

    def test_threshold_edge_pairs(self):
        # against [0, 20], [1, 20] has IoU exactly 0.95; the third start makes
        # the intersection one ulp short of 19, so its IoU is just below
        below = 20.0 - _shifted(19.0, -1)
        ts = np.array([0.0, 1.0, below])
        te = np.full(3, 20.0)
        sc = np.array([0.9, 0.5, 0.4])
        kept = pp.merge_window_duplicates(ts, te, sc)[0]
        np.testing.assert_array_equal(kept, [0.0, below])
        assert_merge_matches_oracle(ts, te, sc, 0.95)

    def test_overlapping_window_grid(self):
        # candidates laid out as window-mode inference makes them: every cell
        # of three half-overlapping 24-step windows on an irregular time step
        L, dt = 24, 600 / 577
        ss, ee = np.triu_indices(L)
        ts = np.concatenate([(ss + o) * dt for o in (0, 12, 24)])
        te = np.concatenate([(ee + 1 + o) * dt for o in (0, 12, 24)])
        sc = RNG.uniform(0, 1, ts.size).round(2)
        for thr in (0.5, 0.8, 0.95, 1.0):
            assert_merge_matches_oracle(ts, te, sc, thr)

    @pytest.mark.parametrize("dt", [1.0, 600 / 577])
    @pytest.mark.parametrize("thr", [0.5, 0.95, 1.0])
    def test_full_scale_window_grid(self, dt, thr):
        # three half-overlapping L=128 windows, as a 256-step video gives
        ts, te, sc = window_grid_candidates(128, dt, t.init_rng(7))
        assert ts.size == 24768
        got, peak = merge_peak_bytes(ts, te, sc, thr)
        assert_same_arrays(got, start_window_merge_oracle(ts, te, sc, thr))
        assert peak <= MERGE_PEAK_LIMIT

    @pytest.mark.parametrize("case", sorted(DENSE_INPUTS))
    def test_dense_inputs(self, case):
        # the oracle runs on the first n_oracle candidates, which it merges
        # in well under 2 s; the memory bound holds at the full size
        build, n, n_oracle, n_kept = DENSE_INPUTS[case]
        ts, te = build(n)
        sc = t.init_rng(11).uniform(0, 1, n).round(2)
        got, peak = merge_peak_bytes(ts, te, sc)
        assert peak <= MERGE_PEAK_LIMIT
        if n_kept is not None:
            assert got[0].size == n_kept
        part = ts[:n_oracle], te[:n_oracle], sc[:n_oracle]
        if n_oracle < n:
            got = pp.merge_window_duplicates(*part)
        assert_same_arrays(got, start_window_merge_oracle(*part))

    @pytest.mark.parametrize("thr", [0.0, -0.5, 1.0 + 1e-12, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, thr):
        with pytest.raises(ValueError, match="iou_threshold"):
            pp.merge_window_duplicates(np.array([0.0]), np.array([1.0]), np.array([1.0]), thr)


class TestMergeInWindowInfer:
    def test_infer_equals_start_window_oracle(self, tmp_path, monkeypatch):
        # 600 frames at L=128, overlap 0.5: 9 windows, 74,304 candidates
        cfg = pl.RunConfig(window_mode=True, seed=0)
        spec = pl.SyntheticSpec(num_videos=1, channels=cfg.in_channels, seed=5,
                                duration_range=(600, 600))
        ds, _ = pl.synth_dataset(spec)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, SmbgNet(cfg.model_config(), seed=0))
        pl.infer(cfg, ckpt, ds, str(tmp_path / "merge.json"))
        merged = []

        def oracle(t_starts, *args, **kwargs):
            merged.append(len(t_starts))
            return start_window_merge_oracle(t_starts, *args, **kwargs)

        monkeypatch.setattr(pp, "merge_window_duplicates", oracle)
        pl.infer(cfg, ckpt, ds, str(tmp_path / "oracle.json"))
        assert merged == [74304]
        assert (tmp_path / "merge.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()


class TestProposalsIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "props.json")
        props = {"vid": [pp.ScoredProposal(0.0, 4.0, 0.75),
                         pp.ScoredProposal(1.0, 3.0, 0.25)]}
        pp.save_proposals(path, props)
        loaded = pp.load_proposals(path)
        assert loaded["vid"][0] == (0.0, 4.0, 0.75)
        assert loaded["vid"][1] == (1.0, 3.0, 0.25)
        assert all(type(p) is pp.ScoredProposal for p in loaded["vid"])

    def test_merge_window_duplicates_keeps_max_score(self):
        ts = np.array([0.0, 0.01, 10.0])
        te = np.array([5.0, 5.0, 15.0])
        sc = np.array([0.6, 0.9, 0.5])
        m_ts, m_te, m_sc = pp.merge_window_duplicates(ts, te, sc, iou_threshold=0.95)
        assert len(m_sc) == 2
        assert m_sc[0] == 0.9  # duplicate collapsed onto the higher score
