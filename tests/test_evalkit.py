"""Recall/AR/AUC metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smbg import evalkit
from smbg.labels import iou


def perfect_setup():
    # one instance per video so the exact match sits in the top-1 everywhere
    gts = {"a": [(2.0, 5.0)], "b": [(1.0, 4.0)], "c": [(8.0, 12.0)]}
    props = {vid: [(s, e, 1.0) for s, e in instances] for vid, instances in gts.items()}
    return props, gts


def scalar_match_ranks(proposals, gts, tiou):
    """Scalar greedy matcher: the oracle for evalkit's IoU-matrix matcher.

    proposals in rank order; for each ground truth the 1-based rank of the
    proposal that claims it (best unmatched IoU >= tiou, first on ties),
    or 0.
    """
    ranks = np.zeros(len(gts), dtype=int)
    if not proposals or not gts:
        return ranks
    taken = np.zeros(len(gts), dtype=bool)
    for rank, (t0, t1, _) in enumerate(proposals, start=1):
        best_j, best_v = -1, -1.0
        for j, g in enumerate(gts):
            if taken[j]:
                continue
            v = iou((t0, t1), g)
            if v >= tiou and v > best_v:
                best_j, best_v = j, v
        if best_j >= 0:
            taken[best_j] = True
            ranks[best_j] = rank
        if taken.all():
            break
    return ranks


# coarse grids make tied scores, duplicate intervals and exact-threshold IoUs common
_times = st.integers(0, 12).map(lambda i: i * 0.5)
_interval = st.tuples(_times, st.integers(1, 8).map(lambda d: d * 0.5)).map(
    lambda p: (p[0], p[0] + p[1]))
_proposal = st.tuples(_interval, st.sampled_from([0.1, 0.5, 0.5, 0.9, 1.0])).map(
    lambda p: (p[0][0], p[0][1], p[1]))


class TestMatcher:
    @settings(max_examples=200, deadline=None)
    @given(gts=st.lists(_interval, min_size=0, max_size=6),
           props=st.lists(_proposal, min_size=0, max_size=25),
           dup=st.integers(0, 4))
    def test_ranks_equal_scalar_oracle(self, gts, props, dup):
        props = props + props[:dup]  # exact duplicates: same interval, same score
        ranked = evalkit._sorted_proposals(props)
        ious = evalkit._iou_matrix(ranked, gts)
        assert ious.shape == (len(props), len(gts))
        for tiou in evalkit.DEFAULT_THRESHOLDS:
            np.testing.assert_array_equal(evalkit._match_ranks(ious, tiou),
                                          scalar_match_ranks(ranked, gts, tiou))

    def test_iou_matrix_equals_labels_iou(self):
        rng = np.random.default_rng(2)
        props = [(float(a), float(a + b), 1.0) for a, b in
                 zip(rng.uniform(0, 20, 30), rng.uniform(0.5, 8, 30))]
        gts = [(2.0, 6.0), (2.0, 6.0), (11.5, 19.0)]
        got = evalkit._iou_matrix(props, gts)
        want = [[iou((p0, p1), g) for g in gts] for p0, p1, _ in props]
        assert np.array_equal(got, np.array(want))


class TestRecallAt:
    def test_perfect_proposals_all_thresholds(self):
        props, gts = perfect_setup()
        for tiou in (0.5, 0.75, 0.95):
            assert evalkit.recall_at(props, gts, an=1, tiou=tiou) == 1.0

    def test_half_iou_flips_across_thresholds(self):
        gts = {"v": [(2.0, 5.0)]}
        props = {"v": [(1.0, 4.0, 0.9)]}  # iou exactly 0.5
        assert evalkit.recall_at(props, gts, an=1, tiou=0.5) == 1.0
        assert evalkit.recall_at(props, gts, an=1, tiou=0.55) == 0.0

    def test_no_proposals(self):
        gts = {"v": [(2.0, 5.0)]}
        assert evalkit.recall_at({}, gts, an=10, tiou=0.5) == 0.0

    def test_an_cutoff(self):
        gts = {"v": [(2.0, 5.0)]}
        props = {"v": [(20.0, 30.0, 0.9), (2.0, 5.0, 0.5)]}
        assert evalkit.recall_at(props, gts, an=1, tiou=0.5) == 0.0
        assert evalkit.recall_at(props, gts, an=2, tiou=0.5) == 1.0

    def test_one_to_one_matching(self):
        # one good proposal cannot recall two identical instances
        gts = {"v": [(2.0, 5.0), (2.0, 5.0)]}
        props = {"v": [(2.0, 5.0, 0.9)]}
        assert evalkit.recall_at(props, gts, an=5, tiou=0.5) == 0.5

    def test_videos_without_instances_ignored(self):
        gts = {"v": [(2.0, 5.0)], "empty": []}
        props = {"v": [(2.0, 5.0, 1.0)], "empty": [(0.0, 1.0, 1.0)]}
        assert evalkit.recall_at(props, gts, an=1, tiou=0.5) == 1.0

    def test_monotone_in_tiou_and_an(self):
        rng = np.random.default_rng(5)
        gts = {f"v{i}": [(float(a), float(a + b)) for a, b in
                         zip(rng.uniform(0, 20, 3), rng.uniform(1, 8, 3))]
               for i in range(4)}
        props = {vid: [(float(a), float(a + b), float(s)) for a, b, s in
                       zip(rng.uniform(0, 20, 30), rng.uniform(1, 8, 30),
                           rng.uniform(0, 1, 30))]
                 for vid in gts}
        last = 1.0
        for tiou in (0.3, 0.5, 0.7, 0.9):
            r = evalkit.recall_at(props, gts, an=20, tiou=tiou)
            assert r <= last + 1e-12
            last = r
        last = 0.0
        for an in (1, 5, 10, 30):
            r = evalkit.recall_at(props, gts, an=an, tiou=0.5)
            assert r >= last - 1e-12
            last = r


class TestAverageRecall:
    def test_perfect(self):
        props, gts = perfect_setup()
        assert evalkit.average_recall(props, gts, an=1) == 1.0

    def test_mean_over_two_thresholds(self):
        gts = {"v": [(2.0, 5.0)]}
        props = {"v": [(1.0, 4.0, 0.9)]}
        assert evalkit.average_recall(props, gts, an=1, thresholds=[0.5, 0.55]) == 0.5

    def test_empty_proposals(self):
        _, gts = perfect_setup()
        assert evalkit.average_recall({}, gts, an=100) == 0.0

    def test_empty_threshold_grid_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            evalkit.average_recall({}, {"v": [(0.0, 1.0)]}, an=1, thresholds=[])


class TestAuc:
    def test_perfect_is_exactly_100(self):
        props, gts = perfect_setup()
        report = evalkit.evaluate(props, gts)
        assert report.auc == 100.0

    def test_zero_recall_is_zero(self):
        _, gts = perfect_setup()
        report = evalkit.evaluate({}, gts)
        assert report.auc == 0.0

    def test_linear_ramp_closed_form(self):
        # AR(AN) = AN/100 -> trapezoid over 1..100 = 4999.5/99 percent
        an = np.arange(1, 101)
        ar = an / 100.0
        want = np.trapezoid(ar, an) / 99.0 * 100.0
        assert want == pytest.approx(4999.5 / 99.0, abs=1e-9)

    def test_score_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        gts = {"v": [(2.0, 6.0), (10.0, 15.0)]}
        props = {"v": [(float(a), float(a + b), float(s)) for a, b, s in
                       zip(rng.uniform(0, 18, 40), rng.uniform(1, 6, 40),
                           rng.uniform(0, 1, 40))]}
        r1 = evalkit.evaluate(props, gts)
        scaled = {"v": [(a, b, s * 7.5) for a, b, s in props["v"]]}
        r2 = evalkit.evaluate(scaled, gts)
        assert r1.auc == r2.auc
        assert r1.ar_at_an == r2.ar_at_an

    def test_ar_at_an_non_decreasing(self):
        rng = np.random.default_rng(3)
        gts = {f"v{i}": [(5.0, 9.0)] for i in range(3)}
        props = {vid: [(float(a), float(a + b), float(s)) for a, b, s in
                       zip(rng.uniform(0, 15, 50), rng.uniform(1, 6, 50),
                           rng.uniform(0, 1, 50))]
                 for vid in gts}
        report = evalkit.evaluate(props, gts)
        vals = [report.ar_at_an[an] for an in report.an_grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestReportIO:
    def test_report_roundtrip_and_curve(self, tmp_path):
        props, gts = perfect_setup()
        report = evalkit.evaluate(props, gts)
        evalkit.save_report(str(tmp_path / "r.json"), report)
        evalkit.save_curve_csv(str(tmp_path / "c.csv"), report)
        import json
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["auc"] == 100.0
        lines = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert lines[0] == "an,average_recall"
        assert len(lines) == 1 + len(report.an_grid)
