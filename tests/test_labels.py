"""Label construction: IoR/IoU, boundary sequences, confidence maps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smbg.labels import (ActionInstance, TemporalGrid, assign_boundary_labels,
                         assign_map_labels, build_label_set, interval_iou, interval_ior,
                         load_annotations, save_annotations, valid_cells)
from smbg.reference import ior, iou


class TestIntervalRatios:
    def test_ior_identical(self):
        assert ior((0, 1), (0, 1)) == 1.0

    def test_ior_half(self):
        assert ior((0, 2), (1, 3)) == 0.5

    def test_ior_disjoint(self):
        assert ior((0, 1), (2, 3)) == 0.0

    def test_ior_zero_length_region_rejected(self):
        with pytest.raises(ValueError, match="positive length"):
            ior((1, 1), (0, 2))

    def test_iou_identical(self):
        assert iou((0, 2), (0, 2)) == 1.0

    def test_iou_third(self):
        assert iou((0, 2), (1, 3)) == pytest.approx(1 / 3)

    def test_iou_disjoint(self):
        assert iou((0, 1), (5, 6)) == 0.0

    def test_iou_degenerate_zero_by_convention(self):
        assert iou((1, 1), (1, 1)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(1e-9, 30),
                              st.floats(-50, 50), st.floats(-5, 30)), min_size=1, max_size=40))
    def test_interval_ior_equals_scalar_ior(self, rows):
        a0, a_len, b0, b_len = (np.array(c) for c in zip(*rows))
        a1, b1 = a0 + a_len, b0 + b_len
        got = interval_ior(a0, a1, b0, b1)
        want = [ior((float(x0), float(x1)), (float(y0), float(y1)))
                for x0, x1, y0, y1 in zip(a0, a1, b0, b1)]
        np.testing.assert_array_equal(got, want)


class TestGrid:
    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            TemporalGrid(0, 10.0)
        with pytest.raises(ValueError):
            TemporalGrid(10, 0.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="bad grid"):
            TemporalGrid(10, duration)

    def test_cell_interval(self):
        grid = TemporalGrid(10, 20.0)
        assert grid.cell_interval(2, 4) == (4.0, 10.0)
        ss, ee = valid_cells(10)
        want = [grid.cell_interval(int(s), int(e)) for s, e in zip(ss, ee)]
        np.testing.assert_array_equal(np.stack(grid.cell_interval(ss, ee), axis=1), want)


class TestValidCells:
    @pytest.mark.parametrize("T", [1, 2, 6, 100])
    def test_equals_triu_indices(self, T):
        ss, ee = valid_cells(T)
        want_s, want_e = np.triu_indices(T)
        assert ss.size == T * (T + 1) // 2
        np.testing.assert_array_equal(ss, want_s)
        np.testing.assert_array_equal(ee, want_e)

    def test_read_only(self):
        ss, ee = valid_cells(6)
        assert not ss.flags.writeable and not ee.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ss[0] = 1

    def test_second_call_returns_the_same_object(self):
        assert valid_cells(9) is valid_cells(9)


class TestBoundaryLabels:
    def test_empty_instances_give_zero(self):
        grid = TemporalGrid(10, 10.0)
        g_s, g_e = assign_boundary_labels([], grid)
        assert not g_s.any() and not g_e.any()

    def test_start_fully_inside_region(self):
        grid = TemporalGrid(10, 10.0)
        g_s, _ = assign_boundary_labels([ActionInstance(3.0, 6.0)], grid)
        assert g_s[3] == 1.0

    def test_disjoint_cell_scores_zero(self):
        grid = TemporalGrid(10, 10.0)
        g_s, _ = assign_boundary_labels([ActionInstance(3.0, 6.0)], grid)
        assert g_s[1] == 0.0

    def test_end_anchor_peaks_at_matching_cell(self):
        # instance ending at 6.0 peaks at end position 5 (cell end time 6.0)
        grid = TemporalGrid(10, 10.0)
        _, g_e = assign_boundary_labels([ActionInstance(3.0, 6.0)], grid)
        assert g_e[5] == 1.0

    def test_values_in_unit_interval(self):
        grid = TemporalGrid(25, 60.0)
        g_s, g_e = assign_boundary_labels(
            [ActionInstance(3.0, 20.0), ActionInstance(30.0, 50.0)], grid)
        for g in (g_s, g_e):
            assert np.all(g >= 0) and np.all(g <= 1)

    def test_instance_order_invariance(self):
        grid = TemporalGrid(20, 40.0)
        a = [ActionInstance(2.0, 10.0), ActionInstance(15.0, 30.0)]
        g1 = assign_boundary_labels(a, grid)
        g2 = assign_boundary_labels(a[::-1], grid)
        np.testing.assert_array_equal(g1[0], g2[0])
        np.testing.assert_array_equal(g1[1], g2[1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.floats(1.0, 500.0),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=6))
    def test_equals_per_cell_scalar_ior(self, T, duration, spans):
        grid = TemporalGrid(T, duration)
        insts = [ActionInstance(min(u, v) * duration, (max(u, v) + 1e-3) * duration)
                 for u, v in spans]
        g_s, g_e = assign_boundary_labels(insts, grid)
        dt = grid.dt
        want_s, want_e = np.zeros(T), np.zeros(T)
        for inst in insts:
            for n in range(T):
                lo, mid, hi = (np.clip((n + f) * dt, 0, duration) for f in (-0.5, 0.5, 1.5))
                cell_s, cell_e = (lo, mid), (mid, hi)
                want_s[n] = max(want_s[n], ior(cell_s, (inst.t_start - dt, inst.t_start + dt)))
                want_e[n] = max(want_e[n], ior(cell_e, (inst.t_end - dt, inst.t_end + dt)))
        np.testing.assert_array_equal(g_s, want_s)
        np.testing.assert_array_equal(g_e, want_e)


class TestMapLabels:
    def test_empty_instances_give_zero(self):
        assert not assign_map_labels([], TemporalGrid(10, 10.0)).any()

    def test_exact_cell_scores_one(self):
        g_c = assign_map_labels([ActionInstance(2.0, 5.0)], TemporalGrid(10, 10.0))
        assert g_c[2, 4] == 1.0

    def test_full_video_cell_scores_point_three(self):
        g_c = assign_map_labels([ActionInstance(2.0, 5.0)], TemporalGrid(10, 10.0))
        assert g_c[0, 9] == pytest.approx(0.3)

    def test_below_diagonal_zero(self):
        g_c = assign_map_labels([ActionInstance(2.0, 5.0)], TemporalGrid(10, 10.0))
        assert np.abs(np.tril(g_c, -1)).max() == 0.0

    def test_ior_mode_scores_by_candidate_length(self):
        g_c = assign_map_labels([ActionInstance(2.0, 5.0)], TemporalGrid(10, 10.0),
                                mode="ior")
        assert g_c[0, 9] == pytest.approx(0.3)   # same here: |inter|/10
        assert g_c[2, 3] == pytest.approx(1.0)   # short candidate inside instance
        assert assign_map_labels([ActionInstance(2.0, 5.0)], TemporalGrid(10, 10.0),
                                 mode="iou")[2, 3] == pytest.approx(2 / 3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="map label"):
            assign_map_labels([], TemporalGrid(4, 4.0), mode="nope")

    @pytest.mark.parametrize("mode", ["iou", "ior"])
    @pytest.mark.parametrize("duration", [10.0, 70.3, 110.0])
    def test_scores_cell_intervals_bit_for_bit(self, mode, duration):
        # 110 over T=100: (e+1)*dt at e = T-1 rounds past the duration, and the
        # labels score the unclamped interval that cell_interval gives
        T = 100
        grid = TemporalGrid(T, duration)
        insts = [ActionInstance(0.1 * duration, 0.4 * duration),
                 ActionInstance(0.35 * duration, duration)]
        lo, hi = grid.cell_interval(*valid_cells(T))
        assert (hi.max() > duration) == (duration == 110.0)
        overlap = interval_iou if mode == "iou" else interval_ior
        want = np.zeros((T, T))
        want[valid_cells(T)] = np.maximum(*(overlap(lo, hi, i.t_start, i.t_end) for i in insts))
        np.testing.assert_array_equal(assign_map_labels(insts, grid, mode), want)


class TestLabelSetProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.5, 20.0), st.floats(1.0, 10.0))
    def test_scale_invariance(self, start, length):
        inst = [ActionInstance(start, start + length)]
        duration = 2 * (start + length)
        g1 = build_label_set(inst, TemporalGrid(16, duration))
        scaled = [ActionInstance(2 * start, 2 * (start + length))]
        g2 = build_label_set(scaled, TemporalGrid(16, 2 * duration))
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_grid_aligned_instance_has_unit_fused_cell(self):
        grid = TemporalGrid(10, 10.0)
        g_s, g_e, g_c = build_label_set([ActionInstance(3.0, 6.0)], grid)
        assert g_s[3] * g_e[5] * g_c[3, 5] == 1.0

    def test_all_values_bounded(self):
        grid = TemporalGrid(30, 77.0)
        g_s, g_e, g_c = build_label_set(
            [ActionInstance(1.5, 20.0), ActionInstance(33.0, 70.2)], grid)
        for g in (g_s, g_e, g_c):
            assert np.all(g >= 0) and np.all(g <= 1)


class TestAnnotationIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ann.json")
        data = {
            "vid_a": {"duration_seconds": 30.0,
                      "instances": [ActionInstance(1.0, 5.5), ActionInstance(10.0, 20.0)]},
            "vid_b": {"duration_seconds": 12.0, "instances": []},
        }
        save_annotations(path, data)
        loaded = load_annotations(path)
        assert loaded["vid_a"]["duration_seconds"] == 30.0
        assert loaded["vid_b"]["instances"] == []
        assert loaded["vid_a"]["instances"][1].t_end == 20.0

    def test_invalid_instance_rejected(self):
        with pytest.raises(ValueError, match="t_end > t_start"):
            ActionInstance(5.0, 5.0)
        with pytest.raises(ValueError, match=">= 0"):
            ActionInstance(-1.0, 5.0)

    @pytest.mark.parametrize("entry, message", [
        ({"instances": []}, "has no 'duration_seconds' field"),
        ({"duration_seconds": 9.0}, "has no 'instances' field"),
        ({"duration_seconds": 9.0, "instances": [{"end": 2.0}]}, "has no 'start' field"),
        ({"duration_seconds": 9.0, "instances": [{"start": 1.0}]}, "has no 'end' field"),
        ({"duration_seconds": float("nan"), "instances": []}, "duration_seconds nan"),
        ({"duration_seconds": float("inf"), "instances": []}, "duration_seconds inf"),
        ({"duration_seconds": 0.0, "instances": []}, "duration_seconds 0.0"),
        ({"duration_seconds": -3.0, "instances": []}, "duration_seconds -3.0"),
        ({"duration_seconds": 9.0, "instances": [{"start": 4.0, "end": 2.0}]},
         "t_end > t_start"),
    ])
    def test_bad_entry_names_file_and_video(self, tmp_path, entry, message):
        path = str(tmp_path / "ann.json")
        with open(path, "w") as f:
            json.dump({"ok": {"duration_seconds": 5.0, "instances": []}, "bad_vid": entry}, f)
        with pytest.raises(ValueError, match=f"ann.json: video 'bad_vid'.*{message}"):
            load_annotations(path)
