"""Label construction: IoR/IoU, boundary sequences, confidence maps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smbg.labels import (ActionInstance, TemporalGrid, assign_boundary_labels,
                         assign_map_labels, build_label_set, ior, iou,
                         load_annotations, save_annotations)


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
