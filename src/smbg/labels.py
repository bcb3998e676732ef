"""Ground-truth label construction from action-instance annotations.

Grid convention used everywhere downstream: a T-cell grid over a video
of `duration` seconds has spacing d_t = duration / T. Map cell (s, e)
stands for the candidate interval [s*d_t, (e+1)*d_t], so start
positions live at times n*d_t and end positions at times (n+1)*d_t.
Keeping the two boundary sequences on their own time anchors makes the
fused product hit exactly 1.0 on a grid-aligned instance.

``valid_cells`` and ``TemporalGrid.cell_interval`` are the one definition
of the valid cells and their seconds that losses and proposals read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class ActionInstance:
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(f"instance must have t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if self.t_start < 0:
            raise ValueError(f"instance start must be >= 0, got {self.t_start}")


@dataclass
class TemporalGrid:
    length: int
    duration: float

    def __post_init__(self):
        if self.length < 1 or not 0 < self.duration < math.inf:
            raise ValueError(f"bad grid (T={self.length}, duration={self.duration})")

    @property
    def dt(self):
        return self.duration / self.length

    def cell_interval(self, s, e):
        """Seconds (s*dt, (e+1)*dt) spanned by map cell (s, e); s and e may be
        index arrays. The end is not clamped to the duration."""
        return s * self.dt, (e + 1) * self.dt


@lru_cache(maxsize=16)
def valid_cells(T):
    """(s, e) index arrays of the T(T+1)/2 valid cells e >= s of a T-grid.

    Row-major (by s, then e), the order of np.triu_indices(T). The arrays
    are read-only and shared: a second call returns the same tuple.
    """
    ss, ee = np.triu_indices(T)
    ss.flags.writeable = False
    ee.flags.writeable = False
    return ss, ee


def interval_iou(a0, a1, b0, b1):
    """Broadcasting IoU of intervals [a0, a1] and [b0, b1].

    Each entry is computed with the same float operations as reference.iou,
    so it equals it exactly; where the union is not positive it is 0.
    """
    inter = np.maximum(0.0, np.minimum(a1, b1) - np.maximum(a0, b0))
    union = np.maximum(a1, b1) - np.minimum(a0, b0)
    return np.divide(inter, union, out=np.zeros_like(union), where=union > 0)


def interval_ior(a0, a1, b0, b1):
    """Broadcasting IoR: intersection of [a0, a1] and [b0, b1] over a1 - a0.

    Each entry is computed with the same float operations as reference.ior,
    so it equals it exactly; [a0, a1] must have positive length.
    """
    inter = np.maximum(0.0, np.minimum(a1, b1) - np.maximum(a0, b0))
    return inter / (a1 - a0)


def assign_boundary_labels(instances, grid):
    """Max-IoR start/end sequences G_s, G_e of length T.

    Location n's start anchor is the cell [(n-0.5)dt, (n+0.5)dt] around
    time n*dt; its end anchor sits one cell later, around (n+1)*dt. Both
    are clamped to the video and scored against the +-dt window around
    each instance boundary.
    """
    T, dt = grid.length, grid.dt
    g_s = np.zeros(T)
    g_e = np.zeros(T)
    idx = np.arange(T)
    start_lo = np.clip((idx - 0.5) * dt, 0, grid.duration)
    mid = np.clip((idx + 0.5) * dt, 0, grid.duration)  # start cells' end, end cells' start
    end_hi = np.clip((idx + 1.5) * dt, 0, grid.duration)
    for inst in instances:
        g_s = np.maximum(g_s, interval_ior(start_lo, mid, inst.t_start - dt, inst.t_start + dt))
        g_e = np.maximum(g_e, interval_ior(mid, end_hi, inst.t_end - dt, inst.t_end + dt))
    return g_s, g_e


MAP_LABEL_MODES = ("iou", "ior")


def assign_map_labels(instances, grid, mode="iou"):
    """Max-overlap confidence map G_c over valid (s, e) cells.

    mode='iou' scores each cell's candidate interval by intersection over
    union with the best instance; mode='ior' uses intersection over the
    candidate's own length instead.
    """
    if mode not in MAP_LABEL_MODES:
        raise ValueError(f"unknown map label mode {mode!r}")
    T = grid.length
    g_c = np.zeros((T, T))
    if not instances:
        return g_c
    ss, ee = valid_cells(T)
    cand_lo, cand_hi = grid.cell_interval(ss, ee)
    overlap = interval_iou if mode == "iou" else interval_ior
    for inst in instances:
        np.maximum.at(g_c, (ss, ee), overlap(cand_lo, cand_hi, inst.t_start, inst.t_end))
    return g_c


def build_label_set(instances, grid, map_mode="iou"):
    """(G_s, G_e, G_c) for one video."""
    g_s, g_e = assign_boundary_labels(instances, grid)
    g_c = assign_map_labels(instances, grid, map_mode)
    return g_s, g_e, g_c


# -- annotation JSON ----------------------------------------------------

def load_annotations(path):
    """{video_id: {"duration_seconds": float, "instances": [{start, end}]}}

    A missing field, a malformed value or a duration that is not a finite
    number > 0 raises a ValueError naming the file and the video.
    """
    with open(path) as f:
        raw = json.load(f)
    out = {}
    for vid, entry in raw.items():
        try:
            duration = float(entry["duration_seconds"])
            instances = [ActionInstance(float(i["start"]), float(i["end"]))
                         for i in entry["instances"]]
        except KeyError as e:
            raise ValueError(f"{path}: video {vid!r} has no {e.args[0]!r} field") from None
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: video {vid!r}: {e}") from None
        if not 0 < duration < math.inf:
            raise ValueError(f"{path}: video {vid!r} has duration_seconds {duration!r}; "
                             f"a finite number > 0 is needed")
        out[vid] = {"duration_seconds": duration, "instances": instances}
    return out


def save_annotations(path, annotations):
    raw = {
        vid: {
            "duration_seconds": entry["duration_seconds"],
            "instances": [{"start": i.t_start, "end": i.t_end} for i in entry["instances"]],
        }
        for vid, entry in annotations.items()
    }
    with open(path, "w") as f:
        json.dump(raw, f, indent=2, sort_keys=True)
        f.write("\n")
