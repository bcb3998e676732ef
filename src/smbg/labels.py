"""Ground-truth label construction from action-instance annotations.

Grid convention used everywhere downstream: a T-cell grid over a video
of `duration` seconds has spacing d_t = duration / T. Map cell (s, e)
stands for the candidate interval [s*d_t, (e+1)*d_t], so start
positions live at times n*d_t and end positions at times (n+1)*d_t.
Keeping the two boundary sequences on their own time anchors makes the
fused product hit exactly 1.0 on a grid-aligned instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
        """Seconds spanned by map cell (s, e)."""
        return s * self.dt, (e + 1) * self.dt


def ior(region_a, region_b):
    """Intersection of the intervals over the length of region_a."""
    a0, a1 = region_a
    b0, b1 = region_b
    if a1 <= a0:
        raise ValueError(f"region_a must have positive length, got [{a0}, {a1}]")
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    return inter / (a1 - a0)


def iou(interval_a, interval_b):
    """Intersection over union; two empty intervals give 0 by convention."""
    a0, a1 = interval_a
    b0, b1 = interval_b
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = max(a1, b1) - min(a0, b0)
    if union <= 0:
        return 0.0
    return inter / union


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
    start_cells = np.stack([np.clip((idx - 0.5) * dt, 0, grid.duration),
                            np.clip((idx + 0.5) * dt, 0, grid.duration)], axis=1)
    end_cells = np.stack([np.clip((idx + 0.5) * dt, 0, grid.duration),
                          np.clip((idx + 1.5) * dt, 0, grid.duration)], axis=1)
    for inst in instances:
        rs = (inst.t_start - dt, inst.t_start + dt)
        re = (inst.t_end - dt, inst.t_end + dt)
        for n in range(T):
            g_s[n] = max(g_s[n], ior(tuple(start_cells[n]), rs))
            g_e[n] = max(g_e[n], ior(tuple(end_cells[n]), re))
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
    T, dt = grid.length, grid.dt
    g_c = np.zeros((T, T))
    if not instances:
        return g_c
    ss, ee = np.triu_indices(T)
    cand_lo = ss * dt
    cand_hi = (ee + 1) * dt
    for inst in instances:
        inter = np.maximum(0.0, np.minimum(cand_hi, inst.t_end) - np.maximum(cand_lo, inst.t_start))
        if mode == "iou":
            union = np.maximum(cand_hi, inst.t_end) - np.minimum(cand_lo, inst.t_start)
            score = inter / union
        else:
            score = inter / (cand_hi - cand_lo)
        np.maximum.at(g_c, (ss, ee), score)
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
