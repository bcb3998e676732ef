"""End-to-end drivers: data, synthetic benchmark, training, inference,
noise probing and hyperparameter sweeps.

A dataset is a dict: video_id -> {"features": [C, T_raw] float array,
"duration_seconds": float, "instances": [ActionInstance]}. Real feature
files are CSV (rows = time steps, columns = channels) or the binary
container; the synthetic generator stands in for the multi-gigabyte
two-stream features of the public benchmarks while preserving the
structural task (boundary localization in noisy sequences).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import evalkit, losses, postprocess, tensor as t
from .labels import (MAP_LABEL_MODES, ActionInstance, TemporalGrid, build_label_set,
                     load_annotations, save_annotations)
from .net import (BandSpecError, ModelConfig, ModelFieldError, SmbgNet,
                  drop_mask_mode, load_arrays, load_checkpoint, net_from_arrays,
                  save_arrays, save_checkpoint)


@dataclass
class SyntheticSpec:
    """Reproducible synthetic corpus: same spec -> identical bytes.

    direction_seed fixes the channel directions carrying the action and
    boundary signals; train/eval splits must share it (real feature
    channels mean the same thing in every video) while differing in
    `seed` so the videos themselves are disjoint.
    """

    num_videos: int = 200
    duration_range: tuple = (80, 160)      # seconds; features at 1 Hz
    instances_range: tuple = (1, 3)
    channels: int = 16
    snr: float = 6.0
    seed: int = 0
    direction_seed: int = 0
    instance_fraction_range: tuple = (0.08, 0.30)
    name_prefix: str = "video"

    def to_dict(self):
        return asdict(self)


@dataclass
class RunConfig:
    """Everything a run needs; round-trips losslessly through JSON."""

    temporal_length: int = 100
    window_mode: bool = False
    window_length: int = 128
    window_overlap: float = 0.5
    band_spec: dict = None
    dilation: int = 7
    map_label_mode: str = "iou"
    # model widths (desk-scale defaults; see costmodel for the full published-scale block)
    in_channels: int = 16
    base_hidden: int = 32
    base_channels: int = 16
    band_channels: int = 0
    boundary_hidden: int = 0
    sec_hidden: int = 16
    # objective
    confidence_lambda: float = losses.CONFIDENCE_LAMBDA
    guidance_beta: float = losses.GUIDANCE_BETA
    negative_ratio: int = 5
    positive_threshold: float = 0.5
    sample_classification: bool = True
    sample_regression: bool = True
    # optimization
    batch_size: int = 16
    learning_rate: float = 1e-3
    epochs: int = 10
    seed: int = 0
    # post-processing
    snms_sigma: float = postprocess.SOFT_NMS_SIGMA
    snms_floor: float = postprocess.SCORE_FLOOR
    max_proposals: int = postprocess.MAX_PROPOSALS
    # paths
    features_dir: str = ""
    annotations_path: str = ""
    checkpoint_dir: str = "checkpoints"
    out_dir: str = "out"
    synthetic: dict = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"RunConfig.{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)) or not math.isfinite(value)):
                raise ValueError(f"RunConfig.{f.name} must be a finite number, got {value!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"RunConfig.seed must be in [0, 2**64), got {self.seed}")
        if self.epochs < 0:
            raise ValueError(f"RunConfig.epochs must be >= 0, got {self.epochs}")
        if self.max_proposals < 1:
            raise ValueError(f"RunConfig.max_proposals must be >= 1, got {self.max_proposals}")
        if self.batch_size < 1:
            raise ValueError(f"RunConfig.batch_size must be >= 1, got {self.batch_size}")
        if self.negative_ratio < 1:
            raise ValueError(f"RunConfig.negative_ratio must be >= 1, got {self.negative_ratio}")
        if not self.snms_sigma > 0:
            raise ValueError(f"RunConfig.snms_sigma must be > 0, got {self.snms_sigma!r}")
        if not 0.0 <= self.window_overlap < 1.0:
            raise ValueError(f"RunConfig.window_overlap must be in [0, 1), "
                             f"got {self.window_overlap}")
        if self.map_label_mode not in MAP_LABEL_MODES:
            raise ValueError(f"RunConfig.map_label_mode must be one of {MAP_LABEL_MODES}, "
                             f"got {self.map_label_mode!r}")
        try:
            model = self.model_config()
        except BandSpecError as e:
            raise ValueError(f"RunConfig.band_spec {self.band_spec!r} is invalid for "
                             f"T={self.model_temporal_length}: {e}") from None
        except ModelFieldError as e:
            name = e.field
            if name == "temporal_length" and self.window_mode:
                name = "window_length"
            raise ValueError(f"RunConfig.{name} {e.problem}") from None
        if self.band_spec is None:
            self.band_spec = asdict(model.band_spec)

    @property
    def model_temporal_length(self):
        return self.window_length if self.window_mode else self.temporal_length

    def model_config(self):
        return ModelConfig(
            in_channels=self.in_channels,
            temporal_length=self.model_temporal_length,
            base_hidden=self.base_hidden,
            base_channels=self.base_channels,
            band_channels=self.band_channels,
            boundary_hidden=self.boundary_hidden,
            sec_hidden=self.sec_hidden,
            dilation=self.dilation,
            band_spec=self.band_spec,
        )

    def sampling_config(self, rng_seed=0):
        return losses.SamplingConfig(
            negative_ratio=self.negative_ratio,
            positive_threshold=self.positive_threshold,
            rng_seed=rng_seed,
            sample_classification=self.sample_classification,
            sample_regression=self.sample_regression,
        )

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d, where="run config"):
        if not isinstance(d, dict):
            raise ValueError(f"{where}: expected a JSON object, got {type(d).__name__}")
        d = drop_mask_mode(d, where)
        # retired field, still present in older run_config.json files
        d.pop("workers", None)
        try:
            return cls(**d)
        except (TypeError, ValueError) as e:  # TypeError: an unknown field
            raise ValueError(f"{where}: {e}") from None

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f), where=f"run config {path}")


# -- feature files -------------------------------------------------------

def save_features_csv(path, features):
    """Rows = time steps, columns = channels, exact-repr floats."""
    features = np.asarray(features, dtype=np.float64)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"c{i}" for i in range(features.shape[0])])
        w.writerows(features.T.tolist())


def save_features_bin(path, features):
    save_arrays(path, {"kind": "features"}, [("features", features)])


def _raise_bad_cell(path, li, row):
    """Name the first non-numeric or non-finite cell of CSV row li (0-based)."""
    for ci, v in enumerate(row):
        try:
            x = float(v)
        except ValueError:
            raise ValueError(f"{path}: non-numeric cell at row {li + 1}, "
                             f"column {ci + 1}: {v!r}") from None
        if not math.isfinite(x):
            raise ValueError(f"{path}: non-finite cell at row {li + 1}, column {ci + 1}")


def load_features(path):
    """[channels, T_raw] matrix from CSV or the binary container."""
    if path.endswith(".csv"):
        rows = []
        width = None
        with open(path, newline="") as f:
            for li, row in enumerate(csv.reader(f)):
                if not row:
                    continue
                try:
                    vals = list(map(float, row))
                except ValueError:
                    if li == 0:
                        continue  # header line
                    vals = None
                if width is None:
                    width = len(row)
                if len(row) != width:
                    raise ValueError(f"{path}: ragged row {li + 1} "
                                     f"(expected {width} columns, got {len(row)})")
                if vals is None or not all(map(math.isfinite, vals)):
                    _raise_bad_cell(path, li, row)
                rows.append(vals)
        if not rows:
            raise ValueError(f"{path}: empty feature file")
        return np.array(rows).T.copy()
    _, arrays = load_arrays(path)
    if "features" not in arrays:
        raise ValueError(f"{path}: feature container has no 'features' array")
    feats = arrays["features"]
    if feats.ndim != 2:
        raise ValueError(f"{path}: features must be [channels, T], got shape {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise ValueError(f"{path}: non-finite values in feature container")
    return feats


def rescale_linear(features, length):
    """Resample each channel at `length` uniform points over [0, T_raw - 1]."""
    C, T_raw = features.shape
    if T_raw < 2:
        raise ValueError(f"need at least 2 time steps to rescale, got {T_raw}")
    xs = np.linspace(0.0, T_raw - 1.0, length)
    grid = np.arange(T_raw, dtype=np.float64)
    return np.stack([np.interp(xs, grid, features[c]) for c in range(C)])


def sliding_windows(features, length, overlap):
    """[(window [C, length], start offset, valid length)] covering the video.

    Stride is length * (1 - overlap); the last window is right-aligned to
    cover the tail, and short videos give one zero-padded window.
    """
    if not 0 <= overlap < 1:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    C, T_raw = features.shape
    stride = max(1, int(round(length * (1.0 - overlap))))
    offsets = []
    o = 0
    while o + length <= T_raw:
        offsets.append(o)
        o += stride
    if not offsets:
        offsets = [0]
    elif offsets[-1] + length < T_raw:
        offsets.append(T_raw - length)
    out = []
    for o in offsets:
        chunk = features[:, o:o + length]
        valid = chunk.shape[1]
        if valid < length:
            chunk = np.pad(chunk, ((0, 0), (0, length - valid)))
        out.append((chunk, o, valid))
    return out


# -- synthetic data -------------------------------------------------------

def _place_instances(rng, duration, count, frac_range, max_tries=200):
    for _ in range(max_tries):
        lengths = rng.uniform(frac_range[0], frac_range[1], size=count) * duration
        starts = rng.uniform(0.0, duration - lengths)
        ivs = sorted(zip(starts, starts + lengths))
        if all(b0 - a1 >= 1.0 for (_, a1), (b0, _) in zip(ivs, ivs[1:])):
            return [ActionInstance(float(a), float(b)) for a, b in ivs]
    raise ValueError(f"could not pack {count} non-overlapping instances into "
                     f"{duration:.1f}s after {max_tries} tries")


def synth_dataset(spec):
    """(dataset dict, annotations dict), fully determined by the SyntheticSpec."""
    dir_rng = t.init_rng(np.random.SeedSequence([spec.direction_seed, 0xD1, 7]).generate_state(1)[0])
    dir_action = dir_rng.standard_normal(spec.channels)
    dir_action /= np.linalg.norm(dir_action)
    dir_edge = dir_rng.standard_normal(spec.channels)
    dir_edge -= dir_edge @ dir_action * dir_action
    dir_edge /= np.linalg.norm(dir_edge)
    dataset = {}
    for v in range(spec.num_videos):
        rng = t.init_rng(np.random.SeedSequence([spec.seed, 0xA5, v]).generate_state(1)[0])
        t_raw = int(rng.integers(spec.duration_range[0], spec.duration_range[1] + 1))
        duration = float(t_raw)
        count = int(rng.integers(spec.instances_range[0], spec.instances_range[1] + 1))
        instances = _place_instances(rng, duration, count, spec.instance_fraction_range) \
            if count else []
        frames = np.arange(t_raw, dtype=np.float64)
        indicator = np.zeros(t_raw)
        edges = np.zeros(t_raw)
        for inst in instances:
            overlap = np.minimum(frames + 1.0, inst.t_end) - np.maximum(frames, inst.t_start)
            indicator += np.clip(overlap, 0.0, 1.0)
            for tb in (inst.t_start, inst.t_end):
                edges += np.exp(-0.5 * ((frames + 0.5 - tb) / 1.5) ** 2)
        smooth = np.convolve(indicator, np.array([0.25, 0.5, 0.25]), mode="same")
        amp = np.sqrt(spec.snr)
        signal = amp * (np.outer(dir_action, smooth) + np.outer(dir_edge, edges))
        feats = signal + rng.standard_normal((spec.channels, t_raw))
        vid = f"{spec.name_prefix}_{v:04d}"
        dataset[vid] = {"features": feats, "duration_seconds": duration,
                        "instances": instances}
    annotations = {vid: {"duration_seconds": d["duration_seconds"],
                         "instances": d["instances"]} for vid, d in dataset.items()}
    return dataset, annotations


def write_dataset(dataset, out_dir):
    """Features as CSV plus annotations.json; returns the annotation path."""
    feat_dir = os.path.join(out_dir, "features")
    os.makedirs(feat_dir, exist_ok=True)
    for vid in sorted(dataset):
        save_features_csv(os.path.join(feat_dir, f"{vid}.csv"), dataset[vid]["features"])
    ann_path = os.path.join(out_dir, "annotations.json")
    save_annotations(ann_path, {vid: {"duration_seconds": d["duration_seconds"],
                                      "instances": d["instances"]}
                                for vid, d in dataset.items()})
    return ann_path


def read_dataset(features_dir, annotations_path):
    annotations = load_annotations(annotations_path)
    dataset = {}
    for vid, entry in annotations.items():
        csv_path = os.path.join(features_dir, f"{vid}.csv")
        bin_path = os.path.join(features_dir, f"{vid}.bin")
        path = csv_path if os.path.exists(csv_path) else bin_path
        if not os.path.exists(path):
            raise FileNotFoundError(f"no features for video {vid!r}: neither {csv_path} "
                                    f"nor {bin_path} exists")
        dataset[vid] = {"features": load_features(path),
                        "duration_seconds": entry["duration_seconds"],
                        "instances": entry["instances"]}
    return dataset


# -- views: one video as model inputs -----------------------------------------

def _views(vid, video, config, T):
    """One (x [C, T], TemporalGrid, offset_seconds, valid, local_instances) per model input.

    Rescale mode resamples the video onto T cells: one view, offset 0, all
    cells valid. Window mode gives one view per sliding window of T frames;
    cells at or past `valid` are padding, and the instances are clipped to
    the window and shifted to its start. Cell (s, e) of a view spans
    offset_seconds + grid.cell_interval(s, e) of the video.
    """
    feats = video["features"]
    t_raw = feats.shape[1]
    if t_raw < 2:
        raise ValueError(f"video {vid!r} has {t_raw} frame(s); at least 2 are needed")
    duration = video["duration_seconds"]
    if not config.window_mode:
        return [(rescale_linear(feats, T), TemporalGrid(T, duration), 0.0, T,
                 video["instances"])]
    dt_raw = duration / t_raw
    views = []
    for chunk, offset, valid in sliding_windows(feats, T, config.window_overlap):
        w_lo = offset * dt_raw
        w_hi = (offset + T) * dt_raw
        local = []
        for inst in video["instances"]:
            a = max(inst.t_start, w_lo)
            b = min(inst.t_end, w_hi)
            if b - a > dt_raw:  # ignore slivers shorter than one grid cell
                local.append(ActionInstance(a - w_lo, b - w_lo))
        views.append((chunk, TemporalGrid(T, T * dt_raw), w_lo, valid, local))
    return views


# -- training samples ------------------------------------------------------

def build_samples(dataset, config):
    """One training sample per view: model input plus its label set."""
    samples = []
    for vid in sorted(dataset):
        for x, grid, _, _, local in _views(vid, dataset[vid], config,
                                           config.model_temporal_length):
            g_s, g_e, g_c = build_label_set(local, grid, config.map_label_mode)
            samples.append({"video": vid, "x": x, "g_s": g_s, "g_e": g_e, "g_c": g_c})
    return samples


def _step_seed(seed, step):
    return int(np.random.SeedSequence([seed, 0x5EED, step]).generate_state(1)[0])


@dataclass
class TrainResult:
    checkpoints: list
    epoch_mean_loss: list
    steps: int
    log_path: str
    start_epoch: int = 0  # epochs done before this call; epoch_mean_loss[0] is epoch start_epoch + 1


def _log_lines_before(log_path, step):
    """Lines of a loss log whose step is below `step`.

    A run that crashed after its last checkpoint leaves lines for steps the
    resumed run will write again; those, and a torn last line without its
    newline, are dropped. A missing log reads as empty.
    """
    if not os.path.exists(log_path):
        return []
    with open(log_path) as f:
        lines = [line for line in f if line.endswith("\n")]
    kept = []
    for li, line in enumerate(lines):
        try:
            line_step = json.loads(line)["step"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise ValueError(f"{log_path}: line {li + 1} is not a loss log entry") from None
        if line_step < step:
            kept.append(line)
    return kept


def _non_finite_step(breakdown, outputs):
    """Which loss terms of a step are non-finite, and the first forward output
    (in P_s, P_e, P_c, P_r order) holding a non-finite value, with its index."""
    terms = [name for name, value in (("L_B", breakdown.boundary),
                                      ("L_C", breakdown.confidence),
                                      ("L_G", breakdown.guidance))
             if not np.isfinite(value)] or ["the total"]
    what = f"{', '.join(terms)} non-finite; "
    for key in ("P_s", "P_e", "P_c", "P_r"):
        bad = t.first_non_finite(outputs[key].data)
        if bad is not None:
            return what + f"first non-finite output {key} at index {bad}"
    return what + "every forward output is finite"


def _resume_state(config, resume):
    """(net, Adam state, epochs done, steps done) of a fresh run, or of the
    checkpoint `resume`."""
    if resume is None:
        net = SmbgNet(config.model_config(), seed=config.seed)
        return net, t.AdamState(net.parameters(), lr=config.learning_rate), 0, 0
    header, arrays = load_arrays(resume)
    net = net_from_arrays(header, arrays, f"checkpoint {resume}")
    opt = t.AdamState(net.parameters(), lr=config.learning_rate)
    opt.load_state_arrays(arrays, f"checkpoint {resume}")
    return net, opt, int(header["epoch"]), int(header["global_step"])


def _train_step(net, opt, batch, config, step, log):
    """Forward, loss, backward and Adam update of one batch of samples.

    Returns only the step's LossBreakdown: the graph lives in this frame
    alone, so it is released when the step returns, before the next step's
    forward builds its own. A non-finite loss writes an error line to `log`
    and raises, naming the step, the non-finite loss terms and the first
    forward output that holds a non-finite value.
    """
    x = t.Tensor(np.stack([b["x"] for b in batch]))
    g_s, g_e, g_c = (np.stack([b[key] for b in batch]) for key in ("g_s", "g_e", "g_c"))
    outputs = net.forward(x, train=True)
    cfg = config.sampling_config(rng_seed=_step_seed(config.seed, step))
    loss, breakdown = losses.total_loss(outputs, g_s, g_e, g_c, cfg,
                                        beta=config.guidance_beta,
                                        lam=config.confidence_lambda)
    if not np.isfinite(breakdown.total):
        what = _non_finite_step(breakdown, outputs)
        log.write(json.dumps({"step": step, "error": f"non-finite loss: {what}"}) + "\n")
        raise RuntimeError(f"training diverged: non-finite loss at step {step}: {what}")
    opt.zero_grad()
    loss.backward()
    opt.step()
    return breakdown


def train(config, dataset, resume=None):
    """Mini-batch Adam on the full objective; checkpoint per epoch.

    Fixed (config, seed) gives an identical loss trajectory and identical
    checkpoint bytes; resuming from an epoch checkpoint continues it
    exactly. Each step runs in _train_step, so at most one step's graph is
    alive at a time. Halts on a non-finite loss, naming the step, the
    non-finite loss terms and the first forward output that holds a
    non-finite value. The result's epoch_mean_loss holds the epochs this
    call ran, start_epoch + 1 onward.
    """
    os.makedirs(config.checkpoint_dir, exist_ok=True)
    samples = build_samples(dataset, config)
    if not samples:
        raise ValueError("training needs at least one sample")
    net, opt, start_epoch, global_step = _resume_state(config, resume)

    log_path = os.path.join(config.checkpoint_dir, "loss_log.jsonl")
    checkpoints = []
    if resume is None:
        init_path = os.path.join(config.checkpoint_dir, "init.ckpt")
        save_checkpoint(init_path, net, {"epoch": 0, "global_step": 0,
                                         "run_config": config.to_dict()}, opt)
        checkpoints.append(init_path)

    epoch_means = []
    kept_lines = [] if resume is None else _log_lines_before(log_path, global_step)
    with open(log_path, "w") as log:
        log.writelines(kept_lines)
        for epoch in range(start_epoch, config.epochs):
            order_seed = _step_seed(config.seed, 0xE70C + epoch)
            order = t.init_rng(order_seed).permutation(len(samples))
            epoch_losses = []
            for lo in range(0, len(order), config.batch_size):
                batch = [samples[i] for i in order[lo:lo + config.batch_size]]
                breakdown = _train_step(net, opt, batch, config, global_step, log)
                log.write(json.dumps({"step": global_step, "L_B": breakdown.boundary,
                                      "L_C": breakdown.confidence, "L_G": breakdown.guidance,
                                      "total": breakdown.total, "seed": breakdown.seed},
                                     sort_keys=True) + "\n")
                epoch_losses.append(breakdown.total)
                global_step += 1
            epoch_means.append(float(np.mean(epoch_losses)))
            ck = os.path.join(config.checkpoint_dir, f"epoch_{epoch + 1:03d}.ckpt")
            save_checkpoint(ck, net, {"epoch": epoch + 1, "global_step": global_step,
                                      "run_config": config.to_dict()}, opt)
            checkpoints.append(ck)
    return TrainResult(checkpoints=checkpoints, epoch_mean_loss=epoch_means,
                       steps=global_step, log_path=log_path, start_epoch=start_epoch)


# -- inference --------------------------------------------------------------

def _forward_arrays(net, x_batch, what):
    """(P_s, P_e, P_c, P_r) arrays of SmbgNet.predict, the one inference forward;
    a non-finite output raises, naming `what`."""
    out = net.predict(x_batch)
    for key, a in zip(("P_s", "P_e", "P_c", "P_r"), out):
        t.assert_finite(a, f"{key} of {what}")
    return out


def _check_channels(vid, video, net, checkpoint_path):
    """Raise a ValueError naming the video and the checkpoint when the
    video's feature channels are not the model's input channels."""
    have = video["features"].shape[0]
    want = net.config.in_channels
    if have != want:
        raise ValueError(f"feature/checkpoint shape mismatch for {vid}: features have "
                         f"{have} channels, checkpoint {checkpoint_path} expects {want}")


def infer(config, checkpoint_path, dataset, out_path=None):
    """Forward + fuse + Soft-NMS per video; top proposals as {vid: [...]}.

    All views, in sorted-video order, go through the network in batches of
    config.batch_size. A video is finished as soon as its last view is
    through: its candidates are merged (window mode), and the videos
    finished by one batch are suppressed together by
    postprocess.soft_nms_batch, which gives each video the bytes soft_nms
    gives it alone. Memory holds one batch plus the padded candidates of
    the videos finishing in it; videos of similar counts share a layout, so
    padding at most doubles them. Proposal ends are clamped to the video's
    duration.
    """
    net, header = load_checkpoint(checkpoint_path)
    T = net.config.temporal_length
    vids = sorted(dataset)
    for vid in vids:
        _check_channels(vid, dataset[vid], net, checkpoint_path)

    def flat_views():
        for vid in vids:
            views = _views(vid, dataset[vid], config, T)
            for k, view in enumerate(views):
                yield vid, view, k == len(views) - 1

    proposals = {}
    parts = []  # (t_starts, t_ends, scores) per view of the video being collected
    stream = flat_views()
    while batch := list(itertools.islice(stream, config.batch_size)):
        finished = {}  # vid -> candidates, for each video whose last view is in this batch
        x = np.stack([view[0] for _, view, _ in batch])
        what = f"videos {list(dict.fromkeys(vid for vid, _, _ in batch))}"
        p_s, p_e, p_c, p_r = _forward_arrays(net, x, what)
        for j, (vid, (_, grid, offset, valid, _), last) in enumerate(batch):
            ss, ee, ts, te, sc = postprocess.fuse_scores(p_s[j], p_e[j], p_c[j], p_r[j], grid)
            keep = (ss < valid) & (ee < valid)
            parts.append((ts[keep] + offset,
                          np.minimum(te[keep] + offset, dataset[vid]["duration_seconds"]),
                          sc[keep]))
            if not last:
                continue
            cands = tuple(np.concatenate(a) for a in zip(*parts))
            parts = []
            if config.window_mode:
                cands = postprocess.merge_window_duplicates(*cands)
            finished[vid] = cands
        kept = postprocess.soft_nms_batch(list(finished.values()), config.snms_sigma,
                                          config.snms_floor, config.max_proposals)
        for vid, (ts, te, sc) in zip(finished, kept):
            proposals[vid] = [postprocess.ScoredProposal(float(a), float(b), float(s))
                              for a, b, s in zip(ts, te, sc)]
    if out_path:
        postprocess.save_proposals(out_path, proposals)
    return proposals


def evaluate_proposals(proposals, annotations, an_grid=None, thresholds=None):
    gts = {vid: [(i.t_start, i.t_end) for i in entry["instances"]]
           for vid, entry in annotations.items()}
    return evalkit.evaluate(proposals, gts,
                            an_grid=an_grid if an_grid is not None else evalkit.DEFAULT_AN_GRID,
                            thresholds=thresholds if thresholds is not None
                            else evalkit.DEFAULT_THRESHOLDS)


# -- noise probe -------------------------------------------------------------

def _gt_cell(t_start, t_end, grid):
    """Map cell whose candidate interval best matches [t_start, t_end]."""
    s = int(round(t_start / grid.dt))
    e = int(round(t_end / grid.dt)) - 1
    s = min(max(s, 0), grid.length - 1)
    e = min(max(e, s), grid.length - 1)
    return s, e


def noise_probe(config, checkpoint_path, dataset, video_id,
                fractions=(0.2, 0.4, 0.6), trials=20, out_dir=None, seed=0):
    """Replace the central part of each instance's feature span with noise.

    For each fraction, reports the mean classification-map confidence at
    the ground-truth cells against the clean run, averaged over `trials`
    noise draws matched to the feature matrix's global mean/std. Writes
    per-fraction map snapshots as CSV grids when out_dir is given.

    The video reaches the model through _views, as in infer. Each instance
    is probed in the first view that holds it whole, at the _gt_cell of the
    instance shifted by that view's offset, on that view's grid; the
    snapshots are maps of the view that holds the first probed instance.
    Rescale mode has one view, the whole video.
    """
    net, _ = load_checkpoint(checkpoint_path)
    d = dataset[video_id]
    _check_channels(video_id, d, net, checkpoint_path)
    if not d["instances"]:
        raise ValueError(f"{video_id} has no annotated instances to probe")
    feats = d["features"]
    T = net.config.temporal_length
    dt_raw = d["duration_seconds"] / feats.shape[1]
    mean, std = float(feats.mean()), float(feats.std())
    views = _views(video_id, d, config, T)
    view_ends = [offset + valid * grid.dt for _, grid, offset, valid, _ in views]
    view_ends[-1] = math.inf  # the last view runs to the end of the video

    cells, skipped = [], []
    for inst in d["instances"]:
        lo = int(np.floor(inst.t_start / dt_raw))
        hi = int(np.ceil(inst.t_end / dt_raw))
        if hi - lo < 3:
            skipped.append({"instance": [inst.t_start, inst.t_end],
                            "note": "span shorter than 3 frames; skipped"})
            continue
        holding = [k for k, (_, _, offset, _, _) in enumerate(views)
                   if offset <= inst.t_start and inst.t_end <= view_ends[k]]
        if not holding:
            skipped.append({"instance": [inst.t_start, inst.t_end],
                            "note": "no view holds the whole instance; skipped"})
            continue
        k = holding[0]
        _, grid, offset, _, _ = views[k]
        cells.append((inst, lo, hi, k, _gt_cell(inst.t_start - offset, inst.t_end - offset,
                                                grid)))
    if not cells:
        raise ValueError(f"{video_id}: no instance can be probed; every one is shorter "
                         f"than 3 frames or held whole by no view")
    probed = sorted({k for _, _, _, k, _ in cells})

    def run(f_mat):
        """Classification maps of f_mat's probed views, by view index."""
        noisy_views = _views(video_id, dict(d, features=f_mat), config, T)
        x = np.stack([noisy_views[k][0] for k in probed])
        maps = [_forward_arrays(net, x[i:i + config.batch_size], f"video {video_id!r}")[2]
                for i in range(0, len(probed), config.batch_size)]
        return dict(zip(probed, np.concatenate(maps)))

    clean = run(feats)
    snap = cells[0][3]  # snapshots show the view of the first probed instance
    report = {"video": video_id, "fractions": list(fractions), "trials": trials,
              "skipped": skipped, "clean_confidence": {}, "per_fraction": []}
    for inst, _, _, k, (cs, ce) in cells:
        report["clean_confidence"][f"{inst.t_start:.2f}-{inst.t_end:.2f}"] = \
            float(clean[k][cs, ce])
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        np.savetxt(os.path.join(out_dir, "map_clean.csv"), clean[snap], delimiter=",",
                   fmt="%.6f")
    for fi, frac in enumerate(fractions):
        deltas = np.zeros((trials, len(cells)))
        conf = np.zeros((trials, len(cells)))
        last = clean
        for trial in range(trials):
            rng = t.init_rng(np.random.SeedSequence([seed, fi, trial]).generate_state(1)[0])
            noisy = feats.copy()
            for _, lo, hi, _, _ in cells:
                span = hi - lo
                n_rep = int(round(frac * span))
                if n_rep > 0:
                    c0 = lo + (span - n_rep) // 2
                    noisy[:, c0:c0 + n_rep] = rng.normal(mean, std, (feats.shape[0], n_rep))
            last = run(noisy)
            for ci, (_, _, _, k, (cs, ce)) in enumerate(cells):
                conf[trial, ci] = last[k][cs, ce]
                deltas[trial, ci] = last[k][cs, ce] - clean[k][cs, ce]
        report["per_fraction"].append({
            "fraction": frac,
            "mean_confidence": float(conf.mean()),
            "mean_delta": float(deltas.mean()),
        })
        if out_dir:
            np.savetxt(os.path.join(out_dir, f"map_f{int(round(frac * 100)):03d}.csv"),
                       last[snap], delimiter=",", fmt="%.6f")
    if out_dir:
        with open(os.path.join(out_dir, "probe_report.json"), "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return report


# -- sweeps -------------------------------------------------------------------

def sweep(config, axis, values, train_dataset, eval_dataset, eval_annotations,
          out_csv=None):
    """Train + evaluate once per axis value; rows of AR@{5,10,100} and AUC."""
    if axis not in ("kernel_sizes", "r_d"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    rows = []
    for vi, value in enumerate(values):
        if axis == "r_d":
            cfg = RunConfig.from_dict(dict(config.to_dict(), dilation=int(value)))
            label = str(value)
        else:
            cfg = RunConfig.from_dict(dict(config.to_dict(), band_spec=dict(value)))
            label = "/".join(str(k) for k in value["kernel_sizes"])
        cfg.checkpoint_dir = os.path.join(config.checkpoint_dir, f"sweep_{axis}_{vi}")
        result = train(cfg, train_dataset)
        props = infer(cfg, result.checkpoints[-1], eval_dataset)
        report = evaluate_proposals(props, eval_annotations)
        rows.append({
            "axis": axis, "value": label,
            "ar_at_5": report.ar_at_an[5], "ar_at_10": report.ar_at_an[10],
            "ar_at_100": report.ar_at_an[100], "auc": report.auc,
        })
    if out_csv:
        with open(out_csv, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
    return rows


# -- one-shot pipeline ---------------------------------------------------------

def make_benchmark_datasets(seed=0, n_train=200, n_eval=50, channels=16):
    """Seeded train/eval synthetic corpora for the toy benchmark."""
    train_spec = SyntheticSpec(num_videos=n_train, channels=channels, seed=seed,
                               direction_seed=seed, name_prefix="train")
    eval_spec = SyntheticSpec(num_videos=n_eval, channels=channels, seed=seed + 1,
                              direction_seed=seed, name_prefix="eval")
    train_ds, train_ann = synth_dataset(train_spec)
    eval_ds, eval_ann = synth_dataset(eval_spec)
    return train_ds, train_ann, eval_ds, eval_ann


def run_pipeline(config, out_dir, n_train=200, n_eval=50):
    """synth -> train -> infer -> eval, everything written under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = RunConfig.from_dict(config.to_dict())
    cfg.checkpoint_dir = os.path.join(out_dir, "checkpoints")
    train_ds, _, eval_ds, eval_ann = make_benchmark_datasets(
        cfg.seed, n_train=n_train, n_eval=n_eval, channels=cfg.in_channels)
    write_dataset(eval_ds, os.path.join(out_dir, "eval_data"))
    result = train(cfg, train_ds)
    proposals_path = os.path.join(out_dir, "proposals.json")
    props = infer(cfg, result.checkpoints[-1], eval_ds, proposals_path)
    report = evaluate_proposals(props, eval_ann)
    report_path = os.path.join(out_dir, "eval_report.json")
    evalkit.save_report(report_path, report)
    cfg.save(os.path.join(out_dir, "run_config.json"))
    return {"train": result, "proposals_path": proposals_path,
            "report_path": report_path, "report": report}
