"""The three benchmark workloads and the checks run on their outputs.

Each workload makes its inputs from the benchmark seed in `setup`, then
`run_pass` runs one timed pass through the public smbg drivers and
returns its timings. Checks run outside the timed regions and count into
a shared `Checks` object. Model weights come from a fixed seed, so the
benchmark seed only changes the data.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict

import numpy as np

from smbg import costmodel, evalkit, labels, losses, net, pipeline, postprocess
from smbg import tensor as t

MODEL_SEED = 0


class Checks:
    """Attempted operations and the ones whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_kind = {}            # kind -> [attempted, failed]
        self.messages = []
        # proposals ending past the duration by no more than END_TOLERANCE_S
        self.end_rounding = {"proposals": 0, "max_overshoot_s": 0.0}

    def expect(self, kind, ok, message):
        self.attempted += 1
        tally = self.by_kind.setdefault(kind, [0, 0])
        tally[0] += 1
        if not ok:
            self.failed += 1
            tally[1] += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# Same tolerance as the proposal-bounds assertion in tests/test_pipeline.py:
# fuse_scores computes t_end = (e+1) * (duration/T), which can round to one
# ulp past the duration. Such proposals pass and are tallied in end_rounding.
END_TOLERANCE_S = 1e-9


def check_proposals(checks, proposals, annotations, max_proposals):
    """Ranked by score, at most max_proposals, 0 <= t_start < t_end <= duration."""
    for vid, props in proposals.items():
        duration = annotations[vid]["duration_seconds"]
        scores = [p.score for p in props]
        checks.expect("proposals.count", len(props) <= max_proposals,
                      f"{vid}: {len(props)} proposals > {max_proposals}")
        checks.expect("proposals.ranked",
                      all(a >= b for a, b in zip(scores, scores[1:])),
                      f"{vid}: proposals not ranked by score")
        bad = [(p.t_start, p.t_end) for p in props
               if not 0.0 <= p.t_start < p.t_end <= duration + END_TOLERANCE_S]
        past = [p.t_end - duration for p in props if p.t_end > duration]
        checks.end_rounding["proposals"] += len(past)
        checks.end_rounding["max_overshoot_s"] = max(
            [checks.end_rounding["max_overshoot_s"]] + past)
        checks.expect("proposals.bounds", not bad,
                      f"{vid}: proposal outside [0, {duration!r}]: {bad[:3]}")


def check_auc(checks, name, auc, previous):
    """AUC finite, and bit-identical to the previous pass over the same inputs."""
    checks.expect("auc.finite", math.isfinite(auc), f"{name}: non-finite AUC {auc!r}")
    if previous is not None:
        checks.expect("auc.identical", auc == previous,
                      f"{name}: AUC {auc!r} differs from {previous!r} on identical inputs")


def _init_checkpoint(path, config):
    model = net.SmbgNet(config.model_config(), seed=MODEL_SEED)
    net.save_checkpoint(path, model, {"epoch": 0, "global_step": 0,
                                      "run_config": config.to_dict()})


class Workload:
    name = ""
    why = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.last_auc = None
        self.init_auc = None         # untrained checkpoint's AUC, where measured

    def params(self):
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def run_pass(self, checks):
        raise NotImplementedError

    def warmup(self):
        """Untimed run at the measured shapes, so allocator and caches settle."""

    def final_checks(self, checks):
        """Checks that need more than one pass's outputs; untimed."""

    def _check_outputs(self, checks, proposals, annotations, auc):
        check_proposals(checks, proposals, annotations, self.config.max_proposals)
        check_auc(checks, self.name, auc, self.last_auc)
        self.last_auc = auc


class ToyPipeline(Workload):
    """synth -> train -> infer -> evaluate at RunConfig() desk defaults."""

    name = "toy_pipeline"
    why = ("ROADMAP end-to-end definition at RunConfig() desk defaults; only workload "
           "that builds a graph and runs backward; training dominates")
    n_train = 64
    n_eval = 64
    epochs = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = pipeline.RunConfig(epochs=self.epochs, seed=MODEL_SEED,
                                         checkpoint_dir=os.path.join(workdir, "toy_ckpt"))

    def params(self):
        return {"run_config": "RunConfig() defaults except epochs and checkpoint_dir",
                "epochs": self.epochs, "n_train": self.n_train, "n_eval": self.n_eval,
                "batch_size": self.config.batch_size,
                "temporal_length": self.config.temporal_length,
                "train_steps_per_pass": -(-self.n_train // self.config.batch_size)
                * self.epochs,
                "model_seed": MODEL_SEED}

    def setup(self):
        (self.train_ds, _, self.eval_ds,
         self.eval_ann) = pipeline.make_benchmark_datasets(
            self.seed, n_train=self.n_train, n_eval=self.n_eval,
            channels=self.config.in_channels)

    def warmup(self):
        """One training step and one inference batch."""
        B = self.config.batch_size
        cfg = pipeline.RunConfig.from_dict(self.config.to_dict())
        cfg.checkpoint_dir = os.path.join(self.workdir, "toy_warmup")
        first = {v: self.train_ds[v] for v in sorted(self.train_ds)[:B]}
        result = pipeline.train(cfg, first)
        pipeline.infer(cfg, result.checkpoints[-1],
                       {v: self.eval_ds[v] for v in sorted(self.eval_ds)[:B]})

    def run_pass(self, checks):
        t0 = time.perf_counter()
        result = pipeline.train(self.config, self.train_ds)
        t1 = time.perf_counter()
        proposals = pipeline.infer(self.config, result.checkpoints[-1], self.eval_ds)
        t2 = time.perf_counter()
        report = pipeline.evaluate_proposals(proposals, self.eval_ann)
        t3 = time.perf_counter()
        self.checkpoints = result.checkpoints
        with open(result.log_path) as f:
            for line in f:
                rec = json.loads(line)
                checks.expect("loss.finite", "error" not in rec and all(
                    math.isfinite(rec[k]) for k in ("L_B", "L_C", "L_G", "total")),
                    f"step {rec.get('step')}: non-finite loss {rec}")
        self._check_outputs(checks, proposals, self.eval_ann, report.auc)
        return {"pipeline_s": t3 - t0, "train_s": t1 - t0, "infer_s": t2 - t1,
                "eval_s": t3 - t2, "train_samples": self.n_train * self.epochs,
                "videos": self.n_eval, "auc": report.auc}

    def final_checks(self, checks):
        """Training must beat the untrained init checkpoint it started from."""
        proposals = pipeline.infer(self.config, self.checkpoints[0], self.eval_ds)
        self.init_auc = pipeline.evaluate_proposals(proposals, self.eval_ann).auc
        checks.expect("auc.above_untrained", self.last_auc > self.init_auc,
                      f"trained AUC {self.last_auc!r} not above untrained "
                      f"{self.init_auc!r}")


class WindowLong(Workload):
    """Window-mode inference on long videos, one infer call per video."""

    name = "window_long"
    why = ("window mode on long videos spanning 3 windows each; merge_window_duplicates "
           "dominates, forward is small and there is no backward pass")
    n_videos = 2
    frames = 256          # 1 Hz; windows at offsets 0, 64, 128
    instances = (2, 4)
    instance_fraction = (0.04, 0.16)     # of the video; 4 of them always pack

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = pipeline.RunConfig(window_mode=True, seed=MODEL_SEED)
        self.ckpt = os.path.join(workdir, "window_init.ckpt")

    def params(self):
        L, overlap = self.config.window_length, self.config.window_overlap
        return {"window_length": L, "window_overlap": overlap,
                "n_videos": self.n_videos, "frames_per_video": self.frames,
                "windows_per_video": 1 + (self.frames - L) // int(L * (1 - overlap)),
                "instances": self.instances, "instance_fraction": self.instance_fraction,
                "checkpoint": f"SmbgNet init, seed {MODEL_SEED}",
                "channels": self.config.in_channels}

    def setup(self):
        spec = pipeline.SyntheticSpec(num_videos=self.n_videos,
                                      channels=self.config.in_channels,
                                      duration_range=(self.frames, self.frames),
                                      instances_range=self.instances,
                                      instance_fraction_range=self.instance_fraction,
                                      seed=self.seed,
                                      direction_seed=self.seed, name_prefix="long")
        self.dataset, self.annotations = pipeline.synth_dataset(spec)
        _init_checkpoint(self.ckpt, self.config)

    def run_pass(self, checks):
        per_video = []
        proposals = {}
        t0 = time.perf_counter()
        for vid in sorted(self.dataset):
            v0 = time.perf_counter()
            proposals.update(pipeline.infer(self.config, self.ckpt,
                                            {vid: self.dataset[vid]}))
            per_video.append(time.perf_counter() - v0)
        t1 = time.perf_counter()
        report = pipeline.evaluate_proposals(proposals, self.annotations)
        t2 = time.perf_counter()
        self._check_outputs(checks, proposals, self.annotations, report.auc)
        return {"pipeline_s": t2 - t0, "infer_s": t1 - t0, "eval_s": t2 - t1,
                "videos": self.n_videos, "video_s": per_video, "auc": report.auc}


class FullwidthFiles(Workload):
    """Published widths in rescale mode, features read back from CSV files."""

    name = "fullwidth_files"
    why = ("published widths (400 in, 128 base, 256 per branch) read from CSV; same "
           "tensor/net ops as toy_pipeline for inference only, memory-bound")
    n_videos = 8
    batch_size = 4
    batch_reason = ("batch 16 would need a 5.9 GB sec_dil im2col plus a 655 MB map "
                    "(_im2col2d shapes at 512 channels, T=100); batch 4 fits in 7 GB")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        full = costmodel.full_scale_model_config()
        widths = {k: getattr(full, k) for k in
                  ("in_channels", "base_hidden", "base_channels", "band_channels",
                   "boundary_hidden", "sec_hidden", "dilation")}
        self.config = pipeline.RunConfig(batch_size=self.batch_size, seed=MODEL_SEED,
                                         temporal_length=full.temporal_length,
                                         band_spec=asdict(full.band_spec), **widths)
        self.data_dir = os.path.join(workdir, "full_data")
        self.ckpt = os.path.join(workdir, "full_init.ckpt")

    def params(self):
        return {"model": "costmodel.full_scale_model_config()",
                "widths": {k: getattr(self.config, k) for k in
                           ("in_channels", "base_hidden", "base_channels",
                            "band_channels", "boundary_hidden", "sec_hidden")},
                "temporal_length": self.config.temporal_length, "mode": "rescale",
                "n_videos": self.n_videos, "batch_size": self.batch_size,
                "batch_reason": self.batch_reason, "feature_format": "csv",
                "checkpoint": f"SmbgNet init, seed {MODEL_SEED}"}

    def setup(self):
        spec = pipeline.SyntheticSpec(num_videos=self.n_videos,
                                      channels=self.config.in_channels, seed=self.seed,
                                      direction_seed=self.seed, name_prefix="full")
        self.generated, self.annotations = pipeline.synth_dataset(spec)
        self.ann_path = pipeline.write_dataset(self.generated, self.data_dir)
        _init_checkpoint(self.ckpt, self.config)

    def warmup(self):
        """One inference batch."""
        first = sorted(self.generated)[:self.batch_size]
        pipeline.infer(self.config, self.ckpt, {v: self.generated[v] for v in first})

    def run_pass(self, checks):
        t0 = time.perf_counter()
        dataset = pipeline.read_dataset(os.path.join(self.data_dir, "features"),
                                        self.ann_path)
        t1 = time.perf_counter()
        proposals = pipeline.infer(self.config, self.ckpt, dataset)
        t2 = time.perf_counter()
        report = pipeline.evaluate_proposals(proposals, self.annotations)
        t3 = time.perf_counter()
        for vid, d in self.generated.items():
            checks.expect("features.csv_exact",
                          np.array_equal(dataset[vid]["features"], d["features"]),
                          f"{vid}: CSV-loaded features differ from generated arrays")
        self._check_outputs(checks, proposals, self.annotations, report.auc)
        return {"pipeline_s": t3 - t0, "read_s": t1 - t0, "infer_s": t2 - t0,
                "eval_s": t3 - t2, "videos": self.n_videos, "auc": report.auc}


WORKLOADS = {w.name: w for w in (ToyPipeline, WindowLong, FullwidthFiles)}


# -- traced spans ------------------------------------------------------------

def trace_targets(workload):
    """(span name, owner, attribute, on_call) for every public function timed."""
    floor = workload.config.snms_floor

    def batch_samples(key):
        def on_call(tr, args, kwargs, result):
            tr.add(key, args[1].data.shape[0])
        return on_call

    def on_fuse(tr, args, kwargs, result):
        scores = result[4]
        tr.add("postprocess.fused", scores.size)
        tr.add("postprocess.above_floor", int((scores >= floor).sum()))

    def on_merge(tr, args, kwargs, result):
        tr.add("postprocess.merge.candidates", len(args[0]))
        tr.add("postprocess.merge.kept", len(result[0]))

    def on_assemble(tr, args, kwargs, result):
        tr.peak("tensor.fp_map_bytes", 8 * math.prod(result.data.shape))

    def on_conv2d(tr, args, kwargs, result):
        x, w = args[0], args[1]
        B, C, H, W = x.shape
        k = w.shape[-1]
        if k > 1:
            tr.peak("tensor.sec_dil_im2col_bytes", 8 * B * C * k * k * H * W)

    def on_save(tr, args, kwargs, result):
        tr.peak("net.checkpoint_bytes", os.path.getsize(args[0]))

    return [
        ("pipeline.train", pipeline, "train", None),
        ("pipeline.infer", pipeline, "infer", None),
        ("pipeline.evaluate_proposals", pipeline, "evaluate_proposals", None),
        ("pipeline.read_dataset", pipeline, "read_dataset", None),
        ("pipeline.load_features", pipeline, "load_features", None),
        ("pipeline.rescale_linear", pipeline, "rescale_linear", None),
        ("pipeline.sliding_windows", pipeline, "sliding_windows", None),
        ("pipeline.build_samples", pipeline, "build_samples", None),
        ("labels.build_label_set", labels, "build_label_set", None),
        ("net.base_module", net.SmbgNet, "base_module", batch_samples("net.base_module.n")),
        ("net.boundary_head", net.SmbgNet, "boundary_head", None),
        ("net.mpfg_forward", net.SmbgNet, "mpfg_forward",
         batch_samples("net.mpfg_forward.n")),
        ("net.sec_head", net.SmbgNet, "sec_head", batch_samples("net.sec_head.n")),
        ("net.save_checkpoint", net, "save_checkpoint", on_save),
        ("net.load_checkpoint", net, "load_checkpoint", None),
        ("tensor.conv1d_same", t, "conv1d_same", None),
        ("tensor.conv2d_dilated", t, "conv2d_dilated", on_conv2d),
        ("tensor.assemble_band_maps", t, "assemble_band_maps", on_assemble),
        ("tensor.batchnorm_lite", t, "batchnorm_lite", None),
        ("tensor.backward", t.Tensor, "backward", None),
        ("tensor.adam_step", t.AdamState, "step", None),
        ("losses.total_loss", losses, "total_loss", None),
        ("postprocess.fuse_scores", postprocess, "fuse_scores", on_fuse),
        ("postprocess.soft_nms", postprocess, "soft_nms", None),
        ("postprocess.merge_window_duplicates", postprocess, "merge_window_duplicates",
         on_merge),
        ("evalkit.evaluate", evalkit, "evaluate", None),
    ]
