"""Benchmark of the smbg proposal pipeline: end-to-end and per-layer metrics.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload toy_pipeline --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (inputs made from --seed; model weights from a fixed seed):
  toy_pipeline     synth -> pipeline.train (1 epoch) -> infer -> evaluate, desk widths
  window_long      window-mode pipeline.infer per long video, then evaluate
  fullwidth_files  published widths, CSV features -> read_dataset -> infer -> evaluate

One run sets its workload up several times (setup_s is the median), then
repeats timed passes until --seconds would be exceeded, and reports medians.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics from the spans (self time
unless the name says otherwise) plus the tracing overhead: traced minus
untraced median of pipeline_s and of infer seconds per video. Checks on
the outputs run outside the timed regions; each failed one counts in
`failed` and is printed as "check failed: ...". The last stdout
line is one JSON object {correct, attempted, failed, metrics}; the line
before it ("detail ...") carries provenance, sample counts and the
workload-specific metrics. Spans and results go to perfbench/out/.

--workload all runs each workload in its own process and prints every
end-to-end metric with its name, unit and workload, and the check totals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("toy_pipeline", "window_long", "fullwidth_files")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup is repeated at least this often, and until this much time is spent
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 200

# (name, unit) of the end-to-end metrics every workload reports
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("infer_videos_per_s", "1/s"),
              ("peak_rss_mb", "MB")]

# per-layer metrics: self-time spans, then the derived ones
SELF_SPANS = [
    "pipeline.train", "pipeline.infer", "pipeline.evaluate_proposals",
    "pipeline.read_dataset", "pipeline.load_features", "pipeline.rescale_linear",
    "pipeline.sliding_windows", "pipeline.build_samples", "labels.build_label_set",
    "net.save_checkpoint", "net.load_checkpoint",
    "tensor.conv1d_same", "tensor.conv2d_dilated", "tensor.assemble_band_maps",
    "tensor.batchnorm_lite", "tensor.backward", "tensor.adam_step",
    "losses.total_loss", "postprocess.fuse_scores", "postprocess.soft_nms",
    "postprocess.merge_window_duplicates", "evalkit.evaluate",
]
MODEL_BLOCKS = ["net.base_module", "net.boundary_head", "net.mpfg_forward", "net.sec_head"]
MODULES = ["pipeline", "labels", "net", "tensor", "losses", "postprocess", "evalkit"]
# span keys reported as "<key>.s": per-pass self time summed over the key's spans
SELF_KEYS = (SELF_SPANS
             + [f"{b}.{phase}" for b in MODEL_BLOCKS for phase in ("train", "infer")]
             + [f"module.{m}" for m in MODULES])
PER_LAYER = (
    [(f"{k}.s", "s") for k in SELF_KEYS]
    + [
        ("pipeline.train_step.s.p50", "s"),
        ("pipeline.train_step.s.tail", "s"),
        ("net.mpfg_forward.gmac_per_s", "GMAC/s"),
        ("net.sec_head.gmac_per_s", "GMAC/s"),
        ("net.sec_head.incl_s", "s"),
        ("net.sec_head_backward.share", "ratio"),
        ("net.checkpoint_bytes", "bytes"),
        ("tensor.fp_map_bytes", "bytes_computed"),
        ("tensor.sec_dil_im2col_bytes", "bytes_computed"),
        ("postprocess.merge.candidates", "count"),
        ("postprocess.merge.kept", "count"),
        ("postprocess.merge.kept_ratio", "ratio"),
        ("postprocess.above_floor_share", "ratio"),
        ("trace.spans", "count"),
        ("trace.overhead.pipeline_s", "s"),
        ("trace.overhead.infer_s", "s"),
    ]
)

# end-to-end metric (and workload) each per-layer metric is expected to move
TOY, WIN, FULL = WORKLOAD_NAMES
MOVES = {
    "pipeline.build_samples": f"train_samples_per_s on {TOY}",
    "labels.build_label_set": f"train_samples_per_s on {TOY}",
    "pipeline.load_features": f"infer_videos_per_s on {FULL}",
    "pipeline.read_dataset": f"infer_videos_per_s on {FULL}",
    "pipeline.rescale_linear": f"infer_videos_per_s on {FULL}",
    "pipeline.sliding_windows": f"window_video_s on {WIN}",
    "pipeline.train": f"train_samples_per_s on {TOY}",
    "pipeline.infer": f"infer_videos_per_s on {TOY} and {FULL}, window_video_s on {WIN}",
    "pipeline.evaluate_proposals": "pipeline_s on every workload",
    "net.base_module": f"train_samples_per_s on {TOY}; infer_videos_per_s, peak_rss_mb on {FULL}",
    "net.boundary_head": f"train_samples_per_s on {TOY}; infer_videos_per_s, peak_rss_mb on {FULL}",
    "net.mpfg_forward": f"train_samples_per_s on {TOY}; infer_videos_per_s, peak_rss_mb on {FULL}",
    "net.sec_head": f"train_samples_per_s on {TOY}; infer_videos_per_s, peak_rss_mb on {FULL}",
    "net.save_checkpoint": f"pipeline_s on {TOY}",
    "net.load_checkpoint": f"pipeline_s on {TOY}, window_video_s on {WIN}",
    "net.checkpoint_bytes": f"pipeline_s on {TOY}, window_video_s on {WIN}",
    "tensor.": f"train_samples_per_s on {TOY} (forward ops also {FULL}); not window_video_s",
    "tensor.fp_map_bytes": f"peak_rss_mb on {FULL}",
    "tensor.sec_dil_im2col_bytes": f"peak_rss_mb on {FULL}",
    "losses.": f"train_samples_per_s on {TOY}",
    "postprocess.merge": f"window_video_s on {WIN}; nothing on {TOY}",
    "postprocess.above_floor_share": f"window_video_s on {WIN}",
    "postprocess.fuse_scores": f"infer_videos_per_s on {TOY}, window_video_s on {WIN}",
    "postprocess.soft_nms": f"infer_videos_per_s on {TOY}, window_video_s on {WIN}",
    "evalkit.": "pipeline_s on every workload (small everywhere)",
    "module.": "pipeline_s of the workloads that call the module",
    "trace.": "nothing: measures the tracer itself",
}


def expected_move(metric):
    """MOVES entry with the longest prefix of the metric name."""
    keys = [k for k in MOVES if metric.startswith(k)]
    return MOVES[max(keys, key=len)] if keys else None


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in THREAD_ENV:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cap:
            os.environ[var] = str(cap)
    return {var: os.environ[var] for var in THREAD_ENV}


def blas_runtime():
    """(threads, config string) asked of the loaded OpenBLAS, or (None, None)."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            config = None
            if get_config is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                config = get_config().decode()
            return get_threads(), config
    return None, None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "smbg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, params, thread_env):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads, config = blas_runtime()
    return {"git_commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_runtime_config": config, "blas_threads": threads,
            "thread_env": thread_env, "nproc": nproc(), "machine": platform.machine(),
            "seed": args.seed, "workload": args.workload, "run_seconds": args.seconds,
            "trace": args.trace, "params": params}


def summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def measure(wl, checks, seconds, tracer, targets):
    """Timed passes until another would overrun `seconds`; traced ones alternate."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        cpu0 = time.process_time()
        if traced:
            with tracer.traced(targets, run_id=len(passes)):
                stats = wl.run_pass(checks)
        else:
            stats = wl.run_pass(checks)
        stats["cpu_s"] = time.process_time() - cpu0
        passes.append((traced, stats))
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["pipeline_s"] for _, s in passes)
        if len(passes) >= (2 if tracer else 1) and elapsed + typical > seconds:
            return passes


def end_to_end(passes, setup_times):
    """Each end-to-end quantity of the passes, with unit and sample count."""
    def stat(values, unit, better):
        return dict(summary(values), unit=unit, better=better)

    m = {"setup_s": stat(setup_times, "s", "lower"),
         "pipeline_s": stat([p["pipeline_s"] for p in passes], "s", "lower"),
         "infer_videos_per_s": stat([p["videos"] / p["infer_s"] for p in passes],
                                    "1/s", "higher"),
         "auc": stat([p["auc"] for p in passes], "%", "higher")}
    if "train_s" in passes[0]:
        m["train_samples_per_s"] = stat([p["train_samples"] / p["train_s"]
                                         for p in passes], "1/s", "higher")
    if "video_s" in passes[0]:
        m["window_video_s"] = stat([v for p in passes for v in p["video_s"]],
                                   "s", "lower")
    m["peak_rss_mb"] = {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "n": 1, "unit": "MB", "better": "lower"}
    return m


def per_layer(tracer, wl, traced, untraced):
    """Per-pass averages of span self times, plus counts and derived rates."""
    from smbg import costmodel

    n = len(traced)
    selfs = tracer.self_times()
    self_s, incl_s = {}, {}
    step_ends = {}
    for i, (name, start, end, _, run_id) in enumerate(tracer.spans):
        keys = [name, "module." + name.split(".")[0]]
        if name in MODEL_BLOCKS:
            phase = "train" if "pipeline.train" in tracer.ancestor_names(i) else "infer"
            keys.append(f"{name}.{phase}")
        for k in keys:
            self_s[k] = self_s.get(k, 0.0) + selfs[i]
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        if name == "tensor.adam_step":
            step_ends.setdefault(run_id, []).append(end)
    gaps = [b - a for ends in step_ends.values() for a, b in zip(ends, ends[1:])]

    macs = costmodel.smbg_layer_macs(wl.config.model_config(), batch=1)
    band = sum(v for k, v in macs.items() if k.startswith("band"))
    sec = sum(v for k, v in macs.items() if k.startswith("sec_"))

    def gmac(block, per_sample):
        busy = incl_s.get(block, 0.0)
        return per_sample * tracer.counts[f"{block}.n"] / busy / 1e9 if busy else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = sum(p["pipeline_s"] for p in traced)
    med = statistics.median
    out = {f"{k}.s": self_s.get(k, 0.0) / n for k in SELF_KEYS}
    out.update({
        "pipeline.train_step.s.p50": med(gaps) if gaps else 0.0,
        "pipeline.train_step.s.tail": max(gaps) if gaps else 0.0,
        "net.mpfg_forward.gmac_per_s": gmac("net.mpfg_forward", band),
        "net.sec_head.gmac_per_s": gmac("net.sec_head", sec),
        "net.sec_head.incl_s": incl_s.get("net.sec_head", 0.0) / n,
        "net.sec_head_backward.share": ratio(incl_s.get("net.sec_head", 0.0)
                                             + incl_s.get("tensor.backward", 0.0),
                                             traced_wall),
        "net.checkpoint_bytes": tracer.peaks["net.checkpoint_bytes"],
        "tensor.fp_map_bytes": tracer.peaks["tensor.fp_map_bytes"],
        "tensor.sec_dil_im2col_bytes": tracer.peaks["tensor.sec_dil_im2col_bytes"],
        "postprocess.merge.candidates": tracer.counts["postprocess.merge.candidates"] / n,
        "postprocess.merge.kept": tracer.counts["postprocess.merge.kept"] / n,
        "postprocess.merge.kept_ratio": ratio(tracer.counts["postprocess.merge.kept"],
                                              tracer.counts["postprocess.merge.candidates"]),
        "postprocess.above_floor_share": ratio(tracer.counts["postprocess.above_floor"],
                                               tracer.counts["postprocess.fused"]),
        "trace.spans": len(tracer.spans) / n,
        "trace.overhead.pipeline_s": med(p["pipeline_s"] for p in traced)
        - med(p["pipeline_s"] for p in untraced),
        "trace.overhead.infer_s": med(p["infer_s"] / p["videos"] for p in traced)
        - med(p["infer_s"] / p["videos"] for p in untraced),
    })
    units = dict(PER_LAYER)
    return {k: {"value": out[k], "unit": units[k]} for k, _ in PER_LAYER}


def run_one(args):
    thread_env = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS, Checks, trace_targets

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warmup()
        warmup_s = time.perf_counter() - t0
        checks = Checks()
        tracer = Tracer() if args.trace else None
        targets = trace_targets(wl) if args.trace else None
        ticks0 = cpu_ticks()
        passes = measure(wl, checks, args.seconds, tracer, targets)
        ticks1 = cpu_ticks()
        wl.final_checks(checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [s for traced, s in passes if not traced]
    traced = [s for traced, s in passes if traced]
    detail = end_to_end(untraced, setup_times)
    detail["failed_share"] = {"median": checks.failed / checks.attempted, "n": 1,
                              "unit": "ratio", "better": "lower"}
    if args.trace:
        metrics = per_layer(tracer, wl, traced, untraced)
    else:
        metrics = {name: {"value": detail[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args, wl.params(), thread_env),
              "why": wl.why, "warmup_s": warmup_s, "untrained_auc": wl.init_auc,
              # share of the machine's CPU time the hypervisor withheld while measuring
              "steal_share": (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
              if ticks0 and ticks1 else None,
              "end_to_end": detail, "metrics": metrics,
              "checks": {"attempted": checks.attempted, "failed": checks.failed,
                         "by_kind": checks.by_kind, "messages": checks.messages,
                         "end_rounding": checks.end_rounding},
              "passes": [dict(p, traced=tr) for tr, p in passes]}
    if args.trace:
        record["moves"] = {name: expected_move(name) for name in metrics}
        tracer.write(OUT / f"spans-{stem}.jsonl")
    with open(OUT / f"result-{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    for msg in checks.messages:
        print(f"check failed: {msg}")
    print("detail " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def run_child(workload, seed, seconds, trace=0):
    """One run in its own process: (exit code, last-line result, detail, stderr)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), None)
    result = json.loads(lines[-1]) if detail is not None else None
    return proc.returncode, result, detail, proc.stderr


def run_all(args):
    """Each workload in its own process; one table of every end-to-end metric."""
    rows, attempted, failed = [], 0, 0
    for name in WORKLOAD_NAMES:
        code, _, detail, stderr = run_child(name, args.seed, args.seconds)
        if code != 0 or detail is None:
            sys.stderr.write(stderr)
            print(f"{name}: run failed with exit code {code}")
            return 1
        attempted += detail["checks"]["attempted"]
        failed += detail["checks"]["failed"]
        for msg in detail["checks"]["messages"]:
            print(f"{name}: check failed: {msg}")
        for metric, v in detail["end_to_end"].items():
            rows.append((name, metric, v["unit"], v["median"], v["n"], v["better"]))
    print(f"{'workload':<17}{'metric':<21}{'unit':<7}{'median':>14}{'n':>5}  better")
    for name, metric, unit, value, n, better in rows:
        print(f"{name:<17}{metric:<21}{unit:<7}{value:>14.6g}{n:>5}  {better}")
    print(f"checks: {attempted} attempted, {failed} failed (seed {args.seed})")
    return 0 if failed == 0 else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "smbg" / "__init__.py").is_file():
        print(f"smbg sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
