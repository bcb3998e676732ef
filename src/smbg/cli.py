"""Command-line surface: train / infer / eval / cost / bench / probe / sweep / synth."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import costmodel, evalkit, pipeline, postprocess
from .labels import load_annotations
from .net import BmnConfig, ModelConfig, default_band_spec


def _load_config(args):
    cfg = pipeline.RunConfig.load(args.config) if args.config else pipeline.RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)  # checked like any RunConfig field
    out = args.out or os.environ.get("SMBG_OUT") or cfg.out_dir
    cfg.out_dir = out
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _load_dataset(cfg, require=True):
    if cfg.features_dir and cfg.annotations_path:
        return pipeline.read_dataset(cfg.features_dir, cfg.annotations_path)
    if cfg.synthetic:
        ds, _ = pipeline.synth_dataset(pipeline.SyntheticSpec(**cfg.synthetic))
        return ds
    if require:
        raise SystemExit("config needs features_dir+annotations_path or a synthetic block")
    return {}


def cmd_synth(args):
    cfg = _load_config(args)
    spec = pipeline.SyntheticSpec(**(cfg.synthetic or {}))
    if args.seed is not None:
        spec.seed = args.seed
    dataset, _ = pipeline.synth_dataset(spec)
    ann = pipeline.write_dataset(dataset, cfg.out_dir)
    print(f"wrote {len(dataset)} videos under {cfg.out_dir} (annotations: {ann})")


def cmd_train(args):
    cfg = _load_config(args)
    cfg.checkpoint_dir = os.path.join(cfg.out_dir, "checkpoints")
    dataset = _load_dataset(cfg)
    result = pipeline.train(cfg, dataset, resume=args.resume)
    print(f"trained {len(result.epoch_mean_loss)} epochs, {result.steps} steps in all")
    for e, m in enumerate(result.epoch_mean_loss, start=result.start_epoch + 1):
        print(f"  epoch {e}: mean total loss {m:.4f}")
    print(f"checkpoints: {', '.join(result.checkpoints[-2:])}")


def cmd_infer(args):
    cfg = _load_config(args)
    dataset = _load_dataset(cfg)
    out_path = os.path.join(cfg.out_dir, "proposals.json")
    pipeline.infer(cfg, args.checkpoint, dataset, out_path)
    print(f"wrote {out_path}")


def cmd_eval(args):
    cfg = _load_config(args)
    proposals = postprocess.load_proposals(args.proposals)
    annotations = load_annotations(args.annotations or cfg.annotations_path)
    report = pipeline.evaluate_proposals(proposals, annotations)
    report_path = os.path.join(cfg.out_dir, "eval_report.json")
    evalkit.save_report(report_path, report)
    if args.curve_csv:
        evalkit.save_curve_csv(args.curve_csv, report)
    print(f"AUC {report.auc:.2f} | AR@1 {report.ar_at_an[1]:.2f} "
          f"AR@10 {report.ar_at_an.get(10, float('nan')):.2f} "
          f"AR@100 {report.ar_at_an.get(100, float('nan')):.2f}")
    print(f"wrote {report_path}")


def cmd_cost(args):
    cfg = _load_config(args)
    if args.variant == "mpfg":
        model_cfg = costmodel.full_scale_model_config() if args.full_scale \
            else cfg.model_config()
        report = costmodel.smbg_cost_report(model_cfg, batch=args.batch)
    else:
        report = costmodel.bmn_cost_report(BmnConfig(), batch=args.batch)
    path = os.path.join(cfg.out_dir, f"cost_{args.variant}.json")
    costmodel.save_cost_report(path, report)
    print(report.table())
    print(f"wrote {path}")


def cmd_bench(args):
    cfg = _load_config(args)
    smbg_cfg = bmn_cfg = None
    if args.temporal_length != 100 or args.channels != 128:
        T, n = args.temporal_length, args.channels
        smbg_cfg = ModelConfig(in_channels=n, temporal_length=T, base_channels=n,
                               band_channels=2 * n, dilation=min(7, max(1, T - 1)),
                               band_spec=default_band_spec(T))
        bmn_cfg = BmnConfig(channels=n, temporal_length=T)
    result = costmodel.bench_compare(repetitions=args.repetitions, warmup=args.warmup,
                                     batch=args.batch, seed=cfg.seed,
                                     smbg_config=smbg_cfg, bmn_config=bmn_cfg)
    path = os.path.join(cfg.out_dir, "bench.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"mpfg    median {result['mpfg']['median_s'] * 1e3:.1f} ms")
    print(f"bmn_pfg median {result['bmn_pfg']['median_s'] * 1e3:.1f} ms")
    print(f"speedup (median): {result['speedup_median']:.2f}x")
    print(f"wrote {path}")


def cmd_probe(args):
    cfg = _load_config(args)
    dataset = _load_dataset(cfg)
    video = args.video or sorted(dataset)[0]
    report = pipeline.noise_probe(cfg, args.checkpoint, dataset, video,
                                  fractions=tuple(args.fractions), trials=args.trials,
                                  out_dir=cfg.out_dir, seed=cfg.seed)
    for row in report["per_fraction"]:
        print(f"fraction {row['fraction']:.2f}: mean confidence {row['mean_confidence']:.4f} "
              f"(delta {row['mean_delta']:+.4f})")


def cmd_sweep(args):
    cfg = _load_config(args)
    cfg.checkpoint_dir = os.path.join(cfg.out_dir, "checkpoints")
    train_ds, _, eval_ds, eval_ann = pipeline.make_benchmark_datasets(
        cfg.seed, n_train=args.train_videos, n_eval=args.eval_videos,
        channels=cfg.in_channels)
    if args.axis == "r_d":
        values = [int(v) for v in args.values]
    else:
        values = [json.loads(v) for v in args.values]
    out_csv = os.path.join(cfg.out_dir, f"sweep_{args.axis}.csv")
    rows = pipeline.sweep(cfg, args.axis, values, train_ds, eval_ds, eval_ann, out_csv)
    for row in rows:
        print(f"{row['value']}: AUC {row['auc']:.2f}, AR@100 {row['ar_at_100']:.2f}")
    print(f"wrote {out_csv}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="smbg",
                                     description="temporal action proposal toolkit")
    parser.add_argument("--config", help="run-config JSON path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", help="output directory (or env SMBG_OUT)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate a synthetic dataset")

    p = sub.add_parser("train", help="train on the configured dataset")
    p.add_argument("--resume", help="checkpoint to resume from")

    p = sub.add_parser("infer", help="write proposals for a dataset")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("eval", help="score proposals against annotations")
    p.add_argument("--proposals", required=True)
    p.add_argument("--annotations")
    p.add_argument("--curve-csv")

    p = sub.add_parser("cost", help="analytic MAC report")
    p.add_argument("--variant", choices=("mpfg", "bmn_pfg"), default="mpfg")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--full-scale", action="store_true",
                   help="use the documented full-scale channel widths")

    p = sub.add_parser("bench", help="wall-clock block comparison")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--temporal-length", type=int, default=100)
    p.add_argument("--channels", type=int, default=128)

    p = sub.add_parser("probe", help="center-noise robustness probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video")
    p.add_argument("--fractions", type=float, nargs="+", default=[0.2, 0.4, 0.6])
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("sweep", help="kernel-size or dilation sweep")
    p.add_argument("--axis", choices=("kernel_sizes", "r_d"), required=True)
    p.add_argument("--values", nargs="+", required=True,
                   help="ints for r_d; JSON band specs for kernel_sizes")
    p.add_argument("--train-videos", type=int, default=40)
    p.add_argument("--eval-videos", type=int, default=10)

    args = parser.parse_args(argv)
    handler = {
        "synth": cmd_synth, "train": cmd_train, "infer": cmd_infer, "eval": cmd_eval,
        "cost": cmd_cost, "bench": cmd_bench, "probe": cmd_probe, "sweep": cmd_sweep,
    }[args.command]
    handler(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
