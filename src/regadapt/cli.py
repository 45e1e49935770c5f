"""Command-line surface: synth data, registration, pretraining, evaluation.

Subcommands: register, pretrain, synth, evaluate, baseline. Flag values
override config-file values, which override the built-in deployment
defaults (steps 50, lr 5e-4, warmup 10, lambda 0.1, windows 9/11,
tau 0.4, output scale 0.05). REGADAPT_SEED overrides the default seed.
Exit codes: 0 success, 1 I/O or usage errors, 2 numerical aborts.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
from multiprocessing import Pool

import numpy as np

from . import metrics as mx
from . import pipeline as pl
from . import unet as un
from .fields import DisplacementField, ndv
from .volume_io import (
    VolumeIOError,
    load_field,
    load_labels,
    load_landmarks,
    load_volume,
    save_field,
    save_labels,
    save_landmarks,
    save_volume,
    synth_problem,
)

_IO_DEFAULTS = {f.name: f.default for f in dataclasses.fields(pl.IOConfig)}


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors, not numerical aborts
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _add_io_flags(p):
    d = _IO_DEFAULTS
    p.add_argument("--steps", type=int, help=f"IO steps (default: {d['steps']})")
    p.add_argument("--lr", dest="base_lr", type=float,
                   help=f"Adam base learning rate (default: {d['base_lr']})")
    p.add_argument("--warmup", type=int,
                   help=f"linear warmup steps (default: {d['warmup']})")
    p.add_argument("--lambda", dest="lam", type=float,
                   help=f"regularization weight (default: {d['lam']})")
    p.add_argument("--lncc-window", type=int,
                   help=f"similarity LNCC window (default: {d['lncc_window']})")
    p.add_argument("--gate-window", type=int,
                   help=f"gate LNCC window (default: {d['gate_window']})")
    p.add_argument("--tau", type=float,
                   help=f"gate threshold (default: {d['tau']})")
    p.add_argument("--gate-down", type=int,
                   help=f"gate downsample factor (default: {d['gate_down']})")
    p.add_argument("--seed", type=int,
                   help="refiner init seed (default: 0, or REGADAPT_SEED)")
    p.add_argument("--variant", choices=["cascade", "single"],
                   help=f"refiner variant (default: {d['variant']})")
    p.add_argument("--update-mode", choices=["compose", "add"],
                   help=f"field update rule (default: {d['update_mode']})")
    p.add_argument("--scale-mode", choices=["finest_residual", "all_residuals"],
                   help=f"output-scale placement (default: {d['scale_mode']})")
    p.add_argument("--output-scale", type=float,
                   help=f"residual magnitude factor (default: {d['output_scale']})")
    p.add_argument("--dice-every", type=int,
                   help=f"trace Dice every N steps, 0 disables (default: {d['dice_every']})")
    p.add_argument("--base-channels", type=int,
                   help=f"U-Net base channels (default: {d['base_channels']})")
    p.add_argument("--depth", type=int,
                   help=f"U-Net depth in blocks (default: {d['depth']})")
    p.add_argument("--config", help="JSON config file; flags override its values")


def _effective_config(args):
    eff = dict(_IO_DEFAULTS)
    env_seed = os.environ.get("REGADAPT_SEED")
    if env_seed is not None:
        eff["seed"] = int(env_seed)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path) as f:
            file_cfg = json.load(f)
        if not isinstance(file_cfg, dict):
            raise VolumeIOError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_IO_DEFAULTS)
        if unknown:
            raise VolumeIOError(f"config file has unknown keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            want = type(_IO_DEFAULTS[key])
            if type(val) is int and want is float:
                val = float(val)
            if type(val) is not want:
                raise VolumeIOError(f"config file: {key!r} must be {want.__name__}, "
                                    f"got {type(val).__name__} {val!r}")
            eff[key] = val
    for key in _IO_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            eff[key] = val
    return pl.IOConfig(**eff)


def _parse_backbone(text):
    if text is None or text == "zero":
        return pl.BackboneSpec(kind="zero")
    if text == "variational":
        return pl.BackboneSpec(kind="variational")
    if text.startswith("file:"):
        return pl.BackboneSpec(kind="file", path=text[5:])
    raise VolumeIOError(f"unknown backbone {text!r} (use zero | variational | file:PATH)")


def _parse_style(text):
    if text is None or text == "identity":
        return pl.StyleTransferSpec(kind="identity")
    if text.startswith("monotone:"):
        ref = pl.reference_histogram(load_volume(text[len("monotone:"):]))
        return pl.StyleTransferSpec(kind="monotone_remap", reference=ref)
    if text.startswith("external:"):
        return pl.StyleTransferSpec(kind="external_command",
                                    command=tuple(text[len("external:"):].split()))
    raise VolumeIOError(
        f"unknown style {text!r} (use identity | monotone:REF.vol | external:CMD)")


def _write_trace(trace, path, timed):
    with open(path, "a") as f:
        for s in trace.steps:
            d = s.to_dict()
            if not timed:
                d["elapsed_ms"] = 0.0
            f.write(json.dumps(d) + "\n")


def _registration_report(result, cfg, metrics_report=None):
    rep = {
        "gate_fired": result.trace.gate_fired,
        "best_step": result.trace.best_step,
        "steps_run": len(result.trace.steps),
        "final_ndv": result.trace.final_ndv,
        "error": result.trace.error,
        "config": dataclasses.asdict(cfg),
    }
    if metrics_report is not None:
        rep["metrics"] = metrics_report.to_dict()
    return rep


# ---------------------------------------------------------------------------
# subcommands


def cmd_register(args):
    cfg = _effective_config(args)
    moving = load_volume(args.moving)
    fixed = load_volume(args.fixed)
    moving_labels = load_labels(args.moving_labels) if args.moving_labels else None
    fixed_labels = load_labels(args.fixed_labels) if args.fixed_labels else None
    landmarks = load_landmarks(args.landmarks) if args.landmarks else None
    backbone = _parse_backbone(args.backbone)
    style = _parse_style(args.style)
    result = pl.register_pair(moving, fixed, cfg=cfg, backbone=backbone, style=style,
                              moving_labels=moving_labels, fixed_labels=fixed_labels)
    if args.out_field:
        save_field(result.field, args.out_field, spacing=fixed.spacing)
    if args.trace:
        _write_trace(result.trace, args.trace, args.timed_trace)
    metrics_report = None
    if moving_labels is not None or landmarks is not None:
        metrics_report = mx.evaluate_pair(
            result.field, moving_labels=moving_labels, fixed_labels=fixed_labels,
            landmarks=landmarks, pair_id=os.path.basename(args.moving),
            spacing=fixed.spacing)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(_registration_report(result, cfg, metrics_report), f, indent=1)
    if result.trace.error:
        print(f"numerical abort: {result.trace.error}", file=sys.stderr)
        return 2
    return 0


def cmd_synth(args):
    prob = synth_problem(args.seed, dims=tuple(args.dims), max_disp=args.max_disp,
                         contrast=args.contrast)
    os.makedirs(args.out_dir, exist_ok=True)

    def out(name):
        return os.path.join(args.out_dir, name)

    save_volume(prob.phantom, out("phantom.vol"))
    save_labels(prob.labels, out("labels.vol"))
    save_field(prob.true_field, out("true_field.vol"))
    save_volume(prob.remapped, out("remapped.vol"))
    save_volume(prob.fixed, out("fixed.vol"))
    save_labels(prob.fixed_labels, out("fixed_labels.vol"))
    save_landmarks(prob.landmarks, out("landmarks.csv"))
    return 0


def _load_pairs_dir(path):
    pairs = []
    for name in sorted(os.listdir(path)):
        if name.endswith("_moving.vol"):
            stem = name[: -len("_moving.vol")]
            fx = os.path.join(path, stem + "_fixed.vol")
            if os.path.exists(fx):
                pairs.append((load_volume(os.path.join(path, name)), load_volume(fx)))
    return pairs


def cmd_pretrain(args):
    cfg = _effective_config(args)
    if args.data_dir:
        problems = [(m, f) for m, f in _load_pairs_dir(args.data_dir)]
    else:
        problems = []
        for i in range(args.synth_pairs):
            p = synth_problem(cfg.seed * 10000 + i, dims=tuple(args.dims),
                              max_disp=args.max_disp)
            problems.append((p.phantom, p.fixed))
    if not problems:
        print("pretrain: no training pairs found", file=sys.stderr)
        return 1
    cascade = cfg.make_cascade()
    history = pl.pretrain_refiners(problems, cascade, steps=args.pretrain_steps,
                                   lr=args.pretrain_lr, seed=cfg.seed, cfg=cfg)
    un.save_cascade(cascade, args.out)
    if args.history:
        with open(args.history, "a") as f:
            for i, h in enumerate(history, start=1):
                f.write(json.dumps({"step": i, "total": h}) + "\n")
    return 0


def _evaluate_one(entry):
    field = load_field(entry["field"])
    ml = load_labels(entry["moving_labels"]) if entry.get("moving_labels") else None
    fl = load_labels(entry["fixed_labels"]) if entry.get("fixed_labels") else None
    lms = load_landmarks(entry["landmarks"]) if entry.get("landmarks") else None
    return mx.evaluate_pair(field, moving_labels=ml, fixed_labels=fl, landmarks=lms,
                            pair_id=entry.get("pair_id", entry["field"]))


def cmd_evaluate(args):
    entries = []
    if args.batch:
        with open(args.batch) as f:
            entries = json.load(f)
        if not isinstance(entries, list) or not entries:
            print("evaluate: batch manifest must be a nonempty JSON list", file=sys.stderr)
            return 1
    else:
        if not args.field:
            print("evaluate: need --field or --batch", file=sys.stderr)
            return 1
        entries = [{
            "field": args.field, "moving_labels": args.moving_labels,
            "fixed_labels": args.fixed_labels, "landmarks": args.landmarks,
            "pair_id": args.pair_id or os.path.basename(args.field),
        }]
    if args.jobs > 1 and len(entries) > 1:
        with Pool(args.jobs) as pool:
            reports = pool.map(_evaluate_one, entries)
    else:
        reports = [_evaluate_one(e) for e in entries]
    if args.report:
        payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
        with open(args.report, "w") as f:
            json.dump(payload, f, indent=1)
    if args.csv:
        agg = mx.aggregate_reports(reports)
        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(mx.MetricReport.CSV_FIELDS)
            for r in reports:
                w.writerow(r.csv_row())
            w.writerow([f"aggregate(n={agg['pairs']})", agg["dice"], agg["hd95"],
                        agg["tre"], agg["ndv"], ""])
    for r in reports:
        line = f"{r.pair_id}: dice={r.dice_mean} hd95={r.hd95_mean} " \
               f"tre={r.tre_mean} ndv={r.ndv_percent:.4f}%"
        print(line)
    return 0


def _endpoint_error(field, truth):
    d = field.data - truth.data
    return float(np.sqrt((d.astype(np.float64) ** 2).sum(axis=0)).mean())


def cmd_baseline(args):
    cfg = _effective_config(args)
    moving = load_volume(args.moving)
    fixed = load_volume(args.fixed)
    backbone = _parse_backbone(args.backbone)
    style = _parse_style(args.style)
    if args.strategy == "backbone-only":
        base_field = pl.backbone_predict(backbone, moving, fixed)
    else:
        base_field = pl.iterate_backbone(backbone, moving, fixed, args.k)
    result = pl.register_pair(moving, fixed, cfg=cfg, backbone=backbone, style=style)
    comparison = {
        "strategy": args.strategy,
        "k": args.k,
        "baseline_ndv": ndv(base_field),
        "pipeline_ndv": result.trace.final_ndv,
        "pipeline_best_step": result.trace.best_step,
        "pipeline_error": result.trace.error,
    }
    if args.true_field:
        truth = load_field(args.true_field)
        comparison["baseline_epe_vox"] = _endpoint_error(base_field, truth)
        comparison["pipeline_epe_vox"] = _endpoint_error(result.field, truth)
        comparison["zero_epe_vox"] = _endpoint_error(
            DisplacementField.zero(truth.dims), truth)
    with open(args.out, "w") as f:
        json.dump(comparison, f, indent=1)
    if result.trace.error:
        print(f"numerical abort: {result.trace.error}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = _Parser(prog="regadapt",
                description="Test-time-adaptive 3D deformable registration")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("register", parents=[], help="register one pair",
                       description="Gated preprocessing, backbone init, instance optimization.")
    r.add_argument("--moving", required=True, help="moving volume (.vol)")
    r.add_argument("--fixed", required=True, help="fixed volume (.vol)")
    r.add_argument("--moving-labels", help="moving label map (.vol, kind=labels)")
    r.add_argument("--fixed-labels", help="fixed label map (.vol, kind=labels)")
    r.add_argument("--landmarks", help="landmark CSV (moving,fixed mm pairs)")
    r.add_argument("--backbone", default=None,
                   help="zero | variational | file:PATH (default: zero)")
    r.add_argument("--style", default=None,
                   help="identity | monotone:REF.vol | external:CMD (default: identity)")
    r.add_argument("--out-field", help="output displacement field path (.vol)")
    r.add_argument("--trace", help="per-step JSONL trace path (append-only)")
    r.add_argument("--report", help="run report JSON path")
    r.add_argument("--timed-trace", action="store_true",
                   help="record wall-clock elapsed_ms in the trace (breaks byte-level reproducibility)")
    _add_io_flags(r)
    r.set_defaults(func=cmd_register)

    s = sub.add_parser("synth", help="generate a synthetic ground-truth problem")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dims", type=int, nargs=3, default=[48, 48, 48])
    s.add_argument("--max-disp", type=float, default=0.3,
                   help="per-axis displacement cap in voxels, must be < 0.4 (default: 0.3)")
    s.add_argument("--contrast", choices=["identity", "inverted", "gamma"],
                   default="identity")
    s.add_argument("--out-dir", required=True)
    s.set_defaults(func=cmd_synth)

    t = sub.add_parser("pretrain", help="warm up refiner weights on volume pairs")
    t.add_argument("--data-dir", help="directory of <stem>_moving.vol/<stem>_fixed.vol pairs")
    t.add_argument("--synth-pairs", type=int, default=0,
                   help="generate this many synthetic pairs instead of --data-dir")
    t.add_argument("--dims", type=int, nargs=3, default=[24, 24, 24],
                   help="synthetic pair dims (default: 24 24 24)")
    t.add_argument("--max-disp", type=float, default=0.3)
    t.add_argument("--pretrain-steps", dest="pretrain_steps", type=int, default=1000,
                   help="gradient steps (default: 1000)")
    t.add_argument("--pretrain-lr", dest="pretrain_lr", type=float, default=1e-5,
                   help="fixed learning rate, no warmup (default: 1e-5)")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--history", help="training-loss JSONL path")
    _add_io_flags(t)
    t.set_defaults(func=cmd_pretrain)

    e = sub.add_parser("evaluate", help="metrics for saved fields")
    e.add_argument("--field", help="displacement field (.vol)")
    e.add_argument("--moving-labels")
    e.add_argument("--fixed-labels")
    e.add_argument("--landmarks")
    e.add_argument("--pair-id")
    e.add_argument("--batch", help="JSON manifest: list of evaluate entries")
    e.add_argument("--jobs", type=int, default=1, help="parallel workers in batch mode")
    e.add_argument("--report", help="JSON report path")
    e.add_argument("--csv", help="CSV summary path (per pair + aggregate row)")
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("baseline", help="compare a baseline strategy vs the pipeline")
    b.add_argument("--moving", required=True)
    b.add_argument("--fixed", required=True)
    b.add_argument("--strategy", choices=["backbone-only", "iterate"], required=True)
    b.add_argument("--k", type=int, default=1, help="iterations for --strategy iterate")
    b.add_argument("--backbone", default=None)
    b.add_argument("--style", default=None)
    b.add_argument("--true-field", help="ground-truth field for endpoint errors")
    b.add_argument("--out", required=True, help="comparison JSON path")
    _add_io_flags(b)
    b.set_defaults(func=cmd_baseline)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VolumeIOError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except pl.RegistrationAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
