"""Command-line surface: synth data, registration, pretraining, evaluation.

Subcommands: register, pretrain, synth, evaluate, baseline. Each settings flag
is built from an IOConfig field, and --help prints its default; pretrain offers
only the cascade and loss settings it reads. Flag values override config-file
values (any IOConfig key, for every command), which override IOConfig's
deployment defaults; REGADAPT_SEED overrides the default seed. Output paths are
checked before any work. Exit codes: 0 success, 1 I/O or usage errors, 2
numerical aborts.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import metrics as mx
from . import pipeline as pl
from . import unet as un
from .fields import DisplacementField, ndv
from .volume_io import (
    CONTRAST_KINDS,
    VolumeIOError,
    _load_json,
    _read_manifest,
    _write_file,
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


# each IOConfig field's help; its flag is --name with - for _, or as _FLAG_NAMES says
_SETTING_HELP = {
    "variant": "refiner variant", "update_mode": "field update rule",
    "scale_mode": "output-scale placement", "output_scale": "residual magnitude factor",
    "base_channels": "U-Net base channels",
    "depth": "U-Net resolution levels; the coarsest is the bottleneck",
    "seed": "refiner init seed", "steps": "IO steps", "base_lr": "Adam base learning rate",
    "warmup": "linear warmup steps", "lam": "regularization weight",
    "lncc_window": "similarity LNCC window", "gate_window": "gate LNCC window",
    "tau": "gate threshold", "gate_down": "gate downsample factor",
    "dice_every": "trace Dice every N steps, 0 disables",
}
_FLAG_NAMES = {"base_lr": "--lr", "lam": "--lambda"}


def _add_io_flags(p, names):
    """One flag per IOConfig field in names, and --config."""
    for f in dataclasses.fields(pl.IOConfig):
        if f.name in names:
            default = f"{f.default}, or REGADAPT_SEED" if f.name == "seed" else f.default
            p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                           dest=f.name, type=f.type, choices=un.MODES.get(f.name),
                           help=f"{_SETTING_HELP[f.name]} (default: {default})")
    p.add_argument("--config", help="JSON config file; flags override its values")


def _effective_config(args):
    eff = dict(_IO_DEFAULTS)
    env_seed = os.environ.get("REGADAPT_SEED")
    if env_seed is not None:
        try:
            eff["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"REGADAPT_SEED must be an integer, got {env_seed!r}") from None
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        file_cfg = _load_json(cfg_path, "config file")
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


def _load_on_grid(load, path, dims):
    """load(path), an input that must lie on the volumes' grid of dims."""
    x = load(path)
    if x.dims != dims:
        raise VolumeIOError(f"{path}: dims {x.dims} differ from the volumes' {dims}")
    return x


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


def _write_json(path, obj):
    _write_file(path, [json.dumps(obj, indent=1).encode()])


def _check_outputs(args, *flags):
    """Fail unless each output flag given names a file in an existing directory."""
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ValueError(f"{flag} {path}: not a file in an existing directory")


def _load_volumes(moving_path, fixed_path):
    """A (moving, fixed) pair on one grid with at least 2 voxels per axis."""
    moving, fixed = load_volume(moving_path), load_volume(fixed_path)
    for path, v in ((moving_path, moving), (fixed_path, fixed)):
        if min(v.dims) < 2:
            raise VolumeIOError(f"{path}: dims {v.dims}: every axis needs at least 2 voxels")
    if moving.dims != fixed.dims:
        raise VolumeIOError(f"{moving_path} and {fixed_path}: dims {moving.dims} vs {fixed.dims}")
    return moving, fixed


def _load_pair(args):
    """register's and baseline's effective config, volumes, backbone and style."""
    return (_effective_config(args), *_load_volumes(args.moving, args.fixed),
            _parse_backbone(args.backbone), _parse_style(args.style))


def _exit_status(result):
    """0, or 2 after naming the numerical abort that ended the IO."""
    if result.trace.error:
        print(f"numerical abort: {result.trace.error}", file=sys.stderr)
        return 2
    return 0


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
    _check_outputs(args, "--out-field", "--trace", "--report")
    cfg, moving, fixed, backbone, style = _load_pair(args)
    moving_labels, fixed_labels = (_load_on_grid(load_labels, p, fixed.dims) if p else None
                                   for p in (args.moving_labels, args.fixed_labels))
    landmarks = load_landmarks(args.landmarks) if args.landmarks else None
    if landmarks is not None:
        mx.landmark_voxels(landmarks, fixed.dims, fixed.spacing, source=args.landmarks)
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
        _write_json(args.report, _registration_report(result, cfg, metrics_report))
    return _exit_status(result)


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
                pairs.append(_load_volumes(os.path.join(path, name), fx))
    return pairs


def cmd_pretrain(args):
    _check_outputs(args, "--out", "--history")
    cfg = _effective_config(args)
    if not 0 <= args.pretrain_lr < np.inf:
        raise ValueError(f"--pretrain-lr must be finite and >= 0, got {args.pretrain_lr}")
    if args.pretrain_steps < 0:
        raise ValueError(f"--pretrain-steps must be >= 0, got {args.pretrain_steps}")
    if args.data_dir:
        problems = _load_pairs_dir(args.data_dir)
    else:
        problems = []
        for i in range(args.synth_pairs):
            p = synth_problem(cfg.seed * 10000 + i, dims=tuple(args.dims),
                              max_disp=args.max_disp)
            problems.append((p.phantom, p.fixed))
    if not problems:
        raise ValueError("pretrain: no training pairs found")
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
    # TRE is scored at the spacing the field's manifest records
    return mx.evaluate_pair(field, moving_labels=ml, fixed_labels=fl, landmarks=lms,
                            pair_id=entry.get("pair_id", entry["field"]),
                            spacing=_read_manifest(entry["field"])[1])


def Pool(processes):  # imported here: only evaluate --jobs > 1 forks
    import multiprocessing
    return multiprocessing.Pool(processes)


def cmd_evaluate(args):
    _check_outputs(args, "--report", "--csv")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.batch:
        entries = _load_json(args.batch, "batch manifest")
        if not (isinstance(entries, list) and entries
                and all(isinstance(e, dict) and "field" in e for e in entries)):
            raise ValueError("evaluate: batch manifest must be a nonempty JSON list of objects, "
                             "each with a \"field\"")
    else:
        if not args.field:
            raise ValueError("evaluate: need --field or --batch")
        entries = [{
            "field": args.field, "moving_labels": args.moving_labels,
            "fixed_labels": args.fixed_labels, "landmarks": args.landmarks,
            "pair_id": args.pair_id or os.path.basename(args.field),
        }]
    jobs = min(args.jobs, len(entries))
    if jobs > 1:
        with Pool(jobs) as pool:
            reports = pool.map(_evaluate_one, entries)
    else:
        reports = [_evaluate_one(e) for e in entries]
    if args.report:
        payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
        _write_json(args.report, payload)
    if args.csv:
        agg = mx.aggregate_reports(reports)
        text = io.StringIO()
        w = csv.DictWriter(text, mx.MetricReport.CSV_FIELDS)
        w.writeheader()
        w.writerows(r.csv_row() for r in reports)
        w.writerow({"pair": f"aggregate(n={agg['pairs']})", "dice_mean": agg["dice"],
                    "hd95_mean": agg["hd95"], "tre_mean": agg["tre"], "ndv_percent": agg["ndv"]})
        _write_file(args.csv, [text.getvalue().encode()])
    for r in reports:
        print(f"{r.pair_id}: dice={r.dice_mean} hd95={r.hd95_mean} "
              f"tre={r.tre_mean} ndv={r.ndv_percent:.4f}%")
    return 0


def _endpoint_error(field, truth):
    d = field.data - truth.data
    return float(np.sqrt((d.astype(np.float64) ** 2).sum(axis=0)).mean())


def cmd_baseline(args):
    _check_outputs(args, "--out")
    cfg, moving, fixed, backbone, style = _load_pair(args)
    truth = _load_on_grid(load_field, args.true_field, fixed.dims) if args.true_field else None
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
    if truth is not None:
        comparison["baseline_epe_vox"] = _endpoint_error(base_field, truth)
        comparison["pipeline_epe_vox"] = _endpoint_error(result.field, truth)
        comparison["zero_epe_vox"] = _endpoint_error(
            DisplacementField.zero(truth.dims), truth)
    _write_json(args.out, comparison)
    return _exit_status(result)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = _Parser(prog="regadapt",
                description="Test-time-adaptive 3D deformable registration")
    sub = p.add_subparsers(dest="command", required=True)

    pair = argparse.ArgumentParser(add_help=False)  # what register and baseline share
    pair.add_argument("--moving", required=True, help="moving volume (.vol)")
    pair.add_argument("--fixed", required=True, help="fixed volume (.vol)")
    pair.add_argument("--backbone", help="zero | variational | file:PATH (default: zero)")
    pair.add_argument("--style",
                      help="identity | monotone:REF.vol | external:CMD (default: identity)")
    _add_io_flags(pair, _IO_DEFAULTS)

    r = sub.add_parser("register", parents=[pair], help="register one pair",
                       description="Gated preprocessing, backbone init, instance optimization.")
    r.add_argument("--moving-labels", help="moving label map (.vol, kind=labels)")
    r.add_argument("--fixed-labels", help="fixed label map (.vol, kind=labels)")
    r.add_argument("--landmarks", help="landmark CSV (moving,fixed mm pairs)")
    r.add_argument("--out-field", help="output displacement field path (.vol)")
    r.add_argument("--trace", help="per-step JSONL trace path (append-only)")
    r.add_argument("--report", help="run report JSON path")
    r.add_argument("--timed-trace", action="store_true",
                   help="record wall-clock elapsed_ms in the trace (breaks byte-level reproducibility)")
    r.set_defaults(func=cmd_register)

    s = sub.add_parser("synth", help="generate a synthetic ground-truth problem")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dims", type=int, nargs=3, default=[48, 48, 48])
    s.add_argument("--max-disp", type=float, default=0.3,
                   help="per-axis displacement cap in voxels, in [0, 0.4) (default: 0.3)")
    s.add_argument("--contrast", choices=CONTRAST_KINDS, default="identity")
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
    # pretrain reads the cascade settings and the loss's
    _add_io_flags(t, [f.name for f in dataclasses.fields(un.CascadeConfig)]
                  + ["lam", "lncc_window"])
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

    b = sub.add_parser("baseline", parents=[pair],
                       help="compare a baseline strategy vs the pipeline")
    b.add_argument("--strategy", choices=["backbone-only", "iterate"], required=True)
    b.add_argument("--k", type=int, default=1, help="iterations for --strategy iterate")
    b.add_argument("--true-field", help="ground-truth field for endpoint errors")
    b.add_argument("--out", required=True, help="comparison JSON path")
    b.set_defaults(func=cmd_baseline)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except pl.RegistrationAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
