"""CLI subcommands: flags, file outputs, exit codes, determinism."""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from regadapt import cli
from regadapt import losses
from regadapt import pipeline as pl
from regadapt import unet
from regadapt.volume_io import (LandmarkSet, load_field, load_labels, load_volume,
                               save_landmarks, save_volume, synth_problem, Volume3D)

from test_pipeline import _poison_gradient_at, _poison_loss_at

SMALL = ["--base-channels", "2", "--depth", "2"]


def _synth(tmp_path, name="p", seed=3, dims=(12, 12, 12), contrast="identity"):
    out = tmp_path / name
    rc = cli.main(["synth", "--seed", str(seed), "--dims", *map(str, dims),
                   "--contrast", contrast, "--out-dir", str(out)])
    assert rc == 0
    return out


def test_synth_writes_everything_and_is_deterministic(tmp_path):
    a = _synth(tmp_path, "a", seed=7)
    b = _synth(tmp_path, "b", seed=7)
    names = ["phantom.vol", "labels.vol", "true_field.vol", "remapped.vol",
             "fixed.vol", "fixed_labels.vol", "landmarks.csv"]
    for n in names:
        assert (a / n).exists()
        assert (a / n).read_bytes() == (b / n).read_bytes()


def test_synth_invalid_max_disp(tmp_path):
    rc = cli.main(["synth", "--seed", "1", "--max-disp", "0.5",
                   "--out-dir", str(tmp_path / "x")])
    assert rc == 1


def test_synth_zero_dim_is_input_error(tmp_path, capsys):
    rc = cli.main(["synth", "--dims", "0", "5", "5", "--out-dir", str(tmp_path / "x")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and "dims" in err[0]
    assert not (tmp_path / "x").exists()


def test_synth_inverted_fires_gate(tmp_path):
    from regadapt.losses import modality_gate

    d = _synth(tmp_path, "inv", seed=2, dims=(16, 16, 16), contrast="inverted")
    remapped = load_volume(d / "remapped.vol")
    fixed = load_volume(d / "fixed.vol")
    assert modality_gate(remapped, fixed, window=11, tau=0.4, down=4) is True


def test_register_self_pair(tmp_path):
    d = _synth(tmp_path)
    field_out = tmp_path / "out.vol"
    report_out = tmp_path / "report.json"
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "phantom.vol"),
                   "--moving-labels", str(d / "labels.vol"),
                   "--fixed-labels", str(d / "labels.vol"),
                   "--backbone", "zero", "--steps", "1",
                   "--out-field", str(field_out), "--report", str(report_out),
                   *SMALL])
    assert rc == 0
    field = load_field(field_out)
    assert np.all(field.data == 0)
    report = json.loads(report_out.read_text())
    assert report["metrics"]["dice_mean"] == 1.0
    assert report["gate_fired"] is False


def test_register_deterministic_outputs(tmp_path):
    d = _synth(tmp_path, dims=(12, 12, 12))
    outs = []
    for run in ("r1", "r2"):
        f = tmp_path / f"{run}.vol"
        t = tmp_path / f"{run}.jsonl"
        r = tmp_path / f"{run}.json"
        rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                       "--fixed", str(d / "fixed.vol"), "--steps", "2",
                       "--seed", "5", "--out-field", str(f), "--trace", str(t),
                       "--report", str(r), *SMALL])
        assert rc == 0
        outs.append((f.read_bytes(), t.read_bytes(), r.read_bytes()))
    assert outs[0] == outs[1]


def test_trace_schema_keys(tmp_path):
    d = _synth(tmp_path)
    t = tmp_path / "trace.jsonl"
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--steps", "3",
                   "--trace", str(t), *SMALL])
    assert rc == 0
    lines = [json.loads(line) for line in t.read_text().splitlines()]
    assert len(lines) == 3
    for i, row in enumerate(lines, start=1):
        assert row["step"] == i
        assert isinstance(row["sim"], list)
        for key in ("reg", "total", "lr", "elapsed_ms"):
            assert key in row


def test_register_missing_input_is_io_error(tmp_path):
    rc = cli.main(["register", "--moving", str(tmp_path / "absent.vol"),
                   "--fixed", str(tmp_path / "absent.vol")])
    assert rc == 1


def test_register_ablation_flags_recorded(tmp_path):
    d = _synth(tmp_path)
    r = tmp_path / "rep.json"
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--steps", "1",
                   "--variant", "single", "--update-mode", "add",
                   "--report", str(r), *SMALL])
    assert rc == 0
    cfgd = json.loads(r.read_text())["config"]
    assert cfgd["variant"] == "single"
    assert cfgd["update_mode"] == "add"


def test_defaults_encode_deployment_values():
    parser = cli.build_parser()
    args = parser.parse_args(["register", "--moving", "m", "--fixed", "f"])
    cfg = cli._effective_config(args)
    assert (cfg.steps, cfg.base_lr, cfg.warmup, cfg.lam) == (50, 5e-4, 10, 0.1)
    assert (cfg.lncc_window, cfg.gate_window, cfg.tau) == (9, 11, 0.4)
    assert cfg.output_scale == 0.05


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["register", "--help"])
    text = capsys.readouterr().out
    for frag in ("default: 50", "default: 0.0005", "default: 10", "default: 0.1",
                 "default: 9", "default: 11", "default: 0.4", "default: 0.05"):
        assert frag in text, frag


def test_config_file_and_env_precedence(tmp_path, monkeypatch):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"steps": 7, "seed": 3}))
    parser = cli.build_parser()
    monkeypatch.setenv("REGADAPT_SEED", "99")
    args = parser.parse_args(["register", "--moving", "m", "--fixed", "f",
                              "--config", str(cfg_path), "--steps", "4"])
    cfg = cli._effective_config(args)
    assert cfg.steps == 4      # flag beats config file
    assert cfg.seed == 3       # config file beats env
    args2 = parser.parse_args(["register", "--moving", "m", "--fixed", "f"])
    assert cli._effective_config(args2).seed == 99  # env beats builtin



def test_config_file_type_mismatch_is_input_error(tmp_path, capsys):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"steps": "2"}))
    rc = cli.main(["register", "--moving", "m", "--fixed", "f", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "steps" in err and "Traceback" not in err
    cfg_path.write_text("[]")
    rc = cli.main(["register", "--moving", "m", "--fixed", "f", "--config", str(cfg_path)])
    assert rc == 1 and "Traceback" not in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"lam": 1, "tau": 0}))  # ints where floats are due
    args = cli.build_parser().parse_args(["register", "--moving", "m", "--fixed", "f",
                                          "--config", str(cfg_path)])
    cfg = cli._effective_config(args)
    assert (cfg.lam, cfg.tau) == (1.0, 0.0) and type(cfg.lam) is type(cfg.tau) is float

@pytest.mark.parametrize("field, flags, config", [
    ("base_lr", [], {"base_lr": float("nan")}),
    ("base_lr", ["--lr", "nan"], None),
    ("output_scale", [], {"output_scale": float("inf")}),
    ("lam", [], {"lam": float("nan")}),
])
def test_non_finite_setting_is_input_error(tmp_path, capsys, field, flags, config):
    d = _synth(tmp_path)
    if config is not None:
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps(config))  # written as NaN / Infinity
        flags = flags + ["--config", str(cfg_path)]
    capsys.readouterr()
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--steps", "2", *flags, *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and field in err[0]


@pytest.mark.parametrize("manifest", [5, {"dims": 5}, {"spacing": None}, {"dims": [12.5, 12, 12]},
                                      {"dims": [0, 12, 12]}, {"spacing": [1, 0, 1]},
                                      {"spacing": [1, 10 ** 400, 1]}])
def test_malformed_manifest_is_input_error(tmp_path, capsys, manifest):
    d = _synth(tmp_path)
    mpath = d / "phantom.vol.json"
    if isinstance(manifest, dict):
        manifest = {**json.loads(mpath.read_text()), **manifest}
    mpath.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--steps", "1", *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and "phantom.vol.json" in err[0]


def test_manifest_that_is_not_json_is_one_line_input_error(tmp_path, capsys):
    d = _synth(tmp_path)
    (d / "fixed.vol.json").write_text("{")
    capsys.readouterr()
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--steps", "1", *SMALL])
    err = capsys.readouterr().err
    assert rc == 1 and len(err.splitlines()) == 1 and "Traceback" not in err
    assert "fixed.vol.json is not valid JSON" in err


@pytest.mark.parametrize("argv, env, source", [
    (["register", "--moving", "m", "--fixed", "f", "--config", "{dir}/bad.json"], None,
     "{dir}/bad.json"),
    (["evaluate", "--batch", "{dir}/bad.json"], None, "{dir}/bad.json"),
    (["register", "--moving", "m", "--fixed", "f"], "abc", "REGADAPT_SEED"),
], ids=["config", "batch", "env-seed"])
def test_bad_input_message_names_its_source(argv, env, source, tmp_path, capsys, monkeypatch):
    (tmp_path / "bad.json").write_text("[\n")
    if env is None:
        monkeypatch.delenv("REGADAPT_SEED", raising=False)
    else:
        monkeypatch.setenv("REGADAPT_SEED", env)
    rc = cli.main([a.format(dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1 and len(err.splitlines()) == 1 and "Traceback" not in err
    assert source.format(dir=tmp_path) in err


@pytest.mark.parametrize("command, text", [
    ("evaluate", ""), ("register", ""), ("evaluate", "1,2,x,4,5,6\n"),
], ids=["evaluate-empty", "register-empty", "evaluate-not-a-number"])
def test_bad_landmark_file_is_input_error(tmp_path, capsys, command, text):
    d = _synth(tmp_path)
    bad = tmp_path / "lm.csv"
    bad.write_text(text)
    if command == "evaluate":
        argv = ["evaluate", "--field", str(d / "true_field.vol")]
    else:
        argv = ["register", "--moving", str(d / "phantom.vol"), "--fixed", str(d / "fixed.vol"),
                "--steps", "1", *SMALL]
    capsys.readouterr()
    rc = cli.main(argv + ["--landmarks", str(bad)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and str(bad) in err[0]


@pytest.mark.parametrize("entry", [{"pair_id": "x"}, 5])
def test_evaluate_malformed_batch_entry_is_input_error(tmp_path, capsys, entry):
    manifest = tmp_path / "batch.json"
    manifest.write_text(json.dumps([entry]))
    rc = cli.main(["evaluate", "--batch", str(manifest)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and "field" in err[0]


def test_evaluate_single_and_batch(tmp_path):
    d = _synth(tmp_path, dims=(12, 12, 12))
    rep = tmp_path / "ev.json"
    rc = cli.main(["evaluate", "--field", str(d / "true_field.vol"),
                   "--moving-labels", str(d / "labels.vol"),
                   "--fixed-labels", str(d / "fixed_labels.vol"),
                   "--landmarks", str(d / "landmarks.csv"),
                   "--report", str(rep)])
    assert rc == 0
    payload = json.loads(rep.read_text())
    assert payload["tre_mean"] == pytest.approx(0.0, abs=1e-6)

    manifest = tmp_path / "batch.json"
    manifest.write_text(json.dumps([
        {"field": str(d / "true_field.vol"), "moving_labels": str(d / "labels.vol"),
         "fixed_labels": str(d / "fixed_labels.vol"), "pair_id": "p0"},
        {"field": str(d / "true_field.vol"), "moving_labels": str(d / "labels.vol"),
         "fixed_labels": str(d / "fixed_labels.vol"), "pair_id": "p1"},
    ]))
    csv_path = tmp_path / "summary.csv"
    rc = cli.main(["evaluate", "--batch", str(manifest), "--csv", str(csv_path)])
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 4  # header + 2 pairs + aggregate
    assert rows[-1].startswith("aggregate(n=2)")
    assert "±" in rows[-1]


def test_evaluate_identity_labels_dice_one(tmp_path):
    d = _synth(tmp_path)
    rep = tmp_path / "self.json"
    zero = tmp_path / "zero.vol"
    from regadapt.fields import DisplacementField
    from regadapt.volume_io import save_field

    save_field(DisplacementField.zero((12, 12, 12)), zero)
    rc = cli.main(["evaluate", "--field", str(zero),
                   "--moving-labels", str(d / "labels.vol"),
                   "--fixed-labels", str(d / "labels.vol"),
                   "--report", str(rep)])
    assert rc == 0
    assert json.loads(rep.read_text())["dice_mean"] == 1.0


def test_evaluate_background_only_labels_report_no_dice(tmp_path):
    from regadapt.fields import DisplacementField
    from regadapt.volume_io import LabelMap, save_field, save_labels

    zero, labels = tmp_path / "zero.vol", tmp_path / "background.vol"
    save_field(DisplacementField.zero((6, 6, 6)), zero)
    save_labels(LabelMap(dims=(6, 6, 6), spacing=(1.0, 1.0, 1.0),
                         data=np.zeros((6, 6, 6), np.int32)), labels)
    rep, table = tmp_path / "rep.json", tmp_path / "rep.csv"
    rc = cli.main(["evaluate", "--field", str(zero), "--moving-labels", str(labels),
                   "--fixed-labels", str(labels), "--report", str(rep), "--csv", str(table)])
    assert rc == 0

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads(rep.read_text(), parse_constant=no_constant)
    assert report["dice_mean"] is None and report["hd95_mean"] is None
    rows = table.read_text().splitlines()
    assert rows[1].split(",")[1] == "" and rows[2].split(",")[1] == ""


def test_pretrain_zero_steps_checkpoint_equals_fresh(tmp_path):
    ckpt = tmp_path / "warm.ckpt"
    rc = cli.main(["pretrain", "--synth-pairs", "2", "--dims", "12", "12", "12",
                   "--pretrain-steps", "0", "--seed", "4", "--out", str(ckpt),
                   *SMALL])
    assert rc == 0
    loaded = unet.load_cascade(ckpt)
    cfg_small = unet.CascadeConfig(base_channels=2, depth=2, seed=4)
    fresh = unet.init_cascade(config=cfg_small)
    for a, b in zip(loaded.nets, fresh.nets):
        for key in a:
            assert np.array_equal(a[key].data, b[key].data)


def test_pretrain_checkpoint_records_the_effective_cascade_config(tmp_path, monkeypatch):
    monkeypatch.delenv("REGADAPT_SEED", raising=False)
    ckpt = tmp_path / "c.ckpt"
    argv = ["pretrain", "--synth-pairs", "1", "--dims", "8", "8", "8", "--pretrain-steps", "0",
            "--variant", "single", "--update-mode", "add", "--scale-mode", "all_residuals",
            "--output-scale", "0.02", "--seed", "6", "--out", str(ckpt), *SMALL]
    assert cli.main(argv) == 0
    cfg = cli._effective_config(cli.build_parser().parse_args(argv))
    defaults = unet.CascadeConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(unet.CascadeConfig))
    assert unet.load_cascade(ckpt).config == cfg.cascade_config()


def test_pretrain_empty_dataset_exit_one(tmp_path):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    rc = cli.main(["pretrain", "--data-dir", str(tmp_path / "empty"),
                   "--out", str(tmp_path / "c.ckpt")])
    assert rc == 1


def test_pretrain_pair_dims_differ_fails_before_training(tmp_path, capsys, monkeypatch):
    data = tmp_path / "pairs"
    data.mkdir()
    save_volume(synth_problem(1, dims=(8, 8, 8)).phantom, data / "a_moving.vol")
    save_volume(synth_problem(1, dims=(8, 8, 9)).fixed, data / "a_fixed.vol")
    monkeypatch.setattr(pl, "pretrain_refiners", lambda *a, **k: pytest.fail("pretraining ran"))
    ckpt = tmp_path / "c.ckpt"
    capsys.readouterr()
    rc = cli.main(["pretrain", "--data-dir", str(data), "--out", str(ckpt), *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and "(8, 8, 8) vs (8, 8, 9)" in err[0]
    assert str(data / "a_moving.vol") in err[0] and str(data / "a_fixed.vol") in err[0]
    assert not ckpt.exists()


@pytest.mark.parametrize("argv, env, seed", [
    (["register", "--moving", "{d}/phantom.vol", "--fixed", "{d}/fixed.vol", "--seed", "-1",
      "--out-field", "{out}"], None, -1),
    (["pretrain", "--synth-pairs", "1", "--dims", "8", "8", "8", "--out", "{out}"], "-3", -3),
], ids=["register-flag", "pretrain-env"])
def test_negative_seed_fails_before_any_work(argv, env, seed, tmp_path, capsys, monkeypatch):
    d = _synth(tmp_path)
    if env is None:
        monkeypatch.delenv("REGADAPT_SEED", raising=False)
    else:
        monkeypatch.setenv("REGADAPT_SEED", env)
    monkeypatch.setattr(pl, "backbone_predict", lambda *a, **k: pytest.fail("backbone ran"))
    monkeypatch.setattr(pl, "pretrain_refiners", lambda *a, **k: pytest.fail("pretraining ran"))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main([a.format(d=d, out=out) for a in argv] + SMALL)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and f"seed must be >= 0, got {seed}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "-0.0001"])
def test_pretrain_bad_lr_is_input_error(tmp_path, capsys, monkeypatch, lr):
    monkeypatch.setattr(cli, "synth_problem", lambda *a, **k: pytest.fail("pair synthesized"))
    ckpt = tmp_path / "c.ckpt"
    rc = cli.main(["pretrain", "--synth-pairs", "1", "--dims", "12", "12", "12",
                   "--pretrain-steps", "1", "--pretrain-lr", lr, "--out", str(ckpt), *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and "--pretrain-lr" in err[0]
    assert not ckpt.exists()


def test_pretrain_negative_steps_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "synth_problem", lambda *a, **k: pytest.fail("pair synthesized"))
    ckpt = tmp_path / "c.ckpt"
    rc = cli.main(["pretrain", "--synth-pairs", "1", "--dims", "12", "12", "12",
                   "--pretrain-steps", "-1", "--out", str(ckpt), *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and "--pretrain-steps" in err[0]
    assert not ckpt.exists()


@pytest.mark.parametrize("flag, bad", [
    ("--out", "missing/x"), ("--history", "missing/x"), ("--out", "."),
], ids=["out-missing-dir", "history-missing-dir", "out-is-a-dir"])
def test_pretrain_bad_output_path_fails_before_training(tmp_path, capsys, monkeypatch, flag, bad):
    monkeypatch.setattr(cli, "synth_problem", lambda *a, **k: pytest.fail("pair synthesized"))
    paths = {"--out": str(tmp_path / "c.ckpt"), "--history": str(tmp_path / "h.jsonl")}
    paths[flag] = str(tmp_path / bad)
    rc = cli.main(["pretrain", "--synth-pairs", "1", "--dims", "12", "12", "12",
                   "--pretrain-steps", "1", "--out", paths["--out"],
                   "--history", paths["--history"], *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and paths[flag] in err[0]


def test_pretrain_seeded_checkpoint_reproducible(tmp_path):
    outs = []
    for name in ("c1", "c2"):
        ckpt = tmp_path / f"{name}.ckpt"
        rc = cli.main(["pretrain", "--synth-pairs", "2", "--dims", "12", "12", "12",
                       "--pretrain-steps", "2", "--pretrain-lr", "1e-4",
                       "--seed", "6", "--out", str(ckpt), *SMALL])
        assert rc == 0
        outs.append(ckpt.read_bytes())
    assert outs[0] == outs[1]


def test_baseline_backbone_only_and_iterate(tmp_path):
    d = _synth(tmp_path, dims=(12, 12, 12))
    for strategy, k in (("backbone-only", 1), ("iterate", 1)):
        out = tmp_path / f"cmp_{strategy}.json"
        rc = cli.main(["baseline", "--moving", str(d / "phantom.vol"),
                       "--fixed", str(d / "fixed.vol"), "--strategy", strategy,
                       "--k", str(k), "--backbone", "zero", "--steps", "1",
                       "--true-field", str(d / "true_field.vol"),
                       "--out", str(out), *SMALL])
        assert rc == 0
        cmp = json.loads(out.read_text())
        assert "baseline_epe_vox" in cmp and "pipeline_epe_vox" in cmp
        # zero backbone: baseline field is zero, epe equals the zero-field epe
        assert cmp["baseline_epe_vox"] == pytest.approx(cmp["zero_epe_vox"])


def test_unknown_backbone_is_input_error(tmp_path):
    d = _synth(tmp_path)
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--backbone", "warpnet",
                   "--steps", "1", *SMALL])
    assert rc == 1


def test_mode_choices_are_the_unet_declaration():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("register", "pretrain", "baseline"):
        actions = {a.dest: a for a in sub.choices[command]._actions}
        for name, allowed in unet.MODES.items():
            assert actions[name].choices is allowed


@pytest.mark.parametrize("config, word", [
    ({"variant": "bogus"}, "variant"),
    ({"scale_mode": "bogus"}, "scale_mode"),
    ({"instance_norm": False}, "instance_norm"),  # no such setting
])
def test_bad_cascade_setting_fails_before_the_gate(tmp_path, capsys, monkeypatch, config, word):
    d = _synth(tmp_path)
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps(config))
    calls = []
    monkeypatch.setattr(losses, "modality_gate", lambda *a, **k: calls.append(a) or False)
    capsys.readouterr()
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--steps", "1",
                   "--config", str(cfg_path), *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and word in err[0]
    assert calls == []


def test_evaluate_bad_label_spacing_is_input_error(tmp_path, capsys):
    d = _synth(tmp_path)
    mpath = d / "labels.vol.json"
    mpath.write_text(json.dumps({**json.loads(mpath.read_text()), "spacing": [0, 1, 1]}))
    capsys.readouterr()
    rc = cli.main(["evaluate", "--field", str(d / "true_field.vol"),
                   "--moving-labels", str(d / "labels.vol"),
                   "--fixed-labels", str(d / "fixed_labels.vol")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and "spacing" in err[0]


@pytest.mark.parametrize("poison, step", [(_poison_loss_at, 3), (_poison_gradient_at, 2)])
def test_register_numerical_abort_exits_two(tmp_path, capsys, monkeypatch, poison, step):
    d = _synth(tmp_path)
    report = tmp_path / "rep.json"
    poison(monkeypatch, step)
    capsys.readouterr()
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--steps", "4",
                   "--report", str(report), *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and err[0].startswith("numerical abort: ")
    assert err[0].endswith(f"at step {step}")
    assert json.loads(report.read_text())["error"] == err[0][len("numerical abort: "):]


def _register_inverted(tmp_path, style, name):
    d = tmp_path / "inv"
    if not d.exists():
        _synth(tmp_path, "inv", seed=2, dims=(16, 16, 16), contrast="inverted")
    out, rep = tmp_path / f"{name}.vol", tmp_path / f"{name}.json"
    rc = cli.main(["register", "--moving", str(d / "remapped.vol"),
                   "--fixed", str(d / "fixed.vol"), "--style", style, "--steps", "2",
                   "--seed", "0", "--out-field", str(out), "--report", str(rep), *SMALL])
    assert rc == 0
    assert json.loads(rep.read_text())["gate_fired"] is True
    return d, load_field(out)


def test_register_monotone_style(tmp_path):
    d, got = _register_inverted(tmp_path, f"monotone:{tmp_path / 'inv' / 'fixed.vol'}", "mono")
    moving, fixed = load_volume(d / "remapped.vol"), load_volume(d / "fixed.vol")
    style = pl.StyleTransferSpec(kind="monotone_remap",
                                 reference=pl.reference_histogram(fixed))
    cfg = pl.IOConfig(steps=2, seed=0, base_channels=2, depth=2)
    want = pl.register_pair(moving, fixed, cfg=cfg, style=style).field
    assert np.array_equal(got.data, want.data)


def test_register_external_style(tmp_path):
    script, log = tmp_path / "style.py", tmp_path / "style.log"
    script.write_text(
        "import shutil, sys\n"
        "shutil.copy(sys.argv[1], sys.argv[2])\n"
        "shutil.copy(sys.argv[1] + '.json', sys.argv[2] + '.json')\n"
        f"open({str(log)!r}, 'a').write('ran\\n')\n"
    )
    _register_inverted(tmp_path, f"external:{sys.executable} {script} {{in}} {{out}}", "ext")
    assert log.read_text() == "ran\n" * 2  # the moving and the fixed volume


@pytest.mark.parametrize("backbone", ["variational", "file"])
def test_register_backbone_gives_phi0(tmp_path, backbone):
    d = _synth(tmp_path)
    moving, fixed = load_volume(d / "phantom.vol"), load_volume(d / "fixed.vol")
    if backbone == "file":
        flag, want = f"file:{d / 'true_field.vol'}", load_field(d / "true_field.vol")
    else:
        flag = "variational"
        want = pl.backbone_predict(pl.BackboneSpec(kind="variational"), moving, fixed)
    out = tmp_path / "out.vol"
    rc = cli.main(["register", "--moving", str(d / "phantom.vol"),
                   "--fixed", str(d / "fixed.vol"), "--backbone", flag, "--steps", "1",
                   "--out-field", str(out), *SMALL])
    assert rc == 0
    assert np.any(want.data != 0)
    # one step of a zero-initialized cascade only evaluates: the result is phi_0
    assert np.array_equal(load_field(out).data, want.data)


def test_synth_gamma_keeps_intensity_order(tmp_path):
    d = _synth(tmp_path, "g", contrast="gamma")
    ph = load_volume(d / "phantom.vol").data.ravel()
    rm = load_volume(d / "remapped.vol").data.ravel()
    assert not np.array_equal(ph, rm)
    assert np.all(np.diff(rm[np.argsort(ph, kind="stable")]) >= 0)
    labels = load_labels(d / "labels.vol").data.ravel()
    classes = np.unique(labels)
    assert (np.argsort([ph[labels == c].mean() for c in classes]).tolist()
            == np.argsort([rm[labels == c].mean() for c in classes]).tolist())


def test_evaluate_batch_jobs_csv_equals_serial(tmp_path):
    entries = []
    for name, seed in (("a", 3), ("b", 4)):
        d = _synth(tmp_path, name, seed=seed)
        entries.append({"field": str(d / "true_field.vol"),
                        "moving_labels": str(d / "labels.vol"),
                        "fixed_labels": str(d / "fixed_labels.vol"),
                        "landmarks": str(d / "landmarks.csv"), "pair_id": name})
    manifest = tmp_path / "batch.json"
    manifest.write_text(json.dumps(entries))
    out = {}
    for jobs in ("1", "2"):
        out[jobs] = tmp_path / f"jobs{jobs}.csv"
        rc = cli.main(["evaluate", "--batch", str(manifest), "--jobs", jobs,
                       "--csv", str(out[jobs])])
        assert rc == 0
    assert out["1"].read_bytes() == out["2"].read_bytes()


def test_evaluate_pool_is_sized_by_the_batch(tmp_path, capsys, monkeypatch):
    asked = []

    class RecordingPool:  # starts no process: maps in this one
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    d = _synth(tmp_path)
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    entry = {"field": str(d / "true_field.vol")}
    one.write_text(json.dumps([entry]))
    two.write_text(json.dumps([{**entry, "pair_id": "a"}, {**entry, "pair_id": "b"}]))
    assert cli.main(["evaluate", "--batch", str(two), "--jobs", "8"]) == 0
    assert cli.main(["evaluate", "--batch", str(one), "--jobs", "8"]) == 0
    assert asked == [2]
    for jobs in ("0", "-1"):
        capsys.readouterr()
        assert cli.main(["evaluate", "--batch", str(two), "--jobs", jobs]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--jobs" in err[0]
    assert asked == [2]


@pytest.mark.parametrize("argv", [
    ["register", "--moving", "m", "--fixed", "f"],
    ["baseline", "--moving", "m", "--fixed", "f", "--strategy", "iterate", "--out", "o"],
], ids=["register", "baseline"])
def test_every_ioconfig_field_is_a_register_flag(monkeypatch, argv):
    monkeypatch.delenv("REGADAPT_SEED", raising=False)
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[argv[0]]._actions}
    for f in dataclasses.fields(pl.IOConfig):
        assert f.name in actions, f"IOConfig.{f.name} has no {argv[0]} flag"
        action = actions[f.name]
        if action.choices:
            value = next(c for c in action.choices if c != f.default)
        else:
            value = f.default + (2 if f.type is int else 0.25)
        args = parser.parse_args(argv + [action.option_strings[0], str(value)])
        assert getattr(cli._effective_config(args), f.name) == value != f.default, f.name


def test_pretrain_offers_only_the_settings_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    settings = {f.name for f in dataclasses.fields(pl.IOConfig)} | {"config"}
    dests = {a.dest for a in sub.choices["pretrain"]._actions} & settings
    cascade = {f.name for f in dataclasses.fields(unet.CascadeConfig)}
    assert dests == cascade | {"lam", "lncc_window", "config"}


@pytest.mark.parametrize("flag, value", [
    ("--steps", "5"), ("--lr", "1.0"), ("--warmup", "3"), ("--tau", "0.9"),
    ("--dice-every", "1"), ("--gate-down", "2"), ("--gate-window", "5"),
])
def test_pretrain_rejects_a_setting_it_does_not_read(tmp_path, capsys, flag, value):
    ckpt = tmp_path / "c.ckpt"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["pretrain", "--synth-pairs", "1", "--dims", "8", "8", "8",
                  "--pretrain-steps", "1", "--out", str(ckpt), flag, value, *SMALL])
    assert exit_info.value.code == 1
    assert flag in capsys.readouterr().err.splitlines()[-1]
    assert not ckpt.exists()


def test_baseline_help_describes_backbone_and_style(capsys):
    with pytest.raises(SystemExit):
        cli.main(["baseline", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "zero | variational | file:PATH (default: zero)" in text
    assert "identity | monotone:REF.vol | external:CMD (default: identity)" in text


@pytest.mark.parametrize("command, flag", [
    ("register", "--report"), ("baseline", "--out"), ("evaluate", "--csv"),
])
def test_bad_output_path_fails_before_any_work(tmp_path, capsys, monkeypatch, command, flag):
    d = _synth(tmp_path)
    for name in ("register_pair", "backbone_predict"):
        monkeypatch.setattr(pl, name, lambda *a, **k: pytest.fail("registered"))
    monkeypatch.setattr(cli, "_evaluate_one", lambda *a, **k: pytest.fail("evaluated"))
    pair = ["--moving", str(d / "phantom.vol"), "--fixed", str(d / "fixed.vol")]
    field = tmp_path / "u.vol"
    argv = {"register": ["register", *pair, "--out-field", str(field)],
            "baseline": ["baseline", *pair, "--strategy", "backbone-only"],
            "evaluate": ["evaluate", "--field", str(d / "true_field.vol")]}[command]
    bad = str(tmp_path / "missing" / "out")
    capsys.readouterr()
    rc = cli.main(argv + [flag, bad])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and f"{flag} {bad}" in err[0]
    assert not field.exists()


@pytest.mark.parametrize("command", ["register", "baseline"])
def test_a_volume_thinner_than_two_voxels_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                                command):
    data = np.random.default_rng(0).random((1, 8, 8)).astype(np.float32)
    paths = [tmp_path / "moving.vol", tmp_path / "fixed.vol"]
    for path in paths:
        save_volume(Volume3D(dims=data.shape, spacing=(1.0, 1.0, 1.0), data=data), path)
    for name in ("register_pair", "iterate_backbone"):
        monkeypatch.setattr(pl, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    argv = {"register": ["register"],
            "baseline": ["baseline", "--strategy", "iterate", "--out", str(tmp_path / "b.json")]}
    rc = cli.main(argv[command] + ["--moving", str(paths[0]), "--fixed", str(paths[1])])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1
    assert str(paths[0]) in err[0] and "(1, 8, 8)" in err[0]


def test_evaluate_csv_aggregate_cells_sit_under_their_headers(tmp_path, monkeypatch):
    import csv

    from regadapt.metrics import MetricReport

    reports = {"a": MetricReport("a", dice_mean=0.5, hd95_mean=1.0, tre_mean=2.0,
                                 tre_median=2.5, ndv_percent=0.1),
               "b": MetricReport("b", dice_mean=0.7, hd95_mean=3.0, tre_mean=4.0,
                                 tre_median=4.5, ndv_percent=0.3)}
    monkeypatch.setattr(cli, "_evaluate_one", lambda entry: reports[entry["field"]])
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"field": "a"}, {"field": "b"}]))
    out = tmp_path / "s.csv"
    assert cli.main(["evaluate", "--batch", str(batch), "--csv", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["pair"] for r in rows] == ["a", "b", "aggregate(n=2)"]
    assert rows[1]["tre_median"] == "4.500000" and rows[1]["ndv_percent"] == "0.300000"
    assert rows[2] == {"pair": "aggregate(n=2)", "dice_mean": "0.6000 ± 0.1000",
                       "hd95_mean": "2.0000 ± 1.0000", "tre_mean": "3.0000 ± 1.0000",
                       "tre_median": "", "ndv_percent": "0.2000 ± 0.1000"}


def _labels_off_grid(tmp_path, d):
    small = _synth(tmp_path, "small", dims=(10, 10, 10))
    return (["register", "--moving", str(d / "phantom.vol"), "--fixed", str(d / "fixed.vol"),
             "--moving-labels", str(small / "labels.vol"), "--fixed-labels", str(d / "labels.vol"),
             "--dice-every", "0"], small / "labels.vol")


def _landmark_off_grid(tmp_path, d):
    path = tmp_path / "lm.csv"
    save_landmarks(LandmarkSet(moving=[[1, 1, 1]], fixed=[[30, 1, 1]]), path)
    return (["register", "--moving", str(d / "phantom.vol"), "--fixed", str(d / "fixed.vol"),
             "--landmarks", str(path)], path)


def _true_field_off_grid(tmp_path, d):
    small = _synth(tmp_path, "small", dims=(10, 10, 10))
    return (["baseline", "--moving", str(d / "phantom.vol"), "--fixed", str(d / "fixed.vol"),
             "--strategy", "backbone-only", "--true-field", str(small / "true_field.vol")],
            small / "true_field.vol")


def _fixed_off_grid(tmp_path, d):
    small = _synth(tmp_path, "small", dims=(12, 12, 13))
    return (["register", "--moving", str(d / "phantom.vol"), "--fixed", str(small / "fixed.vol")],
            small / "fixed.vol")


@pytest.mark.parametrize("case", [_labels_off_grid, _landmark_off_grid, _true_field_off_grid,
                                  _fixed_off_grid],
                         ids=["labels", "landmarks", "true-field", "fixed"])
def test_input_off_the_volume_grid_fails_before_registering(tmp_path, capsys, monkeypatch, case):
    d = _synth(tmp_path)
    argv, bad = case(tmp_path, d)
    monkeypatch.setattr(pl, "backbone_predict", lambda *a, **k: pytest.fail("backbone ran"))
    monkeypatch.setattr(losses, "modality_gate", lambda *a, **k: pytest.fail("gate ran"))
    out = tmp_path / "out"
    flag = "--out" if argv[0] == "baseline" else "--out-field"
    capsys.readouterr()
    rc = cli.main(argv + ["--steps", "1", flag, str(out), *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and str(bad) in err[0]
    assert not out.exists()


def test_failing_external_style_is_one_line_input_error(tmp_path, capsys):
    d = _synth(tmp_path, "inv", seed=0, contrast="inverted")
    script = tmp_path / "fail.py"
    script.write_text("import sys\nsys.stderr.write('first problem\\nsecond problem\\n')\n"
                      "sys.exit(3)\n")
    for style, words in (("external:false", ["exit status 1"]),
                         (f"external:{sys.executable} {script}",
                          ["exit status 3", "first problem", "second problem"])):
        capsys.readouterr()
        rc = cli.main(["register", "--moving", str(d / "remapped.vol"),
                       "--fixed", str(d / "fixed.vol"), "--style", style, "--steps", "1",
                       *SMALL])
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1 and "Traceback" not in err
        assert all(word in err for word in words)


def test_evaluate_tre_matches_register_at_the_field_spacing(tmp_path):
    p = synth_problem(3, dims=(12, 12, 12), spacing=(2, 2, 2))
    save_volume(p.phantom, tmp_path / "moving.vol")
    save_volume(p.fixed, tmp_path / "fixed.vol")
    save_landmarks(p.landmarks, tmp_path / "lm.csv")
    lm, field = ["--landmarks", str(tmp_path / "lm.csv")], str(tmp_path / "u.vol")
    assert cli.main(["register", "--moving", str(tmp_path / "moving.vol"),
                     "--fixed", str(tmp_path / "fixed.vol"), *lm, "--steps", "2",
                     "--out-field", field, "--report", str(tmp_path / "r.json"), *SMALL]) == 0
    want = json.loads((tmp_path / "r.json").read_text())["metrics"]["tre_mean"]
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"field": field, "landmarks": str(tmp_path / "lm.csv")}]))
    for how in (["--field", field, *lm], ["--batch", str(batch)]):
        assert cli.main(["evaluate", *how, "--report", str(tmp_path / "e.json")]) == 0
        assert json.loads((tmp_path / "e.json").read_text())["tre_mean"] == want


def test_pretrain_data_dir_pairs_stems_and_writes_history(tmp_path, monkeypatch, capsys):
    data = tmp_path / "pairs"
    data.mkdir()
    problems = {stem: synth_problem(seed, dims=(8, 8, 8)) for stem, seed in (("a", 1), ("b", 2))}
    for stem, p in problems.items():
        save_volume(p.phantom, data / f"{stem}_moving.vol")
        save_volume(p.fixed, data / f"{stem}_fixed.vol")
    save_volume(problems["a"].phantom, data / "orphan_moving.vol")  # no orphan_fixed.vol
    seen = []
    real = pl.pretrain_refiners

    def pretrain_refiners(pairs, *args, **kwargs):
        seen.append(pairs)
        seen.append(real(pairs, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(pl, "pretrain_refiners", pretrain_refiners)
    history = tmp_path / "history.jsonl"
    assert cli.main(["pretrain", "--data-dir", str(data), "--pretrain-steps", "3",
                     "--history", str(history), "--out", str(tmp_path / "c.ckpt"), *SMALL]) == 0
    pairs, totals = seen
    assert len(pairs) == 2
    for (moving, fixed), p in zip(pairs, problems.values()):
        assert np.array_equal(moving.data, p.phantom.data)
        assert np.array_equal(fixed.data, p.fixed.data)
    lines = [json.loads(line) for line in history.read_text().splitlines()]
    assert lines == [{"step": i, "total": t} for i, t in enumerate(totals, start=1)]
    assert len(lines) == 3

    (tmp_path / "empty").mkdir()
    capsys.readouterr()
    assert cli.main(["pretrain", "--data-dir", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "c2.ckpt")]) == 1
    assert "no training pairs found" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["register", "--moving", "m.vol"],
    ["register", "--moving", "m.vol", "--fixed", "f.vol", "--variant", "bogus"],
], ids=["missing-fixed", "bad-variant"])
def test_usage_error_exits_one(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_evaluate_needs_a_field_or_a_batch(capsys):
    assert cli.main(["evaluate"]) == 1
    assert "need --field or --batch" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evaluate"],
    ["evaluate", "--batch", "{dir}/batch.json"],
    ["pretrain", "--data-dir", "{dir}/empty", "--out", "{dir}/c.ckpt"],
], ids=["no-field", "empty-batch", "no-pairs"])
def test_command_input_errors_are_reported_by_main(argv, tmp_path, capsys):
    (tmp_path / "batch.json").write_text("[]")
    (tmp_path / "empty").mkdir()
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_baseline_numerical_abort_exits_two_and_writes_out(tmp_path, capsys, monkeypatch):
    d = _synth(tmp_path)
    out = tmp_path / "cmp.json"
    _poison_loss_at(monkeypatch, 3)
    capsys.readouterr()
    rc = cli.main(["baseline", "--moving", str(d / "phantom.vol"), "--fixed", str(d / "fixed.vol"),
                   "--strategy", "backbone-only", "--steps", "4", "--out", str(out), *SMALL])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and err[0].startswith("numerical abort: ")
    assert json.loads(out.read_text())["pipeline_error"] == err[0][len("numerical abort: "):]


_IMPORT_PROBE = """
import json, pkgutil, subprocess, sys
started = []
_popen_init = subprocess.Popen.__init__


def _spy(self, *args, **kwargs):
    started.append(repr(args[0] if args else kwargs.get("args")))
    _popen_init(self, *args, **kwargs)


subprocess.Popen.__init__ = _spy
import numpy as np
import regadapt
names = sorted(m.name for m in pkgutil.iter_modules(regadapt.__path__))
for name in names:
    __import__("regadapt." + name)
from regadapt import _tuning, metrics
scipy_at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
mp_at_import = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")
a = np.zeros((5, 5, 5), bool)
b = np.zeros((5, 5, 5), bool)
a[2, 2, 2] = True
b[2, 2, 3] = True
hd = metrics.hd95(a, b, (1, 1, 1))
print(json.dumps({"modules": names, "scipy_at_import": scipy_at_import,
                  "multiprocessing_at_import": mp_at_import, "started": started,
                  "tuned": _tuning.tune_allocator(), "hd95": hd,
                  "spatial_after_hd95": "scipy.spatial" in sys.modules}))
"""


def test_importing_every_module_loads_no_scipy_and_starts_no_process():
    # nor multiprocessing, which only evaluate --jobs > 1 imports
    import platform
    import subprocess

    import regadapt

    src = os.path.dirname(os.path.dirname(os.path.abspath(regadapt.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert {"cli", "autodiff", "unet", "fields", "losses", "pipeline", "metrics",
            "volume_io"} <= set(probe["modules"])
    assert probe["scipy_at_import"] == []
    assert probe["multiprocessing_at_import"] == []
    assert probe["started"] == []
    assert probe["hd95"] == pytest.approx(1.0) and probe["spatial_after_hd95"]
    if platform.libc_ver()[0] == "glibc":
        assert probe["tuned"] is True


def test_tune_allocator_is_false_without_mallopt(monkeypatch):
    from regadapt import _tuning

    monkeypatch.setattr(_tuning.ctypes, "CDLL", lambda name: object())
    assert _tuning.tune_allocator() is False
