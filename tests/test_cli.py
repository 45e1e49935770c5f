"""CLI subcommands: flags, file outputs, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from regadapt import cli
from regadapt import unet
from regadapt.volume_io import load_field, load_labels, load_volume

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


def test_synth_inverted_fires_gate(tmp_path):
    from regadapt.losses import modality_gate

    d = _synth(tmp_path, "inv", seed=2, dims=(16, 16, 16), contrast="inverted")
    remapped = load_volume(d / "remapped.vol")
    fixed = load_volume(d / "fixed.vol")
    assert modality_gate(remapped, fixed) is True


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
    assert (cfg.lam, cfg.tau) == (1.0, 0.0)

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


def test_pretrain_zero_steps_checkpoint_equals_fresh(tmp_path):
    ckpt = tmp_path / "warm.ckpt"
    rc = cli.main(["pretrain", "--synth-pairs", "2", "--dims", "12", "12", "12",
                   "--pretrain-steps", "0", "--seed", "4", "--out", str(ckpt),
                   *SMALL])
    assert rc == 0
    loaded = unet.load_cascade(ckpt)
    cfg_small = unet.UNet3DConfig(base_channels=2, depth=2)
    fresh = unet.init_cascade(config=cfg_small, seed=4)
    for a, b in zip(loaded.nets, fresh.nets):
        for key in a:
            assert np.array_equal(a[key].data, b[key].data)


def test_pretrain_empty_dataset_exit_one(tmp_path):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    rc = cli.main(["pretrain", "--data-dir", str(tmp_path / "empty"),
                   "--out", str(tmp_path / "c.ckpt")])
    assert rc == 1


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
