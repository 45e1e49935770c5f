"""Backbone, gating, style transfer, instance optimization, pretraining."""

import dataclasses
import sys

import numpy as np
import pytest

from regadapt import fields as fa
from regadapt import losses
from regadapt import pipeline as pl
from regadapt import unet
from regadapt.fields import DisplacementField
from regadapt.volume_io import save_field, synth_problem

from oracles import endpoint_error

DIMS = (16, 16, 16)


@pytest.fixture(scope="module")
def prob():
    return synth_problem(1, dims=DIMS, max_disp=0.3)


def small_cfg(**kw):
    base = dict(steps=2, dice_every=0, base_channels=2, depth=2)
    base.update(kw)
    return pl.IOConfig(**base)


# backbone


def test_zero_backbone(prob):
    phi0 = pl.backbone_predict(pl.BackboneSpec(kind="zero"), prob.phantom, prob.fixed)
    assert np.all(phi0.data == 0)


def test_file_backbone_round_trip(tmp_path, prob):
    path = tmp_path / "init.vol"
    save_field(prob.true_field, path)
    spec = pl.BackboneSpec(kind="file", path=str(path))
    phi0 = pl.backbone_predict(spec, prob.phantom, prob.fixed)
    assert np.array_equal(phi0.data, prob.true_field.data)


def test_file_backbone_dims_mismatch(tmp_path, prob):
    path = tmp_path / "bad.vol"
    save_field(DisplacementField.zero((8, 8, 8)), path)
    with pytest.raises(ValueError, match="dims"):
        pl.backbone_predict(pl.BackboneSpec(kind="file", path=str(path)),
                            prob.phantom, prob.fixed)


def test_variational_backbone_improves_epe():
    p = synth_problem(5, dims=(24, 24, 24), max_disp=0.3)
    spec = pl.BackboneSpec(kind="variational", levels=2, iters=15)
    phi0 = pl.backbone_predict(spec, p.phantom, p.fixed)
    e_zero = endpoint_error(np.zeros_like(p.true_field.data), p.true_field.data)
    e_var = endpoint_error(phi0.data, p.true_field.data)
    assert e_var < e_zero


def test_backbone_validation():
    with pytest.raises(ValueError, match="kind"):
        pl.BackboneSpec(kind="mystery")
    with pytest.raises(ValueError, match="path"):
        pl.BackboneSpec(kind="file")


def test_iterate_backbone_k1_equals_predict(prob, tmp_path):
    path = tmp_path / "init.vol"
    save_field(prob.true_field, path)
    spec = pl.BackboneSpec(kind="file", path=str(path))
    a = pl.iterate_backbone(spec, prob.phantom, prob.fixed, 1)
    b = pl.backbone_predict(spec, prob.phantom, prob.fixed)
    assert np.array_equal(a.data, b.data)


def test_iterate_zero_backbone_stays_zero(prob):
    out = pl.iterate_backbone(pl.BackboneSpec(kind="zero"), prob.phantom, prob.fixed, 3)
    assert np.all(out.data == 0)


# style transfer and gating


def test_monotone_remap_near_identity(prob):
    ref = pl.reference_histogram(prob.phantom, bins=128)
    out = pl.monotone_remap(prob.phantom, ref)
    bin_w = (prob.phantom.data.max() - prob.phantom.data.min()) / 128
    assert np.abs(out.data - prob.phantom.data).max() < bin_w * 1.5


def test_monotone_remap_fixes_inversion():
    p = synth_problem(2, dims=(24, 24, 24), contrast="inverted")
    ref = pl.reference_histogram(p.phantom)
    out = pl.monotone_remap(p.remapped, ref)
    ncc = np.corrcoef(out.data.reshape(-1), p.phantom.data.reshape(-1))[0, 1]
    assert ncc > 0.95


def test_monotone_remap_constant_errors(prob):
    flat = dataclasses.replace(prob.phantom, data=np.zeros(DIMS, np.float32))
    with pytest.raises(ValueError, match="constant"):
        pl.monotone_remap(flat, pl.reference_histogram(prob.phantom))


def test_gate_same_contrast_passthrough(prob):
    style = pl.StyleTransferSpec(kind="monotone_remap",
                                 reference=pl.reference_histogram(prob.phantom))
    ja, jb, fired = pl.gated_preprocess(prob.phantom, prob.fixed, style)
    assert fired is False
    assert ja is prob.phantom and jb is prob.fixed


def test_gate_fires_and_improves_lncc():
    p = synth_problem(3, dims=(24, 24, 24), contrast="inverted")
    style = pl.StyleTransferSpec(kind="monotone_remap",
                                 reference=pl.reference_histogram(p.fixed))
    ja, jb, fired = pl.gated_preprocess(p.remapped, p.fixed, style)
    assert fired is True
    assert losses.lncc(ja, jb, 11) > losses.lncc(p.remapped, p.fixed, 11)


def test_gate_identity_style_degenerate():
    p = synth_problem(3, dims=(16, 16, 16), contrast="inverted")
    ja, jb, fired = pl.gated_preprocess(p.remapped, p.fixed, pl.StyleTransferSpec())
    assert fired is True
    assert np.array_equal(ja.data, p.remapped.data)
    assert np.array_equal(jb.data, p.fixed.data)


def test_external_style_command(tmp_path, prob):
    script = tmp_path / "style.py"
    script.write_text(
        "import sys, shutil\n"
        "shutil.copy(sys.argv[1], sys.argv[2])\n"
        "shutil.copy(sys.argv[1] + '.json', sys.argv[2] + '.json')\n"
    )
    spec = pl.StyleTransferSpec(kind="external_command",
                                command=(sys.executable, str(script), "{in}", "{out}"))
    out = pl.apply_style(prob.phantom, spec)
    assert np.array_equal(out.data, prob.phantom.data)


def test_external_style_failure(tmp_path, prob):
    spec = pl.StyleTransferSpec(kind="external_command",
                                command=(sys.executable, "-c", "import sys; sys.exit(3)"))
    with pytest.raises(RuntimeError, match="failed"):
        pl.apply_style(prob.phantom, spec)


# instance optimization


def test_trace_length_and_step_one_consistency(prob):
    cfg = small_cfg(steps=3)
    casc = cfg.make_cascade()
    phi0 = DisplacementField.zero(DIMS)
    out, trace = pl.instance_optimize(prob.phantom, prob.fixed, phi0, casc, cfg)
    assert len(trace.steps) == 3
    assert [s.step for s in trace.steps] == [1, 2, 3]
    ref = losses.total_loss([prob.phantom], prob.fixed, phi0,
                            lam=cfg.lam, window=cfg.lncc_window)
    # zero-init cascade: every stage warp equals the moving image at phi0
    expect = sum(-s for s in [ref.sim[0]] * len(casc.scales)) + cfg.lam * ref.reg
    assert trace.steps[0].total == pytest.approx(expect, rel=1e-6)


def test_phi0_frozen(prob):
    cfg = small_cfg()
    phi0 = DisplacementField(np.random.default_rng(3).uniform(
        -0.2, 0.2, (3,) + DIMS).astype(np.float32))
    before = phi0.data.tobytes()
    pl.instance_optimize(prob.phantom, prob.fixed, phi0, cfg.make_cascade(), cfg)
    assert phi0.data.tobytes() == before


def test_instance_optimize_deterministic(prob):
    cfg = small_cfg(steps=2)
    runs = []
    for _ in range(2):
        casc = cfg.make_cascade()
        out, trace = pl.instance_optimize(prob.phantom, prob.fixed,
                                          DisplacementField.zero(DIMS), casc, cfg)
        runs.append((out.data.tobytes(),
                     tuple((s.total, s.lr) for s in trace.steps)))
    assert runs[0] == runs[1]


def test_best_loss_selection(prob):
    cfg = small_cfg(steps=4)
    casc = cfg.make_cascade()
    out, trace = pl.instance_optimize(prob.phantom, prob.fixed,
                                      DisplacementField.zero(DIMS), casc, cfg)
    totals = [s.total for s in trace.steps]
    assert trace.best_step == int(np.argmin(totals)) + 1


def test_numerical_abort_returns_last_finite(prob):
    cfg = small_cfg(steps=3)
    casc = cfg.make_cascade()
    for net in casc.nets:
        net["enc1.conv1.w"].data[:] = 1e30
        net["final.w"].data[:] = 1e30
    out, trace = pl.instance_optimize(prob.phantom, prob.fixed,
                                      DisplacementField.zero(DIMS), casc, cfg)
    assert trace.error is not None
    assert np.all(np.isfinite(out.data))



def _diverging_cascade(cfg):
    casc = cfg.make_cascade()
    for net in casc.nets:
        net["enc1.conv1.w"].data[:] = 1e30
        net["final.w"].data[:] = 1e30
    return casc


def test_non_finite_displacement_names_its_step(prob):
    cfg = small_cfg(steps=3)
    _, trace = pl.instance_optimize(prob.phantom, prob.fixed, DisplacementField.zero(DIMS),
                                    _diverging_cascade(cfg), cfg)
    assert trace.error == "non-finite displacement at step 1"
    assert trace.steps == [] and trace.best_step == -1
    history = pl.pretrain_refiners([(prob.phantom, prob.fixed)], _diverging_cascade(cfg),
                                   steps=2, cfg=cfg)
    assert history == [None, None]


def test_variational_non_finite_field_aborts(prob, monkeypatch):
    monkeypatch.setattr(pl, "_ndi_gaussian", lambda a, sigma: np.full_like(a, np.nan))
    spec = pl.BackboneSpec(kind="variational", levels=1, iters=2)
    with pytest.raises(pl.RegistrationAbort, match="non-finite displacement"):
        pl.backbone_predict(spec, prob.phantom, prob.fixed)

def test_dice_recorded_every_n(prob):
    cfg = small_cfg(steps=4, dice_every=2)
    out, trace = pl.instance_optimize(
        prob.phantom, prob.fixed, DisplacementField.zero(DIMS),
        cfg.make_cascade(), cfg, moving_labels=prob.labels,
        fixed_labels=prob.fixed_labels)
    recorded = [s.step for s in trace.steps if s.dice is not None]
    assert recorded == [2, 4]


def test_ioconfig_validation():
    with pytest.raises(ValueError, match="steps"):
        pl.IOConfig(steps=0)
    with pytest.raises(ValueError, match="tau"):
        pl.IOConfig(tau=1.5)
    with pytest.raises(ValueError, match="odd"):
        pl.IOConfig(lncc_window=8)


def test_register_pair_records_gate(prob):
    cfg = small_cfg(steps=1)
    res = pl.register_pair(prob.phantom, prob.fixed, cfg=cfg)
    assert res.trace.gate_fired is False
    assert res.trace.final_ndv == 0.0
    # zero backbone + zero-init cascade + 1 step: best field is exactly phi0
    assert np.all(res.field.data == 0)


# pretraining


def test_pretrain_zero_steps_no_change(prob):
    cfg = small_cfg()
    casc = cfg.make_cascade()
    before = {k: p.data.copy() for k, p in casc.named_params().items()}
    hist = pl.pretrain_refiners([(prob.phantom, prob.fixed)], casc, steps=0, lr=1e-5)
    assert hist == []
    for k, p in casc.named_params().items():
        assert np.array_equal(before[k], p.data)


def test_pretrain_deterministic(prob):
    pairs = [(prob.phantom, prob.fixed)]
    snaps = []
    for _ in range(2):
        cfg = small_cfg()
        casc = cfg.make_cascade()
        hist = pl.pretrain_refiners(pairs, casc, steps=3, lr=1e-4, seed=5, cfg=cfg)
        snaps.append((tuple(hist),
                      {k: p.data.tobytes() for k, p in casc.named_params().items()}))
    assert snaps[0] == snaps[1]


def test_pretrain_empty_list():
    with pytest.raises(ValueError, match="empty"):
        pl.pretrain_refiners([], unet.init_cascade(seed=0), steps=1, lr=1e-5)
