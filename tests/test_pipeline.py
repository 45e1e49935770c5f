"""Backbone, gating, style transfer, instance optimization, pretraining."""

import dataclasses
import re
import sys

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt import fields as fa
from regadapt import losses
from regadapt import pipeline as pl
from regadapt import unet
from regadapt.fields import DisplacementField
from regadapt.volume_io import Volume3D, save_field, synth_problem

from oracles import endpoint_error, midrank_remap_oracle

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
    for bad, match in (({"step": float("nan")}, "step"), ({"smooth_sigma": float("inf")}, "sigma"),
                       ({"lam": float("inf")}, "lam"), ({"lam": -0.1}, "lam"),
                       ({"window": 8}, "window"), ({"window": -1}, "window"),
                       ({"iters": 2.0}, "iters must be an int")):
        with pytest.raises(ValueError, match=match):
            pl.BackboneSpec(kind="variational", **bad)


def test_iterate_backbone_k1_equals_predict(prob, tmp_path):
    path = tmp_path / "init.vol"
    save_field(prob.true_field, path)
    spec = pl.BackboneSpec(kind="file", path=str(path))
    a = pl.iterate_backbone(spec, prob.phantom, prob.fixed, 1)
    b = pl.backbone_predict(spec, prob.phantom, prob.fixed)
    assert np.array_equal(a.data, b.data)


def test_iterate_variational_backbone_k2_composes_a_second_prediction(prob):
    spec = pl.BackboneSpec(kind="variational", levels=2, iters=3)
    phi1 = pl.backbone_predict(spec, prob.phantom, prob.fixed)
    delta = pl.backbone_predict(spec, fa.warp(prob.phantom, phi1), prob.fixed)
    out = pl.iterate_backbone(spec, prob.phantom, prob.fixed, 2)
    assert np.abs(phi1.data).max() > 0.01 and np.abs(delta.data).max() > 0.01  # both moves count
    assert np.array_equal(out.data, fa.compose(phi1, delta).data)
    assert fa.ndv(out) == 0.0


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monotone_remap_is_the_midrank_oracle_with_ties(seed):
    # six integer levels on 7 x 5 x 6 voxels, skewed low: every value is tied
    rng = np.random.default_rng(seed)
    p = [0.4, 0.25, 0.15, 0.1, 0.06, 0.04]
    low = rng.choice(6, size=(7, 5, 6), p=p).astype(np.float32)
    ref = pl.reference_histogram(rng.choice(6, size=(7, 5, 6), p=p).astype(np.float32), bins=6)
    for data, flipped in ((low, False), (5 - low, True)):  # skewed high: the flipped branch
        got = pl.monotone_remap(Volume3D(data.shape, (1.0, 1.0, 1.0), data), ref).data
        direct = midrank_remap_oracle(data, ref["counts"], ref["edges"]).astype(np.float32)
        inverted = midrank_remap_oracle(data.max() - data.astype(np.float64) + data.min(),
                                        ref["counts"], ref["edges"]).astype(np.float32)
        assert not np.array_equal(direct, inverted)
        assert np.array_equal(got, inverted if flipped else direct)


def test_monotone_remap_constant_errors(prob):
    flat = dataclasses.replace(prob.phantom, data=np.zeros(DIMS, np.float32))
    with pytest.raises(ValueError, match="constant"):
        pl.monotone_remap(flat, pl.reference_histogram(prob.phantom))


def test_gate_same_contrast_passthrough(prob):
    style = pl.StyleTransferSpec(kind="monotone_remap",
                                 reference=pl.reference_histogram(prob.phantom))
    ja, jb, fired = pl.gated_preprocess(prob.phantom, prob.fixed, style, gate_window=11, tau=0.4, down=4)
    assert fired is False
    assert ja is prob.phantom and jb is prob.fixed


def test_gate_fires_and_improves_lncc():
    p = synth_problem(3, dims=(24, 24, 24), contrast="inverted")
    style = pl.StyleTransferSpec(kind="monotone_remap",
                                 reference=pl.reference_histogram(p.fixed))
    ja, jb, fired = pl.gated_preprocess(p.remapped, p.fixed, style, gate_window=11, tau=0.4, down=4)
    assert fired is True
    assert losses.lncc(ja, jb, 11) > losses.lncc(p.remapped, p.fixed, 11)


def test_gate_identity_style_degenerate():
    p = synth_problem(3, dims=(16, 16, 16), contrast="inverted")
    ja, jb, fired = pl.gated_preprocess(p.remapped, p.fixed, pl.StyleTransferSpec(),
                                        gate_window=11, tau=0.4, down=4)
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


def test_single_step_only_evaluates(prob):
    cfg = small_cfg(steps=1)
    casc = cfg.make_cascade()
    init = {name: p.data.copy() for name, p in casc.named_params().items()}
    _, trace = pl.instance_optimize(prob.phantom, prob.fixed, DisplacementField.zero(DIMS),
                                    casc, cfg)
    assert [s.lr for s in trace.steps] == [0.0]
    for name, p in casc.named_params().items():
        assert np.array_equal(p.data, init[name]), name


def test_last_step_has_no_update(prob):
    cfg = small_cfg(steps=3)
    _, trace = pl.instance_optimize(prob.phantom, prob.fixed, DisplacementField.zero(DIMS),
                                    cfg.make_cascade(), cfg)
    lrs = [s.lr for s in trace.steps]
    assert lrs[0] > 0 and lrs[1] > 0 and lrs[2] == 0.0


def test_totals_are_a_prefix_of_a_longer_run(prob):
    totals = {}
    for steps in (3, 4):
        cfg = small_cfg(steps=steps)
        _, trace = pl.instance_optimize(prob.phantom, prob.fixed,
                                        DisplacementField.zero(DIMS), cfg.make_cascade(), cfg)
        totals[steps] = [s.total for s in trace.steps]
    assert totals[3] == totals[4][:3]


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
    with pytest.warns(RuntimeWarning):
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
    with pytest.warns(RuntimeWarning):
        _, trace = pl.instance_optimize(prob.phantom, prob.fixed, DisplacementField.zero(DIMS),
                                        _diverging_cascade(cfg), cfg)
    assert trace.error == "non-finite displacement at step 1"
    assert trace.steps == [] and trace.best_step == -1
    with pytest.warns(RuntimeWarning):
        history = pl.pretrain_refiners([(prob.phantom, prob.fixed)], _diverging_cascade(cfg),
                                       steps=2, lr=1e-5, seed=0, cfg=cfg)
    assert history == [None, None]


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (4, 4, 4), (9, 33, 17), (16, 16, 16)])
def test_variational_smoother_matches_scipy(dims):
    # sigma 2 has radius 8, wider than the first three grids: the border folds more than once
    from scipy.ndimage import gaussian_filter

    u = np.random.default_rng(5).standard_normal((3,) + dims).astype(np.float32)
    got = ad.gaussian_reflect(u, 2.0)
    assert got.shape == u.shape and got.dtype == u.dtype
    for c in range(3):
        ref = gaussian_filter(u[c], sigma=2.0, mode="reflect", truncate=4.0)
        assert np.abs(got[c] - ref).max() < 1e-6


def test_variational_non_finite_field_aborts(prob, monkeypatch):
    monkeypatch.setattr(ad, "gaussian_reflect", lambda a, sigma: np.full_like(a, np.nan))
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
    for bad in ({"base_lr": np.nan}, {"lam": np.inf}, {"output_scale": -np.inf},
                {"base_lr": -1e-4}, {"lam": -0.1}, {"warmup": -1}, {"dice_every": -1},
                {"lncc_window": -1}, {"gate_window": -3}, {"gate_down": 0},
                {"steps": 2.5}, {"depth": 2.0}, {"seed": True}, {"output_scale": "x"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            pl.IOConfig(**bad)
    assert type(pl.IOConfig(lam=1).lam) is float


@pytest.mark.parametrize("bad, match", [
    ({"variant": "bogus"}, "variant"), ({"update_mode": "mul"}, "update_mode"),
    ({"scale_mode": "none"}, "scale_mode"), ({"base_channels": 0}, "base_channels"),
    ({"depth": 0}, "depth"),
])
def test_ioconfig_rejects_cascade_settings_at_construction(bad, match):
    with pytest.raises(ValueError, match=match):
        pl.IOConfig(**bad)


def _poison_loss_at(monkeypatch, step):
    real, calls = losses.total_loss_graph, []

    def total_loss_graph(*args, **kwargs):
        loss, report = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == step:
            report = dataclasses.replace(report, total=float("nan"))
        return loss, report

    monkeypatch.setattr(losses, "total_loss_graph", total_loss_graph)


def _poison_gradient_at(monkeypatch, step):
    real, calls = ad.adam_step, []

    def adam_step(params, state, *args):
        calls.append(1)
        if len(calls) == step:
            p = params[sorted(params)[0]]
            p.grad = np.full_like(p.data, np.nan)
        return real(params, state, *args)

    monkeypatch.setattr(ad, "adam_step", adam_step)


@pytest.mark.parametrize("poison, step, error, updated", [
    # the loss fails at step 3, after steps 1 and 2 both updated
    (_poison_loss_at, 3, r"non-finite loss at step 3", [True, True]),
    # step 2's gradient fails: its loss is kept, its update is not run
    (_poison_gradient_at, 2, r"non-finite gradient for parameter '.+' at step 2", [True, False]),
])
def test_train_step_failure_aborts_with_best_field(prob, monkeypatch, poison, step, error,
                                                   updated):
    # steps 1 and 2 evaluate the same fields as a 2-step run, which only updates at step 1
    cfg = small_cfg(steps=2)
    ref_field, ref = pl.instance_optimize(prob.phantom, prob.fixed, DisplacementField.zero(DIMS),
                                          cfg.make_cascade(), cfg)
    cfg = small_cfg(steps=4)
    poison(monkeypatch, step)
    out, trace = pl.instance_optimize(prob.phantom, prob.fixed, DisplacementField.zero(DIMS),
                                      cfg.make_cascade(), cfg)
    assert re.fullmatch(error, trace.error)
    assert [s.step for s in trace.steps] == [1, 2]
    assert [s.total for s in trace.steps] == [s.total for s in ref.steps]
    assert [s.lr > 0 for s in trace.steps] == updated
    assert trace.best_step == ref.best_step == 2
    assert np.array_equal(out.data, ref_field.data) and np.all(np.isfinite(out.data))


def test_register_pair_records_gate(prob):
    cfg = small_cfg(steps=1)
    res = pl.register_pair(prob.phantom, prob.fixed, cfg=cfg)
    assert res.trace.gate_fired is False
    assert res.trace.final_ndv == 0.0
    # zero backbone + zero-init cascade + 1 step: best field is exactly phi0
    assert np.all(res.field.data == 0)


def test_register_pair_at_depth_one_lowers_the_loss():
    # a one-level refiner (enc1 + final, no decoder) on a 12^3 pair
    p = synth_problem(3, dims=(12, 12, 12))
    res = pl.register_pair(p.phantom, p.fixed, cfg=pl.IOConfig(depth=1, steps=2))
    first, last = res.trace.steps
    assert first.lr > 0 and last.total < first.total
    assert res.trace.best_step == last.step == 2 and res.trace.final_ndv == 0.0
    assert np.all(np.isfinite(res.field.data)) and np.any(res.field.data != 0)


def test_register_pair_on_a_volume_thinner_than_the_coarsest_pooling():
    # the 3-voxel axis pools to one voxel at the quarter-scale stage
    dims = (3, 8, 8)
    rng = np.random.default_rng(21)
    moving, fixed = (Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0),
                              data=rng.standard_normal(dims).astype(np.float32)) for _ in range(2))
    cfg = small_cfg(steps=3, base_channels=4, lncc_window=3, gate_window=3)
    assert len(cfg.scales) == 3
    res = pl.register_pair(moving, fixed, cfg=cfg)
    assert res.trace.error is None and len(res.trace.steps) == 3
    assert all(np.isfinite(s.total) for s in res.trace.steps)
    assert res.trace.final_ndv is not None and np.isfinite(res.trace.final_ndv)
    assert res.field.dims == dims and np.all(np.isfinite(res.field.data))


@pytest.mark.parametrize("name", ["moving_labels", "fixed_labels"])
def test_register_pair_rejects_labels_off_the_volume_grid(prob, monkeypatch, name):
    monkeypatch.setattr(losses, "modality_gate", lambda *a, **k: pytest.fail("gate ran"))
    labels = synth_problem(1, dims=(8, 8, 8)).labels
    with pytest.raises(ValueError, match=f"{name} dims"):
        pl.register_pair(prob.phantom, prob.fixed, cfg=small_cfg(), **{name: labels})


# pretraining


def test_pretrain_zero_steps_no_change(prob):
    cfg = small_cfg()
    casc = cfg.make_cascade()
    before = {k: p.data.copy() for k, p in casc.named_params().items()}
    hist = pl.pretrain_refiners([(prob.phantom, prob.fixed)], casc, steps=0, lr=1e-5, seed=0,
                                cfg=pl.IOConfig())
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


@pytest.mark.parametrize("lr", [float("nan"), -1.0])
def test_pretrain_bad_lr_rejected_before_any_step(prob, lr):
    casc = small_cfg().make_cascade()
    before = {k: p.data.copy() for k, p in casc.named_params().items()}
    with pytest.raises(ValueError, match="lr"):
        pl.pretrain_refiners([(prob.phantom, prob.fixed)], casc, steps=2, lr=lr, seed=0,
                             cfg=small_cfg())
    for k, p in casc.named_params().items():
        assert np.array_equal(before[k], p.data)


def test_pretrain_empty_list():
    with pytest.raises(ValueError, match="empty"):
        pl.pretrain_refiners([], unet.init_cascade(unet.CascadeConfig(seed=0)), steps=1, lr=1e-5,
                             seed=0, cfg=pl.IOConfig())


def test_pretrain_negative_steps_rejected(prob):
    with pytest.raises(ValueError, match="steps"):
        pl.pretrain_refiners([(prob.phantom, prob.fixed)], small_cfg().make_cascade(),
                             steps=-1, lr=1e-5, seed=0, cfg=pl.IOConfig())
