"""Refiner networks and the multi-scale cascade."""

import dataclasses
import json

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt import fields as fa
from regadapt import losses
from regadapt import unet
from regadapt.fields import DisplacementField
from regadapt.volume_io import synth_problem

from oracles import fd_gradient, max_rel_err

RNG = np.random.default_rng(31)


def test_zero_init_outputs_exact_zero():
    cfg = unet.UNet3DConfig(base_channels=4, depth=2)
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    a = ad.DiffTensor(RNG.standard_normal((1, 1, 8, 8, 8)).astype(np.float32))
    b = ad.DiffTensor(RNG.standard_normal((1, 1, 8, 8, 8)).astype(np.float32))
    out = unet.unet_forward(params, a, b, cfg)
    assert out.shape == (1, 3, 8, 8, 8)
    assert np.all(out.data == 0.0)


def test_output_dims_preserved_at_quarter_scale():
    # quarter scale of the deployment grid (160,224,192)
    cfg = unet.UNet3DConfig(base_channels=2, depth=3)
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    a = ad.DiffTensor(np.zeros((1, 1, 40, 56, 48), np.float32))
    b = ad.DiffTensor(np.zeros((1, 1, 40, 56, 48), np.float32))
    out = unet.unet_forward(params, a, b, cfg)
    assert out.shape == (1, 3, 40, 56, 48)


def test_odd_dims_padded_and_cropped():
    cfg = unet.UNet3DConfig(base_channels=2, depth=3)
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    a = ad.DiffTensor(RNG.standard_normal((1, 1, 6, 9, 11)).astype(np.float32))
    b = ad.DiffTensor(RNG.standard_normal((1, 1, 6, 9, 11)).astype(np.float32))
    out = unet.unet_forward(params, a, b, cfg)
    assert out.shape == (1, 3, 6, 9, 11)


def test_param_count_closed_form():
    cfg = unet.UNet3DConfig()  # base 32, depth 3
    # independent tally over the stated layer list
    convs = [
        (32, 2, 3), (32, 32, 3),        # enc1
        (64, 32, 3), (64, 64, 3),       # enc2
        (128, 64, 3), (128, 128, 3),    # enc3
        (128, 256, 3), (128, 128, 3),   # dec3 after skip concat
        (64, 192, 3), (64, 64, 3),      # dec2
        (32, 96, 3), (32, 32, 3),       # dec1
        (3, 32, 1),                     # final projection
    ]
    expect = sum(co * ci * k ** 3 + co for co, ci, k in convs)
    assert unet.unet_param_count(cfg) == expect
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    assert sum(p.data.size for p in params.values()) == expect


def test_init_deterministic_in_seed():
    a = unet.init_cascade(seed=9)
    b = unet.init_cascade(seed=9)
    for na, nb in zip(a.nets, b.nets):
        for key in na:
            assert np.array_equal(na[key].data, nb[key].data)
    c = unet.init_cascade(seed=10)
    assert not np.array_equal(a.nets[0]["enc1.conv1.w"].data,
                              c.nets[0]["enc1.conv1.w"].data)


def test_single_variant_shape():
    c = unet.init_cascade(seed=0, variant="single")
    assert len(c.nets) == 1
    assert c.scales == (1.0,)


def test_cascade_scales_are_quarter_half_full():
    c = unet.init_cascade(seed=0)
    assert c.scales == (0.25, 0.5, 1.0)
    assert len(c.nets) == 3


@pytest.mark.parametrize("variant,mode", [
    ("cascade", "compose"), ("cascade", "add"),
    ("single", "compose"), ("single", "add"),
])
def test_fresh_cascade_identity(variant, mode):
    p = synth_problem(3, dims=(16, 16, 16))
    phi0 = DisplacementField(RNG.uniform(-0.2, 0.2, (3, 16, 16, 16)).astype(np.float32))
    casc = unet.init_cascade(seed=1, variant=variant, update_mode=mode)
    phis, warps = unet.cascade_forward(phi0, p.phantom, p.fixed, casc)
    assert len(phis) == len(casc.scales)
    for ph in phis:
        assert np.array_equal(ph.data[0], phi0.data)


def test_output_scale_zero_freezes_finest_stage():
    p = synth_problem(3, dims=(16, 16, 16))
    casc = unet.init_cascade(seed=2, output_scale=0.0)
    rng = np.random.default_rng(5)
    for net in casc.nets:
        net["final.w"].data[:] = rng.standard_normal(net["final.w"].shape).astype(np.float32) * 0.05
    phis, _ = unet.cascade_forward(DisplacementField.zero((16, 16, 16)), p.phantom, p.fixed, casc)
    # coarse stages still act, but the finest residual is annihilated
    assert np.array_equal(phis[-1].data, phis[-2].data)


def test_constant_residual_compose_equals_add():
    # constant-field exactness of composition makes the two modes coincide
    p = synth_problem(4, dims=(12, 12, 12))
    results = {}
    for mode in ("compose", "add"):
        casc = unet.init_cascade(seed=3, variant="single", update_mode=mode)
        casc.nets[0]["final.b"].data[:] = np.array([0.2, -0.1, 0.3], np.float32).reshape(1, 3, 1, 1, 1)
        phis, _ = unet.cascade_forward(DisplacementField.zero((12, 12, 12)),
                                       p.phantom, p.fixed, casc)
        results[mode] = phis[-1].data
    assert np.array_equal(results["compose"], results["add"])


def test_gradients_reach_every_net():
    p = synth_problem(5, dims=(16, 16, 16))
    casc = unet.init_cascade(seed=4)
    rng = np.random.default_rng(6)
    for net in casc.nets:
        net["final.w"].data[:] = rng.standard_normal(net["final.w"].shape).astype(np.float32) * 0.01
    phis, warps = unet.cascade_forward(DisplacementField.zero((16, 16, 16)),
                                       p.phantom, p.fixed, casc)
    loss, _ = losses.total_loss_graph(warps, ad.DiffTensor(p.fixed.data[None, None]), phis[-1])
    loss.backward()
    for t, net in enumerate(casc.nets, start=1):
        assert any(q.grad is not None and np.any(q.grad != 0) for q in net.values()), f"net{t} got no gradient"


def test_unet_gradcheck_small():
    cfg = unet.UNet3DConfig(base_channels=2, depth=2, zero_init_final=False)
    rng = np.random.default_rng(8)
    params = unet.init_unet_params(cfg, rng)
    a = rng.standard_normal((1, 1, 8, 8, 8))
    b = rng.standard_normal((1, 1, 8, 8, 8))

    def run(theta):
        at = ad.DiffTensor(a)
        bt = ad.DiffTensor(b)
        return ad.reduce_mean(ad.square(unet.unet_forward(theta, at, bt, cfg)))

    f64 = {k: ad.DiffTensor(p.data.astype(np.float64), requires_grad=True)
           for k, p in params.items()}
    run(f64).backward()
    for name in ("enc1.conv1.w", "final.w", "dec1.conv2.b"):
        arr = f64[name].data
        # h = 1e-6: the smallest |pre-activation| here is about 3.6e-5, so
        # steps of 1e-3 or 1e-4 cross leaky-ReLU kinks and the central
        # difference no longer measures the one-sided derivative
        fd = fd_gradient(lambda: run({k: ad.DiffTensor(p.data) for k, p in f64.items()}).item(),
                         arr, h=1e-6)
        assert max_rel_err(f64[name].grad, fd) < 1e-3, name


def test_cascade_checkpoint_round_trip(tmp_path):
    casc = unet.init_cascade(seed=11, variant="cascade", update_mode="add",
                             scale_mode="all_residuals", output_scale=0.02)
    rng = np.random.default_rng(1)
    for net in casc.nets:
        net["final.w"].data[:] = rng.standard_normal(net["final.w"].shape).astype(np.float32)
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(casc, path)
    again = unet.load_cascade(path)
    assert again.update_mode == "add"
    assert again.scale_mode == "all_residuals"
    assert again.output_scale == 0.02
    assert again.config.base_channels == casc.config.base_channels
    for na, nb in zip(casc.nets, again.nets):
        for key in na:
            assert np.array_equal(na[key].data, nb[key].data)



def test_cascade_checkpoint_keeps_every_config_field(tmp_path):
    cfg = unet.UNet3DConfig(in_channels=3, out_channels=2, base_channels=4, depth=2,
                            lrelu_slope=0.1, zero_init_final=False, instance_norm=True)
    defaults = unet.UNet3DConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(unet.UNet3DConfig))
    casc = unet.init_cascade(config=cfg, seed=5)
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(casc, path)
    assert unet.load_cascade(path).config == casc.config


def test_cascade_checkpoint_rejects_edited_meta(tmp_path):
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.UNet3DConfig(base_channels=2, depth=1)), path)
    manifest_path = tmp_path / "cascade.ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["meta"]["output_scale"] = 0.5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="config_hash"):
        unet.load_cascade(path)


def test_cascade_checkpoint_rejects_extra_payload(tmp_path):
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.UNet3DConfig(base_channels=2, depth=1)), path)
    with open(path, "ab") as f:
        f.write(b"\0")
    with pytest.raises(ValueError, match="bytes"):
        unet.load_cascade(path)

def test_cascade_validation():
    with pytest.raises(ValueError, match="variant"):
        unet.RefineCascade(nets=[{}], config=unet.UNet3DConfig(), scales=(1.0,),
                           variant="bogus")
    with pytest.raises(ValueError, match="needs"):
        unet.RefineCascade(nets=[{}, {}], config=unet.UNet3DConfig(),
                           scales=(0.5, 1.0), variant="single")
