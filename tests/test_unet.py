"""Refiner networks and the multi-scale cascade."""

import dataclasses
import json
import math

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt import fields as fa
from regadapt import losses
from regadapt import unet
from regadapt import volume_io as vio
from regadapt.fields import DisplacementField
from regadapt.volume_io import synth_problem

from oracles import bits, fd_gradient, max_rel_err, mean_square

RNG = np.random.default_rng(31)


def test_zero_init_outputs_exact_zero():
    cfg = unet.CascadeConfig(base_channels=4, depth=2)
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    a = ad.DiffTensor(RNG.standard_normal((1, 1, 8, 8, 8)).astype(np.float32))
    b = ad.DiffTensor(RNG.standard_normal((1, 1, 8, 8, 8)).astype(np.float32))
    out = unet.unet_forward(params, ad.concat_channels([a, b]), cfg)
    assert out.shape == (1, 3, 8, 8, 8)
    assert np.all(out.data == 0.0)


def test_output_dims_preserved_at_quarter_scale():
    # quarter scale of the deployment grid (160,224,192)
    cfg = unet.CascadeConfig(base_channels=2, depth=3)
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    a = ad.DiffTensor(np.zeros((1, 1, 40, 56, 48), np.float32))
    b = ad.DiffTensor(np.zeros((1, 1, 40, 56, 48), np.float32))
    out = unet.unet_forward(params, ad.concat_channels([a, b]), cfg)
    assert out.shape == (1, 3, 40, 56, 48)


def test_odd_dims_padded_and_cropped():
    cfg = unet.CascadeConfig(base_channels=2, depth=3)
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    a = ad.DiffTensor(RNG.standard_normal((1, 1, 6, 9, 11)).astype(np.float32))
    b = ad.DiffTensor(RNG.standard_normal((1, 1, 6, 9, 11)).astype(np.float32))
    out = unet.unet_forward(params, ad.concat_channels([a, b]), cfg)
    assert out.shape == (1, 3, 6, 9, 11)


def test_unet_convolves_the_unpadded_grid(monkeypatch):
    seen = []
    conv3d = ad.conv3d

    def spy(x, kernel, **kwargs):
        seen.append(x.shape[2:])
        return conv3d(x, kernel, **kwargs)

    monkeypatch.setattr(ad, "conv3d", spy)
    cfg = unet.CascadeConfig(base_channels=2, depth=3)
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    a = ad.DiffTensor(RNG.standard_normal((1, 1, 6, 9, 11)).astype(np.float32))
    unet.unet_forward(params, ad.concat_channels([a, a]), cfg)
    # encoder at full, pooled (ragged) and twice-pooled dims, the last being
    # the bottleneck; decoder back up from the level above it, then final
    assert seen == ([(6, 9, 11)] * 2 + [(3, 5, 6)] * 2 + [(2, 3, 3)] * 2
                    + [(3, 5, 6)] * 2 + [(6, 9, 11)] * 2 + [(6, 9, 11)])


def test_param_count_closed_form():
    cfg = unet.CascadeConfig()  # base 32, depth 3
    # independent tally over the stated layer list
    convs = [
        (32, 2, 3), (32, 32, 3),        # enc1
        (64, 32, 3), (64, 64, 3),       # enc2
        (128, 64, 3), (128, 128, 3),    # enc3, the bottleneck
        (64, 192, 3), (64, 64, 3),      # dec2 after skip concat
        (32, 96, 3), (32, 32, 3),       # dec1
        (3, 32, 1),                     # final projection
    ]
    expect = sum(co * ci * k ** 3 + co for co, ci, k in convs)
    assert expect == 1_412_515
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    assert sum(p.data.size for p in params.values()) == expect


def test_depth_one_is_one_level_and_the_final_projection():
    cfg = unet.CascadeConfig(depth=1)  # base 32, no pooling, no decoder
    assert unet._conv_layers(cfg) == [
        ("enc1.conv1", 32, 2, 3), ("enc1.conv2", 32, 32, 3), ("final", 3, 32, 1)]
    expect = (32 * 2 * 27 + 32) + (32 * 32 * 27 + 32) + (3 * 32 + 3)
    assert expect == 29_539
    params = unet.init_unet_params(cfg, np.random.default_rng(0))
    assert sum(p.data.size for p in params.values()) == expect


def test_init_deterministic_in_seed():
    a = unet.init_cascade(unet.CascadeConfig(seed=9))
    b = unet.init_cascade(unet.CascadeConfig(seed=9))
    for na, nb in zip(a.nets, b.nets):
        for key in na:
            assert np.array_equal(na[key].data, nb[key].data)
    c = unet.init_cascade(unet.CascadeConfig(seed=10))
    assert not np.array_equal(a.nets[0]["enc1.conv1.w"].data,
                              c.nets[0]["enc1.conv1.w"].data)


def test_single_variant_shape():
    c = unet.init_cascade(unet.CascadeConfig(seed=0, variant="single"))
    assert len(c.nets) == 1
    assert c.scales == (1.0,)


def test_cascade_scales_are_quarter_half_full():
    c = unet.init_cascade(unet.CascadeConfig(seed=0))
    assert c.scales == (0.25, 0.5, 1.0)
    assert len(c.nets) == 3


@pytest.mark.parametrize("variant,mode", [
    ("cascade", "compose"), ("cascade", "add"),
    ("single", "compose"), ("single", "add"),
])
def test_fresh_cascade_identity(variant, mode):
    p = synth_problem(3, dims=(16, 16, 16))
    phi0 = DisplacementField(RNG.uniform(-0.2, 0.2, (3, 16, 16, 16)).astype(np.float32))
    casc = unet.init_cascade(unet.CascadeConfig(seed=1, variant=variant, update_mode=mode))
    phis, warps = unet.cascade_forward(phi0, p.phantom, p.fixed, casc)
    assert len(phis) == len(casc.scales)
    for ph in phis:
        assert np.array_equal(ph.data[0], phi0.data)


def test_output_scale_zero_freezes_finest_stage():
    p = synth_problem(3, dims=(16, 16, 16))
    casc = unet.init_cascade(unet.CascadeConfig(seed=2, output_scale=0.0))
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
        casc = unet.init_cascade(unet.CascadeConfig(seed=3, variant="single", update_mode=mode))
        casc.nets[0]["final.b"].data[:] = np.array([0.2, -0.1, 0.3], np.float32).reshape(1, 3, 1, 1, 1)
        phis, _ = unet.cascade_forward(DisplacementField.zero((12, 12, 12)),
                                       p.phantom, p.fixed, casc)
        results[mode] = phis[-1].data
    assert np.array_equal(results["compose"], results["add"])


def test_gradients_reach_every_net():
    p = synth_problem(5, dims=(16, 16, 16))
    casc = unet.init_cascade(unet.CascadeConfig(seed=4))
    rng = np.random.default_rng(6)
    for net in casc.nets:
        net["final.w"].data[:] = rng.standard_normal(net["final.w"].shape).astype(np.float32) * 0.01
    phis, warps = unet.cascade_forward(DisplacementField.zero((16, 16, 16)),
                                       p.phantom, p.fixed, casc)
    loss, _ = losses.total_loss_graph(warps, ad.DiffTensor(p.fixed.data[None, None]), phis[-1])
    loss.backward()
    for t, net in enumerate(casc.nets, start=1):
        assert any(q.grad is not None and np.any(q.grad != 0) for q in net.values()), f"net{t} got no gradient"


def test_each_stage_net_sees_the_pooled_warped_image_then_the_target(monkeypatch):
    # ragged dims, so every pooled grid has a partial last block
    seen, real = [], unet.unet_forward

    def spy(params, x, cfg):
        seen.append(x.data.copy())
        return real(params, x, cfg)

    monkeypatch.setattr(unet, "unet_forward", spy)
    dims = (13, 17, 11)
    rng = np.random.default_rng(14)
    moving = rng.standard_normal(dims).astype(np.float32)
    target = rng.standard_normal(dims).astype(np.float32)
    phi0 = DisplacementField(rng.uniform(-0.5, 0.5, (3,) + dims).astype(np.float32))
    casc = unet.init_cascade(unet.CascadeConfig(seed=5, base_channels=2, depth=2))
    for net in casc.nets:
        net["final.w"].data[:] = rng.standard_normal(net["final.w"].shape).astype(np.float32) * 0.5
    phis, _ = unet.cascade_forward(phi0, moving, target, casc)
    prev = [phi0.data] + [phi.data[0] for phi in phis[:-1]]
    assert not np.array_equal(prev[1], prev[0]) and not np.array_equal(prev[2], prev[1])
    assert len(seen) == 3
    for x, f, u in zip(seen, (4, 2, 1), prev):
        pooled = [ad.avg_pool3d(ad._lift(v), f).data for v in (fa.warp(moving, u), target)]
        assert bits(x) == bits(np.concatenate(pooled, axis=1)), f


def _default_cascade_loss(n=16):
    """Loss graph of a default cascade on an n^3 pair, with the nodes
    cascade_forward returned and the cascade."""
    p = synth_problem(5, dims=(n, n, n))
    casc = unet.init_cascade(unet.CascadeConfig(seed=4))
    phis, warps = unet.cascade_forward(DisplacementField.zero((n, n, n)),
                                       p.phantom, p.fixed, casc)
    loss, _ = losses.total_loss_graph(warps, ad.DiffTensor(p.fixed.data[None, None]), phis[-1])
    return loss, phis + warps, casc


def test_backward_consumes_the_graph_and_leaves_keep_gradients():
    loss, nodes, casc = _default_cascade_loss()
    loss.backward()
    for node in nodes + [loss]:
        assert node.grad is None and node._parents == ()
        assert node._backward.__closure__ is None  # holds no array, no node
    for name, q in casc.named_params().items():
        assert q.grad is not None and q.grad.shape == q.shape, name


# bytes of the non-leaf arrays the graph above retained while conv3d kept its
# padded channels-last copy and every hidden conv had its own bias_add node
GRAPH_BYTES_BEFORE = 23_324_460


def _retained(root):
    """The base arrays, by id, of every non-leaf node's data below root and
    of what its backward closure holds; and per conv3d node, the size of its
    padded input with the sizes of the arrays its closure holds."""
    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    leaves, held, convs, seen, stack = set(), {}, [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._backward is None:
            leaves.add(id(base(node.data)))
            continue
        cells = [c.cell_contents for c in node._backward.__closure__ or ()]
        closed = [a for v in cells for a in (v if isinstance(v, (list, tuple)) else [v])
                  if isinstance(a, np.ndarray)]
        if node.op == "conv3d":
            (N, C, *dims), k = node._parents[0].shape, node._parents[1].shape[2]
            convs.append((N * C * math.prod(d + k - 1 for d in dims), [a.size for a in closed]))
        for a in [node.data] + closed:
            held[id(base(a))] = base(a)
    return [a for i, a in held.items() if i not in leaves], convs


def test_forward_graph_stores_each_activation_once():
    loss, _, _ = _default_cascade_loss()
    held, convs = _retained(loss)
    assert sum(a.nbytes for a in held) <= (1 - 0.47) * GRAPH_BYTES_BEFORE
    assert len(convs) == 33
    for padded, sizes in convs:
        assert all(size < padded for size in sizes)


# bytes _retained counts for the graph above while every conv3d output and
# decoder resize kept its data; releasing them leaves 7,184,304
GRAPH_BYTES_UNRELEASED = 11_800_084


def test_forward_graph_drops_conv_outputs_and_decoder_resizes():
    loss, _, _ = _default_cascade_loss()
    held, _ = _retained(loss)
    assert sum(a.nbytes for a in held) <= 0.65 * GRAPH_BYTES_UNRELEASED
    convs, resizes, seen, stack = [], [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        convs += [node] if node.op == "conv3d" else []
        # a decoder resize is one a concat reads; field upsampling's are not
        resizes += [p for p in node._parents if node.op == "concat" and p.op == "resize"]
    assert len(convs) == 33 and len(resizes) == 6
    for node in convs + resizes:
        assert node.data.strides == (0,) * 5 and node.data.base.nbytes == node.data.itemsize


def _init_with_final_drawn(cfg, rng):
    """init_unet_params, then final.w drawn from rng as a hidden weight is
    (He, std sqrt(2 / fan_in)) rather than left at zero. final.w is the last
    weight init_unet_params would draw, so the draws run in the same order."""
    params = unet.init_unet_params(cfg, rng)
    shape = params["final.w"].shape
    std = math.sqrt(2.0 / math.prod(shape[1:]))
    params["final.w"].data[:] = (rng.standard_normal(shape) * std).astype(np.float32)
    return params


def test_unet_gradcheck_small():
    cfg = unet.CascadeConfig(base_channels=2, depth=2)
    rng = np.random.default_rng(8)
    params = _init_with_final_drawn(cfg, rng)
    a = rng.standard_normal((1, 1, 8, 8, 8))
    b = rng.standard_normal((1, 1, 8, 8, 8))

    def run(theta):
        at = ad.DiffTensor(a)
        bt = ad.DiffTensor(b)
        return mean_square(unet.unet_forward(theta, ad.concat_channels([at, bt]), cfg))

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


def test_unet_gradcheck_ragged_pooling():
    # 5x6x7 at depth 2: every pooling has a ragged tail on some axis
    cfg = unet.CascadeConfig(base_channels=2, depth=2)
    rng = np.random.default_rng(9)
    params = {k: ad.DiffTensor(p.data.astype(np.float64), requires_grad=True)
              for k, p in _init_with_final_drawn(cfg, rng).items()}
    a = rng.standard_normal((1, 1, 5, 6, 7))
    b = rng.standard_normal((1, 1, 5, 6, 7))

    def run(theta):
        return mean_square(unet.unet_forward(theta, ad.concat_channels([ad.DiffTensor(a), ad.DiffTensor(b)]), cfg))

    run(params).backward()
    for name in ("enc1.conv1.w", "enc2.conv2.b", "dec1.conv1.b", "dec1.conv2.w", "final.w"):
        fd = fd_gradient(lambda: run({k: ad.DiffTensor(p.data) for k, p in params.items()}).item(),
                         params[name].data, h=1e-6)
        assert max_rel_err(params[name].grad, fd) < 1e-3, name


def test_unet_gradcheck_depth_one():
    # a single level: no pooling, no skip, no resize
    cfg = unet.CascadeConfig(base_channels=2, depth=1)
    rng = np.random.default_rng(10)
    params = {k: ad.DiffTensor(p.data.astype(np.float64), requires_grad=True)
              for k, p in _init_with_final_drawn(cfg, rng).items()}
    assert sorted(params) == ["enc1.conv1.b", "enc1.conv1.w", "enc1.conv2.b", "enc1.conv2.w",
                              "final.b", "final.w"]
    a = rng.standard_normal((1, 1, 5, 6, 7))
    b = rng.standard_normal((1, 1, 5, 6, 7))

    def run(theta):
        return mean_square(unet.unet_forward(theta, ad.concat_channels([ad.DiffTensor(a), ad.DiffTensor(b)]), cfg))

    run(params).backward()
    for name in params:
        fd = fd_gradient(lambda: run({k: ad.DiffTensor(p.data) for k, p in params.items()}).item(),
                         params[name].data, h=1e-6)
        assert max_rel_err(params[name].grad, fd) < 1e-3, name


def test_cascade_checkpoint_round_trip(tmp_path):
    casc = unet.init_cascade(unet.CascadeConfig(seed=11, variant="cascade", update_mode="add",
                                                scale_mode="all_residuals", output_scale=0.02))
    rng = np.random.default_rng(1)
    for net in casc.nets:
        net["final.w"].data[:] = rng.standard_normal(net["final.w"].shape).astype(np.float32)
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(casc, path)
    again = unet.load_cascade(path)
    assert again.config.update_mode == "add"
    assert again.config.scale_mode == "all_residuals"
    assert again.config.output_scale == 0.02
    assert again.config.base_channels == casc.config.base_channels
    for na, nb in zip(casc.nets, again.nets):
        for key in na:
            assert np.array_equal(na[key].data, nb[key].data)



def test_cascade_checkpoint_keeps_every_config_field(tmp_path):
    cfg = unet.CascadeConfig(variant="single", update_mode="add", scale_mode="all_residuals",
                             output_scale=0.02, base_channels=4, depth=2, seed=5)
    defaults = unet.CascadeConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(unet.CascadeConfig))
    casc = unet.init_cascade(config=cfg)
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(casc, path)
    assert unet.load_cascade(path).config == casc.config


def test_cascade_checkpoint_rejects_edited_meta(tmp_path):
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.CascadeConfig(base_channels=2, depth=1)), path)
    manifest_path = tmp_path / "cascade.ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["meta"]["output_scale"] = 0.5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="config_hash"):
        unet.load_cascade(path)


@pytest.mark.parametrize("edit, keys", [
    (lambda meta: meta.update(instance_norm=True), ["instance_norm"]),  # a key no cascade writes
    (lambda meta: meta.pop("seed"), ["seed"]),
    (lambda meta: meta.pop("depth"), ["depth"]),
    # a meta written before CascadeConfig, which also held these two keys
    (lambda meta: meta.update(scales=[0.25, 0.5, 1.0], zero_init_final=True),
     ["scales", "zero_init_final"]),
], ids=["extra", "missing-cascade-key", "missing-network-key", "older-meta"])
def test_cascade_checkpoint_rejects_meta_key_set(tmp_path, edit, keys):
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.CascadeConfig(base_channels=2, depth=1)), path)
    manifest_path = tmp_path / "cascade.ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["meta"])
    manifest["config_hash"] = vio.config_hash(manifest["meta"])
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="meta keys") as err:
        unet.load_cascade(path)
    assert all(repr(key) in str(err.value) for key in keys)


@pytest.mark.parametrize("key, value, words", [
    ("depth", 0, "depth and base_channels must be >= 1"),
    ("variant", "bogus", "unknown variant 'bogus'"),
    ("depth", "3", "not supported"),  # a str against an int: CascadeConfig's TypeError
], ids=["depth-0", "unknown-variant", "depth-str"])
def test_cascade_checkpoint_with_a_bad_setting_names_its_file(tmp_path, key, value, words):
    path, manifest_path = _small_checkpoint(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["meta"][key] = value
    manifest["config_hash"] = vio.config_hash(manifest["meta"])
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(vio.VolumeIOError, match=words) as err:
        unet.load_cascade(path)
    assert str(err.value).startswith(f"checkpoint {path}: ")
    assert len(str(err.value).splitlines()) == 1


def test_cascade_checkpoint_rejects_extra_payload(tmp_path):
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.CascadeConfig(base_channels=2, depth=1)), path)
    with open(path, "ab") as f:
        f.write(b"\0")
    with pytest.raises(ValueError, match="bytes"):
        unet.load_cascade(path)

def _small_checkpoint(tmp_path):
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.CascadeConfig(base_channels=2, depth=1)), path)
    return path, tmp_path / "cascade.ckpt.json"


def test_cascade_checkpoint_rejects_a_manifest_that_is_no_object(tmp_path):
    path, manifest_path = _small_checkpoint(tmp_path)
    manifest_path.write_text("[]")
    with pytest.raises(vio.VolumeIOError, match="JSON object"):
        unet.load_cascade(path)


def _drop_first_shape(manifest):
    del manifest["params"][0]["shape"]


def _shift_second_offset(manifest):
    manifest["params"][1]["offset"] += 4


def _swap_first_offsets(manifest):
    a, b = manifest["params"][:2]
    a["offset"], b["offset"] = b["offset"], a["offset"]


@pytest.mark.parametrize("edit, words", [
    (lambda manifest: manifest.pop("params"), "lacks 'params'"),
    (_drop_first_shape, "shape"),
    (_shift_second_offset, "offset"),
    (_swap_first_offsets, "offset"),
], ids=["no-params", "no-shape", "shifted-offset", "swapped-offsets"])
def test_cascade_checkpoint_rejects_malformed_manifest(tmp_path, edit, words):
    path, manifest_path = _small_checkpoint(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(vio.VolumeIOError, match=words):
        unet.load_cascade(path)


def _rewrite_params(path, edit):
    """Re-save the checkpoint at path with its parameters edited in place."""
    arrays, manifest = vio.load_params(path)
    arrays = dict(arrays)
    edit(arrays)
    vio.save_params(path, arrays, meta=manifest["meta"])


def _add_parent_coarsest_level(arrays):
    # the layout before enc{depth} became the bottleneck: a dec{depth} level
    # that took the pooled enc3 output next to enc3's own, 2*8 -> 8 channels
    for t in (1, 2, 3):
        arrays[f"net{t}.dec3.conv1.w"] = np.zeros((8, 16, 3, 3, 3), np.float32)
        arrays[f"net{t}.dec3.conv1.b"] = np.zeros((1, 8, 1, 1, 1), np.float32)
        arrays[f"net{t}.dec3.conv2.w"] = np.zeros((8, 8, 3, 3, 3), np.float32)
        arrays[f"net{t}.dec3.conv2.b"] = np.zeros((1, 8, 1, 1, 1), np.float32)


def _rename(arrays):
    arrays["net1.dec1.convX.b"] = arrays.pop("net1.dec1.conv1.b")


def _reshape(arrays):
    arrays["net2.dec2.conv1.w"] = np.zeros((4, 7, 3, 3, 3), np.float32)


def _add_fourth_net(arrays):
    arrays["net4.enc1.conv1.b"] = arrays["net3.enc1.conv1.b"].copy()


def _drop(arrays):
    del arrays["net3.final.b"]


@pytest.mark.parametrize("edit, words", [
    (_add_parent_coarsest_level, "'net1.dec3.conv1.b' is no parameter"),
    (_rename, "'net1.dec1.convX.b' is no parameter"),
    (_reshape, r"'net2.dec2.conv1.w' has shape \[4, 7, 3, 3, 3\], this cascade needs "
               r"\[4, 12, 3, 3, 3\]"),
    (_add_fourth_net, "'net4.enc1.conv1.b' is no parameter"),
    (_drop, "lacks parameter 'net3.final.b'"),
], ids=["parent-coarsest-level", "renamed", "reshaped", "fourth-net", "missing"])
def test_cascade_checkpoint_rejects_parameters_the_cascade_lacks(tmp_path, edit, words):
    path = tmp_path / "cascade.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.CascadeConfig(base_channels=2, depth=3)),
                      path)
    _rewrite_params(path, edit)
    with pytest.raises(vio.VolumeIOError, match=words) as err:
        unet.load_cascade(path)
    assert len(str(err.value).splitlines()) == 1


def test_checkpoint_manifest_that_is_not_json_names_its_path(tmp_path):
    path, manifest_path = _small_checkpoint(tmp_path)
    manifest_path.write_text('{"params": [')
    with pytest.raises(vio.VolumeIOError, match="cascade.ckpt.json is not valid JSON"):
        unet.load_cascade(path)


def test_cascade_validation():
    with pytest.raises(ValueError, match="variant"):
        unet.CascadeConfig(variant="bogus")
    with pytest.raises(ValueError, match="needs"):
        unet.RefineCascade(nets=[{}, {}], config=unet.CascadeConfig(variant="single"))


@pytest.mark.parametrize("name", ["variant", "update_mode", "scale_mode"])
def test_cascade_rejects_unknown_mode(name):
    with pytest.raises(ValueError, match=f"unknown {name} 'bogus'"):
        unet.CascadeConfig(**{"variant": "single", name: "bogus"})
