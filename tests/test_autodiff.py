"""Autodiff engine: op semantics, gradient checks, Adam, checkpoints."""

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt.autodiff import DiffTensor

from oracles import conv3d_oracle, fd_gradient, max_rel_err, trilinear_resize_oracle

RNG = np.random.default_rng(1234)


def check_gradients(build, arrays, tol=1e-4, h=1e-3):
    """FD-check gradients of build(*tensors) wrt every float64 leaf array."""
    leaves = [DiffTensor(a, requires_grad=True) for a in arrays]
    build(*leaves).backward()
    worst = 0.0
    for leaf, a in zip(leaves, arrays):
        fd = fd_gradient(lambda: build(*[DiffTensor(b) for b in arrays]).item(), a, h=h)
        worst = max(worst, max_rel_err(leaf.grad, fd))
    assert worst < tol, f"max rel err {worst:.3e} >= {tol}"
    return worst


# conv3d


def test_conv_identity_kernel():
    x = DiffTensor(RNG.standard_normal((1, 1, 4, 5, 6)))
    k = DiffTensor(np.ones((1, 1, 1, 1, 1)))
    out = ad.conv3d(x, k, stride=1, padding=0)
    assert np.array_equal(out.data, x.data)


def test_conv_constant_input_interior():
    c = 0.7
    x = DiffTensor(np.full((1, 1, 5, 5, 5), c))
    k = DiffTensor(np.ones((1, 1, 3, 3, 3)))
    out = ad.conv3d(x, k, stride=1, padding=1)
    assert np.allclose(out.data[0, 0, 1:-1, 1:-1, 1:-1], 27 * c, rtol=1e-6)


def test_conv_matches_loop_oracle():
    x = RNG.standard_normal((1, 2, 5, 5, 5))
    k = RNG.standard_normal((3, 2, 3, 3, 3))
    for stride, padding in ((1, 1), (1, 0), (2, 1)):
        out = ad.conv3d(DiffTensor(x), DiffTensor(k), stride, padding)
        ref = conv3d_oracle(x, k, stride, padding)
        assert max_rel_err(out.data, ref) < 1e-10


def test_conv_gradcheck():
    x = RNG.standard_normal((1, 2, 5, 5, 5))
    k = RNG.standard_normal((3, 2, 3, 3, 3)) * 0.3
    check_gradients(lambda xt, kt: ad.reduce_mean(ad.conv3d(xt, kt, 1, 1)), [x, k])


def test_conv_rejects_bad_kernels():
    x = DiffTensor(np.zeros((1, 2, 4, 4, 4)))
    with pytest.raises(ValueError, match="odd"):
        ad.conv3d(x, DiffTensor(np.zeros((1, 2, 2, 2, 2))), 1, 0)
    with pytest.raises(ValueError, match="channels"):
        ad.conv3d(x, DiffTensor(np.zeros((1, 3, 3, 3, 3))), 1, 1)


# trilinear resize


def test_resize_factor_one_identity():
    x = DiffTensor(RNG.standard_normal((1, 2, 3, 4, 5)))
    out = ad.trilinear_resize(x, factor=1)
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("factor", [0.25, 0.5, 2, 4])
def test_resize_preserves_constants(factor):
    x = DiffTensor(np.full((1, 1, 4, 4, 4), 3.25))
    out = ad.trilinear_resize(x, factor=factor)
    assert np.allclose(out.data, 3.25, atol=1e-6)


def test_resize_matches_enumeration_oracle():
    a = RNG.standard_normal((6, 5, 4))
    target = (12, 7, 9)
    out = ad.trilinear_resize(DiffTensor(a[None, None]), target=target)
    ref = trilinear_resize_oracle(a, target)
    assert max_rel_err(out.data[0, 0], ref) < 1e-10


def test_resize_ramp_doubling_weights():
    # 1D-like ramp along W doubled: interior samples land at +/-0.25 offsets
    ramp = np.arange(4, dtype=np.float64)
    a = np.broadcast_to(ramp, (1, 1, 1, 1, 4)).copy()
    out = ad.trilinear_resize(DiffTensor(a), target=(1, 1, 8))
    expect = np.array([0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.0])
    assert np.allclose(out.data[0, 0, 0, 0], expect, atol=1e-12)


def test_resize_gradcheck():
    a = RNG.standard_normal((1, 1, 4, 4, 4))
    check_gradients(lambda t: ad.reduce_mean(ad.square(ad.trilinear_resize(t, factor=2))), [a])
    check_gradients(lambda t: ad.reduce_mean(ad.square(ad.trilinear_resize(t, target=(2, 3, 2)))), [a])


def test_resize_rejects_empty():
    with pytest.raises(ValueError, match="empty|one of"):
        ad.trilinear_resize(DiffTensor(np.zeros((1, 1, 2, 2, 2))), target=(0, 2, 2))


# pointwise / reductions


def test_leaky_relu_value():
    x = DiffTensor(np.array([-1.0]).reshape(1, 1, 1, 1, 1))
    assert ad.leaky_relu(x, 0.2).item() == pytest.approx(-0.2)


def test_add_neg_cancels():
    x = DiffTensor(RNG.standard_normal((1, 1, 2, 2, 2)))
    out = ad.add(x, ad.neg(x))
    assert np.all(out.data == 0)


def test_square_gradient_analytic():
    x = DiffTensor(np.full((1, 1, 1, 1, 1), 3.0), requires_grad=True)
    ad.reduce_sum(ad.square(x)).backward()
    assert x.grad.reshape(-1)[0] == pytest.approx(6.0)


def test_pointwise_shape_mismatch():
    a = DiffTensor(np.zeros((1, 1, 2, 2, 2)))
    b = DiffTensor(np.zeros((1, 1, 2, 2, 3)))
    with pytest.raises(ValueError, match="shape"):
        ad.add(a, b)


def test_reduce_sum_and_backward():
    x = DiffTensor(np.ones((1, 2, 2, 3, 2)), requires_grad=True)
    s = ad.reduce_sum(x)
    assert s.item() == 24.0
    s.backward()
    assert np.all(x.grad == 1.0)


def test_reduce_mean_value():
    x = DiffTensor(np.array([2.0, 4.0]).reshape(1, 1, 1, 1, 2))
    assert ad.reduce_mean(x).item() == pytest.approx(3.0)


def test_mean_square_gradcheck():
    a = RNG.standard_normal((1, 1, 3, 3, 3))
    check_gradients(lambda t: ad.reduce_mean(ad.square(t)), [a])


# backward semantics


def test_backward_requires_scalar():
    x = DiffTensor(np.zeros((1, 1, 2, 2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        x.backward()


def test_diamond_graph_accumulates():
    x = DiffTensor(np.full((1, 1, 1, 1, 1), 2.0), requires_grad=True)
    # y = x^2 + 3x  -> dy/dx = 2x + 3 = 7
    y = ad.add(ad.square(x), ad.scale(x, 3.0))
    ad.reduce_sum(y).backward()
    assert x.grad.reshape(-1)[0] == pytest.approx(7.0)


def test_fanout_two_consumers_sums_gradients():
    x = DiffTensor(RNG.standard_normal((1, 1, 2, 2, 2)), requires_grad=True)
    shared = ad.scale(x, 2.0)
    loss = ad.add(ad.reduce_sum(ad.square(shared)), ad.reduce_sum(shared))
    loss.backward()
    expect = 2.0 * (2.0 * shared.data) + 2.0
    assert np.allclose(x.grad, expect, rtol=1e-6)


# structural ops


def test_concat_and_crop_pad_roundtrip():
    a = DiffTensor(RNG.standard_normal((1, 2, 3, 3, 3)), requires_grad=True)
    b = DiffTensor(RNG.standard_normal((1, 1, 3, 3, 3)), requires_grad=True)
    cat = ad.concat_channels([a, b])
    assert cat.shape == (1, 3, 3, 3, 3)
    padded = ad.pad_spatial(cat, ((1, 1), (0, 2), (1, 0)))
    cropped = ad.crop_spatial(padded, ((1, 1), (0, 2), (1, 0)))
    assert np.array_equal(cropped.data, cat.data)
    ad.reduce_sum(ad.square(cropped)).backward()
    assert a.grad.shape == a.shape and b.grad.shape == b.shape


def test_avg_pool_ragged_tail():
    a = np.arange(5, dtype=np.float64).reshape(1, 1, 1, 1, 5)
    out = ad.avg_pool3d(DiffTensor(a), 2)
    assert np.allclose(out.data.reshape(-1), [0.5, 2.5, 4.0])


def test_avg_pool_gradcheck():
    a = RNG.standard_normal((1, 1, 5, 4, 4))
    check_gradients(lambda t: ad.reduce_mean(ad.square(ad.avg_pool3d(t, 2))), [a])


def test_gaussian_filter_gradcheck_and_normalization():
    k = ad.gaussian_kernel1d(9)
    assert k.sum() == pytest.approx(1.0)
    assert np.array_equal(k, k[::-1])  # symmetric
    a = RNG.standard_normal((1, 1, 4, 4, 4))
    check_gradients(lambda t: ad.reduce_mean(ad.square(ad.gaussian_filter(t, 5))), [a])


def test_instance_norm_gradcheck():
    a = RNG.standard_normal((1, 2, 3, 3, 3))
    check_gradients(
        lambda t: ad.reduce_mean(ad.mul(ad.instance_norm(t), ad.instance_norm(t))),
        [a], tol=5e-4)


def test_bias_and_channel_scale_gradcheck():
    a = RNG.standard_normal((1, 2, 3, 3, 3))
    b = RNG.standard_normal((1, 2, 1, 1, 1))
    check_gradients(
        lambda at, bt: ad.reduce_mean(ad.square(ad.scale_channels(ad.bias_add(at, bt), (1.5, -0.5)))),
        [a, b])


# Adam


def _scalar_param(value):
    return DiffTensor(np.full((1, 1, 1, 1, 1), value, dtype=np.float64), requires_grad=True)


def test_adam_zero_gradients_no_change():
    p = _scalar_param(1.5)
    state = ad.AdamState()
    p.grad = np.zeros_like(p.data)
    ad.adam_step({"p": p}, state, 1e-2, 0)
    assert p.data.reshape(-1)[0] == 1.5


def test_adam_warmup_schedule():
    p = _scalar_param(0.0)
    state = ad.AdamState()
    lrs = []
    for _ in range(12):
        p.grad = np.ones_like(p.data)
        lrs.append(ad.adam_step({"p": p}, state, 5e-4, 10))
    assert lrs[4] == pytest.approx(2.5e-4)  # t=5 of 10
    assert lrs[9] == pytest.approx(5e-4)
    assert lrs[11] == pytest.approx(5e-4)


def test_adam_scalar_descent():
    p = _scalar_param(0.0)
    state = ad.AdamState()
    for _ in range(200):
        loss = ad.square(ad.add_scalar(p, -1.0))
        p.zero_grad()
        ad.reduce_sum(loss).backward()
        ad.adam_step({"p": p}, state, 0.05, 10)
    assert abs(p.data.reshape(-1)[0] - 1.0) < 1e-2


def test_adam_aborts_on_non_finite():
    p = _scalar_param(0.0)
    p.grad = np.full_like(p.data, np.nan)
    with pytest.raises(ad.GradientError):
        ad.adam_step({"p": p}, ad.AdamState(), 1e-3, 0)


# checkpoints


def test_param_checkpoint_round_trip(tmp_path):
    params = {
        "a.w": DiffTensor(RNG.standard_normal((2, 1, 3, 3, 3)).astype(np.float32)),
        "a.b": DiffTensor(np.zeros((1, 2, 1, 1, 1), np.float32)),
    }
    path = tmp_path / "ckpt.bin"
    ad.save_params(path, params, meta={"depth": 3})
    loaded, manifest = ad.load_params(path)
    for name, p in params.items():
        assert np.array_equal(loaded[name], p.data)
    assert manifest["meta"]["depth"] == 3
    assert manifest["config_hash"] == ad.config_hash({"depth": 3})
    offsets = [e["offset"] for e in manifest["params"]]
    assert offsets == sorted(offsets)


def test_values_and_grads_finite_on_bounded_inputs():
    a = np.clip(RNG.standard_normal((1, 2, 4, 4, 4)) * 5, -10, 10)
    k = np.clip(RNG.standard_normal((2, 2, 3, 3, 3)), -10, 10)
    at = DiffTensor(a, requires_grad=True)
    kt = DiffTensor(k, requires_grad=True)
    loss = ad.reduce_mean(ad.square(ad.leaky_relu(ad.conv3d(at, kt, 1, 1))))
    loss.backward()
    assert np.isfinite(loss.item())
    assert np.all(np.isfinite(at.grad)) and np.all(np.isfinite(kt.grad))
