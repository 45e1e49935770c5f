"""Autodiff engine: op semantics, gradient checks, Adam, checkpoints."""

import ast
import dataclasses
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt import volume_io as vio
from regadapt.autodiff import DiffTensor

from oracles import (avg_pool_oracle, conv3d_grads_oracle, conv3d_oracle, fd_gradient, inner,
                     max_rel_err, mean_square, trilinear_resize_oracle)

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
    for padding in (1, 0):
        out = ad.conv3d(DiffTensor(x), DiffTensor(k), 1, padding)
        ref = conv3d_oracle(x, k, 1, padding)
        assert max_rel_err(out.data, ref) < 1e-10


def test_conv_gradcheck():
    x = RNG.standard_normal((1, 2, 5, 5, 5))
    k = RNG.standard_normal((3, 2, 3, 3, 3)) * 0.3

    def mean_conv(xt, kt):
        out = ad.conv3d(xt, kt, 1, 1)
        return inner(out, np.full(out.shape, 1.0 / out.data.size))

    check_gradients(mean_conv, [x, k])


def test_conv_rejects_stride_other_than_one():
    x, k = DiffTensor(np.zeros((1, 2, 5, 5, 5))), DiffTensor(np.zeros((3, 2, 3, 3, 3)))
    for stride in (0, 2):
        with pytest.raises(ValueError, match="stride"):
            ad.conv3d(x, k, stride=stride, padding=1)


CONV_CASES = [  # (x shape, kernel shape, stride, padding); conv3d rejects strides but 1
    ((1, 2, 4, 5, 7), (3, 2, 3, 3, 3), 1, 1),
    ((1, 2, 4, 5, 7), (3, 2, 3, 3, 3), 1, 0),
    ((2, 2, 4, 5, 7), (2, 2, 3, 3, 3), 1, 1),
    ((2, 3, 4, 5, 7), (2, 3, 1, 1, 1), 1, 0),
]


@pytest.mark.parametrize("xs,ks,stride,padding", CONV_CASES)
def test_conv_non_cubic_batched_strided_matches_oracle(xs, ks, stride, padding):
    x, k = RNG.standard_normal(xs), RNG.standard_normal(ks)
    out = ad.conv3d(DiffTensor(x), DiffTensor(k), stride, padding)
    assert max_rel_err(out.data, conv3d_oracle(x, k, stride, padding)) < 1e-10
    check_gradients(lambda xt, kt: mean_square(ad.conv3d(xt, kt, stride, padding)), [x, k * 0.3])


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1)])
def test_conv_across_ragged_row_tiles_matches_oracle(monkeypatch, stride, padding):
    # 37 columns per tile: every grid spans many tiles, the last one short,
    # and the halo of k-1 planes reaches across several tiles
    monkeypatch.setattr(ad, "_CONV_TILE_ROWS", 37)
    x, k = RNG.standard_normal((2, 2, 4, 5, 6)), RNG.standard_normal((3, 2, 3, 3, 3))
    xt, kt = DiffTensor(x, requires_grad=True), DiffTensor(k, requires_grad=True)
    out = ad.conv3d(xt, kt, stride, padding)
    assert max_rel_err(out.data, conv3d_oracle(x, k, stride, padding)) < 1e-10
    g = RNG.standard_normal(out.shape)
    inner(out, g).backward()
    gx, gk = conv3d_grads_oracle(x, k, g, stride, padding)
    assert max_rel_err(xt.grad, gx) < 1e-10
    assert max_rel_err(kt.grad, gk) < 1e-10
    check_gradients(lambda xt, kt: mean_square(ad.conv3d(xt, kt, stride, padding)), [x, k * 0.3])


TILE_CASES = [  # (x shape, kernel shape, padding): N = 2, ragged non-cubic dims, 1-voxel axes
    ((2, 3, 5, 7, 6), (4, 3, 1, 1, 1), 0),
    ((2, 3, 5, 7, 6), (4, 3, 3, 3, 3), 0),
    ((2, 3, 5, 7, 6), (4, 3, 3, 3, 3), 1),
    ((2, 3, 6, 7, 9), (4, 3, 5, 5, 5), 1),
    ((2, 3, 5, 7, 6), (4, 3, 5, 5, 5), 2),
    ((2, 3, 1, 7, 6), (4, 3, 3, 3, 3), 1),
    ((2, 3, 4, 1, 6), (4, 3, 5, 5, 5), 2),
]


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("xs,ks,padding", TILE_CASES)
def test_conv_tile_size_moves_only_the_kernel_gradient(monkeypatch, xs, ks, padding, dtype, tol):
    # 37 columns per tile, the default, and one tile for all columns: each output
    # column sums its k*k row blocks in the same order, so values and input
    # gradients agree bit for bit; the kernel gradient's float64 sum is split by tile
    x, k = RNG.standard_normal(xs).astype(dtype), RNG.standard_normal(ks).astype(dtype)
    g = None
    runs = []
    for cap in (37, ad._CONV_TILE_ROWS, 1 << 30):
        monkeypatch.setattr(ad, "_CONV_TILE_ROWS", cap)
        xt, kt = DiffTensor(x, requires_grad=True), DiffTensor(k, requires_grad=True)
        out = ad.conv3d(xt, kt, 1, padding)
        g = RNG.standard_normal(out.shape).astype(dtype) if g is None else g
        inner(out, g).backward()
        runs.append((out.data, xt.grad, kt.grad))
    ref = runs[0]
    for out, gx, gk in runs[1:]:
        assert out.tobytes() == ref[0].tobytes() and gx.tobytes() == ref[1].tobytes()
        assert gk.dtype == dtype and np.abs(gk - ref[2]).max() <= tol * np.abs(ref[2]).max()


def test_conv_input_gradient_holds_one_dx_sized_array():
    x = DiffTensor(RNG.standard_normal((1, 16, 64, 64, 64)).astype(np.float32), requires_grad=True)
    k = DiffTensor(RNG.standard_normal((2, 16, 3, 3, 3)).astype(np.float32))
    out = ad.conv3d(x, k, 1, 1)
    g = np.ones(out.shape, dtype=np.float32)
    tracemalloc.start()
    try:
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dx on the grid with one gap column per row and one gap row per plane, compacted
    # in place, plus the tile buffers and the padded 2-channel output gradient
    assert x.grad.shape == x.shape and x.grad.flags.c_contiguous
    assert peak < 1.5 * x.data.nbytes


def test_conv_forward_holds_one_output_sized_array():
    x = DiffTensor(RNG.standard_normal((1, 2, 64, 64, 64)).astype(np.float32))
    k = DiffTensor(RNG.standard_normal((32, 2, 3, 3, 3)).astype(np.float32))
    tracemalloc.start()
    try:
        out = ad.conv3d(x, k, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output on the grid with one gap column per row and one gap row per plane,
    # compacted in place, plus the tile buffers and the padded 2-channel input
    assert out.shape == (1, 32, 64, 64, 64) and out.data.flags.c_contiguous
    assert peak < 1.5 * out.data.nbytes


def test_conv_kernel_grad_contiguous_and_adam_unchanged():
    x = DiffTensor(RNG.standard_normal((1, 4, 6, 6, 6)).astype(np.float32))
    k = DiffTensor(RNG.standard_normal((5, 4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    mean_square(ad.conv3d(x, k, 1, 1)).backward()
    assert k.grad.flags.c_contiguous
    # the update does not depend on the gradient's memory layout
    moved = []
    for grad in (k.grad, np.asfortranarray(k.grad)):
        p = DiffTensor(k.data.copy(), requires_grad=True)
        p.grad = grad
        ad.adam_step({"k": p}, ad.AdamState(), 1e-2, 0)
        moved.append(p.data)
    assert not np.array_equal(moved[0], k.data)
    assert np.array_equal(moved[0], moved[1])


def test_conv_rejects_padding_not_below_kernel():
    x = DiffTensor(np.zeros((1, 2, 4, 4, 4)))
    with pytest.raises(ValueError, match="padding"):
        ad.conv3d(x, DiffTensor(np.zeros((1, 2, 3, 3, 3))), 1, 3)


def test_conv_rejects_bad_kernels():
    x = DiffTensor(np.zeros((1, 2, 4, 4, 4)))
    with pytest.raises(ValueError, match="odd"):
        ad.conv3d(x, DiffTensor(np.zeros((1, 2, 2, 2, 2))), 1, 0)
    with pytest.raises(ValueError, match="channels"):
        ad.conv3d(x, DiffTensor(np.zeros((1, 3, 3, 3, 3))), 1, 1)


# trilinear resize


def test_resize_factor_one_identity():
    x = DiffTensor(RNG.standard_normal((1, 2, 3, 4, 5)))
    out = ad.trilinear_resize(x, target=(3, 4, 5))
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("factor", [0.25, 0.5, 2, 4])
def test_resize_preserves_constants(factor):
    x = DiffTensor(np.full((1, 1, 4, 4, 4), 3.25))
    out = ad.trilinear_resize(x, target=(int(4 * factor),) * 3)
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
    check_gradients(lambda t: mean_square(ad.trilinear_resize(t, target=(8, 8, 8))), [a])
    check_gradients(lambda t: mean_square(ad.trilinear_resize(t, target=(2, 3, 2))), [a])


def test_resize_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        ad.trilinear_resize(DiffTensor(np.zeros((1, 1, 2, 2, 2))), target=(0, 2, 2))


# pointwise / reductions


def test_leaky_relu_value():
    x = DiffTensor(np.array([-1.0]).reshape(1, 1, 1, 1, 1))
    assert ad.leaky_relu(x, 0.2).item() == pytest.approx(-0.2)
    with pytest.raises(ValueError, match="slope"):  # the backward reads the output's sign
        ad.leaky_relu(x, 0.0)


def test_leaky_relu_bias_is_bias_add_then_leaky_relu_bit_for_bit():
    x = RNG.standard_normal((2, 3, 4, 5, 3)).astype(np.float32)
    b = np.array([0.5, -0.25, 0.0], np.float32).reshape(1, 3, 1, 1, 1)
    x[0, :, 0] = 0.0            # exact zeros in x ...
    x[1, :, 1] = -b[0, :, 0]    # ... and in x + b
    y = RNG.standard_normal(x.shape).astype(np.float32)
    runs = []
    for fused in (True, False):
        xt, bt = DiffTensor(x, requires_grad=True), DiffTensor(b, requires_grad=True)
        out = ad.leaky_relu(xt, bias=bt) if fused else ad.leaky_relu(ad.bias_add(xt, bt))
        runs.append(out.data)
        inner(out, y).backward()
        runs += [xt.grad, bt.grad]
    assert np.any(runs[0] == 0) and np.any(runs[0] < 0)
    for fused, unfused in zip(runs[:3], runs[3:]):
        assert fused.dtype == unfused.dtype == np.float32
        assert np.array_equal(fused, unfused)


def test_leaky_relu_bias_gradcheck():
    a = RNG.standard_normal((1, 2, 3, 3, 3))
    b = RNG.standard_normal((1, 2, 1, 1, 1))
    check_gradients(lambda at, bt: mean_square(ad.leaky_relu(at, bias=bt)), [a, b])


def test_add_neg_cancels():
    x = DiffTensor(RNG.standard_normal((1, 1, 2, 2, 2)))
    out = ad.add(x, ad.scale(x, -1.0))
    assert np.all(out.data == 0)


def test_pointwise_shape_mismatch():
    a = DiffTensor(np.zeros((1, 1, 2, 2, 2)))
    b = DiffTensor(np.zeros((1, 1, 2, 2, 3)))
    with pytest.raises(ValueError, match="shape"):
        ad.add(a, b)


# backward semantics


def test_backward_requires_scalar():
    x = DiffTensor(np.zeros((1, 1, 2, 2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        x.backward()


def test_diamond_graph_accumulates():
    x = DiffTensor(np.full((1, 1, 1, 1, 1), 2.0), requires_grad=True)
    # y = x^2 + 3x  -> dy/dx = 2x + 3 = 7
    y = ad.add(mean_square(x), ad.scale(x, 3.0))
    y.backward()
    assert x.grad.reshape(-1)[0] == pytest.approx(7.0)


def test_fanout_two_consumers_sums_gradients():
    x = DiffTensor(RNG.standard_normal((1, 1, 2, 2, 2)), requires_grad=True)
    shared = ad.scale(x, 2.0)
    n = shared.data.size  # sum(shared^2) + sum(shared)
    loss = ad.add(ad.scale(mean_square(shared), n), inner(shared, np.ones(shared.shape)))
    loss.backward()
    expect = 2.0 * (2.0 * shared.data) + 2.0
    assert np.allclose(x.grad, expect, rtol=1e-6)


def test_second_backward_on_a_consumed_graph_raises():
    x = DiffTensor(np.full((1, 1, 1, 1, 1), 2.0), requires_grad=True)
    y = ad.scale(x, -1.0)
    loss = mean_square(y)
    loss.backward()
    assert x.grad.reshape(-1)[0] == pytest.approx(4.0)
    assert y.grad is None and y._parents == ()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        ad.scale(y, 2.0).backward()
    assert x.grad.reshape(-1)[0] == pytest.approx(4.0)


def test_released_values_route_gradients_bit_for_bit():
    x = RNG.standard_normal((1, 2, 5, 6, 4)).astype(np.float32)
    k = RNG.standard_normal((3, 2, 3, 3, 3)).astype(np.float32)
    b = RNG.standard_normal((1, 3, 1, 1, 1)).astype(np.float32)
    skip = RNG.standard_normal((1, 1, 6, 7, 5)).astype(np.float32)
    runs = []
    for release in (False, True):
        leaves = [DiffTensor(a, requires_grad=True) for a in (x, k, b, skip)]
        xt, kt, bt, st = leaves
        c = ad.conv3d(xt, kt, padding=1)
        act = ad.leaky_relu(c, bias=bt)
        r = ad.trilinear_resize(act, target=st.shape[2:])
        cat = ad.concat_channels([r, st])
        if release:
            for node in (c, r):
                shape, dtype = node.shape, node.dtype
                ad._release(node)
                assert node.shape == shape and node.dtype == dtype == np.float32
                assert node.data.strides == (0,) * 5 and not node.data.flags.writeable
                assert node.data.base.nbytes == node.data.itemsize  # no buffer of its own
        mean_square(cat).backward()
        runs.append([leaf.grad for leaf in leaves])
    for unreleased, released in zip(*runs):
        assert np.array_equal(unreleased, released)
    with pytest.raises(ValueError, match="leaf"):
        ad._release(DiffTensor(x))


# structural ops


def test_concat_and_crop_pad_roundtrip():
    a = DiffTensor(RNG.standard_normal((1, 2, 3, 3, 3)), requires_grad=True)
    b = DiffTensor(RNG.standard_normal((1, 1, 3, 3, 3)), requires_grad=True)
    cat = ad.concat_channels([a, b])
    assert cat.shape == (1, 3, 3, 3, 3)
    mean_square(cat).backward()
    assert a.grad.shape == a.shape and b.grad.shape == b.shape


def test_avg_pool_ragged_tail():
    a = np.arange(5, dtype=np.float64).reshape(1, 1, 1, 1, 5)
    out = ad.avg_pool3d(DiffTensor(a), 2)
    assert np.allclose(out.data.reshape(-1), [0.5, 2.5, 4.0])


def test_avg_pool_gradcheck():
    a = RNG.standard_normal((1, 1, 5, 4, 4))
    check_gradients(lambda t: mean_square(ad.avg_pool3d(t, 2)), [a])


@pytest.mark.parametrize("factor, dims", [(3, (7, 5, 9)), (4, (6, 9, 5)), (3, (2, 4, 3))])
def test_avg_pool_ragged_matches_loop_oracle(factor, dims):
    a = RNG.standard_normal((1, 2) + dims)
    out = ad.avg_pool3d(DiffTensor(a), factor)
    for c in range(2):
        assert max_rel_err(out.data[0, c], avg_pool_oracle(a[0, c], factor)) < 1e-12


def _graph_adjoint(op):
    """(A x, A^T y) of a graph op, with A^T y the gradient of sum(A x * y)."""
    def adjoint(x, y):
        xt = DiffTensor(x, requires_grad=True)
        inner(op(xt), y).backward()
        return xt.grad

    return (lambda x: op(DiffTensor(x)).data), adjoint


_GAUSS7 = ad.gaussian_kernel1d(7)


@pytest.mark.parametrize("forward,adjoint", [
    _graph_adjoint(lambda t: ad.trilinear_resize(t, target=(7, 3, 10))),
    _graph_adjoint(lambda t: ad.avg_pool3d(t, 3)),
    # symmetric taps: the Gaussian filter is its own adjoint
    (lambda x: ad.filter_separable(x, _GAUSS7), lambda x, y: ad.filter_separable(y, _GAUSS7)),
], ids=["resize", "pool", "gauss"])
def test_separable_backward_is_the_adjoint(forward, adjoint):
    # <A x, y> = <x, A^T y>
    x = RNG.standard_normal((2, 3, 5, 6, 8))
    ax = forward(x)
    y = RNG.standard_normal(ax.shape)
    lhs, rhs = np.vdot(ax, y), np.vdot(x, adjoint(x, y))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_axis_matrix_cache_is_bounded_and_read_only():
    k = ad.gaussian_kernel1d(5)
    for n in range(2, 90):
        ad.filter_separable(np.ones((n, 3, 2)), k)
    info = ad._axis_matrix.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    m = ad._axis_matrix(ad._band_matrix, 6, (tuple(k.tolist()),), np.dtype(np.float64))
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_gaussian_kernel_normalized_and_symmetric():
    k = ad.gaussian_kernel1d(9)
    assert k.sum() == pytest.approx(1.0)
    assert np.array_equal(k, k[::-1])


def test_bias_and_channel_scale_gradcheck():
    a = RNG.standard_normal((1, 2, 3, 3, 3))
    b = RNG.standard_normal((1, 2, 1, 1, 1))
    check_gradients(
        lambda at, bt: mean_square(ad.scale_channels(ad.bias_add(at, bt), (1.5, -0.5))),
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
    p, minus_one = _scalar_param(0.0), DiffTensor(np.full((1, 1, 1, 1, 1), -1.0))
    state = ad.AdamState()
    for _ in range(200):  # minimizes (p - 1)^2
        p.zero_grad()
        mean_square(ad.add(p, minus_one)).backward()
        ad.adam_step({"p": p}, state, 0.05, 10)
    assert abs(p.data.reshape(-1)[0] - 1.0) < 1e-2


def test_adam_aborts_on_non_finite():
    p = _scalar_param(0.0)
    p.grad = np.full_like(p.data, np.nan)
    with pytest.raises(ad.GradientError):
        ad.adam_step({"p": p}, ad.AdamState(), 1e-3, 0)


def test_adam_failed_step_moves_nothing():
    assert [f.name for f in dataclasses.fields(ad.AdamState)] == ["m", "v", "t"]
    assert ad.AdamState().eps == 1e-8
    rng = np.random.default_rng(5)
    shape = (1, 2, 1, 1, 3)
    grads = [[rng.standard_normal(shape).astype(np.float32) for _ in range(2)] for _ in range(3)]

    def warmed():
        params = {n: DiffTensor(np.full(shape, 0.5, np.float32), requires_grad=True)
                  for n in ("a", "b")}
        state = ad.AdamState()
        for step in grads[:2]:
            for p, g in zip(params.values(), step):
                p.grad = g.copy()
            ad.adam_step(params, state, 1e-2, 4)
        return params, state

    params, state = warmed()
    data = {n: p.data.tobytes() for n, p in params.items()}
    moments = {n: (state.m[n].tobytes(), state.v[n].tobytes()) for n in params}
    params["a"].grad = grads[2][0].copy()
    params["b"].grad = grads[2][1].copy()
    params["b"].grad[0, 1, 0, 0, 2] = np.nan
    with pytest.raises(ad.GradientError, match="'b'"):
        ad.adam_step(params, state, 1e-2, 4)
    assert state.t == 2
    for n, p in params.items():
        assert p.data.tobytes() == data[n]
        assert (state.m[n].tobytes(), state.v[n].tobytes()) == moments[n]
    twin, twin_state = warmed()
    for ps in (params, twin):
        for p, g in zip(ps.values(), grads[2]):
            p.grad = g.copy()
    lrs = [ad.adam_step(ps, st, 1e-2, 4) for ps, st in ((params, state), (twin, twin_state))]
    assert lrs[0] == lrs[1] and state.t == twin_state.t == 3
    for n in params:
        assert params[n].data.tobytes() == twin[n].data.tobytes()
        assert state.m[n].tobytes() == twin_state.m[n].tobytes()
        assert state.v[n].tobytes() == twin_state.v[n].tobytes()


# checkpoints


def test_param_checkpoint_round_trip(tmp_path):
    params = {
        "a.w": DiffTensor(RNG.standard_normal((2, 1, 3, 3, 3)).astype(np.float32)),
        "a.b": DiffTensor(np.zeros((1, 2, 1, 1, 1), np.float32)),
    }
    path = tmp_path / "ckpt.bin"
    vio.save_params(path, params, meta={"depth": 3})
    loaded, manifest = vio.load_params(path)
    for name, p in params.items():
        assert np.array_equal(loaded[name], p.data)
    assert manifest["meta"]["depth"] == 3
    assert manifest["config_hash"] == vio.config_hash({"depth": 3})
    offsets = [e["offset"] for e in manifest["params"]]
    assert offsets == sorted(offsets)


def test_values_and_grads_finite_on_bounded_inputs():
    a = np.clip(RNG.standard_normal((1, 2, 4, 4, 4)) * 5, -10, 10)
    k = np.clip(RNG.standard_normal((2, 2, 3, 3, 3)), -10, 10)
    at = DiffTensor(a, requires_grad=True)
    kt = DiffTensor(k, requires_grad=True)
    loss = mean_square(ad.leaky_relu(ad.conv3d(at, kt, 1, 1)))
    loss.backward()
    assert np.isfinite(loss.item())
    assert np.all(np.isfinite(at.grad)) and np.all(np.isfinite(kt.grad))


# what the engine keeps


def _autodiff_calls_elsewhere_in_src():
    """Names of autodiff functions called from the other modules of the package,
    as ad.name(...) after `from . import autodiff as ad` or as name(...)
    after `from .autodiff import name`."""
    called = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, names = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name == "autodiff":
                        modules.add(a.asname or a.name)
                    elif node.module == "autodiff":
                        names[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id in modules:
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in names:
                called.add(names[f.id])
    return called


def test_every_public_autodiff_function_has_a_caller_in_src():
    # an op only the tests call is code the program does not need
    public = {name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_")}
    assert {"conv3d", "gaussian_reflect"} <= public
    assert sorted(public - _autodiff_calls_elsewhere_in_src()) == []


def test_every_public_name_in_the_package_is_used_by_the_program():
    # a public function or class of any module must be read, as a name or an
    # attribute, in src/ or in the benchmark (its tests aside) outside its own
    # definition; the benchmark counts because unet.load_cascade serves only it
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "regadapt").glob("*.py"))
    bench = [p for p in sorted((root / "perfbench").glob("*.py")) if p.name != "test_perfbench.py"]
    public, used = set(), set()
    for path in package + bench:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if path in package and own and not own.startswith("_"):
                public.add((path.stem, own))
            used |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    assert {("pipeline", "register_pair"), ("unet", "load_cascade")} <= public
    assert sorted(f"{m}.{name}" for m, name in public if name not in used) == []
