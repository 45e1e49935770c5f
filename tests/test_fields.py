"""Field algebra: warping, composition, upsampling, Jacobian analysis."""

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt import fields as fa
from regadapt.fields import DisplacementField
from regadapt.volume_io import Volume3D, synth_problem

from oracles import fd_gradient, max_rel_err, warp_oracle

RNG = np.random.default_rng(99)


def _smooth_volume(dims, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dims)
    return ad.filter_separable(a, ad.gaussian_kernel1d(5)).astype(np.float32)


def test_warp_zero_field_bit_exact():
    p = synth_problem(0, dims=(12, 12, 12))
    out = fa.warp(p.phantom, DisplacementField.zero((12, 12, 12)))
    assert np.array_equal(out.data, p.phantom.data)
    assert isinstance(out, Volume3D)


def test_warp_unit_shift_ramp_clamped():
    dims = (4, 4, 6)
    ramp = np.broadcast_to(np.arange(6, dtype=np.float32), dims).copy()
    u = np.zeros((3,) + dims, np.float32)
    u[2] = 1.0
    out = fa.warp(ramp, u)
    expect = np.minimum(np.broadcast_to(np.arange(6) + 1.0, dims), 5.0)
    assert np.allclose(out, expect, atol=1e-6)


def test_warp_matches_loop_oracle():
    dims = (5, 6, 4)
    vol = _smooth_volume(dims, 3).astype(np.float64)
    disp = RNG.uniform(-1.2, 1.2, (3,) + dims)
    got = fa.warp(vol, disp)
    ref = warp_oracle(vol, disp)
    assert max_rel_err(got, ref) < 1e-10


def test_warp_dims_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fa.warp(np.zeros((4, 4, 4), np.float32), np.zeros((3, 4, 4, 5), np.float32))



def test_warp_nan_field_raises():
    # a non-finite displacement must not reach the float -> int index cast
    u = np.zeros((3, 4, 4, 4), np.float32)
    u[1, 2, 2, 2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        fa.warp(np.ones((4, 4, 4), np.float32), u)


def test_grid_cache_is_bounded():
    for n in range(2, 13):
        dims = (n, 3, 2)
        fa.warp(np.ones(dims, np.float32), np.zeros((3,) + dims, np.float32))
    assert fa._grid.cache_info().currsize <= 8

def test_warp_gradient_wrt_field():
    dims = (6, 6, 6)
    vol = _smooth_volume(dims, 1).astype(np.float64)
    u0 = RNG.uniform(0.1, 0.4, (1, 3) + dims)  # away from lattice knots

    def build(ut):
        return ad.reduce_mean(fa.warp_tensor(ad.DiffTensor(vol[None, None]), ut))

    ut = ad.DiffTensor(u0, requires_grad=True)
    build(ut).backward()
    fd = fd_gradient(lambda: build(ad.DiffTensor(u0)).item(), u0)
    assert max_rel_err(ut.grad, fd) < 1e-3


def _vjp_check(op, x0, seed):
    """Backward of sum(op(x) * r) against central differences, in float64;
    op is linear in x, so only rounding separates the two."""
    r = np.random.default_rng(seed).standard_normal(x0.shape)

    def build(xt):
        return ad.reduce_sum(ad.mul(op(xt), ad.DiffTensor(r)))

    xt = ad.DiffTensor(x0, requires_grad=True)
    build(xt).backward()
    fd = fd_gradient(lambda: build(ad.DiffTensor(x0)).item(), x0)
    assert np.allclose(xt.grad, fd, rtol=1e-8, atol=1e-10)


def _past_faces_and_onto_last_planes(dims, seed):
    """Displacements (1, 3, D, H, W) reaching past every face; the samples on
    the first plane of the next axis land exactly on the last plane of each axis."""
    u = np.random.default_rng(seed).uniform(-2.5, 2.5, (1, 3) + dims)
    grid = np.indices(dims)
    for a, s in enumerate(dims):
        m = grid[(a + 1) % 3] == 0
        u[0, a][m] = s - 1 - grid[a][m]
    return u


def test_warp_gradient_wrt_volume():
    dims = (4, 5, 3)
    u = ad.DiffTensor(_past_faces_and_onto_last_planes(dims, 4))
    v0 = np.random.default_rng(5).standard_normal((1, 2) + dims)
    _vjp_check(lambda vt: fa.warp_tensor(vt, u), v0, 6)


def test_compose_gradient_wrt_prev():
    dims = (4, 5, 3)
    resid = ad.DiffTensor(_past_faces_and_onto_last_planes(dims, 7))
    prev0 = np.random.default_rng(8).standard_normal((1, 3) + dims)
    _vjp_check(lambda pt: fa.compose(pt, resid), prev0, 9)


def test_points_and_warp_share_one_kernel():
    dims = (5, 6, 4)
    rng = np.random.default_rng(10)
    u = rng.standard_normal((3,) + dims)
    d = _past_faces_and_onto_last_planes(dims, 11)[0]
    pts = (np.indices(dims) + d).reshape(3, -1).T
    got = fa.sample_field_at_points(u, pts)
    assert np.array_equal(got.T.reshape(u.shape), fa.warp(u, d))


def test_compose_zero_zero():
    z = DisplacementField.zero((4, 4, 4))
    out = fa.compose(z, z)
    assert np.all(out.data == 0)


def test_compose_constants_exact():
    dims = (5, 5, 5)
    a = DisplacementField(np.tile(np.array([0.3, -0.2, 0.7], np.float32)[:, None, None, None], (1,) + dims))
    b = DisplacementField(np.tile(np.array([-0.1, 0.4, 0.2], np.float32)[:, None, None, None], (1,) + dims))
    out = fa.compose(a, b)
    expect = a.data + b.data
    assert np.array_equal(out.data, expect)


def test_compose_matches_double_warp_interior():
    dims = (16, 16, 16)
    p = synth_problem(2, dims=dims)
    vol = p.phantom.data
    rng = np.random.default_rng(7)
    mk = lambda s: DisplacementField(np.stack([
        ad.filter_separable(rng.standard_normal(dims), ad.gaussian_kernel1d(7))
        for _ in range(3)]).astype(np.float32) * s)
    prev, resid = mk(1.0), mk(1.0)
    for u in (prev, resid):
        for c in range(3):
            peak = np.abs(u.data[c]).max()
            u.data[c] *= 1.0 / max(peak, 1e-9)
    one_warp = fa.warp(vol, fa.compose(prev, resid))
    two_warps = fa.warp(fa.warp(vol, prev), resid)
    interior = (slice(2, -2),) * 3
    err = np.abs(one_warp[interior] - two_warps[interior]).max()
    assert err < 0.05, f"interior double-warp error {err}"


def test_upsample_identity_target():
    u = DisplacementField(RNG.standard_normal((3, 4, 4, 4)).astype(np.float32))
    out = fa.upsample_field(u, target=(4, 4, 4))
    assert np.allclose(out.data, u.data, atol=1e-7)


def test_upsample_constant_unit_conversion():
    dims = (4, 4, 4)
    u = np.zeros((3,) + dims, np.float32)
    u[2] = 1.0
    out = fa.upsample_field(DisplacementField(u), factor=2)
    assert out.dims == (8, 8, 8)
    assert np.allclose(out.data[2], 2.0, atol=1e-6)
    assert np.allclose(out.data[:2], 0.0)


def test_upsample_linear_ramp_oracle():
    # u_w(x) = w on a coarse grid; doubled grid samples at half-pixel coords
    dims = (2, 2, 4)
    u = np.zeros((3,) + dims, np.float32)
    u[2] = np.arange(4, dtype=np.float32)
    out = fa.upsample_field(DisplacementField(u), factor=2)
    from oracles import resize1d_oracle

    expect_line = resize1d_oracle(np.arange(4, dtype=np.float64), 8) * 2.0
    assert np.allclose(out.data[2, 0, 0], expect_line, atol=1e-6)


def test_scale_field():
    u = DisplacementField(np.ones((3, 3, 3, 3), np.float32))
    assert np.all(fa.scale_field(u, 0.0).data == 0)
    assert np.array_equal(fa.scale_field(u, 1.0).data, u.data)
    assert np.allclose(fa.scale_field(u, 0.05).data, 0.05)


def test_scale_field_associative_within_ulp():
    u = DisplacementField(RNG.standard_normal((3, 4, 4, 4)).astype(np.float32))
    a = fa.scale_field(u, 0.3 * 0.7)
    b = fa.scale_field(fa.scale_field(u, 0.3), 0.7)
    ulp = np.spacing(np.abs(a.data).astype(np.float32))
    assert np.all(np.abs(a.data - b.data) <= ulp)


def test_jacobian_zero_field_identity():
    det = fa.jacobian_det(DisplacementField.zero((5, 5, 5)))
    assert np.allclose(det.data, 1.0)


def test_jacobian_linear_field_analytic():
    # u(x) = -2x gives phi(x) = -x, so det(I + grad u) = (-1)^3 = -1 everywhere
    dims = (6, 6, 6)
    grid = np.indices(dims).astype(np.float32)
    u = DisplacementField(-2.0 * grid)
    det = fa.jacobian_det(u)
    assert np.allclose(det.data, -1.0, atol=1e-5)
    assert fa.ndv(u) == 100.0


def test_ndv_zero():
    assert fa.ndv(DisplacementField.zero((4, 4, 4))) == 0.0


def test_ndv_synth_guarantee():
    for seed in (11, 12, 13):
        p = synth_problem(seed, dims=(16, 16, 16), max_disp=0.3)
        det = fa.jacobian_det(p.true_field)
        assert det.data.min() > 0


def test_warp_labels_array_shift_and_round():
    labels = np.zeros((3, 3, 4), np.int32)
    labels[..., 1] = 5
    u = np.zeros((3, 3, 3, 4), np.float32)
    u[2] = 1.0  # out(x) = labels(x + 1) along w, clamp at far border
    out = fa.warp_labels_array(labels, u)
    assert np.all(out[..., 0] == 5) and np.all(out[..., 1:] == 0)
    u[2] = 0.4  # rounds to zero shift
    assert np.array_equal(fa.warp_labels_array(labels, u), labels)


def test_field_validation():
    with pytest.raises(ValueError, match="finite"):
        DisplacementField(np.full((3, 2, 2, 2), np.nan, np.float32))
    with pytest.raises(ValueError, match="3, D, H, W"):
        DisplacementField(np.zeros((2, 2, 2, 2), np.float32))
