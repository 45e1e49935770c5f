"""LNCC, modality gate, diffusion regularizer, and the multi-stage loss."""

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt import losses
from regadapt.fields import DisplacementField
from regadapt.volume_io import synth_problem

from oracles import bits, diffusion_oracle, fd_gradient, lncc_oracle, max_rel_err

RNG = np.random.default_rng(77)


def _textured(dims, seed=0, lo=-1.0, hi=1.0):
    # variance well above the 1e-5 guard everywhere, so self-LNCC ~ 1
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, dims).astype(np.float32)


def test_lncc_self_correlation():
    v = _textured((16, 16, 16), 1)
    assert losses.lncc(v, v, 9) == pytest.approx(1.0, abs=1e-4)


def _interior(window):
    # zero-padded moments are exact only with full window support:
    # r = (window - 1) // 2 voxels in from every face
    r = (window - 1) // 2
    return (slice(r, -r),) * 3


def test_lncc_affine_invariance():
    v = _textured((16, 16, 16), 2)
    _, m = losses.lncc(v, 2.0 * v + 3.0, 9, return_map=True)
    assert np.abs(m[_interior(9)] - 1.0).max() <= 1e-4


def test_lncc_inversion_negative():
    p = synth_problem(0, dims=(32, 32, 32))
    v = p.phantom.data
    s, m = losses.lncc(v, v.max() - v, 9, return_map=True)
    ref, _ = lncc_oracle(v, v.max() - v, 9)
    assert s == pytest.approx(ref, abs=2e-4)
    assert np.all(m[_interior(9)] < -0.9)


def test_lncc_matches_dense_oracle():
    a = _textured((10, 12, 9), 3)
    b = ad.filter_separable(_textured((10, 12, 9), 4), ad.gaussian_kernel1d(3)).astype(np.float32)
    got = losses.lncc(a, b, 5)
    ref, _ = lncc_oracle(a, b, 5)
    assert abs(got - ref) < 1e-5


def test_lncc_symmetry_and_bounds():
    for seed in range(5):
        a = _textured((8, 8, 8), seed)
        b = _textured((8, 8, 8), seed + 50)
        ab = losses.lncc(a, b, 5)
        ba = losses.lncc(b, a, 5)
        assert ab == pytest.approx(ba, abs=1e-6)
        _, m = losses.lncc(a, b, 5, return_map=True)
        assert np.all(np.abs(m) <= 1 + 1e-6)


def test_lncc_rejects_bad_args():
    a = _textured((4, 4, 4))
    with pytest.raises(ValueError, match="odd"):
        losses.lncc(a, a, 4)
    with pytest.raises(ValueError, match="mismatch"):
        losses.lncc(a, _textured((4, 4, 5)))


def test_non_positive_windows_raise():
    # a negative odd window passes the odd check alone and gives an empty kernel
    a = _textured((4, 4, 4))
    with pytest.raises(ValueError, match="positive"):
        losses.lncc(a, _textured((4, 4, 4), 1), -1)
    with pytest.raises(ValueError, match="positive"):
        ad.gaussian_kernel1d(-3)


def test_lncc_gradcheck():
    a = RNG.uniform(-1, 1, (1, 1, 6, 6, 6))
    b = RNG.uniform(-1, 1, (1, 1, 6, 6, 6))

    def build(at, bt):
        return losses.lncc(at, bt, 5)

    at = ad.DiffTensor(a, requires_grad=True)
    bt = ad.DiffTensor(b, requires_grad=True)
    build(at, bt).backward()
    fd_a = fd_gradient(lambda: build(ad.DiffTensor(a), ad.DiffTensor(b)).item(), a)
    fd_b = fd_gradient(lambda: build(ad.DiffTensor(a), ad.DiffTensor(b)).item(), b)
    assert max_rel_err(at.grad, fd_a) < 1e-3
    assert max_rel_err(bt.grad, fd_b) < 1e-3


# modality gate


def test_gate_self_pair_does_not_fire():
    p = synth_problem(1, dims=(16, 16, 16))
    assert losses.modality_gate(p.phantom, p.phantom) is False
    assert losses.modality_gate(p.phantom, p.fixed) is False


def test_gate_fires_on_inversion():
    p = synth_problem(1, dims=(32, 32, 32), contrast="inverted")
    assert losses.modality_gate(p.remapped, p.fixed) is True


@pytest.mark.parametrize("n", [12, 16, 24])
def test_gate_offset_blind_across_sizes(n):
    # pooled to 3-6 voxels a side, every voxel sits within the 11-voxel
    # window's zero padding; the inversion's offset must not read as correlation
    inv = synth_problem(2, dims=(n, n, n), contrast="inverted")
    same = synth_problem(2, dims=(n, n, n))
    assert losses.modality_gate(inv.remapped, inv.fixed) is True
    assert losses.modality_gate(same.remapped, same.fixed) is False


def test_gate_threshold_is_exact():
    p = synth_problem(2, dims=(16, 16, 16))
    val = losses.gate_lncc(p.phantom, p.fixed, window=11, down=4)
    eps = 1e-6
    assert losses.modality_gate(p.phantom, p.fixed, tau=val - eps) is False
    assert losses.modality_gate(p.phantom, p.fixed, tau=val + eps) is True


def test_gate_dims_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        losses.modality_gate(np.zeros((4, 4, 4), np.float32), np.zeros((4, 4, 5), np.float32))


# diffusion regularizer


def test_diffusion_zero_and_constant():
    assert losses.diffusion_reg(DisplacementField.zero((4, 4, 4))) == 0.0
    const = DisplacementField(np.tile(np.array([1.0, -2.0, 0.5], np.float32)[:, None, None, None], (1, 4, 4, 4)))
    assert losses.diffusion_reg(const) == 0.0


def test_diffusion_ramp_enumeration():
    dims = (4, 4, 4)
    u = np.zeros((3,) + dims, np.float32)
    u[2] = np.broadcast_to(np.arange(4, dtype=np.float32), dims)
    got = losses.diffusion_reg(DisplacementField(u))
    ref = diffusion_oracle(u)
    assert got == pytest.approx(ref, rel=1e-12)
    # 48 unit differences pooled over 432 difference terms
    assert got == pytest.approx(48.0 / 432.0)


def test_diffusion_random_matches_oracle():
    u = RNG.standard_normal((3, 5, 6, 4)).astype(np.float32)
    assert losses.diffusion_reg(u) == pytest.approx(diffusion_oracle(u), rel=1e-6)


def test_diffusion_nonnegative_zero_iff_constant():
    u = RNG.standard_normal((3, 4, 4, 4)).astype(np.float32)
    assert losses.diffusion_reg(u) > 0


def test_diffusion_gradcheck():
    u = RNG.standard_normal((1, 3, 4, 4, 4))

    def build(ut):
        return losses.diffusion_reg(ut)

    ut = ad.DiffTensor(u, requires_grad=True)
    build(ut).backward()
    fd = fd_gradient(lambda: build(ad.DiffTensor(u)).item(), u)
    assert max_rel_err(ut.grad, fd) < 1e-3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 3, 6, 5, 4), (1, 3, 1, 5, 2), (2, 3, 2, 7, 1)])
def test_diffusion_backward_equals_the_diff_formula(dtype, shape):
    # the gradient is -2 g / count * sum over axes of np.diff(d, prepend=0, append=0),
    # exactly; with exact zeros (flat regions) and size-1 and size-2 axes
    u = np.random.default_rng(21).standard_normal(shape).astype(dtype)
    u[..., :1, :, :] = 0
    u[..., 2:, 1:3, :] = 0
    ut = ad.DiffTensor(u, requires_grad=True)
    reg = losses.diffusion_reg(ut)
    ad.scale(reg, 0.37).backward()
    diffs = [np.diff(u, axis=axis) for axis in (2, 3, 4)]
    count = sum(d.size for d in diffs)
    zero = dtype(0)
    terms = [np.diff(d, axis=axis, prepend=zero, append=zero) for axis, d in zip((2, 3, 4), diffs)]
    expect = dtype(-2.0 * 0.37 / count) * (terms[0] + terms[1] + terms[2])
    assert ut.grad.dtype == dtype and np.array_equal(ut.grad, expect)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 3, 13, 11, 9), (1, 3, 13, 2, 3), (2, 3, 1, 5, 2)])
def test_diffusion_backward_across_ragged_slabs_is_bit_identical(monkeypatch, dtype, shape):
    # 37 elements per block: slabs of one D-plane, or of 6 and a last short one
    # on the 2 x 3 planes, against one slab; with exact zeros and -0.0
    u = np.random.default_rng(23).standard_normal(shape).astype(dtype)
    u[..., ::3, :, :] = 0
    u[:, 1, :, ::2] = -0.0
    runs = []
    for block in (37, 2 ** 40):
        monkeypatch.setattr(ad, "_BLOCK", block)
        ut = ad.DiffTensor(u, requires_grad=True)
        ad.scale(losses.diffusion_reg(ut), 0.37).backward()
        runs.append(bits(ut.grad))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [(13, 11, 9), (9, 1, 7)])
def test_lncc_across_ragged_blocks_is_bit_identical(monkeypatch, dtype, dims):
    a = _textured((1, 1) + dims, 24).astype(dtype)
    b = (0.5 * a + _textured((1, 1) + dims, 25)).astype(dtype)
    runs = []
    for block in (37, 2 ** 40):
        monkeypatch.setattr(ad, "_BLOCK", block)
        at, bt = ad.DiffTensor(a, requires_grad=True), ad.DiffTensor(b, requires_grad=True)
        s, c = losses.lncc(at, bt, 5, return_map=True)
        ad.scale(s, 0.7).backward()
        runs.append(bits(s.data, c, at.grad, bt.grad))
    assert runs[0] == runs[1]


def test_diffusion_is_one_graph_op():
    ut = ad.DiffTensor(RNG.standard_normal((1, 3, 4, 5, 3)), requires_grad=True)
    reg = losses.diffusion_reg(ut)
    assert reg._parents == (ut,)


def test_lncc_is_one_graph_op():
    at = ad.DiffTensor(RNG.standard_normal((1, 1, 6, 5, 7)), requires_grad=True)
    bt = ad.DiffTensor(RNG.standard_normal((1, 1, 6, 5, 7)))
    s = losses.lncc(at, bt, 5)
    assert s.op == "lncc"
    assert s._parents == (at, bt)


def test_lncc_gradcheck_first_input_only():
    # the instance-optimization case: the warped moving image needs a
    # gradient, the fixed image does not
    a = RNG.uniform(-1, 1, (1, 1, 6, 7, 5))
    b = RNG.uniform(-1, 1, (1, 1, 6, 7, 5))
    at, bt = ad.DiffTensor(a, requires_grad=True), ad.DiffTensor(b)
    losses.lncc(at, bt, 5).backward()
    fd = fd_gradient(lambda: losses.lncc(ad.DiffTensor(a), ad.DiffTensor(b), 5).item(), a)
    assert max_rel_err(at.grad, fd) < 1e-3
    assert bt.grad is None


def test_lncc_value_is_the_five_moment_formula_bit_for_bit():
    a = _textured((1, 1, 9, 10, 11), 21)
    b = _textured((1, 1, 9, 10, 11), 22)
    k1d = ad.gaussian_kernel1d(7)
    ma, mb = ad.filter_separable(a, k1d), ad.filter_separable(b, k1d)
    eps = np.float32(losses.LNCC_EPS)
    var_a = ad.filter_separable(a * a, k1d) - ma * ma
    var_b = ad.filter_separable(b * b, k1d) - mb * mb
    cov = ad.filter_separable(a * b, k1d) - ma * mb
    ref_map = cov / np.sqrt((var_a + eps) * (var_b + eps))
    ref = np.float32(ref_map.sum(dtype=np.float64) / ref_map.size)
    got, got_map = losses.lncc(a, b, 7, return_map=True)
    assert got == float(ref)
    assert np.array_equal(got_map, ref_map)
    node, node_map = losses.lncc(ad.DiffTensor(a, requires_grad=True), ad.DiffTensor(b), 7,
                                 return_map=True)
    assert node.data.reshape(-1)[0] == ref
    assert isinstance(node_map, np.ndarray) and np.array_equal(node_map, ref_map)


def test_lncc_multichannel_is_the_mean_of_its_channels():
    a = _textured((1, 2, 8, 9, 7), 23)
    b = _textured((1, 2, 8, 9, 7), 24)
    per_channel = [losses.lncc(a[:, c:c + 1], b[:, c:c + 1], 5) for c in range(2)]
    assert losses.lncc(a, b, 5) == pytest.approx(np.mean(per_channel), rel=1e-6)


# total loss


def test_total_loss_perfect_stages():
    v = _textured((12, 12, 12), 9)
    zero = DisplacementField.zero((12, 12, 12))
    report = losses.total_loss([v, v, v], v, zero, lam=0.1, window=9)
    assert report.total == pytest.approx(-3.0, abs=3e-4)
    assert report.reg == 0.0
    assert len(report.sim) == 3


def test_total_loss_recomposition():
    a = _textured((10, 10, 10), 10)
    b = _textured((10, 10, 10), 11)
    u = RNG.standard_normal((3, 10, 10, 10)).astype(np.float32) * 0.1
    report = losses.total_loss([a], b, DisplacementField(u), lam=0.1, window=5)
    expect = -losses.lncc(a, b, 5) + 0.1 * losses.diffusion_reg(DisplacementField(u))
    assert report.total == pytest.approx(expect, rel=1e-6)
    assert report.total == pytest.approx(-sum(report.sim) + report.lam * report.reg, rel=1e-6)


def test_total_loss_defaults_and_errors():
    with pytest.raises(ValueError, match="stage"):
        losses.total_loss([], _textured((4, 4, 4)), DisplacementField.zero((4, 4, 4)))


def test_total_loss_graph_matches_volume_path():
    a = _textured((8, 8, 8), 12)
    b = _textured((8, 8, 8), 13)
    u = RNG.standard_normal((3, 8, 8, 8)).astype(np.float32) * 0.05
    vol_report = losses.total_loss([a], b, DisplacementField(u), lam=0.1, window=5)
    node, graph_report = losses.total_loss_graph(
        [ad.DiffTensor(a[None, None])], ad.DiffTensor(b[None, None]),
        ad.DiffTensor(u[None]), lam=0.1, window=5)
    assert graph_report.total == pytest.approx(vol_report.total, rel=1e-5)
    assert node.item() == pytest.approx(graph_report.total, rel=1e-12)
