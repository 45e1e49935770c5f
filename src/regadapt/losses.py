"""Similarity and regularization losses plus the modality gate.

LNCC is local normalized cross-correlation: means, variances, and the
covariance are Gaussian-weighted local statistics (separable filtering,
radius (window-1)/2, sigma window/4), the per-voxel correlation is
cov / sqrt((var_a + eps)(var_b + eps)) with eps = 1e-5, and the scalar is
the mean over voxels. The minimization convention is L_sim = -LNCC; raw
LNCC values are always exposed alongside.

Every loss has one implementation, as autodiff graph ops. lncc and
diffusion_reg are each one op whose backward is written out in closed form;
total_loss_graph negates the sum of the stage LNCC nodes once and adds the
weighted regularizer. Called with Volume3D, DisplacementField or ndarray
inputs, lncc, diffusion_reg and total_loss lift them to graph leaves that
need no gradient, so no backward closures are kept, and return floats (and
arrays) instead of nodes. LNCC's voxelwise algebra and the diffusion adjoint
run per block of autodiff._BLOCK elements in the same operation order, so no
value depends on the block size. The diffusion node keeps no differences:
its forward holds one axis's at a time, and its backward recomputes them per
slab of whole D-planes, with one neighbour plane for the D-differences, so
its gradient is the one all-volume differences would give, bit for bit.

Border convention: the local moments are zero-padded Gaussian sums, as in
autodiff.filter_separable. Per-voxel values are therefore exact, and
invariant to affine intensity changes a*v + b, only on voxels at least
r = (window-1)//2 in from every face; nearer the border the padding mixes
the intensity offset b into the moments. The scalar is the mean over all
voxels, border included, so the similarity loss keeps this convention.
gate_lncc mean-centres each pooled volume before calling lncc: pooled to
a few voxels a side, every voxel is a border voxel, and without centring
an inverted contrast (b - v) reads as positive correlation.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor

LNCC_EPS = 1e-5


# ---------------------------------------------------------------------------
# LNCC


def lncc(a, b, window, return_map=False):
    """Mean local normalized cross-correlation, signed, in [-1, 1].

    Accepts Volume3D/ndarray pairs, computed in float32 (returns a float and
    a map of the input's shape) or DiffTensor pairs (returns one graph node,
    differentiable wrt both inputs, and the map as a rank-5 array). With
    G the Gaussian filter, m_x = G(x), v_x = G(x x) - m_x^2 + eps and
    den = sqrt(v_a v_b), the map is c = (G(a b) - m_a m_b) / den. The
    backward gives each input x, with partner y, the gradient
    2 x G(g_v) + y G(g_c) - G(2 g_v m_x + g_c m_y), where g_c = g / (n den),
    g_v = -g c / (2 n v_x) and n is the number of voxels (G is self-adjoint).
    """
    k1d = ad.gaussian_kernel1d(window)
    at, bt = ad._lift(a, np.float32), ad._lift(b, np.float32)
    if at.shape != bt.shape:
        raise ValueError(f"lncc: shape mismatch {at.shape} vs {bt.shape}")

    def G(v):  # flat in, flat out
        return ad.filter_separable(v.reshape(at.shape), k1d).reshape(-1)

    x, y = at.data.reshape(-1), bt.data.reshape(-1)
    n = x.size
    eps = x.dtype.type(LNCC_EPS)
    ma, mb, va, vb, c = G(x), G(y), G(x * x), G(y * y), G(x * y)
    den = np.empty_like(c)
    for s in ad._blocks(n):  # into the filter outputs
        va[s] = va[s] - ma[s] * ma[s] + eps
        vb[s] = vb[s] - mb[s] * mb[s] + eps
        den[s] = np.sqrt(va[s] * vb[s])
        c[s] = (c[s] - ma[s] * mb[s]) / den[s]
    va = va if at.requires_grad else None  # the backward reads v_x only for a gradient of x
    vb = vb if bt.requires_grad else None

    def bwd(g):
        gn = c.dtype.type(g.reshape(-1)[0] / n)
        gc = gn / den
        g_gc = G(gc)
        for t, xt, mt, vt, yt, mu in ((at, x, ma, va, y, mb), (bt, y, mb, vb, x, ma)):
            if t.requires_grad:
                gv, arg = np.empty_like(c), np.empty_like(c)
                for s in ad._blocks(n):  # gv and the argument of the last G
                    gv[s] = (-0.5 * gn) * c[s] / vt[s]
                    arg[s] = 2 * gv[s] * mt[s] + gc[s] * mu[s]
                grad, g_arg = G(gv), G(arg)
                for s in ad._blocks(n):  # in place on G(gv)
                    grad[s] = 2 * xt[s] * grad[s] + yt[s] * g_gc[s] - g_arg[s]
                t.accumulate_grad(grad.reshape(at.shape), own=True)

    mean = np.asarray(c.sum(dtype=np.float64) / n, dtype=c.dtype).reshape((1,) * 5)
    s = ad._result(mean, (at, bt), bwd, "lncc")
    if not (isinstance(a, DiffTensor) or isinstance(b, DiffTensor)):
        return (s.item(), c.reshape(ad._array_of(a).shape)) if return_map else s.item()
    return (s, c.reshape(at.shape)) if return_map else s


# ---------------------------------------------------------------------------
# modality gate


def gate_lncc(a, b, window, down):
    """Low-resolution LNCC the gate thresholds on.

    Each pooled volume is mean-centred first, so the zero padding does not
    turn an intensity offset into correlation on border voxels.
    """
    aa = ad.avg_pool3d(ad._lift(a, np.float32), down).data
    bb = ad.avg_pool3d(ad._lift(b, np.float32), down).data
    return lncc(aa - aa.mean(), bb - bb.mean(), window)


def modality_gate(a, b, window, tau, down):
    """True when the pair looks cross-contrast and should be style-transferred."""
    aa = ad._array_of(a)
    bb = ad._array_of(b)
    if aa.shape != bb.shape:
        raise ValueError(f"modality_gate: shape mismatch {aa.shape} vs {bb.shape}")
    return bool(gate_lncc(a, b, window=window, down=down) < tau)


# ---------------------------------------------------------------------------
# diffusion regularizer


def _diff_adjoint(d, axis, out, start=0):
    """out = np.diff(d, axis, prepend=0, append=0) from plane start on, in place."""
    o, d = np.moveaxis(out, axis, 0), np.moveaxis(d, axis, 0)
    stop = start + len(o)
    o[:len(d[start:stop])] = d[start:stop]
    if stop > len(d):
        o[-1] = 0
    o[max(1 - start, 0):] -= d[max(start - 1, 0):stop - 1]
    return out


def diffusion_reg(u):
    """Mean squared forward difference of the field over axes and components.

    Boundary differences are omitted; the mean pools every difference term
    from all three axes and all three components. A DisplacementField or
    array is evaluated in float64 and gives a float; a DiffTensor gives a
    graph node, one op whose backward adds 2 g d / count to the upper end
    of each difference d and subtracts it from the lower end.
    """
    ut = ad._lift(u, np.float64)
    count = total = 0
    for axis in (2, 3, 4):  # one difference array at a time
        d = np.diff(ut.data, axis=axis)
        count += d.size
        total += np.square(d, out=d).sum(dtype=np.float64)
        del d

    def bwd(g):
        grad = np.empty_like(ut.data)
        for z in ad._blocks(grad.shape[2], grad[0, 0, 0].size):  # slabs of D-planes
            slab, term = grad[:, :, z], np.empty_like(grad[:, :, z])
            lo = max(z.start - 1, 0)  # the D-differences reach one plane each side
            _diff_adjoint(np.diff(ut.data[:, :, lo:z.stop + 1], axis=2), 2, slab, z.start - lo)
            for axis in (3, 4):
                slab += _diff_adjoint(np.diff(ut.data[:, :, z], axis=axis), axis, term)
            slab *= ut.dtype.type(-2.0 * g.reshape(-1)[0] / count)
        ut.accumulate_grad(grad, own=True)

    reg = ad._result(np.full((1,) * 5, total / count, ut.dtype), (ut,), bwd, "diffusion")
    return reg if isinstance(u, DiffTensor) else reg.item()


# ---------------------------------------------------------------------------
# total multi-stage loss


@dataclass
class LossReport:
    """Per-stage raw LNCC, final-field regularizer, and the assembled total."""

    sim: list
    reg: float
    lam: float
    total: float


def total_loss_graph(stage_warps, target, phi_T, lam, window):
    """Graph form: returns (scalar loss node, LossReport of its float parts)."""
    if not stage_warps:
        raise ValueError("total_loss: need at least one stage warp")
    sims = [lncc(w, target, window) for w in stage_warps]
    sim = functools.reduce(ad.add, sims)
    reg = diffusion_reg(phi_T)
    loss = ad.add(ad.scale(sim, -1.0), ad.scale(reg, lam))
    report = LossReport(
        sim=[s.item() for s in sims],
        reg=reg.item(),
        lam=float(lam),
        total=loss.item(),
    )
    return loss, report


def total_loss(stage_warps, target, phi_T, lam, window):
    """Multi-stage loss: sum_t -LNCC(I_A o phi_t, I_B) + lam * diffusion(phi_T).

    Returns the LossReport of total_loss_graph on the lifted inputs.
    """
    _, report = total_loss_graph([ad._lift(w, np.float32) for w in stage_warps],
                                 ad._lift(target, np.float32), ad._lift(phi_T, np.float32),
                                 lam=lam, window=window)
    return report
