"""Similarity and regularization losses plus the modality gate.

LNCC is local normalized cross-correlation: means, variances, and the
covariance are Gaussian-weighted local statistics (separable filtering,
radius (window-1)/2, sigma window/4), the per-voxel correlation is
cov / sqrt((var_a + eps)(var_b + eps)) with eps = 1e-5, and the scalar is
the mean over voxels. The minimization convention is L_sim = -LNCC; raw
LNCC values are always exposed alongside.

Every loss has one implementation, as autodiff graph ops. Called with
Volume3D, DisplacementField or ndarray inputs, lncc, diffusion_reg and
total_loss lift them to graph leaves that need no gradient, so no backward
closures are kept, and return floats (and arrays) instead of nodes.

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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor

LNCC_EPS = 1e-5


# ---------------------------------------------------------------------------
# LNCC


def _lncc_graph(a, b, window):
    ga = ad.gaussian_filter(a, window)
    gb = ad.gaussian_filter(b, window)
    var_a = ad.sub(ad.gaussian_filter(ad.mul(a, a), window), ad.mul(ga, ga))
    var_b = ad.sub(ad.gaussian_filter(ad.mul(b, b), window), ad.mul(gb, gb))
    cov = ad.sub(ad.gaussian_filter(ad.mul(a, b), window), ad.mul(ga, gb))
    den = ad.sqrt(ad.mul(ad.add_scalar(var_a, LNCC_EPS), ad.add_scalar(var_b, LNCC_EPS)))
    return ad.div(cov, den)


def lncc(a, b, window=9, return_map=False):
    """Mean local normalized cross-correlation, signed, in [-1, 1].

    Accepts Volume3D/ndarray pairs, computed in float32 (returns a float and
    a map of the input's shape) or DiffTensor pairs (returns graph nodes,
    differentiable wrt both inputs).
    """
    if window % 2 != 1:
        raise ValueError(f"lncc window must be odd, got {window}")
    at, bt = ad._lift(a, np.float32), ad._lift(b, np.float32)
    if at.shape != bt.shape:
        raise ValueError(f"lncc: shape mismatch {at.shape} vs {bt.shape}")
    m = _lncc_graph(at, bt, window)
    s = ad.reduce_mean(m)
    if not (isinstance(a, DiffTensor) or isinstance(b, DiffTensor)):
        s, m = s.item(), m.data.reshape(ad._array_of(a).shape)
    return (s, m) if return_map else s


# ---------------------------------------------------------------------------
# modality gate


def gate_lncc(a, b, window=11, down=4):
    """Low-resolution LNCC the gate thresholds on.

    Each pooled volume is mean-centred first, so the zero padding does not
    turn an intensity offset into correlation on border voxels.
    """
    aa = ad.avg_pool3d(ad._lift(a, np.float32), down).data
    bb = ad.avg_pool3d(ad._lift(b, np.float32), down).data
    return lncc(aa - aa.mean(), bb - bb.mean(), window)


def modality_gate(a, b, window=11, tau=0.4, down=4):
    """True when the pair looks cross-contrast and should be style-transferred."""
    aa = ad._array_of(a)
    bb = ad._array_of(b)
    if aa.shape != bb.shape:
        raise ValueError(f"modality_gate: shape mismatch {aa.shape} vs {bb.shape}")
    return bool(gate_lncc(a, b, window=window, down=down) < tau)


# ---------------------------------------------------------------------------
# diffusion regularizer


def diffusion_reg(u):
    """Mean squared forward difference of the field over axes and components.

    Boundary differences are omitted; the mean pools every difference term
    from all three axes and all three components. A DisplacementField or
    array is evaluated in float64 and gives a float; a DiffTensor gives a
    graph node.
    """
    ut = ad._lift(u, np.float64)
    total = None
    for axis in range(3):
        crops_hi = [(0, 0)] * 3
        crops_lo = [(0, 0)] * 3
        crops_hi[axis] = (1, 0)
        crops_lo[axis] = (0, 1)
        d = ad.sub(ad.crop_spatial(ut, tuple(crops_hi)), ad.crop_spatial(ut, tuple(crops_lo)))
        ss = ad.reduce_sum(ad.square(d))
        total = ss if total is None else ad.add(total, ss)
    D, H, W = ut.shape[2:]
    count = 3 * ((D - 1) * H * W + D * (H - 1) * W + D * H * (W - 1))
    reg = ad.scale(total, 1.0 / count)
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

    def recompute_total(self):
        return float(sum(-s for s in self.sim) + self.lam * self.reg)

    def to_dict(self):
        return {"sim": list(self.sim), "reg": self.reg, "lam": self.lam, "total": self.total}


def total_loss_graph(stage_warps, target, phi_T, lam=0.1, window=9):
    """Graph form: returns (scalar loss node, LossReport of its float parts)."""
    if not stage_warps:
        raise ValueError("total_loss: need at least one stage warp")
    sims = []
    loss = None
    for w in stage_warps:
        s = lncc(w, target, window)
        sims.append(s)
        term = ad.neg(s)
        loss = term if loss is None else ad.add(loss, term)
    reg = diffusion_reg(phi_T)
    loss = ad.add(loss, ad.scale(reg, lam))
    report = LossReport(
        sim=[s.item() for s in sims],
        reg=reg.item(),
        lam=float(lam),
        total=loss.item(),
    )
    return loss, report


def total_loss(stage_warps, target, phi_T, lam=0.1, window=9):
    """Multi-stage loss: sum_t -LNCC(I_A o phi_t, I_B) + lam * diffusion(phi_T).

    Returns the LossReport of total_loss_graph on the lifted inputs.
    """
    _, report = total_loss_graph([ad._lift(w, np.float32) for w in stage_warps],
                                 ad._lift(target, np.float32), ad._lift(phi_T, np.float32),
                                 lam=lam, window=window)
    return report
