"""Displacement-field algebra.

A field u assigns every voxel a 3-vector offset in voxel units of its own
grid; the transform is phi(x) = x + u(x) and warping is backward:
output(x) = input(x + u(x)) with trilinear interpolation and clamp-to-edge
sampling. Composition follows that convention: applying residual r after
prev p gives u_out(x) = u_r(x) + u_p(x + u_r(x)), so warping once by the
composed field matches re-warping the previous result.

Trilinear sampling is exact for constants and at grid points. It takes
the lower corner floor(p), so the fraction t lies in [0, 1) and is exactly
0 on grid points, the last plane included, and it forms nested lerps
a + t * (b - a): a constant input has b - a == 0, and t == 0 returns a.
The gradient wrt the field keeps a one-sided slope on the last plane.
"""

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor


@functools.lru_cache(maxsize=8)
def _grid(dims, dtype):
    """Read-only voxel coordinates (3, D, H, W); cached, as np.indices costs
    about a tenth of a warp."""
    g = np.indices(dims).astype(dtype)
    g.flags.writeable = False
    return g


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel displacement (3, D, H, W); the zero field is the identity."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float32)
        if a.ndim != 4 or a.shape[0] != 3:
            raise ValueError(f"field must be (3, D, H, W), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "data", np.ascontiguousarray(a))

    @property
    def dims(self):
        return self.data.shape[1:]

    @classmethod
    def zero(cls, dims):
        return cls(np.zeros((3,) + tuple(dims), dtype=np.float32))


# ---------------------------------------------------------------------------
# trilinear sampling core of warp_tensor


def _sample_prep(dims, disp):
    """Clamped sample positions -> lower corner floor(p), fraction in [0, 1), masks.

    Raises FloatingPointError on a non-finite displacement, before the
    float -> int cast that would turn it into an arbitrary index.
    """
    dt = disp.dtype
    itype = np.int32 if np.prod(dims) < 2**31 else np.int64  # flat indices fit
    pos = _grid(dims, dt) + disp
    if not np.isfinite(pos).all():
        raise FloatingPointError("non-finite displacement")
    i0, t, inb = [], [], []
    for a, s in enumerate(dims):
        p = pos[a]
        inb.append((p >= 0) & (p <= s - 1))
        p = np.clip(p, 0.0, s - 1.0)
        base = np.clip(np.floor(p).astype(itype), 0, s - 1)
        i0.append(base)
        t.append((p - base).astype(dt))
    return i0, t, inb


def _slope_cells(i0, t, dims):
    """Cells for the gradient wrt u: a sample on the last grid plane uses the
    cell below it with t = 1, so its slope is one-sided instead of zero.

    Returns the lower corners' flat index, the per-axis steps to the upper
    corners (scalars: no cell starts on the last plane) and the fractions.
    """
    lo, tt = [], []
    for base, ta, s in zip(i0, t, dims):
        edge = base > max(s - 2, 0)
        lo.append(base - edge)
        tt.append(ta + edge)
    D, H, W = dims
    steps = tuple(stride if s > 1 else 0 for s, stride in zip(dims, (H * W, W, 1)))
    return ((lo[0] * H + lo[1]) * W + lo[2]).astype(np.intp), steps, tt


def _corner_flats(i0, dims):
    """Flat index of the lower corner and per-axis steps to the upper one;
    a step is 0 where the lower corner is already the last plane."""
    D, H, W = dims
    f0 = (i0[0] * H + i0[1]) * W + i0[2]
    offs = tuple((base < s - 1) * np.int32(stride)
                 for base, s, stride in zip(i0, dims, (H * W, W, 1)))
    return f0, offs


def _trilinear_gather(vol_flat, f0, offs, t):
    """vol_flat: (C, D*H*W); returns (C, D, H, W) interpolated values.

    Nested lerps a + t * (b - a) along W, then H, then D.
    """
    shape = (vol_flat.shape[0],) + f0.shape
    dtype = np.result_type(vol_flat.dtype, t[0].dtype)
    od, oh, ow = offs
    td, th, tw = t

    def at(idx):
        return vol_flat[:, idx.ravel()].reshape(shape).astype(dtype, copy=False)

    def lerp(lo, hi, w):  # in place on the fresh gather hi
        hi -= lo
        hi *= w
        hi += lo
        return hi

    def along_w(idx):
        return lerp(at(idx), at(idx + ow), tw)

    def along_hw(idx):
        return lerp(along_w(idx), along_w(idx + oh), th)

    return lerp(along_hw(f0), along_hw(f0 + od), td)


def warp_tensor(v, u):
    """Differentiable warp: v (N, C, D, H, W) sampled at x + u, u (N, 3, D, H, W).

    Arrays, Volume3D and DisplacementField inputs are lifted to graph leaves.
    """
    v, u = ad._lift(v), ad._lift(u)
    if v.shape[0] != 1 or u.shape[0] != 1 or u.shape[1] != 3:
        raise ValueError("warp_tensor expects batch 1 and a 3-channel field")
    dims = v.shape[2:]
    if u.shape[2:] != dims:
        raise ValueError(f"warp: dims mismatch {v.shape[2:]} vs {u.shape[2:]}")
    C = v.shape[1]
    i0, t, inb = _sample_prep(dims, u.data[0])
    vol_flat = v.data[0].reshape(C, -1)
    out = _trilinear_gather(vol_flat, *_corner_flats(i0, dims), t)[None]

    def bwd(g):
        g0 = g[0]  # (C, D, H, W)
        f0, offs, (td, th, tw) = _slope_cells(i0, t, dims)
        sd, sh, sw = 1.0 - td, 1.0 - th, 1.0 - tw
        idxs = {(a, b, c): (f0 + a * offs[0] + b * offs[1] + c * offs[2]).ravel()
                for a in (0, 1) for b in (0, 1) for c in (0, 1)}
        corners = {k: vol_flat[:, idx].reshape((C,) + dims) for k, idx in idxs.items()}
        if u.requires_grad:
            wd = (sd, td)
            wh = (sh, th)
            ww = (sw, tw)
            dd = np.zeros(dims, dtype=g0.dtype)
            dh = np.zeros_like(dd)
            dw = np.zeros_like(dd)
            for b in (0, 1):
                for c in (0, 1):
                    diff = ((corners[(1, b, c)] - corners[(0, b, c)]) * g0).sum(axis=0)
                    dd += wh[b] * ww[c] * diff
            for a in (0, 1):
                for c in (0, 1):
                    diff = ((corners[(a, 1, c)] - corners[(a, 0, c)]) * g0).sum(axis=0)
                    dh += wd[a] * ww[c] * diff
            for a in (0, 1):
                for b in (0, 1):
                    diff = ((corners[(a, b, 1)] - corners[(a, b, 0)]) * g0).sum(axis=0)
                    dw += wd[a] * wh[b] * diff
            gu = np.stack([dd * inb[0], dh * inb[1], dw * inb[2]])[None]
            u.accumulate_grad(gu.astype(u.dtype, copy=False))
        if v.requires_grad:
            n = vol_flat.shape[1]
            gv = np.zeros((C, n), dtype=v.dtype)
            for a, wda in ((0, sd), (1, td)):
                for b, wha in ((0, sh), (1, th)):
                    for c, wwa in ((0, sw), (1, tw)):
                        idx = idxs[(a, b, c)]
                        w = (wda * wha * wwa).ravel()
                        for ch in range(C):
                            gv[ch] += np.bincount(idx, weights=w * g0[ch].ravel(), minlength=n)
            v.accumulate_grad(gv.reshape((1, C) + dims).astype(v.dtype, copy=False))

    return ad._result(out, (v, u), bwd, "warp")


def _like(t, x):
    """Result tensor t in the kind of input x: the node itself for a
    DiffTensor, else a Volume3D, DisplacementField or array of x's rank."""
    if isinstance(x, DiffTensor):
        return t
    if isinstance(x, DisplacementField):
        return DisplacementField(t.data[0])
    a = t.data.reshape(t.shape[5 - ad._array_of(x).ndim:])
    return dataclasses.replace(x, data=a) if hasattr(x, "spacing") else a


def warp(v, u):
    """Backward-warp a volume (or field treated as channels) by field u.

    Accepts Volume3D / DisplacementField / ndarray / DiffTensor inputs and
    returns the same kind as v, or a graph node when u is one. Zero field
    returns v values bit-exactly.
    """
    out = warp_tensor(v, u)
    return out if isinstance(u, DiffTensor) else _like(out, v)


# ---------------------------------------------------------------------------
# composition and resampling


def compose(prev, resid):
    """Chain two same-grid fields: u_out(x) = u_r(x) + u_p(x + u_r(x)).

    warp(v, compose(prev, resid)) approximates warp(warp(v, prev), resid)
    and both sides agree exactly for constant fields.
    """
    pt, rt = ad._lift(prev), ad._lift(resid)
    if pt.shape != rt.shape:
        raise ValueError(f"compose: dims mismatch {pt.shape} vs {rt.shape}")
    out = ad.add(rt, warp_tensor(pt, rt))
    # a graph node if either input is one, else a DisplacementField if either is
    return _like(out, max((prev, resid), key=lambda x: (isinstance(x, DiffTensor),
                                                         isinstance(x, DisplacementField))))


def upsample_field(u, factor=None, target=None):
    """Trilinear resize of each component plus per-axis unit conversion.

    Coarse-grid voxel units become fine-grid voxel units: component c is
    multiplied by target_c / source_c.
    """
    ut = ad._lift(u)
    resized = ad.trilinear_resize(ut, factor=factor, target=target)
    ratios = tuple(t / s for t, s in zip(resized.shape[2:], ut.shape[2:]))
    return _like(ad.scale_channels(resized, ratios), u)


def scale_field(u, s):
    """Multiply every component of a DisplacementField or array by the scalar s.

    The product is formed in float64 and rounded to the field's float32
    (or wider) dtype once, so on float32 fields scaling by s1 * s2 and by
    s1 then s2 differ by at most 1 ulp.
    """
    ua = u.data if isinstance(u, DisplacementField) else np.asarray(u)
    out = (ua.astype(np.float64) * float(s)).astype(np.result_type(ua.dtype, np.float32))
    return DisplacementField(out) if isinstance(u, DisplacementField) else out


# ---------------------------------------------------------------------------
# Jacobian analysis


def jacobian_det(u):
    """Per-voxel det(I + grad u), central differences inside, one-sided at edges."""
    ua = u.data if isinstance(u, DisplacementField) else np.asarray(u)
    if min(ua.shape[1:]) < 2:
        raise ValueError("jacobian_det needs at least 2 voxels per axis")
    J = [[None] * 3 for _ in range(3)]
    for comp in range(3):
        grads = np.gradient(ua[comp].astype(np.float64), axis=(0, 1, 2))
        for axis in range(3):
            J[comp][axis] = grads[axis] + (1.0 if comp == axis else 0.0)
    det = (
        J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1])
        - J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0])
        + J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0])
    )
    from .volume_io import Volume3D

    return Volume3D(dims=det.shape, spacing=(1.0, 1.0, 1.0), data=det.astype(np.float32))


def ndv(u):
    """Percentage of voxels whose Jacobian determinant is <= 0."""
    det = jacobian_det(u).data
    return 100.0 * float(np.count_nonzero(det <= 0.0)) / det.size


# ---------------------------------------------------------------------------
# point/label sampling helpers used by metrics and the synthetic generator


def sample_field_at_points(u, pts_vox):
    """Trilinearly sample the field at (N, 3) voxel coordinates."""
    ua = u.data if isinstance(u, DisplacementField) else np.asarray(u)
    dims = ua.shape[1:]
    pts = np.asarray(pts_vox, dtype=np.float64)
    out = np.zeros_like(pts)
    idx0, frac = [], []
    for a, s in enumerate(dims):
        p = np.clip(pts[:, a], 0.0, s - 1.0)
        base = np.clip(np.floor(p).astype(np.int64), 0, max(s - 2, 0))
        idx0.append(base)
        frac.append(p - base)
    for a_ in (0, 1):
        for b_ in (0, 1):
            for c_ in (0, 1):
                w = (
                    (frac[0] if a_ else 1 - frac[0])
                    * (frac[1] if b_ else 1 - frac[1])
                    * (frac[2] if c_ else 1 - frac[2])
                )
                vals = ua[:, np.minimum(idx0[0] + a_, dims[0] - 1),
                          np.minimum(idx0[1] + b_, dims[1] - 1),
                          np.minimum(idx0[2] + c_, dims[2] - 1)]
                out += w[:, None] * vals.T
    return out


def warp_labels_array(labels, u):
    """Nearest-neighbor label warp: out(x) = labels(round(x + u(x))), clamped."""
    ua = u.data if isinstance(u, DisplacementField) else np.asarray(u)
    dims = labels.shape
    if tuple(ua.shape[1:]) != tuple(dims):
        raise ValueError(f"warp_labels: dims mismatch {dims} vs {ua.shape[1:]}")
    pos = _grid(dims, ua.dtype) + ua
    idx = [np.clip(np.rint(pos[a]).astype(np.int64), 0, dims[a] - 1) for a in range(3)]
    return labels[idx[0], idx[1], idx[2]]
