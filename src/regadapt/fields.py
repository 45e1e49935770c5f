"""Displacement-field algebra.

A field u assigns every voxel a 3-vector offset in voxel units of its own
grid; the transform is phi(x) = x + u(x) and warping is backward:
output(x) = input(x + u(x)) with trilinear interpolation and clamp-to-edge
sampling. Composition follows that convention: applying residual r after
prev p gives u_out(x) = u_r(x) + u_p(x + u_r(x)), so warping once by the
composed field matches re-warping the previous result.

Trilinear sampling is exact for constants and at grid points. It forms
nested lerps a + t * (b - a) in the cell of floor(p), so t is exactly 0 on
grid points and a constant input has b - a == 0. A last-plane sample uses
the cell below, with t == 1, so the field gradient keeps a one-sided slope
there; its value takes a = b first, so it stays exact. Warps and point
samples share one step from positions to cells, _cells, and one kernel,
_lerp3, which gathers each corner once per call; a warp runs both per
block of autodiff._BLOCK voxels, in cache, with the same operations per
voxel whatever the block size.
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
# trilinear sampling core of warp_tensor and sample_field_at_points


def _cells(dims, pos):
    """Absolute sample positions (3, ...) -> one-sided cells: flat lower
    corners, steps to the upper corners (0 on a size-1 axis), fractions in
    [0, 1], last-plane masks and in-bounds masks, per axis. A last-plane
    sample uses the cell below, with fraction 1, so its slope is one-sided.

    Raises FloatingPointError on a non-finite position, before the
    float -> int cast that would turn it into an arbitrary index.
    """
    if not np.isfinite(pos).all():
        raise FloatingPointError("non-finite displacement")
    itype = np.int32 if np.prod(dims) < 2**31 else np.int64  # flat indices fit
    f0, steps, tt, edges, inb = 0, [], [], [], []
    for p, s, stride in zip(pos, dims, (dims[1] * dims[2], dims[2], 1)):
        inb.append((p >= 0) & (p <= s - 1))
        p = np.clip(p, 0.0, s - 1.0)
        base = np.floor(p)
        edges.append(base > max(s - 2, 0))
        tt.append((p - base) + edges[-1])  # p - base is exact, in p's dtype
        steps.append(stride if s > 1 else 0)
        f0 = f0 * s + (base.astype(itype) - edges[-1])
    return f0, steps, tt, edges, inb


def _lerp(lo, hi, t):
    """lo + t * (hi - lo), in place on hi."""
    hi -= lo
    hi *= t
    hi += lo
    return hi


def _lerp3(vol_flat, f0, steps, tt, edges, slopes=False, a=0):
    """Trilinear values (C,) + f0.shape of vol_flat (C, n) in the cells of
    _cells, the one step from positions to cells, as nested lerps along W,
    then H, then D, each corner gathered once. Returns (values, values at
    tt, slopes): with slopes, the slopes [d/dt_D, d/dt_H, d/dt_W] at tt from
    the same gathers and the values at tt that the level above takes its
    slope from (None at the top), else [] and None. A last-plane sample
    takes lo = hi first, so it returns its grid value exactly.

    Recurses over the axes from a, f0 being the corners fixed before it. It
    is not a closure: a recursive closure is a reference cycle, which keeps
    the gathers alive until the cyclic collector runs.
    """
    if a == 3:
        at = np.take(vol_flat, f0, axis=1)
        at = at.astype(np.result_type(vol_flat.dtype, tt[0].dtype), copy=False)
        return at, at, []
    lo, lo_s, dlo = _lerp3(vol_flat, f0, steps, tt, edges, slopes, a + 1)
    hi, hi_s, dhi = _lerp3(vol_flat, f0 + steps[a], steps, tt, edges, slopes, a + 1)
    at_tt, ds = None, []
    if slopes:  # before lo and hi change in place: at the last level they are lo_s and hi_s
        diff = hi_s - lo_s
        ds = [diff] + [_lerp(l, h, tt[a]) for l, h in zip(dlo, dhi)]
        if a:
            at_tt = lo_s + tt[a] * diff
    np.copyto(lo, hi, where=edges[a])
    return _lerp(lo, hi, tt[a]), at_tt, ds


def warp_tensor(v, u):
    """Differentiable warp: v (N, C, D, H, W) sampled at x + u, u (N, 3, D, H, W).

    Arrays, Volume3D and DisplacementField inputs are lifted to graph leaves.
    The forward samples per block of ad._BLOCK voxels and keeps what the
    backward reads: the field slopes, zeroed past a face, if u needs a
    gradient, and the cells if v does.
    """
    v, u = ad._lift(v), ad._lift(u)
    if v.shape[0] != 1 or u.shape[0] != 1 or u.shape[1] != 3:
        raise ValueError("warp_tensor expects batch 1 and a 3-channel field")
    dims = v.shape[2:]
    if u.shape[2:] != dims:
        raise ValueError(f"warp: dims mismatch {v.shape[2:]} vs {u.shape[2:]}")
    C = v.shape[1]
    vol_flat = v.data[0].reshape(C, -1)
    n = vol_flat.shape[1]
    grid, uf = _grid(dims, u.dtype).reshape(3, n), u.data[0].reshape(3, n)
    out = np.empty((C, n), np.result_type(v.dtype, u.dtype))
    slopes = np.empty((3, C, n), out.dtype) if u.requires_grad else None
    f0 = tt = None
    for b in ad._blocks(n):
        f0b, steps, ttb, edges, inb = _cells(dims, grid[:, b] + uf[:, b])
        out[:, b], _, sb = _lerp3(vol_flat, f0b, steps, ttb, edges, slopes=u.requires_grad)
        if u.requires_grad:
            for s, m, dst in zip(sb, inb, slopes[:, :, b]):
                np.multiply(s, m, out=dst)
        if v.requires_grad:
            if f0 is None:
                f0, tt = np.empty(n, f0b.dtype), np.empty((3, n), ttb[0].dtype)
            f0[b], tt[:, b] = f0b, ttb

    def bwd(g):
        g0 = g[0].reshape(C, n)
        if u.requires_grad:
            gu = np.empty((3, n), slopes.dtype)
            for b in ad._blocks(n, 3 * C):
                np.sum(slopes[:, :, b] * g0[:, b], axis=1, out=gu[:, b])
            u.accumulate_grad(gu.reshape((1, 3) + dims).astype(u.dtype, copy=False), own=True)
        if v.requires_grad:
            # adjoint of the lerps: each of the 8 corners takes its weight times
            # g; each axis doubles the corners, its upper half one step up
            idx = np.empty((8, n), np.intp)
            w = np.empty((8, n), tt.dtype)
            idx[0], w[0] = f0, 1.0
            for k, step, ta in zip((1, 2, 4), steps, tt):
                np.add(idx[:k], step, out=idx[k:2 * k])
                np.multiply(w[:k], ta, out=w[k:2 * k])
                w[:k] *= 1.0 - ta
            wg = np.empty(w.shape)  # bincount's float64 weights, one channel at a time
            gv = np.stack([np.bincount(idx.ravel(), np.multiply(w, gc, out=wg).ravel(),
                                       minlength=n) for gc in g0])
            v.accumulate_grad(gv.reshape((1, C) + dims).astype(v.dtype, copy=False))

    return ad._result(out.reshape((1, C) + dims), (v, u), bwd, "warp")


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


def upsample_field(u, target):
    """Trilinear resize of each component to target (D, H, W) plus per-axis
    unit conversion.

    Coarse-grid voxel units become fine-grid voxel units: component c is
    multiplied by target_c / source_c.
    """
    ut = ad._lift(u)
    resized = ad.trilinear_resize(ut, target=target)
    ratios = tuple(t / s for t, s in zip(resized.shape[2:], ut.shape[2:]))
    return _like(ad.scale_channels(resized, ratios), u)


# ---------------------------------------------------------------------------
# Jacobian analysis


def jacobian_det(u):
    """Per-voxel det(I + grad u), central differences inside, one-sided at edges."""
    ua = ad._array_of(u)
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
    """Trilinearly sample the field at (N, 3) voxel coordinates, with the
    warp's kernel: sampling at grid + d gives warp(u, d) bit for bit."""
    ua = ad._array_of(u)
    dims = ua.shape[1:]
    f0, steps, tt, edges, _ = _cells(dims, np.asarray(pts_vox, dtype=np.float64).T)
    return _lerp3(ua.reshape(3, -1), f0, steps, tt, edges)[0].T


def warp_labels_array(labels, u):
    """Nearest-neighbor label warp: out(x) = labels(round(x + u(x))), clamped."""
    ua = ad._array_of(u)
    dims = labels.shape
    if tuple(ua.shape[1:]) != tuple(dims):
        raise ValueError(f"warp_labels: dims mismatch {dims} vs {ua.shape[1:]}")
    pos = _grid(dims, ua.dtype) + ua
    idx = [np.clip(np.rint(pos[a]).astype(np.int64), 0, dims[a] - 1) for a in range(3)]
    return labels[idx[0], idx[1], idx[2]]
