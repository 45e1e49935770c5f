"""Independent reference implementations the tests check against.

Everything here is deliberately naive (per-voxel loops, scipy dense
filtering) and shares no code with the library paths it validates. The two
scalar graph nodes at the end, mean_square and inner, are the losses the
gradient checks end in; the library has no such ops.
"""

import itertools

import numpy as np
from scipy.ndimage import correlate as ndi_correlate

from regadapt.autodiff import DiffTensor


def fd_gradient(f, x, h=1e-3):
    """Central finite-difference gradient of scalar f wrt array x (in place)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def bits(*arrays):
    """(dtype, shape, bytes) of each array: equal lists mean bit-identical arrays."""
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def max_rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def resize1d_oracle(src, n_out):
    """Half-pixel linear interpolation along a 1D array, per output sample."""
    n_in = len(src)
    out = np.zeros(n_out, dtype=np.float64)
    for o in range(n_out):
        pos = (o + 0.5) * n_in / n_out - 0.5
        pos = min(max(pos, 0.0), n_in - 1.0)
        i0 = min(int(np.floor(pos)), n_in - 2) if n_in > 1 else 0
        t = pos - i0
        out[o] = src[i0] * (1 - t) + src[min(i0 + 1, n_in - 1)] * t
    return out


def trilinear_resize_oracle(a, target):
    """Separable application of resize1d_oracle along each axis."""
    out = a.astype(np.float64)
    for axis in range(3):
        moved = np.moveaxis(out, axis, -1)
        shape = moved.shape[:-1] + (target[axis],)
        res = np.zeros(shape, dtype=np.float64)
        for idx in np.ndindex(moved.shape[:-1]):
            res[idx] = resize1d_oracle(moved[idx], target[axis])
        out = np.moveaxis(res, -1, axis)
    return out


def warp_oracle(vol, disp):
    """Per-voxel trilinear backward warp with clamp-to-edge sampling."""
    D, H, W = vol.shape
    out = np.zeros_like(vol, dtype=np.float64)
    for d in range(D):
        for h in range(H):
            for w in range(W):
                p = np.array([d, h, w], dtype=np.float64) + disp[:, d, h, w]
                p = np.clip(p, 0, [D - 1, H - 1, W - 1])
                i0 = np.minimum(np.floor(p).astype(int), [D - 2, H - 2, W - 2])
                i0 = np.maximum(i0, 0)
                t = p - i0
                acc = 0.0
                for a in (0, 1):
                    for b in (0, 1):
                        for c in (0, 1):
                            wgt = ((t[0] if a else 1 - t[0])
                                   * (t[1] if b else 1 - t[1])
                                   * (t[2] if c else 1 - t[2]))
                            acc += wgt * vol[min(i0[0] + a, D - 1),
                                             min(i0[1] + b, H - 1),
                                             min(i0[2] + c, W - 1)]
                out[d, h, w] = acc
    return out


def warp_field_grad_oracle(vol, pos, g):
    """Gradient wrt the field of sum(g * warp(vol)), vol and g (C, D, H, W),
    sampled at the absolute positions pos (3, D, H, W), per voxel in float64.

    Component a is the slope along axis a of the trilinear interpolant at the
    clamped sample, taken in the cell whose lower corner is floor(p) capped at
    s - 2: on the last plane that is the one-sided difference v[s-1] - v[s-2],
    lerped along the other axes. It is 0 past a face (p < 0 or p > s - 1)
    and along a size-1 axis.
    """
    dims = np.array(vol.shape[1:])
    out = np.zeros((3,) + vol.shape[1:])
    for idx in np.ndindex(vol.shape[1:]):
        p = pos[(slice(None),) + idx]
        q = np.clip(p, 0, dims - 1)
        i0 = np.maximum(np.minimum(np.floor(q).astype(int), dims - 2), 0)
        t = q - i0
        gv = g[(slice(None),) + idx]
        for a in range(3):
            if not 0 <= p[a] <= dims[a] - 1:
                continue
            acc = 0.0
            for corner in itertools.product((0, 1), repeat=3):
                wgt = 1.0
                for b in range(3):
                    if b == a:
                        wgt *= 1.0 if corner[b] else -1.0
                    else:
                        wgt *= t[b] if corner[b] else 1.0 - t[b]
                j = tuple(np.minimum(i0 + corner, dims - 1))
                acc += wgt * float(gv @ vol[(slice(None),) + j])
            out[(a,) + idx] = acc
    return out


def diffusion_oracle(u):
    """Pooled mean of squared forward differences by explicit enumeration."""
    total = 0.0
    count = 0
    for comp in range(3):
        for axis in range(3):
            d = np.diff(u[comp], axis=axis)
            total += float((d.astype(np.float64) ** 2).sum())
            count += d.size
    return total / count


def midrank_remap_oracle(data, ref_counts, ref_edges):
    """Quantile mapping per voxel: its midrank (#below + #at-or-below) / 2n,
    counted over every voxel in float64, through the reference CDF."""
    vals = np.asarray(data, dtype=np.float64).reshape(-1)
    n = vals.size
    q = np.array([(int(np.count_nonzero(vals < x)) + int(np.count_nonzero(vals <= x))) / (2.0 * n)
                  for x in vals])
    counts = np.asarray(ref_counts, dtype=np.float64)
    cdf = np.concatenate([[0.0], np.cumsum(counts) / max(counts.sum(), 1)])
    return np.interp(q, cdf, np.asarray(ref_edges, dtype=np.float64)).reshape(np.shape(data))


def surface_distances_oracle(a_mask, b_mask, spacing):
    """Pooled surface-to-surface nearest distances in mm, by brute force.

    A surface voxel is foreground with a six-connected neighbor that is
    background or off the grid; every pair of surface points is measured in
    float64 and each point keeps its nearest partner on the other surface.
    """
    def surface(mask):
        pts = []
        for idx in itertools.product(*map(range, mask.shape)):
            if not mask[idx]:
                continue
            for axis, step in itertools.product(range(3), (-1, 1)):
                nb = list(idx)
                nb[axis] += step
                if not 0 <= nb[axis] < mask.shape[axis] or not mask[tuple(nb)]:
                    pts.append(idx)
                    break
        return np.array(pts, dtype=np.float64) * np.asarray(spacing, dtype=np.float64)

    sa, sb = surface(a_mask), surface(b_mask)
    d = np.sqrt(((sa[:, None, :] - sb[None, :, :]) ** 2).sum(axis=-1))
    return np.concatenate([d.min(axis=1), d.min(axis=0)])


def lncc_oracle(a, b, window, eps=1e-5):
    """LNCC via dense 3D Gaussian correlation (scipy), zero-padded."""
    r = (window - 1) // 2
    sigma = window / 4.0
    t = np.arange(-r, r + 1, dtype=np.float64)
    k1 = np.exp(-(t * t) / (2 * sigma * sigma))
    k1 /= k1.sum()
    k3 = k1[:, None, None] * k1[None, :, None] * k1[None, None, :]

    def g(x):
        return ndi_correlate(x.astype(np.float64), k3, mode="constant")

    mu_a, mu_b = g(a), g(b)
    var_a = g(a * a) - mu_a ** 2
    var_b = g(b * b) - mu_b ** 2
    cov = g(a * b) - mu_a * mu_b
    m = cov / np.sqrt((var_a + eps) * (var_b + eps))
    return float(m.mean()), m


def conv3d_oracle(x, k, stride=1, padding=0):
    """Direct looped cross-correlation over a rank-5 input."""
    N, Ci, D, H, W = x.shape
    Co = k.shape[0]
    kk = k.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3).astype(np.float64)
    Do = (D + 2 * padding - kk) // stride + 1
    Ho = (H + 2 * padding - kk) // stride + 1
    Wo = (W + 2 * padding - kk) // stride + 1
    out = np.zeros((N, Co, Do, Ho, Wo), dtype=np.float64)
    for n in range(N):
        for co in range(Co):
            for d in range(Do):
                for h in range(Ho):
                    for w in range(Wo):
                        patch = xp[n, :, d * stride:d * stride + kk,
                                   h * stride:h * stride + kk,
                                   w * stride:w * stride + kk]
                        out[n, co, d, h, w] = float((patch * k[co]).sum())
    return out


def conv3d_grads_oracle(x, k, g, stride=1, padding=0):
    """Input and kernel gradients of sum(g * conv3d_oracle(x, k)), looped
    over the output voxels like conv3d_oracle: each one adds g times the
    kernel to its input patch and g times its patch to the kernel."""
    kk = k.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3).astype(np.float64)
    gxp, gk = np.zeros_like(xp), np.zeros(k.shape)
    N, Co, Do, Ho, Wo = g.shape
    for n in range(N):
        for co in range(Co):
            for d in range(Do):
                for h in range(Ho):
                    for w in range(Wo):
                        box = (n, slice(None), slice(d * stride, d * stride + kk),
                               slice(h * stride, h * stride + kk),
                               slice(w * stride, w * stride + kk))
                        gxp[box] += g[n, co, d, h, w] * k[co]
                        gk[co] += g[n, co, d, h, w] * xp[box]
    D, H, W = x.shape[2:]
    return gxp[:, :, padding:padding + D, padding:padding + H, padding:padding + W], gk


def endpoint_error(field_data, truth_data):
    d = field_data.astype(np.float64) - truth_data.astype(np.float64)
    return float(np.sqrt((d ** 2).sum(axis=0)).mean())


def avg_pool_oracle(a, factor):
    """Mean over each factor^3 block of a (D, H, W) array, clipped blocks at the ragged tail."""
    D, H, W = a.shape
    out = np.zeros((-(-D // factor), -(-H // factor), -(-W // factor)), dtype=np.float64)
    for d in range(out.shape[0]):
        for h in range(out.shape[1]):
            for w in range(out.shape[2]):
                block = a[d * factor:(d + 1) * factor, h * factor:(h + 1) * factor,
                          w * factor:(w + 1) * factor]
                out[d, h, w] = float(block.astype(np.float64).sum()) / block.size
    return out


def _scalar_node(x, value, dtype, bwd, op):
    """A (1, 1, 1, 1, 1) graph node over x holding value in dtype."""
    data = np.asarray(value, dtype=dtype).reshape(1, 1, 1, 1, 1)
    if not x.requires_grad:
        return DiffTensor(data, op=op)
    return DiffTensor(data, requires_grad=True, parents=(x,), backward=bwd, op=op)


def mean_square(x):
    """mean(x * x) of a DiffTensor as a scalar node: a float64 sum over x.size,
    and the gradient 2x / n formed in x's dtype."""
    n = x.data.size

    def bwd(g):
        x.accumulate_grad(x.dtype.type(g.reshape(-1)[0] / n) * (2.0 * x.data), own=True)

    return _scalar_node(x, (x.data * x.data).sum(dtype=np.float64) / n, x.dtype, bwd,
                        "mean_square")


def inner(x, g):
    """sum(x * g) for a DiffTensor x and a constant float array g of x's
    shape, as a scalar node in the dtype of x * g whose gradient is g."""
    g = np.asarray(g)
    if g.shape != x.shape:
        raise ValueError(f"inner: shape mismatch {x.shape} vs {g.shape}")

    def bwd(gs):
        x.accumulate_grad(gs.reshape(-1)[0] * g)

    prod = x.data * g
    return _scalar_node(x, prod.sum(dtype=np.float64), prod.dtype, bwd, "inner")
