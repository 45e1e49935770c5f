"""Minimal reverse-mode automatic differentiation over dense rank-5 tensors.

Tensors are (N, C, D, H, W) numpy arrays. Graphs are built define-by-run:
each op returns a new DiffTensor whose closure knows how to push gradients
to its parents, and backward() replays the closures in reverse topological
order. There is no broadcasting; binary ops require exactly matching
shapes. Storage is float32 by default (float64 supported for gradient
checking); reductions and the conv3d kernel-gradient accumulation run in
float64. conv3d has one kernel path, GEMMs of row shifts on the flattened
padded grid, for its forward pass and both gradients, and every gradient
it returns is C-contiguous. Every separable linear op (resize, average
pooling, Gaussian filtering) is one cached (n_out, n_in) matrix per spatial
axis, applied by _apply_axes as one matmul per axis; its backward applies
the transposed matrices.
"""

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32

# output rows per conv3d GEMM tile; the wide operands are built per tile
_CONV_TILE_ROWS = 4096


class GradientError(RuntimeError):
    """Raised when an optimizer step sees non-finite gradients."""


def _as_data(x, dtype):
    a = np.asarray(x)
    if dtype is None:
        dtype = a.dtype if a.dtype in (np.float32, np.float64) else DEFAULT_DTYPE
    return np.ascontiguousarray(a, dtype=dtype)


class DiffTensor:
    """Node in the autodiff graph: value, gradient slot, and backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, dtype=None, parents=(), backward=None, op="leaf"):
        self.data = _as_data(data, dtype)
        if self.data.ndim != 5:
            raise ValueError(f"DiffTensor must be rank 5 (N,C,D,H,W), got shape {self.data.shape}")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g, own=False):
        """Add g into the gradient slot. own=True donates a freshly
        allocated array of the right dtype, skipping the defensive copy."""
        if self.grad is None:
            if own and isinstance(g, np.ndarray) and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-topological gradient accumulation from this scalar node."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss node")
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"DiffTensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"


def _result(data, parents, backward, op):
    rg = any(p.requires_grad for p in parents)
    if not rg:
        return DiffTensor(data, requires_grad=False, op=op)
    return DiffTensor(data, requires_grad=True, parents=parents, backward=backward, op=op)


def _array_of(x):
    """The ndarray behind a Volume3D, DisplacementField, DiffTensor or array-like."""
    return x if isinstance(x, np.ndarray) else np.asarray(getattr(x, "data", x))


def _lift(x, dtype=None):
    """x as a graph leaf: a DiffTensor passes through as is, anything else is
    reshaped to rank 5 by leading unit axes, (D, H, W) -> (1, 1, D, H, W)
    and (C, D, H, W) -> (1, C, D, H, W)."""
    if isinstance(x, DiffTensor):
        return x
    a = _array_of(x)
    return DiffTensor(a.reshape((1,) * (5 - a.ndim) + a.shape), dtype=dtype)


def _check_same_shape(x, y, op):
    if x.shape != y.shape:
        raise ValueError(f"{op}: shape mismatch {x.shape} vs {y.shape}")


# ---------------------------------------------------------------------------
# pointwise ops


def add(x, y):
    _check_same_shape(x, y, "add")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if y.requires_grad:
            y.accumulate_grad(g)

    return _result(x.data + y.data, (x, y), bwd, "add")


def sub(x, y):
    _check_same_shape(x, y, "sub")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if y.requires_grad:
            y.accumulate_grad(-g)

    return _result(x.data - y.data, (x, y), bwd, "sub")


def mul(x, y):
    _check_same_shape(x, y, "mul")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * y.data)
        if y.requires_grad:
            y.accumulate_grad(g * x.data)

    return _result(x.data * y.data, (x, y), bwd, "mul")


def neg(x):
    def bwd(g):
        x.accumulate_grad(-g)

    return _result(-x.data, (x,), bwd, "neg")


def square(x):
    def bwd(g):
        x.accumulate_grad(g * (2.0 * x.data))

    return _result(x.data * x.data, (x,), bwd, "square")


def sqrt(x):
    out = np.sqrt(x.data)

    def bwd(g):
        x.accumulate_grad(g / (2.0 * out))

    return _result(out, (x,), bwd, "sqrt")


def div(x, y):
    _check_same_shape(x, y, "div")
    out = x.data / y.data

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g / y.data)
        if y.requires_grad:
            y.accumulate_grad(-g * out / y.data)

    return _result(out, (x, y), bwd, "div")


def scale(x, s):
    s = float(s)

    def bwd(g):
        x.accumulate_grad(g * s)

    return _result(x.data * np.asarray(s, dtype=x.dtype), (x,), bwd, "scale")


def add_scalar(x, c):
    c = float(c)

    def bwd(g):
        x.accumulate_grad(g)

    return _result(x.data + np.asarray(c, dtype=x.dtype), (x,), bwd, "add_scalar")


def leaky_relu(x, slope=0.2):
    pos = x.data >= 0
    out = np.where(pos, x.data, x.data * x.dtype.type(slope))

    def bwd(g):
        x.accumulate_grad(np.where(pos, g, g * x.dtype.type(slope)))

    return _result(out, (x,), bwd, "leaky_relu")


def bias_add(x, b):
    """Add a per-channel bias of shape (1, C, 1, 1, 1)."""
    if b.shape != (1, x.shape[1], 1, 1, 1):
        raise ValueError(f"bias_add: bias shape {b.shape} incompatible with input {x.shape}")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3, 4), keepdims=True, dtype=np.float64).astype(b.dtype))

    return _result(x.data + b.data, (x, b), bwd, "bias_add")


def scale_channels(x, factors):
    """Multiply channel c by the scalar factors[c]."""
    if len(factors) != x.shape[1]:
        raise ValueError(f"scale_channels: {len(factors)} factors for {x.shape[1]} channels")
    f = np.asarray(factors, dtype=x.dtype).reshape(1, -1, 1, 1, 1)

    def bwd(g):
        x.accumulate_grad(g * f)

    return _result(x.data * f, (x,), bwd, "scale_channels")


# ---------------------------------------------------------------------------
# shape ops


def concat_channels(tensors):
    tensors = list(tensors)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.shape[0] != ref[0] or t.shape[2:] != ref[2:]:
            raise ValueError("concat_channels: batch/spatial dims must match")
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=1)):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return _result(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), bwd, "concat")


def pad_spatial(x, pads):
    """Zero-pad spatial dims; pads = ((d0,d1),(h0,h1),(w0,w1))."""
    (d0, d1), (h0, h1), (w0, w1) = pads
    out = np.pad(x.data, ((0, 0), (0, 0), (d0, d1), (h0, h1), (w0, w1)))
    D, H, W = x.shape[2:]

    def bwd(g):
        x.accumulate_grad(g[:, :, d0:d0 + D, h0:h0 + H, w0:w0 + W])

    return _result(out, (x,), bwd, "pad")


def crop_spatial(x, crops):
    """Crop spatial dims; crops = ((d0,d1),(h0,h1),(w0,w1)) amounts removed per side."""
    (d0, d1), (h0, h1), (w0, w1) = crops
    D, H, W = x.shape[2:]
    sl = (slice(None), slice(None), slice(d0, D - d1), slice(h0, H - h1), slice(w0, W - w1))
    out = x.data[sl]

    def bwd(g):
        buf = np.zeros_like(x.data)
        buf[sl] = g
        x.accumulate_grad(buf)

    return _result(out.copy(), (x,), bwd, "crop")


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x):
    val = x.data.sum(dtype=np.float64)

    def bwd(g):
        x.accumulate_grad(np.full_like(x.data, x.dtype.type(g.reshape(-1)[0])))

    return _result(np.asarray(val, dtype=x.dtype).reshape(1, 1, 1, 1, 1), (x,), bwd, "sum")


def reduce_mean(x):
    n = x.data.size
    val = x.data.sum(dtype=np.float64) / n

    def bwd(g):
        x.accumulate_grad(np.full_like(x.data, x.dtype.type(g.reshape(-1)[0] / n)))

    return _result(np.asarray(val, dtype=x.dtype).reshape(1, 1, 1, 1, 1), (x,), bwd, "mean")


# ---------------------------------------------------------------------------
# convolution


def _flat_grid(xp, k):
    """Padded grid xp (N, C, Dp, Hp, Wp) as channels-last rows (N, Dp*Hp*Wp + tail, C):
    kernel offset (i, j, l) is the row shift i*Hp*Wp + j*Wp + l, and the zero
    tail holds the rows the last offsets read past the grid."""
    N, C, Dp, Hp, Wp = xp.shape
    n = Dp * Hp * Wp
    flat = np.empty((N, n + (k - 1) * (Wp + 1), C), dtype=xp.dtype)
    flat[:, n:] = 0
    flat[:, :n].reshape(N, Dp, Hp, Wp, C)[...] = xp.transpose(0, 2, 3, 4, 1)
    return flat


def _wide_tiles(flat, grid, k):
    """Yield (n, r0, r1, ops) per tile of stride-1 output rows on the padded
    H/W grid: ops[i*k + j], the (r1-r0, k*C) operand of offsets (i, j, 0..k-1),
    is a row slice of one wide tile that holds each row beside its k-1
    successors along W (k copies per tile)."""
    Dp, Hp, Wp = grid
    C = flat.shape[2]
    rows, halo = (Dp - k + 1) * Hp * Wp, (k - 1) * (Hp * Wp + Wp)
    for n in range(flat.shape[0]):
        for r0 in range(0, rows, _CONV_TILE_ROWS):
            r1 = min(r0 + _CONV_TILE_ROWS, rows)
            wide = np.empty((r1 - r0 + halo, k * C), dtype=flat.dtype)
            for l in range(k):
                wide[:, l * C:(l + 1) * C] = flat[n, r0 + l:r1 + halo + l]
            yield n, r0, r1, [wide[i * Hp * Wp + j * Wp:][:r1 - r0]
                              for i in range(k) for j in range(k)]


def _correlate(flat, grid, w, k):
    """Stride-1 valid cross-correlation of a _flat_grid with w (k*k, k*C, Co).

    Returns a channels-last (N, Dp-k+1, Hp-k+1, Wp-k+1, Co) view that crops
    the rows computed on the padded H/W grid.
    """
    Dp, Hp, Wp = grid
    out = np.empty((flat.shape[0], (Dp - k + 1) * Hp * Wp, w.shape[2]), dtype=flat.dtype)
    for n, r0, r1, ops in _wide_tiles(flat, grid, k):
        acc = out[n, r0:r1]
        tmp = np.empty_like(acc)
        np.matmul(ops[0], w[0], out=acc)
        for a, b in zip(ops[1:], w[1:]):
            np.matmul(a, b, out=tmp)
            acc += tmp
    return out.reshape(-1, Dp - k + 1, Hp, Wp, w.shape[2])[:, :, :Hp - k + 1, :Wp - k + 1]


def conv3d(x, kernel, stride=1, padding=0):
    """Zero-padded cross-correlation with a (C_out, C_in, k, k, k) kernel.

    Each row tile of the flattened padded input costs k*k GEMMs of depth
    k*C_in. The input gradient runs the same _correlate on the zero-bordered
    output gradient with the flipped, transposed kernel; the kernel gradient
    multiplies the same wide tiles with the output gradient, in float64.
    stride > 1 subsamples the stride-1 result; its backward scatters g onto
    the stride-1 grid. Differentiable wrt both arguments.
    """
    Co, Ci, k, kh, kw = kernel.shape
    if k != kh or kh != kw:
        raise ValueError("conv3d: kernel must be cubic")
    if k % 2 != 1:
        raise ValueError(f"conv3d: kernel size must be odd, got {k}")
    if x.shape[1] != Ci:
        raise ValueError(f"conv3d: input has {x.shape[1]} channels, kernel expects {Ci}")
    N, _, D, H, W = x.shape
    if min(D, H, W) + 2 * padding < k:
        raise ValueError("conv3d: output would be empty")
    if padding >= k:
        raise ValueError(f"conv3d: padding {padding} must be below the kernel size {k}")
    dt, s, p = x.dtype, stride, padding

    xp = np.pad(x.data, ((0, 0), (0, 0)) + ((p, p),) * 3)
    grid = xp.shape[2:]
    flat = _flat_grid(xp, k)
    del xp
    w = kernel.data.transpose(2, 3, 4, 1, 0).reshape(k * k, k * Ci, Co)
    ocl = _correlate(flat, grid, w, k)
    D1, H1, W1 = ocl.shape[1:4]
    out = np.ascontiguousarray(ocl[:, ::s, ::s, ::s].transpose(0, 4, 1, 2, 3))

    def bwd(g):
        if kernel.requires_grad:
            # g on the padded H/W grid, zero on the rows the forward cropped
            gcl = np.zeros((N, D1, grid[1], grid[2], Co), dtype=dt)
            gcl[:, ::s, :H1:s, :W1:s] = g.transpose(0, 2, 3, 4, 1)
            gcl = gcl.reshape(N, -1, Co)
            gk = np.zeros((k * k, k * Ci, Co), dtype=np.float64)
            for n, r0, r1, ops in _wide_tiles(flat, grid, k):
                for ij, a in enumerate(ops):
                    gk[ij] += a.T @ gcl[n, r0:r1]
            gk = gk.reshape(k, k, k, Ci, Co).transpose(4, 3, 0, 1, 2)
            kernel.accumulate_grad(np.ascontiguousarray(gk, dtype=dt), own=True)
        if x.requires_grad:
            # g on the stride-1 grid in a k-1-p zero border, built at its final size:
            # _flat_grid is slow from a crop whose channel stride is a power of two
            b, kf = k - 1 - p, kernel.data[:, :, ::-1, ::-1, ::-1]
            gp = np.zeros((N, Co, D + k - 1, H + k - 1, W + k - 1), dtype=dt)
            gp[:, :, b:b + D1:s, b:b + H1:s, b:b + W1:s] = g
            wb = kf.transpose(2, 3, 4, 0, 1).reshape(k * k, k * Co, Ci)
            gx = _correlate(_flat_grid(gp, k), gp.shape[2:], wb, k)
            x.accumulate_grad(np.ascontiguousarray(gx.transpose(0, 4, 1, 2, 3)), own=True)

    return _result(out, (x, kernel), bwd, "conv3d")


# ---------------------------------------------------------------------------
# separable linear ops: one (n_out, n_in) matrix per spatial axis


def _interp_matrix(n_in, n_out):
    """Half-pixel (align-corners-false) 1D linear interpolation matrix."""
    src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.clip(np.floor(src).astype(np.int64), 0, max(n_in - 2, 0))
    m = np.zeros((n_out, n_in))
    np.add.at(m, (np.arange(n_out), i0), 1.0 - (src - i0))
    np.add.at(m, (np.arange(n_out), np.minimum(i0 + 1, n_in - 1)), src - i0)
    return m


def _pool_matrix(n, factor):
    """Mean over consecutive blocks of `factor` samples; the last block may be shorter."""
    block = np.arange(n) // factor
    return np.equal.outer(np.arange(block[-1] + 1), block) / np.bincount(block)[:, None]


def _band_matrix(n, taps, reflect=False):
    """Correlation with the odd-length taps, centred; a sample outside [0, n)
    reads zero, or with reflect its half-sample-symmetric mirror (period 2n,
    so any radius works)."""
    r = (len(taps) - 1) // 2
    src = np.arange(n)[:, None] + np.arange(-r, r + 1)
    if reflect:
        src %= 2 * n
        src = np.minimum(src, 2 * n - 1 - src)
    else:
        src[(src < 0) | (src >= n)] = n  # a column that is dropped
    m = np.zeros((n, n + 1))
    np.add.at(m, (np.arange(n)[:, None], src), np.broadcast_to(taps, src.shape))
    return m[:, :n]


def gaussian_reflect(a, sigma):
    """Gaussian smoothing of the last three axes of a, in a's dtype; reproduces
    scipy.ndimage.gaussian_filter(mode="reflect", truncate=4.0) on each (D, H, W)
    component: radius int(4 sigma + 0.5), half-sample-symmetric border."""
    taps = tuple(_gaussian_taps(int(4.0 * sigma + 0.5), sigma).tolist())
    return _apply_axes(a, _axis_matrices(_band_matrix, a.shape[-3:], [(taps, True)] * 3, a.dtype))


@functools.lru_cache(maxsize=64)
def _axis_matrix(build, n, args, dtype):
    """build(n, *args) in dtype, cached and read-only: the (n_out, n) matrix
    of one separable op along an axis of n samples."""
    m = build(n, *args).astype(dtype)
    m.flags.writeable = False
    return m


def _axis_matrices(build, dims, args, dtype):
    return [_axis_matrix(build, n, a, dtype) for n, a in zip(dims, args)]


def _apply_axes(a, mats):
    """y[.., o, p, q] = sum_ijk MD[o, i] MH[p, j] MW[q, k] a[.., i, j, k] for
    mats (MD, MH, MW) over the last three axes: one matmul per axis on
    reshapes of a, W then H then D, with no transposed copies."""
    md, mh, mw = mats
    *lead, D, H, W = a.shape
    Do, Ho, Wo = md.shape[0], mh.shape[0], mw.shape[0]
    y = (a.reshape(-1, W) @ mw.T).reshape(-1, H, Wo)
    y = np.matmul(mh, y).reshape(-1, D, Ho * Wo)
    return np.matmul(md, y).reshape(*lead, Do, Ho, Wo)


def _axis_op(x, mats, op):
    """Graph node applying per-axis matrices; its backward applies their transposes."""
    def bwd(g):
        x.accumulate_grad(_apply_axes(g, [m.T for m in mats]), own=True)

    return _result(_apply_axes(x.data, mats), (x,), bwd, op)


def _identity(x, op):
    def bwd(g):
        x.accumulate_grad(g)

    return _result(x.data.copy(), (x,), bwd, op)


def resize_target_dims(spatial, factor):
    return tuple(int(math.ceil(s * factor - 1e-9)) for s in spatial)


def trilinear_resize(x, factor=None, target=None):
    """Trilinear (separable linear) resize of the spatial dims.

    Either a scale factor or explicit target (D,H,W) dims must be given.
    """
    if (factor is None) == (target is None):
        raise ValueError("trilinear_resize: give exactly one of factor/target")
    dims = x.shape[2:]
    if target is None:
        target = resize_target_dims(dims, float(factor))
    target = tuple(int(t) for t in target)
    if min(target) < 1:
        raise ValueError(f"trilinear_resize: empty output dims {target}")
    if target == dims:
        return _identity(x, "resize")
    mats = _axis_matrices(_interp_matrix, dims, [(t,) for t in target], x.dtype)
    return _axis_op(x, mats, "resize")


def avg_pool3d(x, factor):
    """Average-pool spatial dims by an integer factor (ragged tail allowed)."""
    factor = int(factor)
    if factor < 1:
        raise ValueError("avg_pool3d: factor must be >= 1")
    if factor == 1:
        return _identity(x, "avg_pool")
    mats = _axis_matrices(_pool_matrix, x.shape[2:], [(factor,)] * 3, x.dtype)
    return _axis_op(x, mats, "avg_pool")


def gaussian_kernel1d(window, dtype=np.float64):
    """Truncated, renormalized Gaussian; radius (window-1)/2, sigma window/4."""
    if window % 2 != 1:
        raise ValueError(f"gaussian window must be odd, got {window}")
    return _gaussian_taps((window - 1) // 2, window / 4.0).astype(dtype)


def _gaussian_taps(radius, sigma):
    """exp(-t^2 / 2 sigma^2) for t in [-radius, radius], normalized to sum 1."""
    k = np.exp(-np.arange(-radius, radius + 1.0) ** 2 / (2.0 * sigma * sigma))
    return k / k.sum()


def filter_separable(a, k1d):
    """Zero-padded correlation with the same 1D kernel along each spatial axis.

    Works on raw (.., D, H, W) arrays; the last three axes are filtered.
    """
    taps = tuple(np.asarray(k1d, dtype=np.float64).tolist())
    return _apply_axes(a, _axis_matrices(_band_matrix, a.shape[-3:], [(taps,)] * 3, a.dtype))


def gaussian_filter(x, window):
    """Separable Gaussian smoothing as a differentiable op (self-adjoint)."""
    k1d = gaussian_kernel1d(window)

    def bwd(g):
        x.accumulate_grad(filter_separable(g, k1d), own=True)

    return _result(filter_separable(x.data, k1d), (x,), bwd, "gauss")


def instance_norm(x, eps=1e-5):
    """Per-(batch, channel) normalization over the spatial dims."""
    ax = (2, 3, 4)
    mu = x.data.mean(axis=ax, keepdims=True, dtype=np.float64)
    var = ((x.data.astype(np.float64) - mu) ** 2).mean(axis=ax, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    y = (x.data - mu.astype(x.dtype)) * inv

    def bwd(g):
        gm = g.mean(axis=ax, keepdims=True, dtype=np.float64).astype(x.dtype)
        gy = (g * y).mean(axis=ax, keepdims=True, dtype=np.float64).astype(x.dtype)
        x.accumulate_grad(inv * (g - gm - y * gy))

    return _result(y, (x,), bwd, "instance_norm")


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moments per parameter plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(params, state, base_lr, warmup_steps=0):
    """One Adam update over a dict of named parameter tensors.

    Effective lr is base_lr * min(1, t / warmup_steps) with t starting at 1.
    Raises GradientError (leaving parameters untouched) on non-finite grads.
    """
    state.t += 1
    t = state.t
    if warmup_steps > 0:
        lr = base_lr * min(1.0, t / warmup_steps)
    else:
        lr = base_lr
    grads = {}
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            state.t -= 1
            raise GradientError(f"non-finite gradient for parameter {name!r}")
        grads[name] = g
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        denom = np.sqrt(v / c2)
        denom += eps
        np.divide(m, denom, out=denom)
        denom *= lr / c1
        p.data -= denom
    return lr


# ---------------------------------------------------------------------------
# parameter checkpoints


def config_hash(meta):
    """Stable hash of a JSON-serializable config dict."""
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_params(path, params, meta=None):
    """Write little-endian float32 parameter blob + JSON manifest.

    params maps name -> DiffTensor or ndarray; meta is recorded and hashed.
    """
    path = str(path)
    meta = dict(meta or {})
    entries = []
    offset = 0
    with open(path, "wb") as f:
        for name in sorted(params):
            p = params[name]
            a = p.data if isinstance(p, DiffTensor) else np.asarray(p)
            raw = np.ascontiguousarray(a, dtype="<f4").tobytes()
            f.write(raw)
            entries.append({"name": name, "shape": list(a.shape), "offset": offset})
            offset += len(raw)
    manifest = {"params": entries, "meta": meta, "config_hash": config_hash(meta)}
    with open(path + ".json", "w") as f:
        json.dump(manifest, f, indent=1)


def load_params(path):
    """Inverse of save_params; returns (dict name -> float32 array, manifest).

    Raises ValueError when the manifest's config_hash does not match its
    meta, or the blob is not exactly as long as the entries it lists.
    """
    path = str(path)
    with open(path + ".json") as f:
        manifest = json.load(f)
    if manifest.get("config_hash") != config_hash(manifest.get("meta", {})):
        raise ValueError(f"checkpoint {path}: config_hash does not match the manifest meta")
    with open(path, "rb") as f:
        blob = f.read()
    expect = sum(int(np.prod(e["shape"])) * 4 for e in manifest["params"])
    if len(blob) != expect:
        raise ValueError(f"checkpoint {path}: payload holds {len(blob)} bytes, "
                         f"its entries need {expect}")
    out = {}
    for e in manifest["params"]:
        shape = tuple(e["shape"])
        n = int(np.prod(shape)) * 4
        chunk = blob[e["offset"]:e["offset"] + n]
        if len(chunk) != n:
            raise ValueError(f"checkpoint payload truncated for {e['name']!r}")
        out[e["name"]] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
    return out, manifest
