"""Minimal reverse-mode automatic differentiation over dense rank-5 tensors.

Tensors are (N, C, D, H, W) numpy arrays. Graphs are built define-by-run:
each op returns a new DiffTensor whose closure knows how to push gradients
to its parents, and backward() replays the closures in reverse topological
order. backward() consumes the graph: once a node's closure has run, the
node drops its gradient, closure and parents, so what backward has used is
freed as it goes. Leaves (parameters, and inputs made with requires_grad)
keep their gradients. Each graph gets one backward() call; a second one
raises RuntimeError. The graph keeps every node's value unless the code
that built it knows nothing reads it again: _release swaps that buffer for a
zero-stride view of the same shape and dtype (the U-Net releases its conv3d
outputs and decoder resizes). There is no broadcasting; binary ops require
exactly matching shapes. Storage is float32 by default (float64 supported for
gradient checking); per-channel bias sums and the conv3d kernel-gradient
accumulation run in float64. conv3d runs stride 1 only, with one kernel path
for its forward pass and both gradients: channels-first GEMMs, (C_out, k*C)
weights times (k*C, cols) column shifts of the flattened padded grid, so no
pass transposes between layouts. Every gradient it returns is C-contiguous;
it keeps no padded copy in the graph and rebuilds it for the kernel gradient.
Every separable linear op (resize, average pooling, Gaussian filtering) is
one cached (n_out, n_in) matrix per spatial axis, applied by _apply_axes as
one matmul per axis; the graph ops among them (resize, pooling) apply the
transposed matrices in backward. The engine does no file I/O: parameter
checkpoints are read and written by volume_io.

BLAS threads: until the weights are updated, only conv3d's kernel gradient
(one `a @ gp.T` GEMM per column tile) depends on OPENBLAS_NUM_THREADS, so
bit-identity checks and accuracy tables fix the thread count and record it.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32

# output voxels (GEMM columns) per conv3d tile; the wide operands are built per tile
_CONV_TILE_ROWS = 4096
# elements per block of a chain of voxelwise passes: 128 KB per float32 temporary, in L2
_BLOCK = 32768


def _blocks(n, unit=1):
    """Slices of range(n), each of _BLOCK // unit items (at least one)."""
    step = max(1, _BLOCK // unit)
    return (slice(s, min(s + step, n)) for s in range(0, n, step))


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
        """Reverse-topological gradient accumulation from this scalar node.

        Consumes the graph: each node is popped in reverse topological order,
        and once its closure has run it drops its gradient, closure and
        parents. Leaves keep their gradients. A graph gets one backward()
        call; another one on any of its nodes raises RuntimeError.
        """
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
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _consumed, ()

    def __repr__(self):
        return f"DiffTensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"


def _consumed(g):
    """The backward rule a node keeps once backward() has consumed its graph."""
    raise RuntimeError("backward() through a graph an earlier backward() consumed; build it again")


def _result(data, parents, backward, op):
    rg = any(p.requires_grad for p in parents)
    if not rg:
        return DiffTensor(data, requires_grad=False, op=op)
    return DiffTensor(data, requires_grad=True, parents=parents, backward=backward, op=op)


def _release(node):
    """Drop the buffer behind an op's output whose value nothing reads again.

    node.data becomes a read-only zero-stride view of zeros with the same
    shape and dtype, so shape, dtype, accumulate_grad and the node's
    backward closure work as before and gradients route unchanged. Only for
    values no later op, backward closure or caller reads: a read returns
    zeros. Raises ValueError on a leaf, whose data its owner keeps.
    """
    if node.op == "leaf":
        raise ValueError("_release: a leaf keeps its data")
    node.data = np.broadcast_to(np.zeros((), dtype=node.dtype), node.shape)


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


# ---------------------------------------------------------------------------
# pointwise ops


def add(x, y):
    if x.shape != y.shape:
        raise ValueError(f"add: shape mismatch {x.shape} vs {y.shape}")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if y.requires_grad:
            y.accumulate_grad(g)

    return _result(x.data + y.data, (x, y), bwd, "add")


def scale(x, s):
    s = float(s)

    def bwd(g):
        x.accumulate_grad(g * s)

    return _result(x.data * np.asarray(s, dtype=x.dtype), (x,), bwd, "scale")


def leaky_relu(x, slope=0.2, bias=None):
    """leaky(x + bias) into one output array; bias is an optional per-channel
    (1, C, 1, 1, 1) tensor, as for bias_add. The backward reads the sign of
    the output, which slope > 0 preserves, so no mask is kept."""
    if slope <= 0:
        raise ValueError(f"leaky_relu: slope must be positive, got {slope}")
    s = x.dtype.type(slope)
    parents = (x,)
    if bias is None:
        out = x.data.copy()
    else:
        _check_bias(x, bias, "leaky_relu")
        out = x.data + bias.data
        parents = (x, bias)
    np.multiply(out, s, out=out, where=out < 0)

    def bwd(g):
        gy = g.copy()
        np.multiply(gy, s, out=gy, where=out < 0)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_channel_sum(gy, bias.dtype), own=True)
        if x.requires_grad:
            x.accumulate_grad(gy, own=True)

    return _result(out, parents, bwd, "leaky_relu")


def _check_bias(x, b, op):
    if b.shape != (1, x.shape[1], 1, 1, 1):
        raise ValueError(f"{op}: bias shape {b.shape} incompatible with input {x.shape}")


def _channel_sum(g, dtype):
    """Per-channel float64 sum of g, shaped (1, C, 1, 1, 1) in dtype."""
    return g.sum(axis=(0, 2, 3, 4), keepdims=True, dtype=np.float64).astype(dtype)


def bias_add(x, b):
    """Add a per-channel bias of shape (1, C, 1, 1, 1)."""
    _check_bias(x, b, "bias_add")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(_channel_sum(g, b.dtype), own=True)

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


# ---------------------------------------------------------------------------
# convolution


def _flat_grid(a, grid, p, k):
    """Channels-first columns (N, C, Dp*Hp*Wp + tail) of the zero grid (Dp, Hp, Wp)
    that holds a (N, C, D, H, W) at offset p along each axis: kernel offset
    (i, j, l) is the column shift i*Hp*Wp + j*Wp + l, and the zero tail holds
    the columns the last offsets read past the grid. One plain copy of a into
    a zeroed buffer."""
    N, C = a.shape[:2]
    Dp, Hp, Wp = grid
    n = Dp * Hp * Wp
    flat = np.zeros((N, C, n + (k - 1) * (Wp + 1)), dtype=a.dtype)
    box = tuple(slice(p, p + d) for d in a.shape[2:])
    flat[:, :, :n].reshape(N, C, Dp, Hp, Wp)[(slice(None), slice(None)) + box] = a
    return flat


def _wide_tiles(flat, grid, k):
    """Yield (n, r0, r1, ops) per tile of stride-1 output columns on the
    padded H/W grid: ops[i*k + j], the (k*C, r1-r0) operand of offsets
    (i, j, 0..k-1), is a column slice of one wide tile that stacks k copies
    of the tile's columns, each shifted by one more column along W."""
    Dp, Hp, Wp = grid
    C = flat.shape[1]
    rows, halo = (Dp - k + 1) * Hp * Wp, (k - 1) * (Hp * Wp + Wp)
    for n in range(flat.shape[0]):
        for r0 in range(0, rows, _CONV_TILE_ROWS):
            r1 = min(r0 + _CONV_TILE_ROWS, rows)
            wide = np.empty((k * C, r1 - r0 + halo), dtype=flat.dtype)
            for l in range(k):
                wide[l * C:(l + 1) * C] = flat[n, :, r0 + l:r1 + halo + l]
            yield n, r0, r1, [wide[:, i * Hp * Wp + j * Wp:][:, :r1 - r0]
                              for i in range(k) for j in range(k)]


def _correlate(flat, grid, w, k):
    """Stride-1 valid cross-correlation of a _flat_grid with w (k*k, Co, k*C):
    out[n, :, r0:r1] = sum_ij w[ij] @ ops[ij] per tile.

    Returns a channels-first (N, Co, Dp-k+1, Hp-k+1, Wp-k+1) view that crops
    the columns computed on the padded H/W grid.
    """
    Dp, Hp, Wp = grid
    out = np.empty((flat.shape[0], w.shape[1], (Dp - k + 1) * Hp * Wp), dtype=flat.dtype)
    for n, r0, r1, ops in _wide_tiles(flat, grid, k):
        acc = out[n, :, r0:r1]
        tmp = np.empty_like(acc)
        np.matmul(w[0], ops[0], out=acc)
        for a, b in zip(w[1:], ops[1:]):
            np.matmul(a, b, out=tmp)
            acc += tmp
    return out.reshape(-1, w.shape[1], Dp - k + 1, Hp, Wp)[:, :, :, :Hp - k + 1, :Wp - k + 1]


def conv3d(x, kernel, stride=1, padding=0):
    """Zero-padded cross-correlation with a (C_out, C_in, k, k, k) kernel.

    Everything stays channels-first. Each column tile of the flattened padded
    input costs k*k GEMMs (C_out, k*C_in) @ (k*C_in, cols), and the output
    and input gradient are crop copies of _correlate's result. The input
    gradient runs the same _correlate on the zero-bordered output gradient
    with the flipped, transposed kernel; the kernel gradient multiplies the
    same wide tiles with the transposed output gradient tile, accumulating
    in float64. The graph keeps the input node, not its padded copy: the
    backward rebuilds the padded operand, and only when the kernel needs a
    gradient. stride must be 1. Differentiable wrt both arguments.
    """
    if stride != 1:
        raise ValueError(f"conv3d: only stride 1 is supported, got {stride}")
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
    dt, p = x.dtype, padding

    grid = (D + 2 * p, H + 2 * p, W + 2 * p)
    w = kernel.data.transpose(2, 3, 0, 4, 1).reshape(k * k, Co, k * Ci)
    out = np.ascontiguousarray(_correlate(_flat_grid(x.data, grid, p, k), grid, w, k))
    D1, H1, W1 = out.shape[2:]

    def bwd(g):
        if kernel.requires_grad:
            # g on the padded H/W grid, zero on the columns the forward cropped
            gp = np.zeros((N, Co, D1, grid[1], grid[2]), dtype=dt)
            gp[:, :, :, :H1, :W1] = g
            gp = gp.reshape(N, Co, -1)
            gk = np.zeros((k * k, k * Ci, Co), dtype=np.float64)
            for n, r0, r1, ops in _wide_tiles(_flat_grid(x.data, grid, p, k), grid, k):
                for ij, a in enumerate(ops):
                    gk[ij] += a @ gp[n, :, r0:r1].T
            gk = gk.reshape(k, k, k, Ci, Co).transpose(4, 3, 0, 1, 2)
            kernel.accumulate_grad(np.ascontiguousarray(gk, dtype=dt), own=True)
        if x.requires_grad:
            # g in a k-1-p zero border
            gridb = (D + k - 1, H + k - 1, W + k - 1)
            kf = kernel.data[:, :, ::-1, ::-1, ::-1]
            wb = kf.transpose(2, 3, 1, 4, 0).reshape(k * k, Ci, k * Co)
            gx = _correlate(_flat_grid(g, gridb, k - 1 - p, k), gridb, wb, k)
            x.accumulate_grad(np.ascontiguousarray(gx), own=True)

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


def trilinear_resize(x, target):
    """Trilinear (separable linear) resize of the spatial dims to target (D, H, W)."""
    dims = x.shape[2:]
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
    if window < 1 or window % 2 != 1:
        raise ValueError(f"gaussian window must be positive and odd, got {window}")
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
