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
for its forward pass and both gradients: per column tile of a channels-first
grid whose rows and planes share their zero padding, one GEMM stacks the
weights of all k*k (D, H) kernel offsets, and its row blocks are shift-added
into the output in a fixed order. Each tensor it pads (the input, and once
per backward the output gradient) has that one layout, and each result is
compacted in place to C-contiguous. The graph keeps no padded copy.
Every separable linear op (resize, average pooling, Gaussian filtering) is
one cached (n_out, n_in) matrix per spatial axis, applied by _apply_axes as
one matmul per axis; the graph ops among them (resize, pooling) apply the
transposed matrices in backward. The engine does no file I/O: parameter
checkpoints are read and written by volume_io.

BLAS threads: until the weights are updated, only conv3d's kernel gradient
(one `tile @ s.T` GEMM, (k*C_in, cols) @ (cols, k*k*C_out), per column tile,
on grids of about 8^3 voxels and up) depends on OPENBLAS_NUM_THREADS, so
bit-identity checks and accuracy tables fix the thread count and record it.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32

# input columns per conv3d tile at most, and the bytes one tile buffer may take
_CONV_TILE_ROWS = 4096
_CONV_TILE_BUFFER = 4 << 20
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


def _flat_grid(a, p, k):
    """(flat, start, grid): a (N, C, D, H, W) as channels-first columns
    (N, C, cols) for a k-tap correlation with zero padding p < k, whose output
    lies on grid = (D + 2p - k + 1, Hp, Wp), Hp = H + p, Wp = W + p. Each row
    is followed by p zero columns and each plane by p zero rows, so the gap
    after a row is also the left padding of the next; a margin of
    M = (k-1)*(Hp*Wp + Wp + 1) zeros, the most any pass reads, comes first
    and last. Counted from start = M - p*(Hp*Wp + Wp + 1), output voxel
    (d, h, w) is column d*Hp*Wp + h*Wp + w and offset (i, j, l) reads the
    column i*Hp*Wp + j*Wp + l further on."""
    N, C, D, H, W = a.shape
    Hp, Wp = H + p, W + p
    m = (k - 1) * (Hp * Wp + Wp + 1)
    flat = np.zeros((N, C, D * Hp * Wp + 2 * m), dtype=a.dtype)
    flat[:, :, m:m + D * Hp * Wp].reshape(N, C, D, Hp, Wp)[:, :, :, :H, :W] = a
    return flat, m - p * (Hp * Wp + Wp + 1), (D + 2 * p - k + 1, Hp, Wp)


def _tiles(flat, k, cols, rows):
    """Yield (n, q0, tile, spare) per tile of the columns q0.. below cols of
    flat: tile (k*C, t) stacks k copies of them, each shifted by one more
    column along W; spare is a free (rows, t) buffer. A tile takes
    _CONV_TILE_ROWS columns, fewer where a buffer would pass _CONV_TILE_BUFFER."""
    N, C = flat.shape[:2]
    step = _CONV_TILE_BUFFER // (max(rows, k * C) * flat.itemsize)
    step = max(1, min(_CONV_TILE_ROWS, step))
    buf, spare = np.empty((k * C, step), flat.dtype), np.empty((rows, step), flat.dtype)
    for n in range(N):
        for q0 in range(0, cols, step):
            t = min(step, cols - q0)
            for l in range(k):
                buf[l * C:(l + 1) * C, :t] = flat[n, :, q0 + l:q0 + l + t]
            yield n, q0, buf[:, :t], spare[:, :t]


def _correlate(flat, start, grid, w, k):
    """Stride-1 valid cross-correlation of a _flat_grid, read from start, with
    w (k*k*Co, k*C), whose row block ij = i*k + j holds the offsets (i, j,
    0..k-1): per tile of input columns q, one GEMM w @ tile, and block ij
    added into output column q - offset(ij). Block 0 is assigned and the
    others added in ij order, so each output column sums its terms in that
    order whatever the tiling. Returns (N, Co) + grid; gap columns hold garbage."""
    D1, Hp, Wp = grid
    N, Co, rows = flat.shape[0], w.shape[0] // (k * k), D1 * Hp * Wp
    offs = [i * Hp * Wp + j * Wp for i in range(k) for j in range(k)]
    out = np.empty((N, Co, rows), dtype=flat.dtype)
    for n, q0, tile, y in _tiles(flat[:, :, start:], k, rows + offs[-1], w.shape[0]):
        np.matmul(w, tile, out=y)
        for ij, off in enumerate(offs):
            a, b = max(q0 - off, 0), min(q0 + y.shape[1] - off, rows)
            if a < b:
                block = y[ij * Co:(ij + 1) * Co, a + off - q0:b + off - q0]
                if ij:
                    out[n, :, a:b] += block
                else:
                    out[n, :, a:b] = block
    return out.reshape(N, Co, *grid)


def _crop_in_place(a, crop):
    """a[..., :crop[0], :crop[1]] as a C-contiguous array in a's own buffer:
    the gap columns are compacted out one channel at a time, so numpy
    buffers only that channel's overlap, not a second array of a's size."""
    N, C, D1, Hp, Wp = a.shape
    size = D1 * crop[0] * crop[1]
    packed = a.reshape(-1)
    for m, channel in enumerate(a.reshape(N * C, D1, Hp, Wp)):
        packed[m * size:(m + 1) * size].reshape(D1, *crop)[...] = channel[:, :crop[0], :crop[1]]
    return packed[:N * C * size].reshape(N, C, D1, *crop)


def _kernel_grad(x, g, g_start, p, k):
    """The (Co, Ci, k, k, k) kernel gradient in x's dtype, for the output
    gradient laid out as g, g_start = _flat_grid(g, k-1-p, k)[:2]: per tile of
    x's columns, s stacks the k*k windows of g, each shifted back by its
    offset, and one GEMM tile @ s.T adds into a float64 (k*Ci, k*k*Co) sum."""
    flat, start, (D1, Hp, Wp) = _flat_grid(x, p, k)
    rows, offs = D1 * Hp * Wp, [i * Hp * Wp + j * Wp for i in range(k) for j in range(k)]
    # g's output column 0 sits at the margin both layouts share: start + g_start
    Co, m = g.shape[1], start + g_start
    gk = np.zeros((k * x.shape[1], k * k * Co))
    for n, q0, tile, s in _tiles(flat[:, :, start:], k, rows + offs[-1], k * k * Co):
        for ij, off in enumerate(offs):
            s[ij * Co:(ij + 1) * Co] = g[n, :, m + q0 - off:m + q0 - off + s.shape[1]]
        gk += tile @ s.T
    gk = gk.reshape(k, -1, k, k, Co).transpose(4, 1, 2, 3, 0)
    return np.ascontiguousarray(gk, dtype=x.dtype)


def conv3d(x, kernel, stride=1, padding=0):
    """Zero-padded cross-correlation with a (C_out, C_in, k, k, k) kernel.

    Everything stays channels-first, on _flat_grid's one layout. A tile of
    input columns costs one GEMM (k*k*C_out, k*C_in) @ (k*C_in, cols), and
    _correlate shift-adds its row blocks into the output, each output column
    summing its k*k terms in ij order, as one GEMM per offset did: values and
    input gradients do not depend on the tile size. The output and the input
    gradient are compacted in place (_crop_in_place). Backward lays the output
    gradient out once, k-1-p padded: _kernel_grad reads its windows (and
    rebuilds the padded input, only if the kernel needs a gradient), and the
    input gradient correlates it with the flipped, transposed kernel.
    stride must be 1. Differentiable wrt both arguments.
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
    D, H, W = x.shape[2:]
    if min(D, H, W) + 2 * padding < k:
        raise ValueError("conv3d: output would be empty")
    if padding >= k:
        raise ValueError(f"conv3d: padding {padding} must be below the kernel size {k}")
    p, H1, W1 = padding, H + 2 * padding - k + 1, W + 2 * padding - k + 1
    w = kernel.data.transpose(2, 3, 0, 4, 1).reshape(k * k * Co, k * Ci)
    out = _crop_in_place(_correlate(*_flat_grid(x.data, p, k), w, k), (H1, W1))

    def bwd(g):
        gl = _flat_grid(g, k - 1 - p, k)
        if kernel.requires_grad:
            kernel.accumulate_grad(_kernel_grad(x.data, gl[0], gl[1], p, k), own=True)
        if x.requires_grad:
            kf = kernel.data[:, :, ::-1, ::-1, ::-1]
            wb = kf.transpose(2, 3, 1, 4, 0).reshape(k * k * Ci, k * Co)
            x.accumulate_grad(_crop_in_place(_correlate(*gl, wb, k), (H, W)), own=True)

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
    """First/second moments per parameter plus the shared step counter. The
    betas and eps are constants of the class, not settings."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8


def adam_step(params, state, base_lr, warmup_steps=0):
    """One Adam update over a dict of named parameter tensors.

    Effective lr is base_lr * min(1, t / warmup_steps) with t starting at 1.
    A missing gradient counts as zeros. Raises GradientError on a non-finite
    gradient before any parameter, moment or t changes.
    """
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise GradientError(f"non-finite gradient for parameter {name!r}")
    t = state.t = state.t + 1
    lr = base_lr * min(1.0, t / warmup_steps) if warmup_steps > 0 else base_lr
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
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
