"""Minimal reverse-mode automatic differentiation over dense rank-5 tensors.

Tensors are (N, C, D, H, W) numpy arrays. Graphs are built define-by-run:
each op returns a new DiffTensor whose closure knows how to push gradients
to its parents, and backward() replays the closures in reverse topological
order. There is no broadcasting; binary ops require exactly matching
shapes. Storage is float32 by default (float64 supported for gradient
checking); reductions and cross-tile convolution accumulations run in
float64.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32

# conv tiles sized so one input slab stays cache-resident
_CONV_TILE_BYTES = 2 << 20


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

    def detach(self):
        return DiffTensor(self.data, requires_grad=False)

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


def _conv_out_dim(size, k, stride, padding):
    return (size + 2 * padding - k) // stride + 1


def conv3d(x, kernel, stride=1, padding=0):
    """Zero-padded cross-correlation with a (C_out, C_in, k, k, k) kernel.

    Implemented as one BLAS matmul per kernel offset, tiled along D so the
    working set stays cache-resident. Differentiable wrt both arguments.
    """
    Co, Ci, kd, kh, kw = kernel.shape
    if kd != kh or kh != kw:
        raise ValueError("conv3d: kernel must be cubic")
    if kd % 2 != 1:
        raise ValueError(f"conv3d: kernel size must be odd, got {kd}")
    if x.shape[1] != Ci:
        raise ValueError(f"conv3d: input has {x.shape[1]} channels, kernel expects {Ci}")
    N, _, D, H, W = x.shape
    Do = _conv_out_dim(D, kd, stride, padding)
    Ho = _conv_out_dim(H, kh, stride, padding)
    Wo = _conv_out_dim(W, kw, stride, padding)
    if min(Do, Ho, Wo) < 1:
        raise ValueError("conv3d: output would be empty")
    dt = x.dtype

    xp = np.pad(x.data, ((0, 0), (0, 0)) + ((padding, padding),) * 3)
    # channels-last copy so per-offset slabs reshape into GEMM operands
    xcl = np.ascontiguousarray(xp.transpose(0, 2, 3, 4, 1))
    kmats = np.ascontiguousarray(kernel.data.transpose(2, 3, 4, 1, 0))  # (kd,kh,kw,Ci,Co)

    slab = max(1, _CONV_TILE_BYTES // (Ho * Wo * max(Ci, Co) * dt.itemsize))
    ocl = np.empty((N, Do, Ho, Wo, Co), dtype=dt)

    row = N * Ho * Wo

    def _offset_slab(src, d0, d1, i, j, l, ci):
        # contiguous (N*(d1-d0)*Ho*Wo, ci) copy of one kernel-offset slab
        view = src[:, d0 * stride + i:(d1 - 1) * stride + i + 1:stride,
                   j:j + stride * Ho:stride, l:l + stride * Wo:stride, :]
        return np.ascontiguousarray(view).reshape((d1 - d0) * row, ci)

    for d0 in range(0, Do, slab):
        d1 = min(d0 + slab, Do)
        acc = ocl[:, d0:d1].reshape((d1 - d0) * row, Co)
        tmp = np.empty_like(acc)
        first = True
        for i in range(kd):
            for j in range(kh):
                for l in range(kw):
                    xs2 = _offset_slab(xcl, d0, d1, i, j, l, Ci)
                    if first:
                        np.matmul(xs2, kmats[i, j, l], out=acc)
                        first = False
                    else:
                        np.matmul(xs2, kmats[i, j, l], out=tmp)
                        acc += tmp
    out = np.ascontiguousarray(ocl.transpose(0, 4, 1, 2, 3))

    def bwd(g):
        gcl = np.ascontiguousarray(g.transpose(0, 2, 3, 4, 1))
        need_k = kernel.requires_grad
        need_x = x.requires_grad
        gk = np.zeros((kd, kh, kw, Ci, Co), dtype=np.float64) if need_k else None
        gx = np.zeros_like(xcl) if need_x else None
        for d0 in range(0, Do, slab):
            d1 = min(d0 + slab, Do)
            gs = gcl[:, d0:d1].reshape((d1 - d0) * row, Co)
            for i in range(kd):
                for j in range(kh):
                    for l in range(kw):
                        if need_k:
                            xs2 = _offset_slab(xcl, d0, d1, i, j, l, Ci)
                            gk[i, j, l] += xs2.T @ gs
                        if need_x:
                            contrib = gs @ kmats[i, j, l].T
                            view = gx[:, d0 * stride + i:(d1 - 1) * stride + i + 1:stride,
                                      j:j + stride * Ho:stride, l:l + stride * Wo:stride, :]
                            view += contrib.reshape(N, d1 - d0, Ho, Wo, Ci)
        if need_k:
            kernel.accumulate_grad(gk.transpose(4, 3, 0, 1, 2).astype(dt), own=True)
        if need_x:
            gx = gx.transpose(0, 4, 1, 2, 3)
            if padding:
                gx = gx[:, :, padding:padding + D, padding:padding + H, padding:padding + W]
            x.accumulate_grad(np.ascontiguousarray(gx), own=True)

    return _result(out, (x, kernel), bwd, "conv3d")


# ---------------------------------------------------------------------------
# resampling


def _interp_matrix(n_in, n_out, dtype):
    """Half-pixel (align-corners-false) 1D linear interpolation matrix."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    if n_in == 1:
        m[:, 0] = 1.0
        return m
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.clip(np.floor(src).astype(np.int64), 0, n_in - 2)
    t = src - i0
    m[np.arange(n_out), i0] = (1.0 - t).astype(dtype)
    m[np.arange(n_out), i0 + 1] += t.astype(dtype)
    return m


def _apply_axis_matrix(a, m, axis):
    # y[..., o, ...] = sum_i m[o, i] * a[..., i, ...]
    out = np.tensordot(a, m, axes=([axis], [1]))
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))


def resize_target_dims(spatial, factor):
    return tuple(int(math.ceil(s * factor - 1e-9)) for s in spatial)


def trilinear_resize(x, factor=None, target=None):
    """Trilinear (separable linear) resize of the spatial dims.

    Either a scale factor or explicit target (D,H,W) dims must be given.
    """
    if (factor is None) == (target is None):
        raise ValueError("trilinear_resize: give exactly one of factor/target")
    D, H, W = x.shape[2:]
    if target is None:
        target = resize_target_dims((D, H, W), float(factor))
    target = tuple(int(t) for t in target)
    if min(target) < 1:
        raise ValueError(f"trilinear_resize: empty output dims {target}")
    if target == (D, H, W):
        def bwd_id(g):
            x.accumulate_grad(g)
        return _result(x.data.copy(), (x,), bwd_id, "resize")

    mats = [_interp_matrix(s_in, s_out, x.dtype)
            for s_in, s_out in zip((D, H, W), target)]
    y = x.data
    for axis, m in zip((2, 3, 4), mats):
        y = _apply_axis_matrix(y, m, axis)

    def bwd(g):
        gg = g
        for axis, m in zip((2, 3, 4), mats):
            gg = _apply_axis_matrix(gg, m.T, axis)
        x.accumulate_grad(gg)

    return _result(y, (x,), bwd, "resize")


def _pool_axis(a, factor, axis):
    n = a.shape[axis]
    bounds = np.arange(0, n, factor)
    sizes = np.diff(np.append(bounds, n))
    shape = [1] * a.ndim
    shape[axis] = len(bounds)
    sums = np.add.reduceat(a, bounds, axis=axis)
    return sums / sizes.reshape(shape).astype(a.dtype), sizes


def avg_pool3d(x, factor):
    """Average-pool spatial dims by an integer factor (ragged tail allowed)."""
    factor = int(factor)
    if factor < 1:
        raise ValueError("avg_pool3d: factor must be >= 1")
    if factor == 1:
        def bwd_id(g):
            x.accumulate_grad(g)
        return _result(x.data.copy(), (x,), bwd_id, "avg_pool")
    y = x.data
    all_sizes = []
    for axis in (2, 3, 4):
        y, sizes = _pool_axis(y, factor, axis)
        all_sizes.append(sizes)

    def bwd(g):
        gg = g
        for axis, sizes in zip((2, 3, 4), all_sizes):
            shape = [1] * gg.ndim
            shape[axis] = len(sizes)
            gg = np.repeat(gg / sizes.reshape(shape).astype(gg.dtype), sizes, axis=axis)
        x.accumulate_grad(gg)

    return _result(np.ascontiguousarray(y), (x,), bwd, "avg_pool")


def gaussian_kernel1d(window, dtype=np.float64):
    """Truncated, renormalized Gaussian; radius (window-1)/2, sigma window/4."""
    if window % 2 != 1:
        raise ValueError(f"gaussian window must be odd, got {window}")
    r = (window - 1) // 2
    sigma = window / 4.0
    t = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k /= k.sum()
    return k.astype(dtype)


def filter_separable(a, k1d):
    """Zero-padded correlation with the same 1D kernel along each spatial axis.

    Works on raw (.., D, H, W) arrays; the last three axes are filtered.
    """
    r = (len(k1d) - 1) // 2
    k = k1d.astype(a.dtype)
    out = a
    for axis in range(a.ndim - 3, a.ndim):
        pad = [(0, 0)] * a.ndim
        pad[axis] = (r, r)
        ap = np.pad(out, pad)
        acc = np.zeros_like(out)
        sl = [slice(None)] * a.ndim
        n = out.shape[axis]
        for t in range(len(k)):
            sl[axis] = slice(t, t + n)
            acc += k[t] * ap[tuple(sl)]
        out = acc
    return out


def gaussian_filter(x, window):
    """Separable Gaussian smoothing as a differentiable op (self-adjoint)."""
    k1d = gaussian_kernel1d(window)
    y = filter_separable(x.data, k1d)

    def bwd(g):
        x.accumulate_grad(filter_separable(g, k1d))

    return _result(y, (x,), bwd, "gauss")


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
