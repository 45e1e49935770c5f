"""Multi-scale residual refiners: 3D U-Nets composed onto an initial field.

Three networks predict residual displacement fields at quarter, half, and
full resolution, each from one tensor, the stage's pooled (warped, target)
pair; each residual is upsampled to the full grid and either composed onto
or added to the running field. Each U-Net has `depth` convolved resolution
levels: the encoder pools before each level after the first, the coarsest
level `enc{depth}` is the bottleneck, and decoders `dec{depth-1}` ... `dec1`
climb back up, so every pooled grid is convolved. Each net runs unpadded on
its input's own grid: pooling keeps a ragged last block where a dim is odd,
and each decoder level resizes to its skip's shape. Final conv layers are
zero-initialized so a fresh cascade reproduces the initialization exactly.

The seven settings that shape a cascade are declared once, in `CascadeConfig`:
`pipeline.IOConfig` inherits them, and a checkpoint's meta is exactly its fields.
Every settings dataclass checks all its fields with `_check_settings` when built.
"""

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fields as fa
from .autodiff import DiffTensor
from .volume_io import VolumeIOError, load_params, save_params

CASCADE_SCALES = (0.25, 0.5, 1.0)

# the allowed values of each mode setting; the first is the default
MODES = {
    "variant": ("cascade", "single"),
    "update_mode": ("compose", "add"),
    "scale_mode": ("finest_residual", "all_residuals"),
}


def _check_settings(cfg, low, odd=()):
    """Check each field of the frozen dataclass cfg, storing int and float fields as
    their type: a bool is neither, a float is finite (an int too large is not), a
    MODES field holds one of its values, one in low meets its bound, one in odd is odd."""
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if f.type in (int, float):
            kind, word = ((numbers.Integral, "an int") if f.type is int
                          else (numbers.Real, "a finite float"))
            if isinstance(val, bool) or not isinstance(val, kind) or f.type is float and not (
                    abs(val) <= sys.float_info.max if isinstance(val, int)  # no float() overflow
                    else math.isfinite(val)):
                raise ValueError(f"{f.name} must be {word}, got {val!r}")
            object.__setattr__(cfg, f.name, val := f.type(val))
        if f.name in MODES and val not in MODES[f.name]:
            raise ValueError(f"unknown {f.name} {val!r} (use {' | '.join(MODES[f.name])})")
        if f.name in low and val < low[f.name]:
            raise ValueError(f"{f.name} must be >= {low[f.name]}, got {val}")
        if f.name in odd and val % 2 != 1:
            raise ValueError(f"{f.name} must be odd, got {val}")


@dataclass(frozen=True)
class CascadeConfig:
    """The seven settings that shape a refiner cascade and their defaults; a
    checkpoint's meta is exactly these fields. _check_settings checks them."""

    variant: str = MODES["variant"][0]
    update_mode: str = MODES["update_mode"][0]
    scale_mode: str = MODES["scale_mode"][0]
    output_scale: float = 0.05
    base_channels: int = 32
    depth: int = 3
    seed: int = 0
    LOW = {"base_channels": 1, "depth": 1, "seed": 0}  # their lower bounds; not a field

    def __post_init__(self):
        _check_settings(self, self.LOW)

    @property
    def scales(self):
        return (1.0,) if self.variant == "single" else CASCADE_SCALES

    def cascade_config(self):
        """The CascadeConfig part of this config (of a subclass too)."""
        return CascadeConfig(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(CascadeConfig)})


def _conv_layers(cfg):
    """Ordered (name, C_out, C_in, k) for every conv in the network.

    The input is the (warped, target) pair, 2 channels; the output is a
    3-channel displacement. Encoder level i has base_channels * 2**(i-1)
    channels; enc{depth} is the bottleneck and has no decoder of its own.
    Decoder level i takes the level below, resized, next to the skip from
    enc{i}. At depth 1 the net is enc1 and the final projection.
    """
    layers = []
    c_prev = 2
    enc_ch = []
    for i in range(1, cfg.depth + 1):
        c = cfg.base_channels * (2 ** (i - 1))
        layers.append((f"enc{i}.conv1", c, c_prev, 3))
        layers.append((f"enc{i}.conv2", c, c, 3))
        enc_ch.append(c)
        c_prev = c
    for i in range(cfg.depth - 1, 0, -1):
        c = enc_ch[i - 1]
        layers.append((f"dec{i}.conv1", c, c_prev + c, 3))
        layers.append((f"dec{i}.conv2", c, c, 3))
        c_prev = c
    layers.append(("final", 3, c_prev, 1))
    return layers


def _param_shapes(cfg):
    """Ordered {name: shape} of every parameter: each conv's `.w`, then its `.b`."""
    shapes = {}
    for name, co, ci, k in _conv_layers(cfg):
        shapes[f"{name}.w"] = (co, ci, k, k, k)
        shapes[f"{name}.b"] = (1, co, 1, 1, 1)
    return shapes


def init_unet_params(cfg, rng):
    """He-style fan-in init for hidden conv weights, zeros for biases and the final conv."""
    params = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".b") or name == "final.w":
            a = np.zeros(shape, dtype=np.float32)
        else:
            std = math.sqrt(2.0 / math.prod(shape[1:]))
            a = (rng.standard_normal(shape) * std).astype(np.float32)
        params[name] = DiffTensor(a, requires_grad=True)
    return params


def unet_forward(params, x, cfg):
    """Predict a 3-channel residual field from one (1, 2, D, H, W) tensor.

    The output has the input's spatial dims. The encoder pools before each
    level after the first, so `cfg.depth` levels are convolved and every
    pooled grid is; enc{depth} is the bottleneck. Nothing is padded: pooling
    keeps a ragged last block (a dim of 5 pools to 3), and each decoder
    level resizes to its skip's shape. Hidden convs add their bias inside
    leaky_relu; only the final projection uses bias_add.

    The graph keeps only values a backward reads: every conv's input (x,
    each pooled tensor, each decoder concat and each activation, which
    leaky_relu's backward also reads). Each conv3d output is released once
    its bias and activation are applied, and each decoder resize once it is
    concatenated: no backward reads those values.
    """
    def block(x, prefix):
        for conv in ("conv1", "conv2"):
            c = ad.conv3d(x, params[f"{prefix}.{conv}.w"], stride=1, padding=1)
            x = ad.leaky_relu(c, bias=params[f"{prefix}.{conv}.b"])
            ad._release(c)
        return x

    skips = []
    for i in range(1, cfg.depth + 1):
        if skips:
            x = ad.avg_pool3d(x, 2)
        x = block(x, f"enc{i}")
        skips.append(x)
    for i in range(cfg.depth - 1, 0, -1):
        skip = skips[i - 1]
        r = ad.trilinear_resize(x, target=skip.shape[2:])
        x = ad.concat_channels([r, skip])
        ad._release(r)
        x = block(x, f"dec{i}")
    c = ad.conv3d(x, params["final.w"], stride=1, padding=0)
    out = ad.bias_add(c, params["final.b"])
    ad._release(c)
    return out


@dataclass
class RefineCascade:
    """Refiner parameter sets and the CascadeConfig they were built under."""

    nets: list
    config: CascadeConfig

    def __post_init__(self):
        if len(self.nets) != len(self.scales):
            raise ValueError(f"{self.config.variant} variant needs {len(self.scales)} nets, "
                             f"got {len(self.nets)}")

    @property
    def scales(self):
        return self.config.scales

    def named_params(self):
        out = {}
        for t, net in enumerate(self.nets, start=1):
            for name, p in net.items():
                out[f"net{t}.{name}"] = p
        return out


def init_cascade(config=None):
    """Seed-deterministic cascade under the CascadeConfig part of config
    (default: CascadeConfig()); zero final layers make it the identity."""
    cfg = (config or CascadeConfig()).cascade_config()
    rng = np.random.default_rng(cfg.seed)
    return RefineCascade(nets=[init_unet_params(cfg, rng) for _ in cfg.scales], config=cfg)


def cascade_forward(phi0, moving, target, cascade):
    """Run every refinement stage; returns (field nodes, stage warp nodes).

    Stage t warps the moving image by the running field, pools it and the target
    to the stage scale, has the net predict a residual there from their concat
    (warped first), rescales it to full resolution, and updates the field by
    composition or addition. The output-magnitude factor multiplies the
    finest-stage residual (or every residual under scale_mode="all_residuals").
    """
    phi_prev, mv, tg = ad._lift(phi0), ad._lift(moving), ad._lift(target)
    full_dims = mv.shape[2:]
    if tg.shape[2:] != full_dims or phi_prev.shape[2:] != full_dims:
        raise ValueError("cascade_forward: moving/target/phi0 dims must match")
    cfg, phis, warps = cascade.config, [], []
    for s, net in zip(cascade.scales, cascade.nets):
        factor = int(round(1.0 / s))
        # I_A o phi_{t-1}: the previous stage's loss warp is the same node
        pair = [warps[-1] if warps else fa.warp_tensor(mv, phi_prev), tg]
        if factor > 1:
            pair = [ad.avg_pool3d(v, factor) for v in pair]
        resid = unet_forward(net, ad.concat_channels(pair), cfg)
        if cfg.scale_mode == "all_residuals" or s == 1.0:
            resid = ad.scale(resid, cfg.output_scale)
        if factor > 1:
            resid = fa.upsample_field(resid, target=full_dims)
        if cfg.update_mode == "compose":
            phi_t = fa.compose(phi_prev, resid)
        else:
            phi_t = ad.add(phi_prev, resid)
        phis.append(phi_t)
        warps.append(fa.warp_tensor(mv, phi_t))
        phi_prev = phi_t
    return phis, warps


# checkpoint helpers


def save_cascade(cascade, path):
    """Write the parameters, with the cascade's CascadeConfig fields as the meta."""
    save_params(path, cascade.named_params(), meta=dataclasses.asdict(cascade.config))


def load_cascade(path):
    """Rebuild a cascade from a checkpoint written by save_cascade.

    Raises VolumeIOError unless the meta holds exactly the CascadeConfig
    fields and the parameters are exactly those, with the shapes, that its
    nets have under that config, so a checkpoint of a differently configured
    or differently built network never loads.
    """
    arrays, manifest = load_params(path)
    meta = manifest["meta"]
    want = {f.name for f in dataclasses.fields(CascadeConfig)}
    if set(meta) != want:
        raise VolumeIOError(f"checkpoint {path}: meta keys differ from a cascade's: "
                            f"extra {sorted(set(meta) - want)}, missing {sorted(want - set(meta))}")
    try:
        cfg = CascadeConfig(**meta)
    except ValueError as e:
        raise VolumeIOError(f"checkpoint {path}: {e}") from None
    shapes = _param_shapes(cfg)
    net_ids = range(1, len(cfg.scales) + 1)
    want = {f"net{t}.{name}": shape for t in net_ids for name, shape in shapes.items()}
    for name, a in arrays.items():
        if name not in want:
            raise VolumeIOError(f"checkpoint {path}: {name!r} is no parameter of this cascade")
        if a.shape != want[name]:
            raise VolumeIOError(f"checkpoint {path}: {name!r} has shape {list(a.shape)}, "
                                f"this cascade needs {list(want[name])}")
    for name in want:
        if name not in arrays:
            raise VolumeIOError(f"checkpoint {path}: lacks parameter {name!r}")
    nets = [{name: DiffTensor(arrays[f"net{t}.{name}"], requires_grad=True) for name in shapes}
            for t in net_ids]
    return RefineCascade(nets=nets, config=cfg)
