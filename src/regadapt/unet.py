"""Multi-scale residual refiners: 3D U-Nets composed onto an initial field.

Three networks predict residual displacement fields at quarter, half, and
full resolution; each residual is upsampled to the full grid and either
composed onto or added to the running field. Final conv layers are
zero-initialized so a fresh cascade reproduces the initialization exactly.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fields as fa
from .autodiff import DiffTensor

CASCADE_SCALES = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class UNet3DConfig:
    in_channels: int = 2
    out_channels: int = 3
    base_channels: int = 32
    depth: int = 3
    lrelu_slope: float = 0.2
    zero_init_final: bool = True
    instance_norm: bool = False

    def __post_init__(self):
        if self.depth < 1 or self.base_channels < 1:
            raise ValueError("depth and base_channels must be >= 1")


def _conv_layers(cfg):
    """Ordered (name, C_out, C_in, k) for every conv in the network."""
    layers = []
    c_prev = cfg.in_channels
    enc_ch = []
    for i in range(1, cfg.depth + 1):
        c = cfg.base_channels * (2 ** (i - 1))
        layers.append((f"enc{i}.conv1", c, c_prev, 3))
        layers.append((f"enc{i}.conv2", c, c, 3))
        enc_ch.append(c)
        c_prev = c
    up_ch = enc_ch[-1]
    for i in range(cfg.depth, 0, -1):
        c = enc_ch[i - 1]
        layers.append((f"dec{i}.conv1", c, up_ch + c, 3))
        layers.append((f"dec{i}.conv2", c, c, 3))
        up_ch = c
    layers.append(("final", cfg.out_channels, up_ch, 1))
    return layers


def unet_param_count(cfg):
    """Closed-form parameter count: sum of C_out*C_in*k^3 + C_out per conv."""
    return sum(co * ci * k ** 3 + co for _, co, ci, k in _conv_layers(cfg))


def init_unet_params(cfg, rng):
    """He-style fan-in init for hidden convs, zeros for the final conv."""
    params = {}
    for name, co, ci, k in _conv_layers(cfg):
        shape = (co, ci, k, k, k)
        if name == "final" and cfg.zero_init_final:
            w = np.zeros(shape, dtype=np.float32)
        else:
            std = math.sqrt(2.0 / (ci * k ** 3))
            w = (rng.standard_normal(shape) * std).astype(np.float32)
        params[f"{name}.w"] = DiffTensor(w, requires_grad=True)
        params[f"{name}.b"] = DiffTensor(np.zeros((1, co, 1, 1, 1), dtype=np.float32),
                                         requires_grad=True)
    return params


def unet_forward(params, warped, target, cfg=None):
    """Predict a 3-channel residual field from (warped source, target).

    Inputs are (1, 1, D, H, W) tensors sharing spatial dims; internally the
    volume is zero-padded to a multiple of 2^depth and cropped on output.
    """
    cfg = cfg or UNet3DConfig()
    if warped.shape != target.shape:
        raise ValueError(f"unet_forward: input dims differ {warped.shape} vs {target.shape}")
    x = ad.concat_channels([warped, target])
    if x.shape[1] != cfg.in_channels:
        raise ValueError(f"unet_forward: got {x.shape[1]} channels, expected {cfg.in_channels}")
    dims = x.shape[2:]
    mult = 2 ** cfg.depth
    pads = []
    for s in dims:
        extra = (-s) % mult
        pads.append((extra // 2, extra - extra // 2))
    padded = any(p != (0, 0) for p in pads)
    if padded:
        x = ad.pad_spatial(x, tuple(pads))

    def block(x, prefix):
        for conv in ("conv1", "conv2"):
            x = ad.conv3d(x, params[f"{prefix}.{conv}.w"], stride=1, padding=1)
            x = ad.bias_add(x, params[f"{prefix}.{conv}.b"])
            if cfg.instance_norm:
                x = ad.instance_norm(x)
            x = ad.leaky_relu(x, cfg.lrelu_slope)
        return x

    skips = []
    for i in range(1, cfg.depth + 1):
        x = block(x, f"enc{i}")
        skips.append(x)
        x = ad.avg_pool3d(x, 2)
    for i in range(cfg.depth, 0, -1):
        skip = skips[i - 1]
        x = ad.trilinear_resize(x, target=skip.shape[2:])
        x = ad.concat_channels([x, skip])
        x = block(x, f"dec{i}")
    x = ad.conv3d(x, params["final.w"], stride=1, padding=0)
    x = ad.bias_add(x, params["final.b"])
    if padded:
        x = ad.crop_spatial(x, tuple(pads))
    return x


@dataclass
class RefineCascade:
    """Refiner parameter sets plus the update-rule variant flags."""

    nets: list
    config: UNet3DConfig
    scales: tuple
    update_mode: str = "compose"
    variant: str = "cascade"
    output_scale: float = 0.05
    scale_mode: str = "finest_residual"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("cascade", "single"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.update_mode not in ("compose", "add"):
            raise ValueError(f"unknown update_mode {self.update_mode!r}")
        if self.scale_mode not in ("finest_residual", "all_residuals"):
            raise ValueError(f"unknown scale_mode {self.scale_mode!r}")
        expected = 1 if self.variant == "single" else len(CASCADE_SCALES)
        if len(self.nets) != expected:
            raise ValueError(f"{self.variant} variant needs {expected} nets, got {len(self.nets)}")
        if list(self.scales) != sorted(self.scales) or self.scales[-1] != 1.0:
            raise ValueError(f"scales must increase to 1, got {self.scales}")

    def named_params(self):
        out = {}
        for t, net in enumerate(self.nets, start=1):
            for name, p in net.items():
                out[f"net{t}.{name}"] = p
        return out

    def meta(self):
        return {
            "variant": self.variant,
            "update_mode": self.update_mode,
            "scale_mode": self.scale_mode,
            "scales": list(self.scales),
            "output_scale": self.output_scale,
            **dataclasses.asdict(self.config),
            "seed": self.seed,
        }


def init_cascade(config=None, seed=0, variant="cascade", update_mode="compose",
                 scale_mode="finest_residual", output_scale=0.05):
    """Seed-deterministic cascade; zero final layers make it the identity."""
    cfg = config or UNet3DConfig()
    scales = (1.0,) if variant == "single" else CASCADE_SCALES
    rng = np.random.default_rng(int(seed))
    nets = [init_unet_params(cfg, rng) for _ in scales]
    return RefineCascade(
        nets=nets, config=cfg, scales=scales, update_mode=update_mode,
        variant=variant, output_scale=float(output_scale), scale_mode=scale_mode,
        seed=int(seed),
    )


def cascade_forward(phi0, moving, target, cascade):
    """Run every refinement stage; returns (field nodes, stage warp nodes).

    Stage t warps the moving image by the running field, pools the pair to
    the stage scale, predicts a residual there, rescales it to full
    resolution, and updates the field by composition or addition. The
    output-magnitude factor multiplies the finest-stage residual (or every
    residual under scale_mode="all_residuals").
    """
    phi_prev, mv, tg = ad._lift(phi0), ad._lift(moving), ad._lift(target)
    full_dims = mv.shape[2:]
    if tg.shape[2:] != full_dims or phi_prev.shape[2:] != full_dims:
        raise ValueError("cascade_forward: moving/target/phi0 dims must match")
    phis, warps = [], []
    pooled_targets = {}
    for s, net in zip(cascade.scales, cascade.nets):
        factor = int(round(1.0 / s))
        # I_A o phi_{t-1}: the previous stage's loss warp is the same node
        warped_full = warps[-1] if warps else fa.warp_tensor(mv, phi_prev)
        if factor > 1:
            if min(d // factor for d in full_dims) < 1:
                raise ValueError(f"cascade_forward: scale {s} collapses dims {full_dims}")
            warped_s = ad.avg_pool3d(warped_full, factor)
            if factor not in pooled_targets:
                pooled_targets[factor] = ad.avg_pool3d(tg, factor)
            target_s = pooled_targets[factor]
        else:
            warped_s = warped_full
            target_s = tg
        resid = unet_forward(net, warped_s, target_s, cascade.config)
        scale_this = cascade.scale_mode == "all_residuals" or s == cascade.scales[-1]
        if scale_this:
            resid = ad.scale(resid, cascade.output_scale)
        if factor > 1:
            resid = fa.upsample_field(resid, target=full_dims)
        if cascade.update_mode == "compose":
            phi_t = fa.compose(phi_prev, resid)
        else:
            phi_t = ad.add(phi_prev, resid)
        phis.append(phi_t)
        warps.append(fa.warp_tensor(mv, phi_t))
        phi_prev = phi_t
    return phis, warps


# checkpoint helpers


def save_cascade(cascade, path):
    ad.save_params(path, cascade.named_params(), meta=cascade.meta())


def load_cascade(path):
    """Rebuild a cascade from a checkpoint written by save_cascade."""
    arrays, manifest = ad.load_params(path)
    meta = manifest["meta"]
    cfg = UNet3DConfig(**{f.name: meta[f.name] for f in dataclasses.fields(UNet3DConfig)})
    scales = tuple(meta["scales"])
    nets = [{} for _ in scales]
    for name, a in arrays.items():
        prefix, rest = name.split(".", 1)
        t = int(prefix[3:]) - 1
        nets[t][rest] = DiffTensor(a, requires_grad=True)
    return RefineCascade(
        nets=nets, config=cfg, scales=scales, update_mode=meta["update_mode"],
        variant=meta["variant"], output_scale=meta["output_scale"],
        scale_mode=meta["scale_mode"], seed=meta["seed"],
    )
