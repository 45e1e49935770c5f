"""End-to-end registration: initialization, gating, instance optimization.

A frozen backbone supplies the initial field phi_0; when the low-res LNCC
gate detects a contrast gap, both inputs are routed through a style
transfer first. The refinement cascade is then optimized per pair with
Adam over its own parameters only; phi_0 is never touched.
"""

import dataclasses
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import fields as fa
from . import losses
from . import unet as un
from .autodiff import DiffTensor
from .fields import DisplacementField
from .volume_io import Volume3D, load_field, save_volume, load_volume


class RegistrationAbort(RuntimeError):
    """Numerical failure (non-finite loss/gradients) during optimization."""


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class BackboneSpec:
    """Initialization source: zero field, a field file, or a built-in
    coarse-to-fine variational solver (stand-in for a learned model)."""

    kind: str = "zero"
    path: str = None
    levels: int = 3
    iters: int = 30
    step: float = 0.15
    smooth_sigma: float = 2.0
    lam: float = 0.1
    window: int = 9

    def __post_init__(self):
        if self.kind not in ("zero", "file", "variational"):
            raise ValueError(f"unknown backbone kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("file backbone needs a path")
        if self.kind == "variational":
            if self.levels < 1 or self.iters < 1 or self.step <= 0 or self.smooth_sigma <= 0:
                raise ValueError("variational backbone hyperparameters must be positive")


@dataclass(frozen=True)
class StyleTransferSpec:
    """Contrast normalizer: monotone histogram remap, external command,
    or identity. The external command gets {in}/{out} .vol placeholders."""

    kind: str = "identity"
    reference: dict = None
    command: tuple = None

    def __post_init__(self):
        if self.kind not in ("identity", "monotone_remap", "external_command"):
            raise ValueError(f"unknown style kind {self.kind!r}")
        if self.kind == "monotone_remap" and not self.reference:
            raise ValueError("monotone_remap needs a reference histogram")
        if self.kind == "external_command" and not self.command:
            raise ValueError("external_command needs an argv template")


@dataclass(frozen=True)
class IOConfig:
    """Instance-optimization settings; defaults are the deployment values."""

    steps: int = 50
    base_lr: float = 5e-4
    warmup: int = 10
    lam: float = 0.1
    lncc_window: int = 9
    gate_window: int = 11
    tau: float = 0.4
    gate_down: int = 4
    seed: int = 0
    variant: str = "cascade"
    update_mode: str = "compose"
    scale_mode: str = "finest_residual"
    output_scale: float = 0.05
    dice_every: int = 5
    base_channels: int = 32
    depth: int = 3
    instance_norm: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (-1.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (-1, 1), got {self.tau}")
        for w in (self.lncc_window, self.gate_window):
            if w % 2 != 1:
                raise ValueError(f"windows must be odd, got {w}")

    def unet_config(self):
        return un.UNet3DConfig(base_channels=self.base_channels, depth=self.depth,
                               instance_norm=self.instance_norm)

    def make_cascade(self):
        return un.init_cascade(config=self.unet_config(), seed=self.seed,
                               variant=self.variant, update_mode=self.update_mode,
                               scale_mode=self.scale_mode, output_scale=self.output_scale)


@dataclass
class IOStep:
    """One IO step: the loss taken before its update, and that update's lr,
    which is 0.0 where none ran (a numerical failure, or the last step)."""

    step: int
    sim: list
    reg: float
    total: float
    lr: float
    elapsed_ms: float
    dice: float = None

    def to_dict(self):
        d = {"step": self.step, "sim": self.sim, "reg": self.reg,
             "total": self.total, "lr": self.lr, "elapsed_ms": self.elapsed_ms}
        if self.dice is not None:
            d["dice"] = self.dice
        return d


@dataclass
class IOTrace:
    """Per-step loss records plus run-level outcomes."""

    steps: list = field(default_factory=list)
    gate_fired: bool = None
    best_step: int = -1
    final_ndv: float = None
    error: str = None


# ---------------------------------------------------------------------------
# backbone


def backbone_predict(spec, moving, fixed):
    """Initial field phi_0 for a pair; the backbone itself stays frozen."""
    if moving.dims != fixed.dims:
        raise ValueError(f"backbone: dims mismatch {moving.dims} vs {fixed.dims}")
    if spec.kind == "zero":
        return DisplacementField.zero(moving.dims)
    if spec.kind == "file":
        u = load_field(spec.path)
        if u.dims != moving.dims:
            raise ValueError(f"field file dims {u.dims} do not match volumes {moving.dims}")
        return u
    return _variational_field(spec, moving, fixed)


def _variational_field(spec, moving, fixed):
    """Coarse-to-fine descent on a smoothed field minimizing -LNCC + lam*reg.

    Gradients are normalized by their peak magnitude so `step` is a
    per-iteration displacement budget in voxels; each iterate is Gaussian
    smoothed, which keeps the field diffeomorphic in practice.
    """
    dims = moving.dims
    factors = [2 ** (spec.levels - 1 - i) for i in range(spec.levels)]
    u = None
    for f in factors:
        ia_t = ad.avg_pool3d(ad._lift(moving), f)
        ib_t = ad.avg_pool3d(ad._lift(fixed), f)
        ldims = ia_t.shape[2:]
        if u is None:
            u = np.zeros((3,) + ldims, dtype=np.float32)
        else:
            u = fa.upsample_field(u, target=ldims)
        for _ in range(spec.iters):
            ut = DiffTensor(u[None], requires_grad=True)
            try:
                warped = fa.warp_tensor(ia_t, ut)
            except FloatingPointError as e:
                raise RegistrationAbort(f"variational backbone diverged ({e})") from None
            loss = ad.add(ad.neg(losses.lncc(warped, ib_t, spec.window)),
                          ad.scale(losses.diffusion_reg(ut), spec.lam))
            if not np.isfinite(loss.item()):
                raise RegistrationAbort("variational backbone diverged (non-finite loss)")
            loss.backward()
            g = ut.grad[0]
            peak = float(np.abs(g).max())
            if peak > 0:
                u = u - (spec.step / peak) * g
            u = _ndi_gaussian(u, spec.smooth_sigma)
    return DisplacementField(u.astype(np.float32))


_ndi_gaussian = ad.gaussian_reflect  # looked up at call time, so tests can replace it


def iterate_backbone(spec, moving, fixed, k):
    """Repeated backbone application on the re-warped source (baseline)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    phi = backbone_predict(spec, moving, fixed)
    for _ in range(k - 1):
        warped = fa.warp(moving, phi)
        delta = backbone_predict(spec, warped, fixed)
        phi = fa.compose(phi, delta)
    return phi


# ---------------------------------------------------------------------------
# contrast normalization


def reference_histogram(volume, bins=256):
    """Intensity histogram usable as a monotone_remap reference."""
    data = volume.data if hasattr(volume, "spacing") else np.asarray(volume)
    counts, edges = np.histogram(data.reshape(-1), bins=bins)
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def _profile_correlation(h1, h2):
    a = np.asarray(h1, dtype=np.float64)
    b = np.asarray(h2, dtype=np.float64)
    a = a - a.mean()
    b = b - b.mean()
    den = np.sqrt((a * a).sum() * (b * b).sum())
    return float((a * b).sum() / den) if den > 0 else 0.0


def monotone_remap(volume, reference):
    """Histogram-match intensities onto the reference by quantile mapping.

    Each voxel's quantile is its midrank, (#below + #at-or-below) / 2n.
    For a volume matched onto its own histogram the midrank lies strictly
    inside the CDF step of the voxel's bin, so the value stays within one
    bin width even next to empty bins, where the reference CDF plateaus.

    If the volume's histogram profile correlates better with the reversed
    reference profile than the direct one, the volume is intensity-flipped
    first (inverting map), then matched monotonically.
    """
    data = volume.data.astype(np.float64)
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        raise ValueError("monotone_remap: constant volume has no quantiles")
    ref_counts = np.asarray(reference["counts"], dtype=np.float64)
    ref_edges = np.asarray(reference["edges"], dtype=np.float64)
    own_counts, _ = np.histogram(data.reshape(-1), bins=len(ref_counts))
    r_direct = _profile_correlation(own_counts, ref_counts)
    r_flipped = _profile_correlation(own_counts, ref_counts[::-1])
    if r_flipped > r_direct:
        data = hi - data + lo
    vals = data.reshape(-1)
    flat = np.sort(vals)
    n = flat.size
    quantiles = (np.searchsorted(flat, vals, side="left")
                 + np.searchsorted(flat, vals, side="right")) / (2.0 * n)
    ref_cdf = np.concatenate([[0.0], np.cumsum(ref_counts) / max(ref_counts.sum(), 1)])
    mapped = np.interp(quantiles, ref_cdf, ref_edges)
    out = mapped.reshape(volume.data.shape).astype(np.float32)
    return dataclasses.replace(volume, data=out)


def _run_external_style(volume, command):
    with tempfile.TemporaryDirectory(prefix="regadapt_style_") as tmp:
        in_path = os.path.join(tmp, "in.vol")
        out_path = os.path.join(tmp, "out.vol")
        save_volume(volume, in_path)
        argv = [a.replace("{in}", in_path).replace("{out}", out_path) for a in command]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"style command {argv} failed ({proc.returncode}): {proc.stderr.strip()}")
        out = load_volume(out_path)
    if out.dims != volume.dims:
        raise ValueError(f"style command output dims {out.dims} != input {volume.dims}")
    return out


def apply_style(volume, spec):
    if spec.kind == "identity":
        return volume
    if spec.kind == "monotone_remap":
        return monotone_remap(volume, spec.reference)
    return _run_external_style(volume, list(spec.command))


def gated_preprocess(moving, fixed, style, gate_window=11, tau=0.4, down=4):
    """Route both volumes through the style transfer iff the gate fires.

    When it fires, the returned pair replaces the originals for backbone
    input and every similarity term; metrics stay on labels/landmarks and
    are unaffected.
    """
    if moving.dims != fixed.dims:
        raise ValueError(f"gated_preprocess: dims mismatch {moving.dims} vs {fixed.dims}")
    fired = losses.modality_gate(moving, fixed, window=gate_window, tau=tau, down=down)
    if not fired:
        return moving, fixed, False
    return apply_style(moving, style), apply_style(fixed, style), True


# ---------------------------------------------------------------------------
# instance optimization


def _mean_dice(moving_labels, fixed_labels, field_data):
    from .metrics import dice  # local import to avoid a module cycle

    warped = fa.warp_labels_array(moving_labels.data, field_data)
    _, mean = dice(dataclasses.replace(moving_labels, data=warped), fixed_labels)
    return mean


def _train_step(cascade, params, state, inputs, cfg, lr, warmup, update=True):
    """One Adam step on the cascade: forward, total loss, backward, update.

    inputs is (phi0, moving, fixed) as graph leaves. Returns (field, report,
    lr, error), where field is the final (3, D, H, W) array the loss was
    taken at; the graph itself is not returned, so it is freed before the
    next step. error is None or names the numerical failure: a non-finite
    displacement in the forward pass, a non-finite loss, or a non-finite
    gradient. On a failure no parameter moves and lr is 0.0; report is None
    unless the loss was finite. update=False only evaluates: no backward
    and no update run, so no gradient is checked, and lr is 0.0.
    """
    try:
        phis, warps = un.cascade_forward(*inputs, cascade)
    except FloatingPointError as e:
        return None, None, 0.0, str(e)
    field = phis[-1].data[0]
    loss, report = losses.total_loss_graph(
        warps, inputs[2], phis[-1], lam=cfg.lam, window=cfg.lncc_window)
    if not np.isfinite(report.total):
        return field, None, 0.0, "non-finite loss"
    for p in params.values():
        p.zero_grad()
    if not update:
        return field, report, 0.0, None
    loss.backward()
    try:
        return field, report, ad.adam_step(params, state, lr, warmup), None
    except ad.GradientError as e:
        return field, report, 0.0, str(e)


def instance_optimize(moving, fixed, phi0, cascade, cfg, moving_labels=None,
                      fixed_labels=None):
    """Adam-optimize the cascade parameters for one pair (backbone frozen).

    Step t takes the loss before its own update, and the field returned is
    the best one evaluated, so the last step only evaluates: it runs no
    backward and no update, and records lr 0.0, as a failed step does.
    Returns the best-loss full-resolution field and the step trace. On a
    non-finite displacement, loss or gradient the loop aborts, flags the
    trace with the failure and its step, and returns the best state seen
    so far. The last step computes no gradient, so a non-finite one there
    is never seen and does not abort the run.
    """
    if moving.dims != fixed.dims or phi0.dims != moving.dims:
        raise ValueError("instance_optimize: volume/field dims must match")
    params = cascade.named_params()
    state = ad.AdamState()
    trace = IOTrace()
    inputs = (ad._lift(phi0), ad._lift(moving), ad._lift(fixed))
    best_total = np.inf
    best_field = phi0.data.copy()
    want_dice = cfg.dice_every > 0 and moving_labels is not None and fixed_labels is not None
    for t in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        field, report, lr, error = _train_step(
            cascade, params, state, inputs, cfg, cfg.base_lr, cfg.warmup, update=t < cfg.steps)
        if report is not None:
            if report.total < best_total:
                best_total = report.total
                best_field = field.copy()
                trace.best_step = t
            rec = IOStep(step=t, sim=report.sim, reg=report.reg, total=report.total,
                         lr=lr, elapsed_ms=(time.perf_counter() - t0) * 1e3)
            if error is None and want_dice and t % cfg.dice_every == 0:
                rec.dice = _mean_dice(moving_labels, fixed_labels, field)
            trace.steps.append(rec)
        if error is not None:
            trace.error = f"{error} at step {t}"
            break
    out_field = DisplacementField(best_field)
    trace.final_ndv = fa.ndv(out_field)
    return out_field, trace


def pretrain_refiners(problems, cascade, steps=1000, lr=1e-5, seed=0,
                      backbone=None, cfg=None):
    """Warm up the cascade: one gradient step per pair, cycling a seeded
    shuffle of the problem list at a fixed learning rate (no warmup).

    problems: list of (moving, fixed) Volume3D pairs. Returns the per-step
    loss history; steps that fail numerically are skipped and recorded as None.
    """
    if not problems:
        raise ValueError("pretrain_refiners: empty problem list")
    cfg = cfg or IOConfig()
    backbone = backbone or BackboneSpec(kind="zero")
    params = cascade.named_params()
    state = ad.AdamState()
    order = np.random.default_rng(int(seed)).permutation(len(problems))
    history = []
    cache = {}
    for step in range(int(steps)):
        idx = int(order[step % len(order)])
        if idx not in cache:
            moving, fixed = problems[idx]
            cache[idx] = (ad._lift(backbone_predict(backbone, moving, fixed)),
                          ad._lift(moving), ad._lift(fixed))
        _, report, _, error = _train_step(cascade, params, state, cache[idx], cfg, lr, 0)
        history.append(None if error else report.total)
    return history


# ---------------------------------------------------------------------------
# one-call pipeline


@dataclass
class RegistrationResult:
    field: DisplacementField
    trace: IOTrace
    phi0: DisplacementField
    preprocessed: tuple = None


def register_pair(moving, fixed, cfg=None, backbone=None, style=None,
                  moving_labels=None, fixed_labels=None, cascade=None):
    """Gate -> backbone -> instance optimization, as deployed."""
    cfg = cfg or IOConfig()
    backbone = backbone or BackboneSpec(kind="zero")
    style = style or StyleTransferSpec(kind="identity")
    j_moving, j_fixed, fired = gated_preprocess(
        moving, fixed, style, gate_window=cfg.gate_window, tau=cfg.tau,
        down=cfg.gate_down)
    phi0 = backbone_predict(backbone, j_moving, j_fixed)
    cascade = cascade or cfg.make_cascade()
    out_field, trace = instance_optimize(
        j_moving, j_fixed, phi0, cascade, cfg,
        moving_labels=moving_labels, fixed_labels=fixed_labels)
    trace.gate_fired = fired
    return RegistrationResult(field=out_field, trace=trace, phi0=phi0,
                              preprocessed=(j_moving, j_fixed))
