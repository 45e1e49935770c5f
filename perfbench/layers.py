"""Per-layer metrics from a span trace, and the GEMM calibration.

Every figure is per unit of work: per registered pair on register-48 and
backbone-xc-64, per pretraining step on pretrain-24. Seconds are self time
(span minus children) unless the name says otherwise: `unet.net*.fwd_s`
and the `pipeline.*` stage figures are inclusive, because they time a
whole stage. A `.bwd` span and everything under it counts as backward.
"""

import time
from collections import defaultdict

import numpy as np

GROUPS = {
    "conv3d": ("conv3d",),
    "epilogue": ("bias_add", "leaky_relu", "concat_channels", "pad_spatial", "crop_spatial",
                 "instance_norm"),
    "resample": ("trilinear_resize", "avg_pool3d", "resize_array"),
    "gaussian_filter": ("gaussian_filter", "filter_separable", "gaussian_kernel1d"),
    "elementwise": ("add", "sub", "mul", "neg", "square", "sqrt", "div", "scale", "add_scalar",
                    "scale_channels", "reduce_sum", "reduce_mean", "reduce", "pointwise"),
}
_GROUP_OF = {f"autodiff.{op}": g for g, ops in GROUPS.items() for op in ops}
OP_LAYERS = ("autodiff.", "fields.", "losses.", "metrics.", "volume_io.")
PROGRAM = OP_LAYERS + ("unet.", "pipeline.")  # spans of program functions, not of the benchmark
STAGES = {
    "pipeline.gate.s": ("losses.modality_gate",),
    "pipeline.style.s": ("pipeline.apply_style",),
    "pipeline.backbone.s": ("pipeline.backbone_predict", "pipeline.iterate_backbone"),
    "pipeline.instance_optimize.s": ("pipeline.instance_optimize",),
    "pipeline.pretrain.s": ("pipeline.pretrain_refiners",),
}
LOADS = ("volume_io.load_volume", "volume_io.load_labels", "volume_io.load_landmarks")
SAVES = ("volume_io.save_field",)
_FALLBACK_GEMM = (16384, 64, 64)  # calibrates machine.gemm_gflops when no conv ran


class WorkHooks:
    """Work counted per span in the traced run: conv flops, filter and file bytes.

    conv3d does one (rows, C_in) x (C_in, C_out) matmul per kernel offset
    and depth tile, so its flops are 2 * N*Do*Ho*Wo * C_out * C_in * k^3
    forward, and that again for each of the two gradients backward needs.
    The GEMM shapes it ran are kept for the calibration.
    """

    def __init__(self, tile_bytes):
        self.tile_bytes = tile_bytes
        self.flops = defaultdict(float)  # (rows, C_in, C_out) -> flops, forward plus backward

    def conv3d(self, args, kwargs, out):
        x, kernel = args[0], args[1]
        co, ci, k = kernel.shape[0], kernel.shape[1], kernel.shape[2]
        n, _, do, ho, wo = out.shape
        fwd = 2.0 * n * do * ho * wo * co * ci * k ** 3
        bwd = fwd * (int(x.requires_grad) + int(kernel.requires_grad))
        slab = max(1, self.tile_bytes // (ho * wo * max(ci, co) * out.dtype.itemsize))
        self.flops[(min(slab, do) * n * ho * wo, ci, co)] += fwd + bwd
        return fwd, bwd

    @staticmethod
    def filter_separable(args, kwargs, out):
        # three axis passes, each reading its input and writing its output once
        return 6.0 * args[0].nbytes, None

    @staticmethod
    def loaded_bytes(args, kwargs, out):
        if hasattr(out, "moving"):
            return float(out.moving.nbytes + out.fixed.nbytes), None
        return float(out.data.nbytes), None

    @staticmethod
    def saved_bytes(args, kwargs, out):
        return float(args[0].data.nbytes), None

    def hooks(self):
        h = {"autodiff.conv3d": self.conv3d, "autodiff.filter_separable": self.filter_separable,
             "volume_io.save_field": self.saved_bytes}
        h.update({name: self.loaded_bytes for name in LOADS})
        return h


def gemm_gflops(flops_by_shape, min_seconds=0.02):
    """GFLOP/s of np.matmul on the given GEMM shapes, weighted by their flops.

    Each shape is timed best-of-three over enough repeats to last
    min_seconds; the result is total flops over total predicted time, the
    rate the conv's own mix of GEMMs reaches when nothing else runs.
    """
    if not flops_by_shape:
        flops_by_shape = {_FALLBACK_GEMM: 1.0}
    rng = np.random.default_rng(0)
    total_flops = total_time = 0.0
    for (rows, ci, co), work in flops_by_shape.items():
        a = rng.standard_normal((rows, ci), dtype=np.float32)
        b = rng.standard_normal((ci, co), dtype=np.float32)
        c = np.empty((rows, co), dtype=np.float32)
        np.matmul(a, b, out=c)
        reps = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(reps):
                np.matmul(a, b, out=c)
            dt = time.perf_counter() - t0
            if dt >= min_seconds:
                break
            reps *= 2
        best = dt
        for _ in range(2):
            t0 = time.perf_counter()
            for _ in range(reps):
                np.matmul(a, b, out=c)
            best = min(best, time.perf_counter() - t0)
        rate = 2.0 * rows * ci * co * reps / best
        total_flops += work
        total_time += work / rate
    return total_flops / total_time / 1e9


def layer_metrics(tr, units, wall, overhead_s, machine_gflops):
    """Every per-layer figure, per unit of work, from a finished trace."""
    names, parents = tr.names, tr.parents
    durs = [e - s for s, e in zip(tr.starts, tr.ends)]
    selfs, in_bwd = tr.self_times()
    per = 1.0 / units

    self_by = defaultdict(float)
    group = defaultdict(float)
    work_by = defaultdict(float)
    calls = defaultdict(int)
    for i, name in enumerate(names):
        self_by[name] += selfs[i]
        base = name[:-4] if name.endswith(".bwd") else name
        g = _GROUP_OF.get(base)
        if g is not None:
            group[(g, in_bwd[i])] += selfs[i]
            work_by[g] += tr.work.get(i, 0.0)
        if i in tr.work:
            work_by[name] += tr.work[i]
        calls[name] += 1

    m = {}
    for g in GROUPS:
        m[f"autodiff.{g}.fwd_s"] = group[(g, False)] * per
        m[f"autodiff.{g}.bwd_s"] = group[(g, True)] * per
    conv_s = group[("conv3d", False)] + group[("conv3d", True)]
    conv_gflops = work_by["conv3d"] / conv_s / 1e9 if conv_s > 0 else 0.0
    m["autodiff.conv3d.calls"] = calls["autodiff.conv3d"] * per
    m["autodiff.conv3d.gflops"] = conv_gflops
    m["autodiff.conv3d.bwd_fwd_ratio"] = (group[("conv3d", True)] / group[("conv3d", False)]
                                          if group[("conv3d", False)] > 0 else 0.0)
    m["autodiff.conv3d.peak_frac"] = conv_gflops / machine_gflops
    m["autodiff.conv3d.share"] = conv_s / wall
    gauss_s = group[("gaussian_filter", False)] + group[("gaussian_filter", True)]
    m["autodiff.gaussian_filter.gbs"] = work_by["gaussian_filter"] / gauss_s / 1e9 if gauss_s > 0 else 0.0
    m["autodiff.adam_step.s"] = self_by["autodiff.adam_step"] * per
    m["autodiff.backward.dispatch_s"] = self_by["autodiff.backward"] * per
    n_bwd = calls["autodiff.backward"]
    nodes = sum(1 for i, p in enumerate(parents)
                if p >= 0 and names[p] == "autodiff.backward" and names[i].endswith(".bwd"))
    m["autodiff.nodes_per_step"] = nodes / n_bwd if n_bwd else 0.0
    m["machine.gemm_gflops"] = machine_gflops

    nets = [0.0, 0.0, 0.0]
    seen = defaultdict(int)
    for i, name in enumerate(names):
        p = parents[i]
        if name == "unet.unet_forward" and p >= 0 and names[p] == "unet.cascade_forward":
            k = seen[p]
            seen[p] += 1
            if k < 3:
                nets[k] += durs[i]
    for k in range(3):
        m[f"unet.net{k + 1}.fwd_s"] = nets[k] * per

    m["fields.warp_tensor.fwd_s"] = self_by["fields.warp_tensor"] * per
    m["fields.warp_tensor.bwd_s"] = self_by["fields.warp_tensor.bwd"] * per
    for fn in ("warp", "compose", "upsample_field"):
        m[f"fields.{fn}.s"] = self_by[f"fields.{fn}"] * per
    m["fields.ndv.s"] = (self_by["fields.ndv"] + self_by["fields.jacobian_det"]) * per
    for fn in ("lncc", "diffusion_reg", "total_loss_graph", "gate_lncc"):
        m[f"losses.{fn}.s"] = self_by[f"losses.{fn}"] * per
    gate_values = [v for i, v in tr.values.items() if names[i] == "losses.gate_lncc"]
    m["losses.gate_lncc.value"] = float(np.mean(gate_values)) if gate_values else 0.0

    for metric, spans in STAGES.items():
        total = 0.0
        for i, name in enumerate(names):
            if name in spans and not _has_ancestor(i, parents, names, spans):
                total += durs[i]
        m[metric] = total * per
    for fn in ("evaluate_pair", "dice", "hd95"):
        m[f"metrics.{fn}.s"] = self_by[f"metrics.{fn}"] * per
    m["volume_io.load.s"] = sum(self_by[n] for n in LOADS) * per
    m["volume_io.save.s"] = sum(self_by[n] for n in SAVES) * per
    m["volume_io.bytes"] = sum(work_by[n] for n in LOADS + SAVES) * per

    m["trace.coverage"] = _outermost_time(names, parents, durs, PROGRAM) / wall
    m["trace.op_coverage"] = _outermost_time(names, parents, durs, OP_LAYERS) / wall
    m["trace.overhead_s"] = overhead_s
    return m


def unit_of(name):
    """The unit a per-layer metric is reported in, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith(".gbs"):
        return "GB/s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith((".calls", "nodes_per_step")):
        return "count"
    if name.endswith(".value"):
        return "lncc"
    return "ratio"


def _outermost_time(names, parents, durs, prefix):
    """Seconds under spans whose name starts with prefix, each moment counted once."""
    return sum(durs[i] for i, name in enumerate(names)
               if name.startswith(prefix) and not _has_ancestor(i, parents, names, prefix=prefix))


def _has_ancestor(i, parents, names, spans=(), prefix=None):
    p = parents[i]
    while p >= 0:
        if names[p] in spans or (prefix is not None and names[p].startswith(prefix)):
            return True
        p = parents[p]
    return False
