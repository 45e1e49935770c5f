"""Hash what a refactor must keep bit for bit, to compare two source trees.

Run it from the root of each checkout, with the same thread count on both:

    OPENBLAS_NUM_THREADS=1 python tools/fingerprint.py

It imports `regadapt` from the `src/` next to this file. The first line is
the OPENBLAS_NUM_THREADS it ran under (read before NumPy loads OpenBLAS,
since conv3d's kernel gradient depends on it); then each case prints its
name and the first 16 hex digits of a sha256 over the dtype, shape and
bytes of every array it produces. Two trees agree on a case iff the lines
match. The cases:
- `step/<config>/<dims>`: one cascade step, with non-zero final layers and
  a random phi_0, for three CascadeConfigs on 16^3, 13x17x11 and 24^3
  pairs. It prints two hashes: `values=` over the final field, every
  stage warp and the loss parts, and `grads=` over every parameter
  gradient, so a change that moves only the kernel gradients' last bits
  (their float64 sums are partitioned by the conv3d tiling) still shows
  its values bit for bit;
- `register_pair/32`: three IO steps of the default cascade at 32^3 with
  Dice in the loop: the field, each step's record, the NDV;
- `pretrain/24`: four pretraining steps on two 24^3 pairs: the loss
  history and every parameter after;
- `iterate_backbone/32`: the variational backbone, k = 2, on a 32^3
  inverted-contrast pair: the field and its total_loss parts;
- `conv3d/<layer>/<dims>`: every conv3d layer shape of the default cascade
  on 24^3, 32^3 and 48^3 pairs, each under the first net and layer that
  has it, on random float32 input, kernel and output gradient. It prints
  `fwd=`, `dx=` and `dk=` apart, so a conv3d change can be checked layer
  by layer;
- `warp/<C>/<dims>`: warp_tensor of a C = 1 or 3 channel float32 volume on
  ragged grids with a 1-voxel axis (the larger spans two autodiff blocks),
  by a random field that leaves the grid and puts every third voxel's
  sample on whole voxels. It prints `values=`, `dv=` and `du=` apart;
- `points/<dims>`: sample_field_at_points at interior, last-plane and
  out-of-bounds points.
"""

import os
import sys

THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from regadapt import autodiff as ad  # noqa: E402
from regadapt import fields as fa  # noqa: E402
from regadapt import losses  # noqa: E402
from regadapt import pipeline as pl  # noqa: E402
from regadapt import unet  # noqa: E402
from regadapt.volume_io import synth_problem  # noqa: E402

CONFIGS = {
    "cascade-compose": unet.CascadeConfig(base_channels=4, depth=2, seed=1),
    "single-add": unet.CascadeConfig(variant="single", update_mode="add", base_channels=4,
                                     depth=3, seed=2),
    "all-residuals": unet.CascadeConfig(scale_mode="all_residuals", output_scale=0.1,
                                        base_channels=3, depth=3, seed=3),
}
STEP_DIMS = ((16, 16, 16), (13, 17, 11), (24, 24, 24))
CONV_DIMS = (24, 32, 48)
SAMPLE_DIMS = ((5, 1, 7), (37, 1000, 1))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def report_arrays(report):
    return [np.asarray(report.sim), np.asarray([report.reg, report.total])]


def cascade_step(cfg, dims):
    prob = synth_problem(7, dims=dims)
    rng = np.random.default_rng(11)
    phi0 = rng.uniform(-0.3, 0.3, (1, 3) + dims).astype(np.float32)
    casc = unet.init_cascade(cfg)
    for net in casc.nets:
        w = net["final.w"]
        w.data[:] = rng.standard_normal(w.shape).astype(np.float32) * 0.05
    phis, warps = unet.cascade_forward(phi0, prob.phantom, prob.fixed, casc)
    loss, report = losses.total_loss_graph(warps, ad._lift(prob.fixed), phis[-1])
    values = digest(phis[-1].data, *(w.data for w in warps), *report_arrays(report))
    loss.backward()
    params = casc.named_params()
    return f"values={values} grads={digest(*(params[name].grad for name in sorted(params)))}"


def register():
    prob = synth_problem(3, dims=(32, 32, 32))
    res = pl.register_pair(prob.phantom, prob.fixed, cfg=pl.IOConfig(steps=3, dice_every=1),
                           moving_labels=prob.labels, fixed_labels=prob.fixed_labels)
    steps = [np.asarray(s.sim + [s.reg, s.total, s.lr, -1.0 if s.dice is None else s.dice])
             for s in res.trace.steps]
    return digest(res.field.data, *steps, np.asarray([res.trace.final_ndv, res.trace.best_step]))


def pretrain():
    problems = [(p.phantom, p.fixed) for p in (synth_problem(s, dims=(24, 24, 24)) for s in (4, 5))]
    casc = pl.IOConfig().make_cascade()
    history = pl.pretrain_refiners(problems, casc, steps=4, lr=1e-4, seed=2)
    params = casc.named_params()
    return digest(np.asarray(history), *(params[name].data for name in sorted(params)))


def backbone():
    prob = synth_problem(6, dims=(32, 32, 32), contrast="inverted")
    spec = pl.BackboneSpec(kind="variational")
    phi = pl.iterate_backbone(spec, prob.remapped, prob.fixed, 2)
    report = losses.total_loss([fa.warp(prob.remapped, phi)], prob.fixed, phi,
                               lam=spec.lam, window=spec.window)
    return digest(phi.data, *report_arrays(report))


def conv_cases():
    """(name, x shape, kernel shape) of each distinct conv3d layer shape of
    the default cascade on CONV_DIMS cubes. Net t pools its input by
    1/scale and level i by 2**(i-1) more, each keeping a ragged last block."""
    cfg, seen = unet.CascadeConfig(), set()
    for n in CONV_DIMS:
        for t, s in enumerate(cfg.scales, start=1):
            for layer, co, ci, k in unet._conv_layers(cfg):
                level = 1 if layer == "final" else int(layer[3])
                g = -(-n // (round(1 / s) * 2 ** (level - 1)))
                shapes = ((1, ci, g, g, g), (co, ci, k, k, k))
                if shapes not in seen:
                    seen.add(shapes)
                    yield f"conv3d/net{t}.{layer}/{n}x{n}x{n}", *shapes


def conv(xs, ks):
    rng = np.random.default_rng(13)
    x = ad.DiffTensor(rng.standard_normal(xs).astype(np.float32), requires_grad=True)
    std = np.sqrt(2.0 / np.prod(ks[1:]))
    w = ad.DiffTensor((rng.standard_normal(ks) * std).astype(np.float32), requires_grad=True)
    out = ad.conv3d(x, w, stride=1, padding=ks[2] // 2)
    out._backward(rng.standard_normal(out.shape).astype(np.float32))
    return f"fwd={digest(out.data)} dx={digest(x.grad)} dk={digest(w.grad)}"


def warp_case(C, dims):
    rng = np.random.default_rng(17)
    v = ad.DiffTensor(rng.standard_normal((1, C) + dims).astype(np.float32), requires_grad=True)
    u = rng.uniform(-2.0, 2.0, (1, 3) + dims).astype(np.float32)
    every_third = u.reshape(3, -1)[:, ::3]
    every_third[:] = np.round(every_third)
    u = ad.DiffTensor(u, requires_grad=True)
    out = fa.warp_tensor(v, u)
    out._backward(rng.standard_normal(out.shape).astype(np.float32))
    return f"values={digest(out.data)} dv={digest(v.grad)} du={digest(u.grad)}"


def points_case(dims):
    rng = np.random.default_rng(19)
    u = rng.standard_normal((3,) + dims).astype(np.float32)
    top = np.asarray(dims, np.float64) - 1
    inner = rng.uniform(0.0, 1.0, (8, 3)) * top
    last = inner.copy()
    last[np.arange(8), np.arange(8) % 3] = top[np.arange(8) % 3]
    outside = rng.uniform(-3.0, 3.0, (8, 3)) + np.where(rng.random((8, 3)) < 0.5, 0.0, top)
    return digest(fa.sample_field_at_points(u, np.concatenate([inner, last, outside])))


def main():
    print(f"OPENBLAS_NUM_THREADS={THREADS}")
    for name, cfg in CONFIGS.items():
        for dims in STEP_DIMS:
            print(f"step/{name}/{'x'.join(map(str, dims))} {cascade_step(cfg, dims)}")
    print(f"register_pair/32 {register()}")
    print(f"pretrain/24 {pretrain()}")
    print(f"iterate_backbone/32 {backbone()}")
    for name, xs, ks in conv_cases():
        print(f"{name} {conv(xs, ks)}")
    for dims in SAMPLE_DIMS:
        for C in (1, 3):
            print(f"warp/{C}/{'x'.join(map(str, dims))} {warp_case(C, dims)}")
        print(f"points/{'x'.join(map(str, dims))} {points_case(dims)}")


if __name__ == "__main__":
    main()
