"""The three workloads. Each mirrors the calls one `regadapt` CLI command makes.

A workload writes its inputs from the seed (`prepare`), times the set-up
its first call needs (`setup`), and runs one unit of work at a time
(`run_unit`): a registered pair, or one pretraining job. Every unit
carries its own wall time, its accuracy figures and the output checks
that failed. `tr.span(name)` brackets each stage so a traced run can see
where the unit's time went, and the checks run under `tr.paused()` so
they stay out of the trace; an untraced run passes a tracer that records
nothing.
"""

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import inputs

_clock = time.perf_counter

# Bounds on (loss drop of the first Adam update) / (drop its gradients predict
# to first order). At the zero field every sample point sits on a grid node,
# where trilinear warping has a kink and the program's gradient is one-sided,
# so the prediction is only approximate: the unchanged program gives ratios
# of 1.04 to 1.69 on 16^3 to 48^3 inputs. A wrong sign, a gradient that does
# not belong to the forward pass, or a mis-scaled step (Adam without bias
# correction moves 3.2 times as far) falls outside.
FIRST_STEP_RATIO = (0.5, 3.0)
CONV_SAMPLES = 8  # output voxels of each conv3d call that the first-step checks recompute
CONV_RTOL = 1e-4  # allowed error, relative to the sum of |weight * input| at that voxel


@dataclass
class Unit:
    wall: float                # seconds the unit's stages took, checks excluded
    step_s: float              # seconds per optimisation step inside the unit
    steps: int                 # steps run (per-layer figures are per unit, or per step for pretraining)
    accuracy: dict = None      # end-to-end accuracy figures; None when not evaluated
    failures: list = field(default_factory=list)
    fingerprint: str = ""      # digest of every output, for the traced-vs-untraced check


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _epe(field_data, truth):
    d = field_data.astype(np.float64) - truth
    return float(np.sqrt((d * d).sum(axis=0)).mean())


def _first_step_problem(drop, predicted):
    ratio = drop / predicted if predicted > 0 else float("nan")
    if FIRST_STEP_RATIO[0] < ratio < FIRST_STEP_RATIO[1]:
        return []
    return [f"first update lowered the loss by {drop:.4g}, its gradients predict {predicted:.4g}"]


@contextmanager
def _checked_conv3d(ad):
    """Inside the block, every `autodiff.conv3d` call has its output checked
    at CONV_SAMPLES voxels against a direct float64 sum; yields the list of
    calls that mismatched. The program calls conv3d through the module, as
    `ad.conv3d`."""
    conv, problems = ad.conv3d, []
    rng = np.random.default_rng(0)

    def checked(x, kernel, stride=1, padding=0):
        out = conv(x, kernel, stride=stride, padding=padding)
        pad = ((0, 0), (0, 0)) + ((padding, padding),) * 3
        xd, k = np.pad(x.data.astype(np.float64), pad), kernel.data.astype(np.float64)
        kd, kh, kw = k.shape[2:]
        for n, od, oh, ow in zip(*(rng.integers(0, size, CONV_SAMPLES)
                                   for size in (out.shape[0],) + out.shape[2:])):
            d, h, w = od * stride, oh * stride, ow * stride
            patch = xd[n, :, d:d + kd, h:h + kh, w:w + kw]
            want = np.tensordot(k, patch, axes=4)
            scale = np.tensordot(np.abs(k), np.abs(patch), axes=4)
            err = np.abs(out.data[n, :, od, oh, ow] - want)
            if np.any(err > CONV_RTOL * scale + 1e-30):
                problems.append(f"conv3d {x.shape} * {k.shape} off by {err.max():.3g}")
                break
        return out

    ad.conv3d = checked
    try:
        yield problems
    finally:
        ad.conv3d = conv


def _field_checks(field_data, ndv_percent):
    fails = []
    if not np.all(np.isfinite(field_data)):
        fails.append("field has non-finite values")
    if ndv_percent != 0.0:
        fails.append(f"field folds: ndv {ndv_percent}%")
    return fails


class _Workload:
    """Shared plumbing: the program modules, the pair files, loading, accuracy."""

    per_step = False  # per-layer figures per unit; pretraining reports them per step

    def __init__(self, rg):
        self.rg = rg  # dict of imported regadapt modules
        self.files = []
        self.workdir = None

    def prepare(self, seed, workdir):
        self.workdir = workdir
        self.files = inputs.write_pairs(workdir, seed, self.n_pairs, self.dims, self.contrast)

    def _load_pair(self, f):
        vio = self.rg["volume_io"]
        return (vio.load_volume(f.moving), vio.load_volume(f.fixed),
                vio.load_labels(f.moving_labels), vio.load_labels(f.fixed_labels),
                vio.load_landmarks(f.landmarks))

    def _io_loss(self, cascade, mv, fx, phi0, backward=False):
        """Total loss of `cascade` on one pair, as an IO or pretraining step
        computes it; with backward, the gradients stay on the parameters."""
        ad, un, losses = self.rg["autodiff"], self.rg["unet"], self.rg["losses"]
        fx_t = ad.DiffTensor(fx.data[None, None])
        phis, warps = un.cascade_forward(ad.DiffTensor(phi0.data[None]),
                                         ad.DiffTensor(mv.data[None, None]), fx_t, cascade)
        loss, report = losses.total_loss_graph(warps, fx_t, phis[-1], lam=self.cfg.lam,
                                               window=self.cfg.lncc_window)
        if backward:
            for p in cascade.named_params().values():
                p.zero_grad()
            loss.backward()
        return report.total

    def _predicted_drop(self, cascade, lr):
        """Loss drop of Adam's first update to first order, from the gradients
        on `cascade`: that update moves each parameter by lr * g / (|g| + eps)
        against its gradient g."""
        eps = self.rg["autodiff"].AdamState().eps
        total = 0.0
        for p in cascade.named_params().values():
            if p.grad is not None:
                g = p.grad.astype(np.float64)
                total += float((g * g / (np.abs(g) + eps)).sum())
        return lr * total

    def _accuracy(self, field, truth, rep):
        """End-to-end accuracy of one output field; rep is its MetricReport."""
        return {"epe_vox": _epe(field.data, truth), "tre_mm": rep.tre_mean,
                "dice": rep.dice_mean,
                "jacdet_min": float(self.rg["fields"].jacobian_det(field).data.min())}


class Register(_Workload):
    """register-48: `regadapt register` on an identity-contrast pair, zero backbone."""

    name = "register-48"
    contrast = "identity"
    n_pairs = 2
    io_steps = 2

    def __init__(self, rg, tiny=False):
        super().__init__(rg)
        self.dims = (16,) * 3 if tiny else (48,) * 3
        self.cfg = rg["pipeline"].IOConfig(steps=self.io_steps, dice_every=self.io_steps)
        self.min_units = self.n_pairs

    def setup(self):
        t0 = _clock()
        self._load_pair(self.files[0])
        self.cfg.make_cascade()
        return _clock() - t0

    def run_unit(self, k, tr):
        pl, vio, mx = self.rg["pipeline"], self.rg["volume_io"], self.rg["metrics"]
        f = self.files[k % self.n_pairs]
        out_path = os.path.join(self.workdir, f"out{k % self.n_pairs}_field.vol")
        t0 = _clock()
        with tr.span("bench.load"):
            mv, fx, ml, fl, lms = self._load_pair(f)
        with tr.span("bench.register"):
            res = pl.register_pair(mv, fx, cfg=self.cfg, moving_labels=ml, fixed_labels=fl)
        with tr.span("bench.save"):
            vio.save_field(res.field, out_path, spacing=fx.spacing)
        with tr.span("bench.evaluate"):
            rep = mx.evaluate_pair(res.field, moving_labels=ml, fixed_labels=fl,
                                   landmarks=lms, pair_id=os.path.basename(f.moving),
                                   spacing=fx.spacing)
        wall = _clock() - t0

        trace = res.trace
        u = res.field.data
        fails = _field_checks(u, rep.ndv_percent)
        if trace.error is not None:
            fails.append(f"IO aborted: {trace.error}")
        if trace.gate_fired is not False:
            fails.append(f"gate fired on an identity-contrast pair ({trace.gate_fired})")
        totals = [s.total for s in trace.steps]
        if not (len(totals) == self.io_steps and all(np.isfinite(totals))
                and min(totals[1:]) < totals[0]):
            fails.append(f"IO did not lower the loss: {totals}")
        if trace.steps[-1].dice is None:
            fails.append("the in-loop Dice did not run")
        if k == 0 and not fails:
            with tr.paused():
                fails += self._first_step_check(res, totals)
        accuracy = None
        if k < self.n_pairs and not fails:
            with tr.paused():
                accuracy = self._accuracy(res.field, f.true_field, rep)
            # total loss shifted by the number of LNCC terms, so it is >= 0
            last = trace.steps[-max(1, self.io_steps // 2):]
            accuracy["train_loss"] = float(np.mean([s.total + len(s.sim) for s in last]))
        step_s = float(np.median([s.elapsed_ms for s in trace.steps])) / 1e3
        return Unit(wall=wall, step_s=step_s, steps=len(trace.steps), accuracy=accuracy,
                    failures=fails, fingerprint=_digest(u, totals, rep.to_dict()))

    def _first_step_check(self, res, totals):
        """Redo IO's first step from a fresh cascade: every conv3d output must
        match a direct sum, the loss must match the trace, and the drop to the
        second step must match the gradients."""
        jm, jf = res.preprocessed
        cascade = self.cfg.make_cascade()
        with _checked_conv3d(self.rg["autodiff"]) as conv_problems:
            loss0 = self._io_loss(cascade, jm, jf, res.phi0, backward=True)
        if conv_problems:
            return [f"{len(conv_problems)} conv3d calls wrong, first {conv_problems[0]}"]
        if loss0 != totals[0]:
            return [f"first IO loss {totals[0]} not reproduced: {loss0}"]
        lr = res.trace.steps[0].lr
        return _first_step_problem(totals[0] - totals[1], self._predicted_drop(cascade, lr))


class BackboneXC(_Workload):
    """backbone-xc-64: `regadapt baseline --strategy iterate --k 2 --backbone
    variational --style monotone:FIXED.vol` on an inverted-contrast pair,
    with the gate in front as `register` applies it."""

    name = "backbone-xc-64"
    contrast = "inverted"
    n_pairs = 2
    k = 2

    def __init__(self, rg, tiny=False):
        super().__init__(rg)
        pl = rg["pipeline"]
        self.dims = (32,) * 3 if tiny else (64,) * 3
        self.cfg = pl.IOConfig()
        self.spec = pl.BackboneSpec(kind="variational", iters=3 if tiny else 30)
        self.min_units = self.n_pairs

    def _style(self, path):
        pl, vio = self.rg["pipeline"], self.rg["volume_io"]
        ref = pl.reference_histogram(vio.load_volume(path))
        return pl.StyleTransferSpec(kind="monotone_remap", reference=ref)

    def setup(self):
        t0 = _clock()
        self._load_pair(self.files[0])
        self._style(self.files[0].fixed)
        return _clock() - t0

    def run_unit(self, k, tr):
        pl, vio, mx = self.rg["pipeline"], self.rg["volume_io"], self.rg["metrics"]
        fa, losses = self.rg["fields"], self.rg["losses"]
        cfg, spec = self.cfg, self.spec
        f = self.files[k % self.n_pairs]
        out_path = os.path.join(self.workdir, f"out{k % self.n_pairs}_field.vol")
        t0 = _clock()
        with tr.span("bench.load"):
            mv, fx, ml, fl, lms = self._load_pair(f)
            style = self._style(f.fixed)
        with tr.span("bench.gate_style"):
            jm, jf, fired = pl.gated_preprocess(mv, fx, style, gate_window=cfg.gate_window,
                                                tau=cfg.tau, down=cfg.gate_down)
        t1 = _clock()
        with tr.span("bench.backbone"):
            phi = pl.iterate_backbone(spec, jm, jf, self.k)
        t2 = _clock()
        with tr.span("bench.save"):
            vio.save_field(phi, out_path, spacing=fx.spacing)
        with tr.span("bench.evaluate"):
            rep = mx.evaluate_pair(phi, moving_labels=ml, fixed_labels=fl, landmarks=lms,
                                   pair_id=os.path.basename(f.moving), spacing=fx.spacing)
        wall = _clock() - t0

        u = phi.data
        fails = _field_checks(u, rep.ndv_percent)
        if not fired:
            fails.append("gate did not fire on an inverted-contrast pair")
        epe, zero_epe = _epe(u, f.true_field), _epe(np.zeros_like(u), f.true_field)
        if not epe < zero_epe:
            fails.append(f"EPE {epe} not below the zero-field EPE {zero_epe}")
        accuracy = None
        if k < self.n_pairs and not fails:
            with tr.paused():
                accuracy = self._accuracy(phi, f.true_field, rep)
                # the objective the variational backbone descends, shifted by +1 so it is >= 0
                loss = losses.total_loss([fa.warp(jm, phi)], jf, phi, lam=spec.lam,
                                         window=spec.window)
            accuracy["train_loss"] = loss.total + 1.0
        steps = self.k * spec.levels * spec.iters
        return Unit(wall=wall, step_s=(t2 - t1) / steps, steps=steps, accuracy=accuracy,
                    failures=fails, fingerprint=_digest(u, fired, rep.to_dict()))


class Pretrain(_Workload):
    """pretrain-24: `regadapt pretrain --data-dir` over four 24^3 pairs, lr 1e-5."""

    name = "pretrain-24"
    contrast = "identity"
    per_step = True
    n_pairs = 4
    pretrain_steps = 8  # two passes over the four pairs
    lr = 1e-5

    def __init__(self, rg, tiny=False):
        super().__init__(rg)
        self.dims = (16,) * 3 if tiny else (24,) * 3
        self.cfg = rg["pipeline"].IOConfig()
        self.min_units = 2
        if tiny:
            self.pretrain_steps = self.n_pairs

    def _load_problems(self):
        vio = self.rg["volume_io"]
        return [(vio.load_volume(f.moving), vio.load_volume(f.fixed)) for f in self.files]

    def setup(self):
        t0 = _clock()
        self._load_problems()
        self.cfg.make_cascade()
        return _clock() - t0

    def run_unit(self, k, tr):
        pl, un = self.rg["pipeline"], self.rg["unet"]
        ckpt = os.path.join(self.workdir, "cascade.bin")
        t0 = _clock()
        with tr.span("bench.load"):
            problems = self._load_problems()
        with tr.span("bench.init"):
            cascade = self.cfg.make_cascade()
        t1 = _clock()
        with tr.span("bench.pretrain"):
            history = pl.pretrain_refiners(problems, cascade, steps=self.pretrain_steps,
                                           lr=self.lr, seed=self.cfg.seed, cfg=self.cfg)
        t2 = _clock()
        with tr.span("bench.save"):
            un.save_cascade(cascade, ckpt)
        wall = _clock() - t0

        fails = []
        if any(h is None or not np.isfinite(h) for h in history):
            fails.append(f"pretraining skipped or diverged: {history}")
        params = cascade.named_params()
        with tr.paused():
            reloaded = un.load_cascade(ckpt)
        again = reloaded.named_params()
        if sorted(again) != sorted(params) or any(
                not np.array_equal(again[n].data, params[n].data) for n in params):
            fails.append("saved cascade does not reload to the trained parameters")
        if k == 0 and not fails:
            with tr.paused():
                fails += self._first_step_check(problems, history)
        accuracy = None
        if k == 0 and not fails:
            with tr.paused():
                accuracy = self._zero_shot(reloaded)
            last = history[-self.n_pairs:]
            accuracy["train_loss"] = float(np.mean(last)) + len(reloaded.scales)
        digest = _digest(history, *[params[n].data for n in sorted(params)])
        return Unit(wall=wall, step_s=(t2 - t1) / self.pretrain_steps,
                    steps=self.pretrain_steps, accuracy=accuracy, failures=fails,
                    fingerprint=digest)

    def _first_step_check(self, problems, history):
        """Redo the first pretraining step from a fresh cascade: its loss must
        match history[0], every conv3d output a direct sum, and the drop the
        step makes on its pair must match the gradients."""
        pl, fa = self.rg["pipeline"], self.rg["fields"]
        cascade = self.cfg.make_cascade()
        zero = fa.DisplacementField.zero(problems[0][0].dims)
        start = [self._io_loss(cascade, mv, fx, zero) for mv, fx in problems]
        if history[0] not in start:
            return [f"first pretraining loss {history[0]} not reproduced: {start}"]
        mv, fx = problems[start.index(history[0])]
        with _checked_conv3d(self.rg["autodiff"]) as conv_problems:
            self._io_loss(cascade, mv, fx, zero, backward=True)
        if conv_problems:
            return [f"{len(conv_problems)} conv3d calls wrong, first {conv_problems[0]}"]
        predicted = self._predicted_drop(cascade, self.lr)
        again = pl.pretrain_refiners(problems, cascade, steps=1, lr=self.lr,
                                     seed=self.cfg.seed, cfg=self.cfg)
        if again != history[:1]:
            return [f"first pretraining step not reproduced: {again} vs {history[:1]}"]
        return _first_step_problem(history[0] - self._io_loss(cascade, mv, fx, zero), predicted)

    def _zero_shot(self, cascade):
        """Accuracy of the field the pretrained cascade predicts for each training pair."""
        un, mx, fa = self.rg["unet"], self.rg["metrics"], self.rg["fields"]
        rows = []
        for f in self.files:
            mv, fx, ml, fl, lms = self._load_pair(f)
            phis, _ = un.cascade_forward(fa.DisplacementField.zero(mv.dims), mv, fx, cascade)
            field = fa.DisplacementField(phis[-1].data[0])
            rep = mx.evaluate_pair(field, moving_labels=ml, fixed_labels=fl, landmarks=lms,
                                   spacing=fx.spacing)
            rows.append(self._accuracy(field, f.true_field, rep))
        return {key: float(np.mean([r[key] for r in rows])) for key in rows[0]}


WORKLOADS = {w.name: w for w in (Register, Pretrain, BackboneXC)}
