"""Registration quality metrics: Dice, HD95 (mm), TRE (mm).

Conventions: labels warp by nearest neighbor; HD95 is the 95th percentile
(linear interpolation) of the pooled symmetric surface-distance set, where
a surface voxel is foreground with at least one six-connected background
neighbor (out-of-volume counts as background); TRE maps each fixed-image
landmark q through phi, i.e. (q_vox + u(q_vox)) * spacing, and measures
the distance to its moving-image partner. Folding (NDV) lives in fields.

SciPy's KD-tree is imported inside hd95, so it loads at the first HD95 of
a process; importing this module loads NumPy only.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fields as fa
from .autodiff import _array_of


def warp_labels(labels, u):
    """Nearest-neighbor warp of a label map: out(x) = labels(round(x + u(x)))."""
    return dataclasses.replace(labels, data=fa.warp_labels_array(labels.data, u))


def dice(a, b, classes=None):
    """Per-class and mean Dice. Classes absent from both maps are reported
    as None and excluded from the mean."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"dice: dims mismatch {a.data.shape} vs {b.data.shape}")
    if classes is None:
        classes = sorted(set(a.classes()) | set(b.classes()))
    per_class = {}
    valid = []
    for c in classes:
        am = a.data == c
        bm = b.data == c
        na, nb = int(am.sum()), int(bm.sum())
        if na + nb == 0:
            per_class[c] = None
            continue
        d = 2.0 * int(np.count_nonzero(am & bm)) / (na + nb)
        per_class[c] = d
        valid.append(d)
    mean = float(np.mean(valid)) if valid else float("nan")
    return per_class, mean


def _surface_voxels(mask):
    """Foreground voxels with a six-connected background neighbor."""
    m = np.pad(mask, 1, constant_values=False)
    interior = m[1:-1, 1:-1, 1:-1].copy()
    for axis in range(3):
        for shift in (1, -1):
            interior &= np.roll(m, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    return np.argwhere(mask & ~interior)


def hd95(a_mask, b_mask, spacing):
    """95th percentile of pooled surface-to-surface nearest distances in mm."""
    from scipy.spatial import cKDTree

    a_mask = np.asarray(a_mask, dtype=bool)
    b_mask = np.asarray(b_mask, dtype=bool)
    if not a_mask.any() or not b_mask.any():
        raise ValueError("hd95: both masks must be nonempty")
    sp = np.asarray(spacing, dtype=np.float64)
    sa = _surface_voxels(a_mask) * sp
    sb = _surface_voxels(b_mask) * sp
    d_ab = cKDTree(sb).query(sa)[0]
    d_ba = cKDTree(sa).query(sb)[0]
    pooled = np.concatenate([d_ab, d_ba])
    return float(np.percentile(pooled, 95, method="linear"))


def landmark_voxels(landmarks, dims, spacing, source="tre"):
    """Fixed-image landmarks in voxels; ValueError naming source if one lies off a dims grid."""
    q_vox = landmarks.fixed / np.asarray(spacing, dtype=np.float64)
    if np.any(q_vox < 0) or np.any(q_vox > np.asarray(dims) - 1):
        raise ValueError(f"{source}: landmark outside the volume bounds")
    return q_vox


def tre(landmarks, u, spacing):
    """Mean/median target registration error in mm.

    Fixed-image points map through phi into moving space; distances are
    measured against the stored moving-image points.
    """
    sp = np.asarray(spacing, dtype=np.float64)
    q_vox = landmark_voxels(landmarks, _array_of(u).shape[1:], sp)
    disp = fa.sample_field_at_points(u, q_vox)
    mapped_mm = (q_vox + disp) * sp
    err = np.linalg.norm(mapped_mm - landmarks.moving, axis=1)
    return float(err.mean()), float(np.median(err))


@dataclass
class MetricReport:
    """Evaluation summary for one registered pair."""

    pair_id: str = ""
    dice_per_class: dict = None
    dice_mean: float = None
    hd95_per_class: dict = None
    hd95_mean: float = None
    tre_mean: float = None
    tre_median: float = None
    ndv_percent: float = None

    def to_dict(self):
        return dataclasses.asdict(self)

    CSV_FIELDS = ("pair", "dice_mean", "hd95_mean", "tre_mean", "tre_median", "ndv_percent")

    def csv_row(self):
        def fmt(x):
            return "" if x is None else f"{x:.6f}"

        return {"pair": self.pair_id, **{f: fmt(getattr(self, f)) for f in self.CSV_FIELDS[1:]}}


def evaluate_pair(field, moving_labels=None, fixed_labels=None, landmarks=None,
                  pair_id="", spacing=None):
    """Compute every metric the provided inputs allow, plus NDV."""
    report = MetricReport(pair_id=pair_id, ndv_percent=fa.ndv(field))
    if moving_labels is not None and fixed_labels is not None:
        warped = warp_labels(moving_labels, field)
        per_class, mean = dice(warped, fixed_labels)
        report.dice_per_class = per_class
        report.dice_mean = mean
        hd = {}
        vals = []
        for c in per_class:
            am = warped.data == c
            bm = fixed_labels.data == c
            if not am.any() or not bm.any():
                hd[c] = None
                continue
            hd[c] = hd95(am, bm, fixed_labels.spacing)
            vals.append(hd[c])
        report.hd95_per_class = hd
        report.hd95_mean = float(np.mean(vals)) if vals else None
    if landmarks is not None:
        sp = spacing or (fixed_labels.spacing if fixed_labels is not None else (1.0, 1.0, 1.0))
        report.tre_mean, report.tre_median = tre(landmarks, field, sp)
    return report


def format_mean_std(values):
    """Aggregate formatting used in batch summaries: 'mean ± std', 4 decimals."""
    a = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if a.size == 0:
        return ""
    return f"{a.mean():.4f} ± {a.std():.4f}"


def aggregate_reports(reports):
    """One summary row over a batch of MetricReports."""
    return {
        "pairs": len(reports),
        "dice": format_mean_std([r.dice_mean for r in reports]),
        "hd95": format_mean_std([r.hd95_mean for r in reports]),
        "tre": format_mean_std([r.tre_mean for r in reports]),
        "ndv": format_mean_std([r.ndv_percent for r in reports]),
    }
