"""Volume, label, landmark, and field file I/O plus synthetic test problems.

The `.vol` format is a raw little-endian payload next to a JSON manifest:
`<name>.vol` holds float32 scalars (volumes), int32 labels, or 3*D*H*W
float32 field components in component-major order (all u_d, then u_h,
then u_w); `<name>.vol.json` holds {"dims", "spacing", "kind"}. Payloads
round-trip bit-exactly. Arrays are row-major with the W index fastest.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import gaussian_reflect
from .fields import DisplacementField, sample_field_at_points, warp


class VolumeIOError(Exception):
    """Malformed or inconsistent .vol payload/manifest."""


@dataclass(frozen=True)
class Volume3D:
    """Scalar intensity grid with voxel spacing in millimeters."""

    dims: tuple
    spacing: tuple
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"bad dims {dims}")
        if len(spacing) != 3 or any(s <= 0 for s in spacing):
            raise ValueError(f"spacing must be positive, got {spacing}")
        a = np.asarray(self.data, dtype=np.float32).reshape(dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", np.ascontiguousarray(a))


@dataclass(frozen=True)
class LabelMap:
    """Integer class labels on the same grid convention; 0 is background."""

    dims: tuple
    spacing: tuple
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        a = np.asarray(self.data).reshape(dims)
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("label data must be integer")
        if a.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", np.ascontiguousarray(a.astype(np.int32)))

    def classes(self):
        return [int(c) for c in np.unique(self.data) if c != 0]


@dataclass(frozen=True)
class LandmarkSet:
    """Paired physical-space points: moving[i] corresponds to fixed[i], in mm."""

    moving: np.ndarray
    fixed: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.moving, dtype=np.float64).reshape(-1, 3)
        f = np.asarray(self.fixed, dtype=np.float64).reshape(-1, 3)
        if len(m) != len(f):
            raise ValueError(f"landmark lists differ in length: {len(m)} vs {len(f)}")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(f))):
            raise ValueError("landmarks contain non-finite coordinates")
        object.__setattr__(self, "moving", m)
        object.__setattr__(self, "fixed", f)

    def __len__(self):
        return len(self.moving)


# ---------------------------------------------------------------------------
# .vol read/write


def _manifest_path(path):
    return str(path) + ".json"


def _write_payload(path, manifest, raw):
    with open(path, "wb") as f:
        f.write(raw)
    with open(_manifest_path(path), "w") as f:
        json.dump(manifest, f)


def _read_manifest(path):
    mpath = _manifest_path(path)
    if not os.path.exists(mpath):
        raise VolumeIOError(f"missing manifest {mpath}")
    with open(mpath) as f:
        m = json.load(f)
    for key in ("dims", "spacing", "kind"):
        if key not in m:
            raise VolumeIOError(f"manifest {mpath} lacks {key!r}")
    dims = tuple(int(d) for d in m["dims"])
    spacing = tuple(float(s) for s in m["spacing"])
    return dims, spacing, m["kind"]


def _read_payload(path, dims, dtype, components=1):
    with open(path, "rb") as f:
        raw = f.read()
    n = components * int(np.prod(dims))
    expect = n * np.dtype(dtype).itemsize
    if len(raw) != expect:
        raise VolumeIOError(
            f"{path}: payload holds {len(raw)} bytes, dims {dims} require {expect}"
        )
    return np.frombuffer(raw, dtype=dtype).copy()


def save_volume(v, path):
    manifest = {"dims": list(v.dims), "spacing": list(v.spacing), "kind": "volume"}
    _write_payload(path, manifest, np.ascontiguousarray(v.data, dtype="<f4").tobytes())


def load_volume(path):
    dims, spacing, kind = _read_manifest(path)
    if kind != "volume":
        raise VolumeIOError(f"{path}: expected kind 'volume', got {kind!r}")
    a = _read_payload(path, dims, "<f4").reshape(dims)
    if not np.all(np.isfinite(a)):
        raise VolumeIOError(f"{path}: payload contains non-finite values")
    return Volume3D(dims=dims, spacing=spacing, data=a)


def save_labels(lm, path):
    manifest = {"dims": list(lm.dims), "spacing": list(lm.spacing), "kind": "labels"}
    _write_payload(path, manifest, np.ascontiguousarray(lm.data, dtype="<i4").tobytes())


def load_labels(path):
    dims, spacing, kind = _read_manifest(path)
    if kind != "labels":
        raise VolumeIOError(f"{path}: expected kind 'labels', got {kind!r}")
    a = _read_payload(path, dims, "<i4").reshape(dims)
    return LabelMap(dims=dims, spacing=spacing, data=a)


def save_field(u, path, spacing=(1.0, 1.0, 1.0)):
    dims = u.dims
    manifest = {"dims": list(dims), "spacing": list(spacing), "kind": "field"}
    _write_payload(path, manifest, np.ascontiguousarray(u.data, dtype="<f4").tobytes())


def load_field(path):
    dims, _spacing, kind = _read_manifest(path)
    if kind != "field":
        raise VolumeIOError(f"{path}: expected kind 'field', got {kind!r}")
    a = _read_payload(path, dims, "<f4", components=3).reshape((3,) + dims)
    if not np.all(np.isfinite(a)):
        raise VolumeIOError(f"{path}: payload contains non-finite values")
    return DisplacementField(a)


def save_landmarks(lms, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for p, q in zip(lms.moving, lms.fixed):
            w.writerow([repr(float(x)) for x in (*p, *q)])


def load_landmarks(path):
    moving, fixed = [], []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row:
                continue
            vals = [float(x) for x in row]
            if len(vals) != 6:
                raise VolumeIOError(f"{path}: landmark rows need 6 values, got {len(vals)}")
            moving.append(vals[:3])
            fixed.append(vals[3:])
    return LandmarkSet(moving=np.array(moving), fixed=np.array(fixed))


# ---------------------------------------------------------------------------
# synthetic ground-truth problems


@dataclass(frozen=True)
class SynthProblem:
    """Phantom registration problem with known diffeomorphic ground truth.

    `fixed` is the phantom backward-warped by `true_field`, so the moving
    image is `phantom` (or `remapped` for a cross-contrast pair) and
    `true_field` is the exact minimizer of the warping residual. The
    ellipsoid geometry is kept so labels can be re-evaluated continuously
    at displaced coordinates; with sub-voxel ground-truth motion, that is
    the only label evaluation that responds to a recovered field at all
    (nearest-neighbor warping rounds sub-half-voxel shifts away).
    """

    phantom: Volume3D
    labels: LabelMap
    true_field: DisplacementField
    remapped: Volume3D
    seed: int
    contrast: str = "identity"
    fixed: Volume3D = None
    fixed_labels: LabelMap = None
    landmarks: LandmarkSet = None
    geometry: dict = None

    def analytic_labels(self, field=None):
        """Labels of the continuous geometry at x + u(x) (u=0 when None)."""
        dims = self.phantom.dims
        coords = np.indices(dims).astype(np.float64)
        if field is not None:
            coords = coords + (field.data if hasattr(field, "data") else np.asarray(field))
        arr = _geometry_labels(np.asarray(self.geometry["center"]),
                               [np.asarray(r) for r in self.geometry["radii"]], coords)
        return LabelMap(dims=dims, spacing=self.phantom.spacing, data=arr)


CONTRAST_KINDS = ("identity", "inverted", "gamma")


def _apply_contrast(data, kind):
    if kind == "identity":
        return data.copy()
    if kind == "inverted":
        return (data.max() - data).astype(np.float32)
    if kind == "gamma":
        top = float(data.max())
        if top <= 0:
            return data.copy()
        return ((data / top) ** np.float32(0.6) * top).astype(np.float32)
    raise ValueError(f"unknown contrast kind {kind!r}; choose from {CONTRAST_KINDS}")


def _ellipsoid_geometry(rng, dims):
    """Centers/radii for three nested ellipsoids, jittered by the seed."""
    center = np.array([(s - 1) / 2.0 for s in dims], dtype=np.float64)
    center += rng.uniform(-0.05, 0.05, size=3) * np.array(dims)
    half = np.array(dims, dtype=np.float64) / 2.0
    shells = (0.80, 0.55, 0.30)
    radii = [half * frac * rng.uniform(0.9, 1.1, size=3) for frac in shells]
    return center, radii


def _geometry_labels(center, radii, coords):
    """Class of each (possibly displaced) coordinate; coords is (3, ...)."""
    labels = np.zeros(coords.shape[1:], dtype=np.int32)
    for cls, r in enumerate(radii, start=1):
        r2 = sum(((coords[a] - center[a]) / r[a]) ** 2 for a in range(3))
        labels[r2 <= 1.0] = cls
    return labels


def _phantom_intensity(rng, labels, dims):
    values = np.array([0.05, 0.35, 0.65, 0.95], dtype=np.float32)
    intensity = values[labels]
    # in float64, returned as float32, like scipy.ndimage.gaussian_filter on float32
    smooth = gaussian_reflect(intensity.astype(np.float64), 1.0).astype(np.float32)
    texture = rng.standard_normal(dims).astype(np.float32).astype(np.float64)
    texture = gaussian_reflect(texture, 1.0).astype(np.float32)
    texture *= np.float32(0.12 / max(float(np.abs(texture).max()), 1e-12))
    return np.clip(smooth + texture, 0.0, 1.2).astype(np.float32)


def _smooth_random_field(rng, dims, max_disp, sigma=3.0):
    u = rng.standard_normal((3,) + tuple(dims)).astype(np.float32)
    for c in range(3):
        u[c] = gaussian_reflect(u[c].astype(np.float64), sigma)
        peak = float(np.abs(u[c]).max())
        if peak > 0:
            u[c] *= np.float32(max_disp / peak)
    return u


def _plant_landmarks(rng, labels, true_field, spacing, n_random=8):
    """Exact correspondences: fixed-image point q maps to q + u(q) (in mm)."""
    pts = []
    for cls in np.unique(labels):
        if cls == 0:
            continue
        where = np.argwhere(labels == cls)
        pts.append(where.mean(axis=0))
    dims = labels.shape
    lo = np.array(dims) * 0.25
    hi = np.array(dims) * 0.75
    for _ in range(n_random):
        pts.append(rng.uniform(lo, hi))
    q = np.array(pts, dtype=np.float64)
    disp = sample_field_at_points(true_field, q)
    p = q + disp
    sp = np.asarray(spacing, dtype=np.float64)
    return LandmarkSet(moving=p * sp, fixed=q * sp)


def synth_problem(seed, dims=(48, 48, 48), max_disp=0.3, contrast="identity",
                  spacing=(1.0, 1.0, 1.0)):
    """Deterministic phantom pair with a diffeomorphic ground-truth field.

    max_disp caps the per-axis displacement magnitude in voxels; together
    with the sigma>=2 smoothing, any value below 0.4 keeps I + grad(u)
    strictly diagonally dominant, hence fold-free under central differences.
    """
    if not max_disp < 0.4:
        raise ValueError(f"max_disp must be < 0.4 voxels, got {max_disp}")
    if contrast not in CONTRAST_KINDS:
        raise ValueError(f"unknown contrast kind {contrast!r}; choose from {CONTRAST_KINDS}")
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(int(seed))
    center, radii = _ellipsoid_geometry(rng, dims)
    grid = np.indices(dims).astype(np.float64)
    labels_arr = _geometry_labels(center, radii, grid)
    intensity = _phantom_intensity(rng, labels_arr, dims)
    u = _smooth_random_field(rng, dims, max_disp)
    phantom = Volume3D(dims=dims, spacing=spacing, data=intensity)
    labels = LabelMap(dims=dims, spacing=spacing, data=labels_arr)
    true_field = DisplacementField(u)
    remapped = Volume3D(dims=dims, spacing=spacing,
                        data=_apply_contrast(intensity, contrast))
    fixed = warp(phantom, true_field)
    # fixed labels come from the continuous geometry at displaced coordinates,
    # so sub-voxel ground-truth motion still moves label boundaries
    fixed_labels = LabelMap(dims=dims, spacing=spacing,
                            data=_geometry_labels(center, radii, grid + u))
    landmarks = _plant_landmarks(rng, labels_arr, true_field, spacing)
    return SynthProblem(
        phantom=phantom, labels=labels, true_field=true_field, remapped=remapped,
        seed=int(seed), contrast=contrast, fixed=fixed, fixed_labels=fixed_labels,
        landmarks=landmarks,
        geometry={"center": center.tolist(), "radii": [r.tolist() for r in radii]},
    )
