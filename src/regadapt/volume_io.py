"""Every file the program reads or writes, plus synthetic test problems.

The `.vol` format is a raw little-endian payload next to a JSON manifest:
`<name>.vol` holds float32 scalars (volumes), int32 labels, or 3*D*H*W
float32 field components in component-major order (all u_d, then u_h,
then u_w); `<name>.vol.json` holds {"dims", "spacing", "kind"}. Payloads
round-trip bit-exactly. Arrays are row-major with the W index fastest.

A parameter checkpoint is a float32 blob of each parameter back to back in
name order, next to `<name>.json` with {"params": [{"name", "shape",
"offset"}], "meta", "config_hash"}.

Every file is written by `_write_file`, and every payload is read by
`_read_arrays`, which checks the file size against the manifest before it
allocates and reads straight into the returned arrays. Malformed files
raise VolumeIOError, a ValueError.
"""

import csv
import hashlib
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import _array_of, gaussian_reflect
from .fields import DisplacementField, sample_field_at_points, warp


class VolumeIOError(ValueError):
    """Malformed or inconsistent payload, manifest or checkpoint."""


def _grid(dims, spacing):
    """Checked (dims, spacing): 3 integral sizes >= 1 and 3 finite positive spacings."""
    if len(dims) != 3 or not all(d % 1 == 0 and d >= 1 for d in dims):  # inf % 1 is nan
        raise ValueError(f"dims must be 3 integers >= 1, got {dims}")
    if len(spacing) != 3 or not all(0 < s <= sys.float_info.max if isinstance(s, int)  # exact:
                                    else 0 < s < math.inf for s in spacing):  # no float() overflow
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    return tuple(int(d) for d in dims), tuple(float(s) for s in spacing)


@dataclass(frozen=True)
class Volume3D:
    """Scalar intensity grid with voxel spacing in millimeters."""

    dims: tuple
    spacing: tuple
    data: np.ndarray

    def __post_init__(self):
        dims, spacing = _grid(self.dims, self.spacing)
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
        dims, spacing = _grid(self.dims, self.spacing)
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
# the one writer and the one reader


def _write_file(path, chunks):
    """Write C-contiguous chunks over path from offset 0, then cut any old tail.

    There is no O_TRUNC: truncating a large file up front can block for a
    large part of a second on filesystems that discard freed blocks. Links,
    permissions and umask behave as with open(path, "wb"). Not atomic: a
    crash mid-save leaves the new head over the old tail. Returns the bytes
    written. Private, so a tracer of public functions books each write to
    the saver that called it.
    """
    offset = 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            while view:
                n = os.write(fd, view)
                view = view[n:]
                offset += n
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > offset:
            os.ftruncate(fd, offset)
    finally:
        os.close(fd)
    return offset


def _read_arrays(path, dtype, shapes):
    """Arrays of the given shapes, stored back to back in the payload at path.

    The file must hold exactly their bytes; its size is checked before
    anything is allocated. One readinto fills one array, and each returned
    array is a view of it.
    """
    counts = [math.prod(s) for s in shapes]
    expect = sum(counts) * np.dtype(dtype).itemsize
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != expect:
            raise VolumeIOError(f"{path}: payload holds {size} bytes, its manifest needs {expect}")
        flat = np.empty(sum(counts), dtype=dtype)
        got = f.readinto(flat)
    if got != expect:
        raise VolumeIOError(f"{path}: payload changed while it was read")
    parts = np.split(flat, np.cumsum(counts)[:-1])
    return [part.reshape(s) for part, s in zip(parts, shapes)]


def _load_json(path, what):
    """The JSON value in the file at path; an error names it as what and path."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError both are
        raise VolumeIOError(f"{what} {path} is not valid JSON: {e}") from None


def _read_json(path, keys):
    """The JSON object in the file at path; it must hold each of keys."""
    if not os.path.exists(path):
        raise VolumeIOError(f"missing manifest {path}")
    m = _load_json(path, "manifest")
    if not isinstance(m, dict):
        raise VolumeIOError(f"manifest {path} must hold a JSON object")
    for key in keys:
        if key not in m:
            raise VolumeIOError(f"manifest {path} lacks {key!r}")
    return m


# ---------------------------------------------------------------------------
# .vol read/write

_DTYPES = {"volume": "<f4", "labels": "<i4", "field": "<f4"}


def _read_manifest(path):
    """Checked (dims, spacing, kind) from the manifest of the .vol at path."""
    mpath = f"{path}.json"
    m = _read_json(mpath, ("dims", "spacing", "kind"))
    for key in ("dims", "spacing"):
        v = m[key]
        if not (isinstance(v, list) and len(v) == 3 and all(type(x) in (int, float) for x in v)):
            raise VolumeIOError(f"manifest {mpath}: {key!r} must list 3 numbers, got {v!r}")
    try:
        return (*_grid(m["dims"], m["spacing"]), m["kind"])
    except ValueError as e:
        raise VolumeIOError(f"manifest {mpath}: {e}") from None


def _save(path, kind, dims, spacing, data):
    _write_file(path, [np.ascontiguousarray(data, dtype=_DTYPES[kind])])
    manifest = {"dims": list(dims), "spacing": list(spacing), "kind": kind}
    _write_file(f"{path}.json", [json.dumps(manifest).encode()])


def _load(path, kind):
    """(payload array, spacing) of a .vol of this kind; a field's array is (3, *dims)."""
    dims, spacing, got = _read_manifest(path)
    if got != kind:
        raise VolumeIOError(f"{path}: expected kind {kind!r}, got {got!r}")
    (a,) = _read_arrays(path, _DTYPES[kind], [(3, *dims) if kind == "field" else dims])
    if kind != "labels" and not np.all(np.isfinite(a)):
        raise VolumeIOError(f"{path}: payload contains non-finite values")
    return a, spacing


def save_volume(v, path):
    _save(path, "volume", v.dims, v.spacing, v.data)


def load_volume(path):
    a, spacing = _load(path, "volume")
    return Volume3D(dims=a.shape, spacing=spacing, data=a)


def save_labels(lm, path):
    _save(path, "labels", lm.dims, lm.spacing, lm.data)


def load_labels(path):
    a, spacing = _load(path, "labels")
    return LabelMap(dims=a.shape, spacing=spacing, data=a)


def save_field(u, path, spacing=(1.0, 1.0, 1.0)):
    _save(path, "field", u.dims, spacing, u.data)


def load_field(path):
    return DisplacementField(_load(path, "field")[0])


def save_landmarks(lms, path):
    text = io.StringIO()
    w = csv.writer(text)
    for p, q in zip(lms.moving, lms.fixed):
        w.writerow([repr(float(x)) for x in (*p, *q)])
    _write_file(path, [text.getvalue().encode()])


def load_landmarks(path):
    moving, fixed = [], []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row:
                continue
            try:
                vals = [float(x) for x in row]
            except ValueError as e:
                raise VolumeIOError(f"{path}: {e}") from None
            if len(vals) != 6:
                raise VolumeIOError(f"{path}: landmark rows need 6 values, got {len(vals)}")
            moving.append(vals[:3])
            fixed.append(vals[3:])
    if not moving:
        raise VolumeIOError(f"{path}: no landmark rows")
    return LandmarkSet(moving=np.array(moving), fixed=np.array(fixed))


# ---------------------------------------------------------------------------
# parameter checkpoints


def config_hash(meta):
    """Stable hash of a JSON-serializable config dict."""
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_params(path, params, meta=None):
    """Write little-endian float32 parameter blob + JSON manifest.

    params maps name -> DiffTensor or ndarray; meta is recorded and hashed.
    Both files are written in place by _write_file (not atomic); each
    parameter is streamed through the buffer protocol, so no second copy of
    the checkpoint is held.
    """
    meta = dict(meta or {})
    arrays, entries = [], []
    offset = 0
    for name in sorted(params):
        a = _array_of(params[name])
        arrays.append(a)
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        offset += 4 * a.size
    _write_file(path, (np.ascontiguousarray(a, dtype="<f4") for a in arrays))
    manifest = {"params": entries, "meta": meta, "config_hash": config_hash(meta)}
    _write_file(f"{path}.json", [json.dumps(manifest, indent=1).encode()])


def load_params(path):
    """Inverse of save_params; returns (dict name -> float32 array, manifest).

    Raises VolumeIOError when the manifest is malformed, its config_hash
    does not match its meta, its offsets differ from the back-to-back layout
    save_params writes, or the blob is not exactly as long as its entries.
    """
    manifest = _read_json(f"{path}.json", ("params", "meta", "config_hash"))
    meta, entries = manifest["meta"], manifest["params"]
    if not isinstance(meta, dict) or manifest["config_hash"] != config_hash(meta):
        raise VolumeIOError(f"checkpoint {path}: config_hash does not match the manifest meta")
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in e["shape"]) for e in entries)):
        raise VolumeIOError(f"checkpoint {path}: 'params' must list entries with a name "
                            "and a shape of sizes >= 0")
    offset = 0
    for e in entries:
        if e.get("offset") != offset:
            raise VolumeIOError(f"checkpoint {path}: {e['name']!r} is at offset "
                                f"{e.get('offset')!r}, not {offset} where its layout puts it")
        offset += 4 * math.prod(e["shape"])
    arrays = _read_arrays(path, "<f4", [tuple(e["shape"]) for e in entries])
    return {e["name"]: a for e, a in zip(entries, arrays)}, manifest


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
            coords = coords + _array_of(field)
        arr = _geometry_labels(np.asarray(self.geometry["center"]),
                               [np.asarray(r) for r in self.geometry["radii"]], coords)
        return LabelMap(dims=dims, spacing=self.phantom.spacing, data=arr)


CONTRAST_KINDS = ("identity", "inverted", "gamma")


def _apply_contrast(data, kind):
    if kind == "identity":
        return data.copy()
    if kind == "inverted":
        return (data.max() - data).astype(np.float32)
    top = float(data.max())  # gamma
    if top <= 0:
        return data.copy()
    return ((data / top) ** np.float32(0.6) * top).astype(np.float32)


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
    with the sigma>=2 smoothing, any value in [0, 0.4) keeps I + grad(u)
    strictly diagonally dominant, hence fold-free under central differences.
    """
    if not 0 <= max_disp < 0.4:
        raise ValueError(f"max_disp must lie in [0, 0.4) voxels, got {max_disp}")
    if contrast not in CONTRAST_KINDS:
        raise ValueError(f"unknown contrast kind {contrast!r}; choose from {CONTRAST_KINDS}")
    dims, spacing = _grid(dims, spacing)
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
