"""Seeded synthetic registration pairs, written as `.vol` files.

The generator lives in the benchmark, not in the program, so a change to
`regadapt.volume_io.synth_problem` cannot change what is measured. It
follows the same recipe (three nested ellipsoids, smoothed class
intensities plus texture, a smooth random ground-truth field, backward
warping with trilinear clamp-to-edge sampling) with three differences
that make the figures steadier from seed to seed: the ellipsoids do not
move with the seed, the texture and each field component are scaled to a
fixed RMS instead of a fixed peak, and every pair carries 512 random
landmarks spread over the whole volume on top of the three class
centroids. The seed still draws the texture, the field and the landmarks.

Only the written files reach the program; the ground-truth field stays in
the benchmark, which uses it for the endpoint error.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

FIELD_RMS = 0.3      # voxels per component; peaks stay near 1 voxel
TEXTURE_RMS = 0.023
N_RANDOM_LANDMARKS = 512
ANISOTROPY = np.array([1.05, 0.95, 1.0])


@dataclass(frozen=True)
class PairFiles:
    """Paths of one written pair plus its ground truth."""

    moving: str
    fixed: str
    moving_labels: str
    fixed_labels: str
    landmarks: str
    true_field: np.ndarray  # (3, D, H, W) float32, never written


def _geometry_labels(center, radii, coords):
    labels = np.zeros(coords.shape[1:], dtype=np.int32)
    for cls, r in enumerate(radii, start=1):
        r2 = sum(((coords[a] - center[a]) / r[a]) ** 2 for a in range(3))
        labels[r2 <= 1.0] = cls
    return labels


def _sample(volume, coords):
    """Trilinear, clamp-to-edge sampling of `volume` at (3, ...) voxel coords."""
    return map_coordinates(volume, coords, order=1, mode="nearest")


def make_pair(rng, dims, contrast="identity"):
    """One phantom pair: returns a dict of arrays plus landmark lists."""
    dims = tuple(int(d) for d in dims)
    half = np.array(dims, dtype=np.float64) / 2.0
    center = np.array([(s - 1) / 2.0 for s in dims])
    radii = [half * frac * ANISOTROPY for frac in (0.80, 0.55, 0.30)]
    grid = np.indices(dims).astype(np.float64)
    labels = _geometry_labels(center, radii, grid)

    values = np.array([0.05, 0.35, 0.65, 0.95], dtype=np.float32)
    smooth = gaussian_filter(values[labels], sigma=1.0)
    texture = gaussian_filter(rng.standard_normal(dims).astype(np.float32), sigma=1.0)
    texture *= np.float32(TEXTURE_RMS / max(float(np.sqrt(np.mean(texture ** 2))), 1e-12))
    phantom = np.clip(smooth + texture, 0.0, 1.2).astype(np.float32)

    u = rng.standard_normal((3,) + dims).astype(np.float32)
    for c in range(3):
        u[c] = gaussian_filter(u[c], sigma=3.0)
        u[c] *= np.float32(FIELD_RMS / max(float(np.sqrt(np.mean(u[c] ** 2))), 1e-12))

    coords = grid + u
    fixed = _sample(phantom, coords).astype(np.float32)
    fixed_labels = _geometry_labels(center, radii, coords)

    pts = [np.argwhere(labels == cls).mean(axis=0) for cls in np.unique(labels) if cls != 0]
    pts += list(rng.uniform(2.0, np.array(dims) - 3.0, size=(N_RANDOM_LANDMARKS, 3)))
    q = np.array(pts, dtype=np.float64)
    disp = np.stack([_sample(u[c].astype(np.float64), q.T) for c in range(3)], axis=1)

    moving = phantom if contrast == "identity" else (phantom.max() - phantom).astype(np.float32)
    return {"moving": moving, "fixed": fixed, "moving_labels": labels,
            "fixed_labels": fixed_labels, "landmarks_moving": q + disp,
            "landmarks_fixed": q, "true_field": u}


def _write_vol(path, array, kind, dtype):
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(array, dtype=dtype).tobytes())
    dims = list(array.shape[-3:])
    with open(path + ".json", "w") as f:
        json.dump({"dims": dims, "spacing": [1.0, 1.0, 1.0], "kind": kind}, f)


def write_pair(out_dir, stem, pair):
    """Write one pair in the layout the `regadapt` CLI reads."""
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, f"{stem}_{name}")

    files = PairFiles(moving=path("moving.vol"), fixed=path("fixed.vol"),
                      moving_labels=path("moving_labels.vol"),
                      fixed_labels=path("fixed_labels.vol"),
                      landmarks=path("landmarks.csv"), true_field=pair["true_field"])
    _write_vol(files.moving, pair["moving"], "volume", "<f4")
    _write_vol(files.fixed, pair["fixed"], "volume", "<f4")
    _write_vol(files.moving_labels, pair["moving_labels"], "labels", "<i4")
    _write_vol(files.fixed_labels, pair["fixed_labels"], "labels", "<i4")
    with open(files.landmarks, "w", newline="") as f:
        w = csv.writer(f)
        for p, q in zip(pair["landmarks_moving"], pair["landmarks_fixed"]):
            w.writerow([repr(float(x)) for x in (*p, *q)])
    return files


def write_pairs(out_dir, seed, count, dims, contrast="identity"):
    """`count` distinct pairs drawn from one seed."""
    rng = np.random.default_rng(int(seed))
    return [write_pair(out_dir, f"pair{i}", make_pair(rng, dims, contrast))
            for i in range(count)]
