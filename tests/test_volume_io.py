"""File-format round trips and the synthetic problem generator."""

import json
import struct

import numpy as np
import pytest

from regadapt import fields as fa
from regadapt.volume_io import (
    LabelMap,
    LandmarkSet,
    Volume3D,
    VolumeIOError,
    load_field,
    load_labels,
    load_landmarks,
    load_volume,
    save_field,
    save_labels,
    save_landmarks,
    save_volume,
    synth_problem,
)


def _vol(data, spacing=(1.0, 1.0, 1.0)):
    a = np.asarray(data, dtype=np.float32)
    return Volume3D(dims=a.shape, spacing=spacing, data=a)


def test_volume_round_trip_ramp(tmp_path):
    ramp = np.arange(64, dtype=np.float32).reshape(4, 4, 4)
    path = tmp_path / "ramp.vol"
    save_volume(_vol(ramp), path)
    again = load_volume(path)
    assert again.dims == (4, 4, 4)
    assert again.data.tobytes() == ramp.tobytes()


def test_volume_round_trip_random_bytes(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8, 8)).astype(np.float32)
    p1 = tmp_path / "a.vol"
    p2 = tmp_path / "b.vol"
    save_volume(_vol(a), p1)
    save_volume(load_volume(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_volume_round_trip(tmp_path):
    path = tmp_path / "z.vol"
    save_volume(_vol(np.zeros((3, 2, 5), np.float32)), path)
    v = load_volume(path)
    assert np.all(v.data == 0) and v.dims == (3, 2, 5)


def test_row_major_w_fastest(tmp_path):
    v = np.zeros((2, 2, 3), np.float32)
    v[0, 0, 1] = 1.5
    path = tmp_path / "o.vol"
    save_volume(_vol(v), path)
    raw = path.read_bytes()
    assert struct.unpack("<f", raw[4:8])[0] == 1.5


def test_payload_size_mismatch(tmp_path):
    path = tmp_path / "bad.vol"
    with open(path, "wb") as f:
        f.write(np.zeros(7, np.float32).tobytes())
    with open(str(path) + ".json", "w") as f:
        json.dump({"dims": [2, 2, 2], "spacing": [1, 1, 1], "kind": "volume"}, f)
    with pytest.raises(VolumeIOError, match="bytes"):
        load_volume(path)


def test_missing_manifest(tmp_path):
    path = tmp_path / "naked.vol"
    path.write_bytes(b"\x00" * 32)
    with pytest.raises(VolumeIOError, match="manifest"):
        load_volume(path)


def test_non_finite_payload_rejected(tmp_path):
    a = np.zeros((2, 2, 2), np.float32)
    a[0, 0, 0] = np.nan
    path = tmp_path / "nan.vol"
    with open(path, "wb") as f:
        f.write(a.tobytes())
    with open(str(path) + ".json", "w") as f:
        json.dump({"dims": [2, 2, 2], "spacing": [1, 1, 1], "kind": "volume"}, f)
    with pytest.raises(VolumeIOError, match="finite"):
        load_volume(path)


@pytest.mark.parametrize("manifest", [
    5, [], {"dims": 5}, {"dims": [4, 4]}, {"dims": [4, 4, "4"]}, {"spacing": None},
    {"spacing": [1.0, True, 1.0]}, {"spacing": [1, 10 ** 400, 1]},
])
def test_malformed_manifest_rejected(tmp_path, manifest):
    path = tmp_path / "v.vol"
    save_volume(_vol(np.zeros((4, 4, 4), np.float32)), path)
    if isinstance(manifest, dict):
        manifest = {"dims": [4, 4, 4], "spacing": [1.0, 1.0, 1.0], "kind": "volume", **manifest}
    (tmp_path / "v.vol.json").write_text(json.dumps(manifest))
    with pytest.raises(VolumeIOError, match="manifest"):
        load_volume(path)


@pytest.mark.parametrize("text", ["{", "", "\xff"], ids=["truncated", "empty", "not-utf8"])
def test_manifest_that_is_not_json_names_its_path(tmp_path, text):
    path = tmp_path / "v.vol"
    save_volume(_vol(np.zeros((4, 4, 4), np.float32)), path)
    (tmp_path / "v.vol.json").write_bytes(text.encode("latin-1"))
    with pytest.raises(VolumeIOError, match="v.vol.json is not valid JSON"):
        load_volume(path)


def test_full_scale_dims_from_manifest(tmp_path):
    dims = (160, 224, 192)
    path = tmp_path / "big.vol"
    with open(path, "wb") as f:
        f.write(b"\x00" * (4 * np.prod(dims)))
    with open(str(path) + ".json", "w") as f:
        json.dump({"dims": list(dims), "spacing": [1.0, 1.0, 1.0], "kind": "volume"}, f)
    v = load_volume(path)
    assert v.dims == dims and v.spacing == (1.0, 1.0, 1.0)


def test_labels_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    lm = LabelMap(dims=(4, 5, 6), spacing=(1, 1, 1),
                  data=rng.integers(0, 4, (4, 5, 6), dtype=np.int32))
    path = tmp_path / "l.vol"
    save_labels(lm, path)
    again = load_labels(path)
    assert np.array_equal(again.data, lm.data)
    assert again.data.dtype == np.int32


def test_field_round_trip_component_major(tmp_path):
    rng = np.random.default_rng(2)
    u = fa.DisplacementField(rng.standard_normal((3, 3, 4, 5)).astype(np.float32) * 0.1)
    path = tmp_path / "u.vol"
    save_field(u, path)
    raw = np.frombuffer(path.read_bytes(), "<f4")
    # component-major: first 3*4*5 floats are the d-component block
    assert np.array_equal(raw[: 3 * 4 * 5].reshape(3, 4, 5), u.data[0])
    again = load_field(path)
    assert np.array_equal(again.data, u.data)


def test_kind_mismatch(tmp_path):
    path = tmp_path / "v.vol"
    save_volume(_vol(np.zeros((2, 2, 2), np.float32)), path)
    with pytest.raises(VolumeIOError, match="kind"):
        load_labels(path)


def test_landmarks_round_trip(tmp_path):
    lms = LandmarkSet(moving=[[1.5, 2.25, 3.0], [0.1, 0.2, 0.3]],
                      fixed=[[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    path = tmp_path / "lm.csv"
    save_landmarks(lms, path)
    again = load_landmarks(path)
    assert np.array_equal(again.moving, lms.moving)
    assert np.array_equal(again.fixed, lms.fixed)


def test_landmark_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        LandmarkSet(moving=[[0, 0, 0]], fixed=[[0, 0, 0], [1, 1, 1]])


def test_volume_validation():
    with pytest.raises(ValueError, match="spacing"):
        Volume3D(dims=(2, 2, 2), spacing=(0.0, 1.0, 1.0), data=np.zeros((2, 2, 2)))


@pytest.mark.parametrize("dims, spacing, match", [
    ((0, 2, 2), (1.0, 1.0, 1.0), "dims"),
    ((2, 2), (1.0, 1.0, 1.0), "dims"),
    ((2, 2, 2), (0.0, 1.0, 1.0), "spacing"),
    ((2, 2, 2), (1.0, -1.0, 1.0), "spacing"),
    ((2, 2, 2), (1.0, 1.0), "spacing"),
])
def test_labels_validate_grid_as_volumes_do(dims, spacing, match):
    data = np.zeros(dims, dtype=np.int32)
    errors = []
    for cls in (Volume3D, LabelMap):
        with pytest.raises(ValueError, match=match) as e:
            cls(dims=dims, spacing=spacing, data=data)
        errors.append(str(e.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("spacing", [[0, 1, 1], [1, -2, 1]])
def test_labels_manifest_bad_spacing_rejected(tmp_path, spacing):
    path = tmp_path / "l.vol"
    save_labels(LabelMap(dims=(2, 2, 2), spacing=(1, 1, 1),
                         data=np.ones((2, 2, 2), dtype=np.int32)), path)
    (tmp_path / "l.vol.json").write_text(
        json.dumps({"dims": [2, 2, 2], "spacing": spacing, "kind": "labels"}))
    with pytest.raises(ValueError, match="spacing"):
        load_labels(path)


# synthetic generator


def test_synth_deterministic():
    a = synth_problem(7, dims=(16, 16, 16))
    b = synth_problem(7, dims=(16, 16, 16))
    assert a.phantom.data.tobytes() == b.phantom.data.tobytes()
    assert a.true_field.data.tobytes() == b.true_field.data.tobytes()
    assert np.array_equal(a.labels.data, b.labels.data)
    assert np.array_equal(a.landmarks.moving, b.landmarks.moving)


def test_synth_identity_contrast():
    p = synth_problem(3, dims=(12, 12, 12), contrast="identity")
    assert np.array_equal(p.remapped.data, p.phantom.data)


def test_synth_inverted_contrast_exact():
    p = synth_problem(3, dims=(12, 12, 12), contrast="inverted")
    assert np.array_equal(p.remapped.data, p.phantom.data.max() - p.phantom.data)


def test_synth_fields_fold_free():
    for seed in (0, 1, 2, 3):
        p = synth_problem(seed, dims=(16, 16, 16), max_disp=0.3)
        assert fa.ndv(p.true_field) == 0.0


def test_synth_max_disp_rejected():
    with pytest.raises(ValueError, match="max_disp"):
        synth_problem(0, dims=(8, 8, 8), max_disp=0.4)
    with pytest.raises(ValueError, match="max_disp"):
        synth_problem(0, dims=(8, 8, 8), max_disp=-0.1)


@pytest.mark.parametrize("dims", [(0, 5, 5), (5, -1, 5), (5, 5)])
def test_synth_bad_dims_rejected(dims):
    with pytest.raises(ValueError, match="dims"):
        synth_problem(0, dims=dims)


def test_synth_has_three_classes():
    p = synth_problem(4, dims=(20, 20, 20))
    assert p.labels.classes() == [1, 2, 3]


def test_synth_fixed_is_warped_phantom():
    p = synth_problem(5, dims=(16, 16, 16))
    warped = fa.warp(p.phantom, p.true_field)
    assert np.array_equal(warped.data, p.fixed.data)


def test_synth_landmarks_exact_under_true_field():
    from regadapt.metrics import tre

    p = synth_problem(6, dims=(16, 16, 16))
    mean_true, _ = tre(p.landmarks, p.true_field, p.phantom.spacing)
    mean_zero, _ = tre(p.landmarks, fa.DisplacementField.zero(p.phantom.dims),
                       p.phantom.spacing)
    assert mean_true < 1e-6
    assert mean_zero > mean_true


def test_synth_analytic_labels_match_endpoints():
    p = synth_problem(8, dims=(16, 16, 16))
    assert np.array_equal(p.analytic_labels().data, p.labels.data)
    assert np.array_equal(p.analytic_labels(p.true_field).data, p.fixed_labels.data)
