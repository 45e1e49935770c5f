"""Dice, HD95, TRE oracles and report plumbing."""

import numpy as np
import pytest

from regadapt import metrics as mx
from regadapt.fields import DisplacementField
from regadapt.volume_io import LabelMap, LandmarkSet, synth_problem

from oracles import surface_distances_oracle


def _labels(arr, spacing=(1.0, 1.0, 1.0)):
    a = np.asarray(arr, dtype=np.int32)
    return LabelMap(dims=a.shape, spacing=spacing, data=a)


def _cube_mask(dims, lo, hi):
    a = np.zeros(dims, np.int32)
    a[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1
    return a


# warp_labels


def test_warp_labels_zero_identity():
    p = synth_problem(0, dims=(12, 12, 12))
    out = mx.warp_labels(p.labels, DisplacementField.zero((12, 12, 12)))
    assert np.array_equal(out.data, p.labels.data)


def test_warp_labels_integer_shift_border_replicates():
    labels = _labels(np.arange(5, dtype=np.int32).reshape(1, 1, 5).repeat(3, 0).repeat(3, 1))
    u = np.zeros((3, 3, 3, 5), np.float32)
    u[2] = 1.0
    out = mx.warp_labels(labels, u)
    # expected by enumeration: out[..., w] = labels[..., min(w+1, 4)]
    expect = np.array([1, 2, 3, 4, 4], np.int32)
    assert np.array_equal(out.data[0, 0], expect)


def test_warp_labels_subhalf_shift_rounds_away():
    p = synth_problem(1, dims=(10, 10, 10))
    u = np.full((3, 10, 10, 10), 0.4, np.float32)
    out = mx.warp_labels(p.labels, u)
    assert np.array_equal(out.data, p.labels.data)


# dice


def test_dice_identical_maps():
    p = synth_problem(2, dims=(12, 12, 12))
    per_class, mean = mx.dice(p.labels, p.labels)
    assert mean == 1.0
    assert all(v == 1.0 for v in per_class.values())


def test_dice_disjoint_masks():
    a = _labels(_cube_mask((6, 6, 6), (0, 0, 0), (2, 2, 2)))
    b = _labels(_cube_mask((6, 6, 6), (4, 4, 4), (6, 6, 6)))
    per_class, mean = mx.dice(a, b)
    assert per_class[1] == 0.0 and mean == 0.0


def test_dice_half_overlap_cube():
    # 2x2x2 cubes sharing a 1x2x2 slab: 2*4/(8+8) = 0.5
    a = _labels(_cube_mask((6, 6, 6), (0, 0, 0), (2, 2, 2)))
    b = _labels(_cube_mask((6, 6, 6), (1, 0, 0), (3, 2, 2)))
    per_class, mean = mx.dice(a, b)
    assert per_class[1] == pytest.approx(0.5)


def test_dice_absent_class_excluded():
    a = _labels(_cube_mask((4, 4, 4), (0, 0, 0), (2, 2, 2)))
    b = _labels(_cube_mask((4, 4, 4), (0, 0, 0), (2, 2, 2)))
    per_class, mean = mx.dice(a, b, classes=[1, 7])
    assert per_class[7] is None
    assert mean == 1.0


def test_dice_without_foreground_is_none():
    zero = _labels(np.zeros((4, 4, 4), np.int32))
    assert mx.dice(zero, zero) == ({}, None)


def test_dice_symmetric():
    p = synth_problem(3, dims=(12, 12, 12))
    q = synth_problem(4, dims=(12, 12, 12))
    ab = mx.dice(p.labels, q.labels)[1]
    ba = mx.dice(q.labels, p.labels)[1]
    assert ab == pytest.approx(ba)


def test_dice_dims_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        mx.dice(_labels(np.zeros((2, 2, 2))), _labels(np.zeros((2, 2, 3))))


# hd95


def test_hd95_identical_masks():
    m = _cube_mask((8, 8, 8), (2, 2, 2), (6, 6, 6)).astype(bool)
    assert mx.hd95(m, m, (1, 1, 1)) == 0.0


def test_hd95_single_voxels_one_apart():
    a = np.zeros((5, 5, 5), bool)
    b = np.zeros((5, 5, 5), bool)
    a[2, 2, 2] = True
    b[2, 2, 3] = True
    assert mx.hd95(a, b, (1, 1, 1)) == pytest.approx(1.0)


def test_hd95_spacing_scales_mm():
    a = np.zeros((5, 5, 5), bool)
    b = np.zeros((5, 5, 5), bool)
    a[2, 2, 2] = True
    b[2, 2, 3] = True
    assert mx.hd95(a, b, (1, 1, 2.5)) == pytest.approx(2.5)


def test_hd95_empty_mask_errors():
    m = np.zeros((4, 4, 4), bool)
    n = m.copy()
    n[0, 0, 0] = True
    with pytest.raises(ValueError, match="nonempty"):
        mx.hd95(m, n, (1, 1, 1))


def test_hd95_symmetric():
    rng = np.random.default_rng(8)
    a = rng.random((10, 10, 10)) > 0.6
    b = rng.random((10, 10, 10)) > 0.6
    assert mx.hd95(a, b, (1, 1, 1)) == pytest.approx(mx.hd95(b, a, (1, 1, 1)))


def _random_boxes(rng, dims, n):
    m = np.zeros(dims, bool)
    for _ in range(n):
        lo = [int(rng.integers(0, d - 3)) for d in dims]
        hi = [lo_i + int(rng.integers(3, d - lo_i + 1)) for lo_i, d in zip(lo, dims)]
        m[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return m


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hd95_matches_brute_force_oracle_on_random_masks(seed):
    # two boxes plus scattered voxels: surfaces with interiors, and distances
    # that mix all three spacings
    rng = np.random.default_rng(seed)
    dims, spacing = (12, 10, 9), (1.0, 0.7, 2.5)
    a = _random_boxes(rng, dims, 2) | (rng.random(dims) > 0.97)
    b = _random_boxes(rng, dims, 2) | (rng.random(dims) > 0.97)
    ref = np.percentile(surface_distances_oracle(a, b, spacing), 95, method="linear")
    assert mx.hd95(a, b, spacing) == pytest.approx(ref, rel=0, abs=1e-12)


# tre


def test_tre_zero_field_coincident_points():
    lms = LandmarkSet(moving=[[2, 2, 2], [5, 5, 5]], fixed=[[2, 2, 2], [5, 5, 5]])
    mean, med = mx.tre(lms, DisplacementField.zero((8, 8, 8)), (1, 1, 1))
    assert mean == 0.0 and med == 0.0


def test_tre_constant_offset():
    lms = LandmarkSet(moving=[[2, 2, 4], [5, 5, 7]], fixed=[[2, 2, 2], [5, 5, 5]])
    mean, med = mx.tre(lms, DisplacementField.zero((10, 10, 10)), (1, 1, 1))
    assert mean == pytest.approx(2.0)
    assert med == pytest.approx(2.0)


def test_tre_true_field_beats_zero():
    p = synth_problem(5, dims=(16, 16, 16))
    t_true, _ = mx.tre(p.landmarks, p.true_field, p.phantom.spacing)
    t_zero, _ = mx.tre(p.landmarks, DisplacementField.zero((16, 16, 16)),
                       p.phantom.spacing)
    assert t_true < t_zero


def test_tre_out_of_bounds():
    lms = LandmarkSet(moving=[[0, 0, 0]], fixed=[[20, 0, 0]])
    with pytest.raises(ValueError, match="bounds"):
        mx.tre(lms, DisplacementField.zero((8, 8, 8)), (1, 1, 1))


def test_tre_respects_spacing():
    # q at 4mm with 2mm spacing = voxel 2; field shifts +1 voxel = +2mm
    u = np.zeros((3, 8, 8, 8), np.float32)
    u[2] = 1.0
    lms = LandmarkSet(moving=[[4, 4, 6]], fixed=[[4, 4, 4]])
    mean, _ = mx.tre(lms, DisplacementField(u), (2, 2, 2))
    assert mean == pytest.approx(0.0, abs=1e-9)


# reports


def test_evaluate_pair_full_report():
    p = synth_problem(6, dims=(16, 16, 16))
    report = mx.evaluate_pair(p.true_field, moving_labels=p.labels,
                              fixed_labels=p.fixed_labels, landmarks=p.landmarks,
                              pair_id="synth6")
    assert report.pair_id == "synth6"
    assert 0.0 <= report.dice_mean <= 1.0
    assert report.hd95_mean >= 0.0
    assert report.tre_mean == pytest.approx(0.0, abs=1e-6)
    assert report.ndv_percent == 0.0
    d = report.to_dict()
    assert set(mx.MetricReport.CSV_FIELDS).issubset(
        {"pair", "dice_mean", "hd95_mean", "tre_mean", "tre_median", "ndv_percent"})
    assert len(report.csv_row()) == len(mx.MetricReport.CSV_FIELDS)
    assert d["dice_mean"] == report.dice_mean


def test_aggregate_formatting():
    reports = [mx.MetricReport(pair_id=str(i), dice_mean=v)
               for i, v in enumerate((0.75, 0.77, 0.76))]
    agg = mx.aggregate_reports(reports)
    assert agg["pairs"] == 3
    mean = np.mean([0.75, 0.77, 0.76])
    std = np.std([0.75, 0.77, 0.76])
    assert agg["dice"] == f"{mean:.4f} ± {std:.4f}"
