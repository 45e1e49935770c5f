"""Saved files: written in place with the tail cut, bytes pinned, links kept;
loads check the payload size first and read without a second copy."""

import builtins
import json
import os
import tracemalloc

import numpy as np
import pytest

from regadapt import autodiff as ad
from regadapt import cli
from regadapt import unet
from regadapt import volume_io as vio
from regadapt.fields import DisplacementField
from regadapt.volume_io import (
    LabelMap,
    LandmarkSet,
    Volume3D,
    VolumeIOError,
    load_field,
    load_volume,
    save_field,
    save_labels,
    save_landmarks,
    save_volume,
)

SMALL = ["--base-channels", "2", "--depth", "2"]


def _field(n, seed=0):
    rng = np.random.default_rng(seed)
    return DisplacementField(rng.standard_normal((3, n, n, n)).astype(np.float32))


def test_write_file_cuts_the_old_tail(tmp_path):
    path = tmp_path / "blob"
    assert vio._write_file(path, [b"0123456789", np.arange(3, dtype="<i4")]) == 22
    assert vio._write_file(path, [b"abc"]) == 3
    assert path.read_bytes() == b"abc"
    vio._write_file(path, [])
    assert path.read_bytes() == b""


def test_write_file_survives_partial_writes(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data)[:7]))
    a = np.arange(50, dtype="<f4").reshape(2, 5, 5)
    path = tmp_path / "blob"
    vio._write_file(path, [b"head", a])
    assert path.read_bytes() == b"head" + a.tobytes()


def test_write_file_to_a_device_does_not_truncate():
    assert vio._write_file(os.devnull, [b"discarded"]) == 9


def test_shorter_field_and_manifest_overwrite(tmp_path):
    path = tmp_path / "u.vol"
    save_field(_field(16, seed=1), path, spacing=(0.123456789, 0.987654321, 1.5))
    small = _field(8, seed=2)
    save_field(small, path)
    assert path.stat().st_size == 3 * 8 ** 3 * 4
    assert np.array_equal(load_field(path).data, small.data)
    manifest = (tmp_path / "u.vol.json").read_bytes()
    assert manifest == json.dumps(
        {"dims": [8, 8, 8], "spacing": [1.0, 1.0, 1.0], "kind": "field"}).encode()


def test_shorter_checkpoint_overwrite(tmp_path):
    path = tmp_path / "c.ckpt"
    unet.save_cascade(unet.init_cascade(config=unet.CascadeConfig(base_channels=16)), path)
    small = unet.init_cascade(config=unet.CascadeConfig(base_channels=8, seed=3))
    unet.save_cascade(small, path)
    params = small.named_params()
    assert path.stat().st_size == sum(4 * p.data.size for p in params.values())
    loaded = unet.load_cascade(path)
    for name, p in loaded.named_params().items():
        assert np.array_equal(p.data, params[name].data)
    assert json.loads((tmp_path / "c.ckpt.json").read_text())["meta"]["base_channels"] == 8


def test_saver_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(4)
    vol = Volume3D(dims=(3, 4, 5), spacing=(0.5, 1.0, 2.25),
                   data=rng.standard_normal((3, 4, 5)))
    lab = LabelMap(dims=(3, 4, 5), spacing=(1.0, 1.0, 1.0),
                   data=rng.integers(0, 4, (3, 4, 5)))
    u = _field(4, seed=5)
    save_volume(vol, tmp_path / "v.vol")
    save_labels(lab, tmp_path / "l.vol")
    save_field(u, tmp_path / "u.vol", spacing=(1.0, 2.0, 3.0))
    expect = {
        "v.vol": (vol.data, "<f4", {"dims": [3, 4, 5], "spacing": [0.5, 1.0, 2.25],
                                    "kind": "volume"}),
        "l.vol": (lab.data, "<i4", {"dims": [3, 4, 5], "spacing": [1.0, 1.0, 1.0],
                                    "kind": "labels"}),
        "u.vol": (u.data, "<f4", {"dims": [4, 4, 4], "spacing": [1.0, 2.0, 3.0],
                                  "kind": "field"}),
    }
    for name, (data, dtype, manifest) in expect.items():
        assert (tmp_path / name).read_bytes() == np.ascontiguousarray(data, dtype).tobytes()
        assert (tmp_path / (name + ".json")).read_text() == json.dumps(manifest)

    lms = LandmarkSet(moving=rng.standard_normal((3, 3)), fixed=rng.standard_normal((3, 3)))
    save_landmarks(lms, tmp_path / "lm.csv")
    rows = [",".join(repr(float(x)) for x in (*p, *q)) + "\r\n"
            for p, q in zip(lms.moving, lms.fixed)]
    assert (tmp_path / "lm.csv").read_bytes() == "".join(rows).encode()

    ones = np.ones((1, 1, 1, 1, 4), np.float32)
    params = {"b": rng.standard_normal((2, 3)), "a": ad.DiffTensor(ones)}
    vio.save_params(tmp_path / "p.ckpt", params, meta={"k": 1})
    blob = ones.tobytes() + np.ascontiguousarray(params["b"], "<f4").tobytes()
    assert (tmp_path / "p.ckpt").read_bytes() == blob
    manifest = {"params": [{"name": "a", "shape": [1, 1, 1, 1, 4], "offset": 0},
                           {"name": "b", "shape": [2, 3], "offset": 16}],
                "meta": {"k": 1}, "config_hash": vio.config_hash({"k": 1})}
    assert (tmp_path / "p.ckpt.json").read_text() == json.dumps(manifest, indent=1)


def _run_every_writer(tmp_path):
    d = tmp_path / "s"
    assert cli.main(["synth", "--seed", "3", "--dims", "8", "8", "8", "--out-dir", str(d)]) == 0
    pair = ["--moving", str(d / "phantom.vol"), "--fixed", str(d / "fixed.vol")]
    labels = ["--moving-labels", str(d / "labels.vol"), "--fixed-labels",
              str(d / "fixed_labels.vol"), "--landmarks", str(d / "landmarks.csv")]
    assert cli.main(["register", *pair, *labels, "--steps", "1",
                     "--out-field", str(tmp_path / "f.vol"),
                     "--report", str(tmp_path / "r.json"), *SMALL]) == 0
    assert cli.main(["evaluate", "--field", str(tmp_path / "f.vol"), *labels,
                     "--report", str(tmp_path / "e.json"),
                     "--csv", str(tmp_path / "e.csv")]) == 0
    assert cli.main(["baseline", *pair, "--strategy", "backbone-only", "--steps", "1",
                     "--out", str(tmp_path / "b.json"), *SMALL]) == 0
    assert cli.main(["pretrain", "--synth-pairs", "1", "--dims", "8", "8", "8",
                     "--pretrain-steps", "1", "--out", str(tmp_path / "c.ckpt"), *SMALL]) == 0


def test_no_writer_truncates_on_open(tmp_path, monkeypatch, capsys):
    _run_every_writer(tmp_path)
    before = {p: p.stat().st_size for p in tmp_path.rglob("*") if p.is_file()}
    opened = []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((str(path), "O_TRUNC" if flags & os.O_TRUNC else "os.open"))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    _run_every_writer(tmp_path)
    capsys.readouterr()
    ours = [(p, how) for p, how in opened if p.startswith(str(tmp_path))]
    written = {p for p, how in ours if how == "os.open"}
    assert written >= {str(p) for p in before}
    bad = [(p, how) for p, how in ours if how == "O_TRUNC" or "w" in how]
    assert bad == []


def test_symlink_and_hard_link_keep_pointing_at_the_bytes(tmp_path):
    target = tmp_path / "target.vol"
    target.write_bytes(b"\xff" * 10_000)
    link = tmp_path / "link.vol"
    link.symlink_to(target)
    hard = tmp_path / "hard.vol"
    os.link(target, hard)
    u = _field(6, seed=6)
    save_field(u, link)
    assert link.is_symlink()
    assert target.read_bytes() == hard.read_bytes() == u.data.astype("<f4").tobytes()
    assert np.array_equal(load_field(link).data, u.data)


def test_saved_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        save_volume(Volume3D(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.zeros(8)),
                    tmp_path / "m.vol")
    finally:
        os.umask(old)
    assert (tmp_path / "m.vol").stat().st_mode & 0o777 == 0o640


def _write_manifest(path, manifest):
    with builtins.open(str(path) + ".json", "w") as f:
        json.dump(manifest, f)


def test_oversized_payload_rejected_before_reading(tmp_path):
    path = tmp_path / "big.vol"
    with builtins.open(path, "wb") as f:
        f.truncate(64 << 20)  # sparse: no data blocks on disk
    _write_manifest(path, {"dims": [2, 2, 2], "spacing": [1, 1, 1], "kind": "volume"})
    tracemalloc.start()
    try:
        with pytest.raises(VolumeIOError, match="bytes"):
            load_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dims", [[4096, 4096, 4096], [1 << 21, 1 << 21, 1 << 22]])
def test_huge_manifest_dims_rejected_before_allocating(tmp_path, dims):
    # the second product is 2**64: it wraps to 0 in int64 and would pass an empty payload
    path = tmp_path / "small.vol"
    path.write_bytes(b"")
    _write_manifest(path, {"dims": dims, "spacing": [1, 1, 1], "kind": "volume"})
    with pytest.raises(VolumeIOError, match="bytes"):
        load_volume(path)


def test_oversized_checkpoint_rejected_before_reading(tmp_path):
    path = tmp_path / "c.ckpt"
    vio.save_params(path, {"w": np.ones(8, np.float32)})
    with builtins.open(path, "r+b") as f:
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bytes"):
            vio.load_params(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_loads_hold_one_copy(tmp_path):
    n = 64
    data = np.random.default_rng(7).standard_normal((n, n, n)).astype(np.float32)
    save_volume(Volume3D(dims=data.shape, spacing=(1, 1, 1), data=data), tmp_path / "v.vol")
    vio.save_params(tmp_path / "p.ckpt", {"a": data, "b": data[:8]})
    for load in (lambda: load_volume(tmp_path / "v.vol"),
                 lambda: vio.load_params(tmp_path / "p.ckpt")):
        tracemalloc.start()
        try:
            out = load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is not None
        assert peak < 1.5 * data.nbytes

