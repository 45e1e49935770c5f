"""Smoke tests for the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced. The tests check that
every metric BENCHMARK.json names comes out with its unit, that the
traced run's span tree is well formed, that the first-step check fails a
broken conv3d or Adam step, and that the benchmark refuses to run where
it must.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _check_metrics(result, declared):
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run(workload, seed=3, seconds=0.1, trace=0, tiny=True, log=lambda m: None)
    _check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_a_well_formed_tree(workload, tmp_path):
    spans_path = str(tmp_path / "spans.jsonl")
    result = run.run(workload, seed=3, seconds=0.1, trace=1, tiny=True,
                     spans_path=spans_path, log=lambda m: None)
    _check_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.95
    if workload == "backbone-xc-64":
        assert metrics["autodiff.conv3d.calls"]["value"] == 0

    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    assert spans
    child_time = [0.0] * len(spans)
    for s in spans:
        assert s["start"] <= s["end"]
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            assert p < s["i"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (parent, s)
            child_time[p] += s["end"] - s["start"]
    for s, c in zip(spans, child_time):
        assert (s["end"] - s["start"]) - c >= -1e-9, s


@pytest.mark.parametrize("broken", ["conv3d", "adam_step"])
def test_first_step_check_catches_a_broken_layer(broken, tmp_path, monkeypatch):
    import tracing
    import workloads

    rg = run._import_program()
    ad = rg["autodiff"]
    conv, adam = ad.conv3d, ad.adam_step
    if broken == "conv3d":
        def wrong(x, kernel, stride=1, padding=0):
            out = conv(x, kernel, stride=stride, padding=padding)
            out.data *= 1.001
            return out

        monkeypatch.setattr(ad, "conv3d", wrong)
        expected = "conv3d calls wrong"
    else:
        def wrong(params, state, base_lr, warmup_steps=0):
            # steps four times as far as the learning rate it reports
            return adam(params, state, 4 * base_lr, warmup_steps) / 4

        monkeypatch.setattr(ad, "adam_step", wrong)
        expected = "gradients predict"
    workload = workloads.Register(rg, tiny=True)
    workload.prepare(3, str(tmp_path))
    unit = workload.run_unit(0, tracing.Tracer(on=False))
    assert any(expected in f for f in unit.failures), unit.failures


def _bench(args, cwd, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_refuses_to_run_with_the_allocator_or_seed_overridden():
    for var in run.REFUSED_ENV:
        env = dict(os.environ, **{var: "1"})
        out = _bench(["--workload", "register-48", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], ROOT, env)
        assert out.returncode != 0
        assert out.stdout.strip() == ""
        assert var in out.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(["--workload", "register-48", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
