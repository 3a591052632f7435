"""Tests of the benchmark itself.

    python3 -m pytest evobench -q
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys

import pytest

import numpy as np

import run
import tracer
import workloads
from case import import_pcgp, run_case
from tracer import Tracer, duration, self_times
from workloads import CASES, HERE, ROOT, WORKLOADS, pick_cases, pinned, \
    pinned_digest, write_dataset

import_pcgp()


def _data(name, case, tmp_path):
    kind = WORKLOADS[name].data
    return write_dataset(kind, case, tmp_path) if kind else None


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_the_declared_metrics(name, trace):
    text, result = _run("--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = declared["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True, text
    assert result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[name].overrides["budget"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
        assert m["name"] in text
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {m["name"]: m["better"] for m in spec} == {k: v[1] for k, v in table.items()}
    if not trace:
        assert "failed_eval_frac" in text and "beyond p90" in text
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_workloads_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in declared["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def test_datasets_are_seeded(tmp_path):
    (tmp_path / "a").mkdir()
    for kind in ("regression", "classification"):
        a = write_dataset(kind, 7, tmp_path / "a").read_bytes()
        b = write_dataset(kind, 7, tmp_path).read_bytes()
        c = write_dataset(kind, 8, tmp_path).read_bytes()
        assert a == b != c


def _bindings():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _ in tracer.SEAMS + tuple((m, a, None) for m, a in tracer.STEP_SEAMS)}


def test_traced_run_restores_bindings_and_keeps_the_pinned_digest(tmp_path):
    name, case = "classification_ga", 0
    before = _bindings()
    traced = run_case(name, case, _data(name, case, tmp_path), trace=True)
    assert traced["ok"], traced["problems"]
    assert _bindings() == before
    plain = run_case(name, case, _data(name, case, tmp_path))
    assert plain["ok"] and plain["digest"] == traced["digest"]
    assert plain["digest"] == pinned_digest(name, plain["budget"], case)


def test_unpinned_case_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "DIGESTS", tmp_path / "none.json")
    r = run_case("regression_1pl", 0, _data("regression_1pl", 0, tmp_path))
    assert not r["ok"] and not r["pinned"]
    assert r["failed"] == r["evaluations"] >= WORKLOADS["regression_1pl"].overrides["budget"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cases_are_fixed_by_seed_one_per_speed_stratum(name):
    cases = pick_cases(name, 5, 40)
    assert cases == pick_cases(name, 5, 40) != pick_cases(name, 6, 40)
    order = pinned(name)["by_speed"]
    assert sorted(order) == list(range(CASES))
    strata = [set(s.tolist()) for s in np.array_split(np.asarray(order), 40)]
    assert [sum(c in s for c in cases) for s in strata] == [1] * 40


@pytest.mark.parametrize("name", ("regression_1pl", "classification_ga"))
def test_self_times_add_up_to_run_wall_time(name, tmp_path):
    """Serial workloads: span self times plus evolve's add up to the run."""
    r = run_case(name, 1, _data(name, 1, tmp_path), trace=True, spans_dir=tmp_path)
    assert r["ok"], r["problems"]
    with open(tmp_path / f"{name}-1.jsonl") as fh:
        spans = [tuple(json.loads(line)) for line in fh]
    root = next(s for s in spans if s[1] == "evolve.run_evolution")
    inside = {root[0]}
    for s in sorted(spans, key=lambda s: s[0]):     # parents open before children
        if s[4] in inside:
            inside.add(s[0])
    own = self_times(spans)
    assert len(inside) > 100
    assert math.isclose(sum(own[i] for i in inside), duration(root), rel_tol=1e-9)
    assert math.isclose(r["layers"]["wall"], duration(root))


def test_cartpole_digest_does_not_depend_on_workers():
    one, two = (run_case("cartpole_ga", 2, workers=k) for k in (1, 2))
    assert one["ok"] and two["ok"]
    assert one["digest"] == two["digest"]


def test_missing_seam_is_reported_absent(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(tracer, "SEAMS", tracer.SEAMS + (
        ("pcgp.evolve", "no_such_function", "x"), ("pcgp.no_such_module", "f", "y")))
    t = Tracer("t").install()
    t.close()
    assert t.absent == ["pcgp.evolve.no_such_function", "pcgp.no_such_module.f"]
    monkeypatch.undo()
    assert _bindings() == before


def test_failing_program_counts_every_evaluation_failed(monkeypatch, tmp_path):
    evolve = importlib.import_module("pcgp.evolve")

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(evolve, "apply_mutation", broken)
    r = run_case("regression_1pl", 0, _data("regression_1pl", 0, tmp_path))
    budget = WORKLOADS["regression_1pl"].overrides["budget"]
    assert not r["ok"] and r["failed"] == r["evaluations"] >= budget


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "regression_1pl",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
