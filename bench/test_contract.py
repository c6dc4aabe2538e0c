"""The benchmark keeps its contract: ``BENCHMARK.json`` is well formed,
every workload emits every declared metric, and the checkers can fail."""

import glob
import json
import math
import os
import re

import pytest

from repro import Dataset
from repro.util.ids import seed_ids

from bench import compare, run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(autouse=True)
def _leave_no_global_state():
    yield
    seed_ids(None)  # run_workload seeds the id generator


@pytest.fixture(scope="module")
def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as f:
        return json.load(f)


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in spec["paths"])
    assert 1 <= len(spec["command"]) <= 32
    for word in spec["command"]:
        assert len(word) <= 200
        assert not word.startswith("/") and ".." not in word
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60

    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.SIZES) == set(workloads.SMOKE_SIZES) == set(
        workloads.WORKLOADS)

    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s").items()
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")

    # the whole driver schedule fits its time cap at 30 s a run
    assert (4 + 22 * len(spec["workloads"])) * 30 <= 3420


def test_only_this_file_is_collected_from_bench():
    here = os.path.dirname(os.path.abspath(__file__))
    collected = glob.glob(os.path.join(here, "test_*.py")) + glob.glob(
        os.path.join(here, "*_test.py"))
    assert [os.path.basename(p) for p in collected] == ["test_contract.py"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_declared_metric(spec, name):
    untraced = run.run_workload(name, seed=0, seconds=0, trace=False,
                                smoke=True)
    assert untraced["correct"] and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric, got in untraced["metrics"].items():
        assert math.isfinite(got["value"]) and got["value"] > 0, metric

    traced = run.run_workload(name, seed=0, seconds=0, trace=True, smoke=True)
    assert traced["correct"] and not traced["missing_layer_metrics"]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for metric, got in traced["metrics"].items():
        assert math.isfinite(got["value"]), metric
    # every layer the workload enters produced spans; the wrappers are gone
    assert traced["metrics"]["obs.span_count"]["value"] > 0
    assert os.path.exists(os.path.join(run.OUT_DIR, f"{name}.spans.jsonl"))
    assert Dataset.read_rows.__name__ == "read_rows"


@pytest.mark.parametrize("name, corrupt", [
    ("loader_warm", "batch"),      # one delivered batch has a flipped pixel
    ("tql_warm", "reference"),     # one numpy reference value is wrong
    ("serve_tenants", "payload"),  # one served window has a flipped pixel
    ("ingest_s3", "snapshot"),     # the post-flush snapshot lost a chunk
])
def test_checkers_are_live(name, corrupt):
    result = run.run_workload(name, seed=0, seconds=0, trace=False,
                              smoke=True, corrupt=corrupt)
    assert not result["correct"] and result["failed_ops_frac"] > 0


def test_renamed_stats_source_is_null_not_a_crash(monkeypatch):
    monkeypatch.setattr(
        workloads, "_cache_stats",
        lambda cache: dict.fromkeys(
            ("lru_cache.hits", "lru_cache.misses", "lru_cache.hit_ratio")))
    result = run.run_workload("loader_s3", seed=0, seconds=0, trace=True,
                              smoke=True)
    # counts fall back to the repro.obs registry; a ratio has no fallback
    assert result["metrics"]["lru_cache.misses"]["value"] > 0
    assert result["missing_layer_metrics"] == ["lru_cache.hit_ratio"]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1) \
        == "within-bound"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) \
        == "worse"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "higher", 0.1) \
        == "worse"
    noisy = [60.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, [v * 1.2 for v in noisy], "lower", 0.1) \
        == "unresolved"
