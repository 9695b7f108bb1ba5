"""Tests of the benchmark itself: result schema, repeatable counts, failing checks.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.add_library_path()

import hostspeed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
COUNTS = ("compiler.states", "compiler.nnz", "decoding.cn_sets", "forward_backward.nnz_frames",
          "confusion.sets_out", "confusion.sets_in", "decoding.unconfident_frames", "io.bytes")
SMALL = {"pseudolabel": None, "train-step": None, "merge-transform": 2}


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def small_run(name, reference, trace, seed=5, **kwargs):
    kwargs.setdefault("pool", SMALL[name])
    kwargs.setdefault("min_ops", 3)
    return run.run(name, seed, 0.01, trace, reference=reference, setup_repeats=1,
                   out_dir=None, **kwargs)


def assert_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    json.dumps(result, allow_nan=False)


def test_benchmark_json_matches_the_runner():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_end_to_end_schema(reference):
    result, lines = small_run("pseudolabel", reference, trace=False)
    assert_schema(result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(result["metrics"][m]["value"] > 0 for m in run.END_TO_END_UNITS)
    assert any(line.startswith("# failed_frac 0 ") for line in lines)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_schema_and_counts_repeat(name, reference):
    first, _ = small_run(name, reference, trace=True)
    second, _ = small_run(name, reference, trace=True)
    for result in (first, second):
        assert_schema(result, BENCHMARK["per_layer"])
        assert result["correct"] and result["failed"] == 0
    for key in COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["compiler.states"]["value"] > 0
    assert first["metrics"]["decoding.cn_sets"]["value"] > 0


def test_corrupted_loss_reference_counts_as_failed(reference):
    corrupted = copy.deepcopy(reference)
    costs = [line["unconfident_frames"] for line in reference["pseudolabel"]["lines"]]
    first = workloads.stratified_order(5, costs)[0]
    corrupted["pseudolabel"]["lines"][first]["loss"] *= 1.0 + 1e-6
    result, lines = small_run("pseudolabel", corrupted, trace=False, pool=2, min_ops=4)
    assert result["attempted"] == 4 and result["failed"] == 2
    assert not result["correct"]
    assert any(line.startswith("# failed_frac 0.5 ") for line in lines)


def test_corrupted_set_count_is_charged_to_decoding(reference):
    corrupted = copy.deepcopy(reference)
    corrupted["train-step"]["cn_sets"][3] += 1
    result, _ = small_run("train-step", corrupted, trace=True)
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["decoding.failed"]["value"] == result["attempted"]
    assert result["metrics"]["loss.failed"]["value"] == 0


def test_stratified_order_covers_each_id_once_and_balances_prefixes():
    costs = [float(i % 24) for i in range(96)]
    order = workloads.stratified_order(3, costs)
    assert sorted(order) == list(range(96))
    first_round = {costs[i] // 3 for i in order[: workloads.STRATA]}
    assert len(first_round) == workloads.STRATA
    assert order != workloads.stratified_order(4, costs)


def test_merge_set_ups_cover_the_catalogue(reference, monkeypatch):
    workload = workloads.MergeTransform(reference)
    monkeypatch.setattr(workload, "serialise", lambda calls, line_id: (None, [], []))
    seen = []
    for part in range(workload.setup_repeats):
        seen += [line[0] for line in workload.setup(7, None, part)["lines"]]
    assert sorted(seen) == list(range(workloads.MERGE_CATALOGUE))


def test_host_speed_scales_by_the_probes_around_an_interval():
    speed = hostspeed.HostSpeed()
    speed.probes = [0.010, 0.012, 0.006, 0.024, 0.012, 0.012, 0.012, 0.100]
    # probes 1..6 lie within WINDOW of the interval between probes 3 and 4
    assert speed.scale(3, 4) == pytest.approx(hostspeed.REFERENCE_PROBE_MS * 1e-3 / 0.012)
    assert 0.0 < hostspeed.probe() < 1.0


def test_tail_reports_nearest_rank_and_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values, 90) == (90.0, 10)
    assert run.tail(values, 80) == (80.0, 20)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pseudolabel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
