"""Tests of the benchmark harness itself, at a tiny size."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import rekpool  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.tracer import TRACED, Tracer, instrument  # noqa: E402

TINY = {
    "street": wl.StreetSize(realizations=10, n_trees=5),
    "city": wl.CitySize(south_boxes=2, curb_boxes=1, positions=6, realizations=3),
    "pool": wl.PoolSize(scenes=2, positions=3, batch_realizations=10, steps=24,
                        capacity=3, n_trees=3, checkpoint_every=6),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.fixture
def no_import_timing(monkeypatch):
    # a fresh interpreter per set-up repeat costs about a second
    monkeypatch.setattr(bench, "import_seconds", lambda: 0.0)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_emitted_with_unit(workload, trace, tmp_path, no_import_timing):
    result, report = bench.run(workload, seed=3, seconds=0, trace=trace,
                               size=TINY[workload], work_root=str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in spec] == list(result["metrics"])
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


def test_traced_self_times_fit_inside_operations(tmp_path):
    inputs = wl.setup_pool(5, TINY["pool"], str(tmp_path))
    tracer = Tracer()
    with instrument(tracer):
        ep = wl.pool_episode(inputs, tracer)
    assert ep.failed == 0, ep.errors
    assert tracer.calls["pool.ingest"] == len(inputs.log)
    assert tracer.counts["pool.evicted"] > 0
    assert all(v >= 0 for v in tracer.self_ns.values())
    ops = [s for s in tracer.spans if s[4] == 0]
    assert {s[1] for s in ops} == {"bench.step", "bench.checkpoint"}
    assert sum(tracer.self_ns.values()) <= sum(end - start for _, _, start, end, _, _ in ops)
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, name, start, end, parent, op in tracer.spans:
        if parent:
            p = by_id[parent]
            assert p[2] <= start <= end <= p[3] and p[5] == op


def test_instrument_rebinds_from_imports_and_restores():
    from rekpool import features, geometry, propagation
    originals = {(m, a): getattr(sys.modules["rekpool." + m], a) for m, a, _ in TRACED}
    orig_blocked = geometry.segment_blocked
    with instrument(Tracer()):
        assert propagation.segment_blocked is not orig_blocked
        assert features.segment_blocked is propagation.segment_blocked
        assert rekpool.segment_blocked is propagation.segment_blocked
    for (m, a), fn in originals.items():
        assert getattr(sys.modules["rekpool." + m], a) is fn
    assert features.segment_blocked is orig_blocked
    assert rekpool.Pool.ingest.__qualname__ == "Pool.ingest"


def test_same_seed_same_inputs_other_seed_changes_them(tmp_path):
    def city(seed, sub):
        inp = wl.setup_city(seed, TINY["city"], str(tmp_path / sub))
        with open(inp.scene_path, "rb") as f:
            return f.read()

    def pool_inputs(seed, sub):
        inp = wl.setup_pool(seed, TINY["pool"], str(tmp_path / sub))
        return inp.log, [(X.tobytes(), y.tobytes()) for X, y in inp.data.values()]

    assert city(1, "a") == city(1, "b") != city(2, "c")
    assert pool_inputs(1, "a") == pool_inputs(1, "b") != pool_inputs(2, "c")

    def street(seed, sub):
        inp = wl.setup_street(seed, TINY["street"], str(tmp_path / sub))
        return wl.street_episode(inp).fingerprint["sha256"]["dataset.csv"]

    assert street(1, "a") == street(1, "b") != street(2, "c")


def test_city_keeps_its_los_nlos_mix_and_box_count(tmp_path):
    inp = wl.setup_city(9, wl.CitySize(), str(tmp_path))
    assert inp.n_boxes == 20
    assert [s.los for s in inp.truth] == [False] * 4 + [True] * 8


def test_crash_counts_as_failed_operation(tmp_path, monkeypatch, no_import_timing):
    def crash(argv=None):
        raise KeyError("boom")

    monkeypatch.setattr(wl.cli, "main", crash)
    result, report = bench.run("city", seed=3, seconds=0, trace=False,
                               size=TINY["city"], work_root=str(tmp_path))
    assert result["failed"] == result["attempted"] == 2
    assert not result["correct"]
    assert report["problems"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "city",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
