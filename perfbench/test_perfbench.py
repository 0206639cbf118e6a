"""The benchmark's own tests.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from pace import REF_CHUNK_S, PaceSampler
from spans import SpanRecorder, duration_stats, installed, self_times, tail_percentile_bp
from workloads import FleetWide, LongHorizon, PolicyCampaign

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 5000), (99, 5000), (100, 9000), (999, 9000),
     (1000, 9900), (9999, 9900), (10000, 9990), (100000, 9999)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    assert tail_percentile_bp(n) == expected


def test_tail_value_has_at_least_ten_samples_beyond_it():
    for n in range(20, 2500, 7):
        stats = duration_stats([float(i) for i in range(n)])
        tail = stats["tail_ms"] / 1e3
        assert sum(1 for i in range(n) if i > tail) >= 10, n
        assert stats["calls"] == n


def test_exact_boundaries():
    stats = duration_stats([float(i) for i in range(1, 101)])  # 1 … 100 s
    assert stats["p50_ms"] == 50_000.0
    assert stats["tail_pct"] == 90.0
    assert stats["tail_ms"] == 90_000.0  # exactly ten samples (91 … 100) beyond


def test_too_few_samples_report_the_median_as_tail():
    stats = duration_stats([3.0, 1.0, 2.0])
    assert stats["tail_pct"] == 0.0
    assert stats["tail_ms"] == stats["p50_ms"] == 2000.0
    assert duration_stats([])["calls"] == 0


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        [0, "root", None, 0.0, 10.0],
        [1, "a", 0, 1.0, 3.0],
        [2, "b", 0, 2.0, 5.0],   # overlaps a: the union 1…5 counts once
        [3, "a.child", 1, 1.5, 2.5],
        [4, "late", 0, 9.0, 12.0],  # clipped at the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_recorder_nests_spans_and_computes_self_time():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    inner = rec.span(lambda: None, "inner")

    def outer_body():
        inner()
        inner()

    outer = rec.span(outer_body, "outer")
    outer()  # clock: outer 0, inner 1-2, inner 3-4, outer 5
    assert [s[2] for s in rec.spans] == [None, 0, 0]
    assert rec.durations("outer") == [5.0]
    assert rec.self_seconds("outer") == 3.0
    assert rec.self_seconds("inner") == 2.0
    assert rec.dump()["totals"]["outer"]["self_s"] == 3.0


# ----------------------------------------------------------------------
# Host pace
# ----------------------------------------------------------------------


def test_net_time_drops_the_chunks_inside_and_pace_is_nominal_over_mean_chunk():
    sampler = PaceSampler()
    sampler.chunks = [(1.0, 1.0 + 2 * REF_CHUNK_S), (2.0, 2.0 + 2 * REF_CHUNK_S), (9.0, 9.5)]
    assert sampler.net((0.0, 5.0)) == pytest.approx(5.0 - 4 * REF_CHUNK_S)
    assert sampler.pace((0.0, 5.0)) == pytest.approx(0.5)
    assert sampler.net((3.0, 4.0)) == 1.0
    assert sampler.pace((3.0, 4.0)) is None


def test_an_interrupted_chunk_counts_as_busy_but_not_toward_the_pace():
    sampler = PaceSampler()
    sampler.chunks = [(t, t + REF_CHUNK_S) for t in (1.0, 2.0, 3.0)] + [(4.0, 4.5)]
    assert sampler.pace((0.0, 5.0)) == pytest.approx(1.0)
    assert sampler.net((0.0, 5.0)) == pytest.approx(4.5 - 3 * REF_CHUNK_S)


def test_sampler_runs_chunks_while_entered_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with PaceSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() < start + 0.5:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(sampler.chunks) >= 3
    assert sampler.pace((start, end)) > 0.0
    assert 0.0 < sampler.net((start, end)) < end - start
    ran = len(sampler.chunks)
    time.sleep(0.25)
    assert len(sampler.chunks) == ran


def test_durations_are_net_of_chunks_and_carry_the_pace():
    record = {"wall_at": [[0.0, 10.0]], "setup_at": [[0.0, 1.0], [11.0, 12.0], [12.0, 14.0]]}
    assert run.durations(record, None) == {"wall_s": [10.0], "setup_s": 1.0, "pace": None}
    sampler = PaceSampler()
    sampler.chunks = [(5.0, 5.0 + 2 * REF_CHUNK_S), (13.0, 13.0 + 2 * REF_CHUNK_S)]
    timed = run.durations(dict(record, spec_at=[[0.0, 6.0]]), sampler)
    assert timed["wall_s"] == [pytest.approx(10.0 - 2 * REF_CHUNK_S)]
    assert timed["spec_s"] == [pytest.approx(6.0 - 2 * REF_CHUNK_S)]
    assert timed["setup_s"] == 1.0  # median of 1, 1 and 2 - chunk
    assert timed["pace"] == pytest.approx(0.5)


def test_end_to_end_times_are_net_times_at_the_nominal_pace():
    class Workload:
        def host_ticks(self, seed):
            return 1000.0

    rep = {"wall_s": [10.0], "setup_s": 2.0, "pace": 0.5, "peak_rss_mb": 1.0, "warm_rerun_s": 0.1}
    metrics = run.end_to_end(Workload(), 1, [rep, dict(rep, pace=None)])
    assert metrics["wall_s"] == pytest.approx(7.5)  # median of 5 and 10 (no pace: 1)
    assert metrics["setup_s"] == pytest.approx(1.5)
    assert metrics["host_ticks_per_s"] == pytest.approx(150.0)  # median of 200 and 100
    assert (metrics["net_wall_s"], metrics["pace"]) == (10.0, 0.75)


# ----------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ----------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER, run.WORKLOAD_FIGURES):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _failed_frac(record):
    failures = record["failures"]
    return sum(1 for m in failures.values() if m) / len(failures)


@pytest.mark.parametrize(
    "workload",
    [
        lambda ref: FleetWide(hosts=8, hours=0.5, reference=ref),
        lambda ref: LongHorizon(hosts=8, hours=3.0, reference=ref),
        lambda ref: PolicyCampaign(hosts=8, hours=2.0, reference=ref),
    ],
    ids=["fleet-wide", "long-horizon", "policy-campaign"],
)
def test_wrong_reference_fails_every_run(workload, tmp_path):
    good = workload({}).run(7, tmp_path / "good")
    assert _failed_frac(good) == 0.0, good["failures"]
    wrong = {label: (bits[0] + 1.0, bits[1]) for label, bits in good["bits"].items()}
    bad = workload(wrong).run(7, tmp_path / "bad")
    assert _failed_frac(bad) == 1.0


def test_reference_applies_only_to_the_default_seed(tmp_path):
    record = FleetWide(hosts=8, hours=0.5, reference={"S3-PM": (0.0, 0.0)}).run(8, tmp_path)
    assert _failed_frac(record) == 0.0


def test_tally_counts_crashes_and_nondeterminism():
    tally = run.Tally(runs_per_rep=2)
    tally.add({"bits": {"x": [1.0, 0.0]}, "failures": {"x": [], "y": []}})
    tally.add({"bits": {"x": [2.0, 0.0]}, "failures": {"x": [], "y": []}})
    tally.add(None)
    assert (tally.attempted, tally.failed) == (6, 3)


# ----------------------------------------------------------------------
# Tracing from outside
# ----------------------------------------------------------------------


def test_tracing_restores_the_program_and_leaves_outputs_unchanged(tmp_path):
    from repro.core.plane.arbiter import PowerAwareManager
    from repro.workload.traces import DiurnalTrace

    before = (PowerAwareManager.evaluate, DiurnalTrace.at)
    workload = FleetWide(hosts=8, hours=0.5, reference={})
    plain = workload.run(7, tmp_path / "plain")
    rec = SpanRecorder()
    with installed(rec):
        traced = workload.run(7, tmp_path / "traced")
    assert (PowerAwareManager.evaluate, DiurnalTrace.at) == before
    assert traced["bits"] == plain["bits"]
    metrics = run.layer_metrics(rec, traced)
    parent_added = {
        "core.parallel.pool_overhead_s", "bench.untraced_wall_s", "bench.traced_wall_s",
        "bench.trace_overhead_s", "bench.trace_overhead_frac",
    }
    assert set(metrics) | parent_added == set(run.PER_LAYER)
    assert metrics["sim.events"] > 0 and metrics["workload.trace_at_calls"] > 0
    assert 0.0 < metrics["sim.self_s"] < metrics["sim.run_s"]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "fleet-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
