"""The repository benchmark: one command, every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-wide --seed 7 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced pass,
with the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
results record (environment metadata, every repetition) is written to
``perfbench/out/``.

Every repetition runs in a fresh interpreter (this file with
``--child``), so peak RSS is that of a fresh process running the
workload and no repetition inherits another's heap.  Repetitions repeat
until ``--seconds`` have passed; each metric is the median over them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from pace import PaceSampler
from spans import SpanRecorder, duration_stats, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"

#: A repetition that has not finished after this long is killed.
CHILD_TIMEOUT_S = 170.0

#: End-to-end metrics (``--trace 0``), name → unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "host_ticks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Further end-to-end figures: printed and recorded, not gated (see the
#: README for why each one cannot carry a bound).
WORKLOAD_FIGURES = {
    "net_wall_s": "s",
    "net_setup_s": "s",
    "pace": "ratio",
    "warm_rerun_s": "s",
    "resume_s": "s",
    "ckpt_bytes": "B",
    "failed_frac": "ratio",
}


def _timing(prefix: str) -> Dict[str, str]:
    return {
        prefix + "_s": "s",
        prefix + "_calls": "count",
        prefix + "_p50_ms": "ms",
        prefix + "_tail_ms": "ms",
        prefix + "_tail_pct": "%",
    }


#: Per-layer metrics (``--trace 1``), name → unit, named by module.
PER_LAYER = {
    "workload.build_fleet_s": "s",
    "workload.trace_at_calls": "count",
    "datacenter.cluster_build_s": "s",
    "datacenter.host_demand_calls": "count",
    "datacenter.vm_demand_calls": "count",
    "datacenter.vm_demand_per_host_demand": "ratio",
    "placement.spread_placement_s": "s",
    **_timing("placement.plan_evacuation"),
    "placement.recommend_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    **_timing("telemetry.sample_once"),
    "telemetry.stream_emit_s": "s",
    "telemetry.stream_bytes": "B",
    "telemetry.trace_events": "count",
    "telemetry.to_jsonl_s": "s",
    "telemetry.trace_jsonl_bytes": "B",
    "telemetry.build_report_s": "s",
    **_timing("core.plane.evaluate"),
    "core.plane.react_to_shortfall_s": "s",
    "core.plane.wakes_requested": "count",
    "core.plane.parks_completed": "count",
    "core.plane.wake_success_ratio": "ratio",
    "migration.started": "count",
    "migration.failed": "count",
    "migration.completed_ratio": "ratio",
    "core.checkpoint.save_s": "s",
    "core.checkpoint.save_count": "count",
    "core.checkpoint.save_p50_ms": "ms",
    "core.checkpoint.bytes_per_save": "B",
    "core.checkpoint.bytes_total": "B",
    "core.checkpoint.load_s": "s",
    "core.checkpoint.resume_s": "s",
    "core.parallel.pool_overhead_s": "s",
    "core.parallel.digest_s": "s",
    "core.cache.get_s": "s",
    "core.cache.put_s": "s",
    "core.cache.entry_bytes": "B",
    "core.cache.hits": "count",
    "core.cache.misses": "count",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


# ----------------------------------------------------------------------
# Child: one repetition in a fresh interpreter
# ----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the base is 0 (the base is reported too)."""
    return num / den if den else 0.0


def layer_metrics(rec: Any, record: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (pool overhead and
    tracing overhead need the untraced passes; the parent adds them)."""
    counts = rec.counts
    facts = record["facts"]

    def total(span: str) -> float:
        return sum(rec.durations(span))

    def timing(prefix: str, span: str) -> Dict[str, float]:
        stats = duration_stats(rec.durations(span))
        return {prefix + "_" + key: value for key, value in stats.items()}

    run_s = total("sim.run")
    saves = rec.durations("core.checkpoint.save")
    ckpt_bytes = record.get("ckpt_bytes", 0)
    metrics = {
        "workload.build_fleet_s": total("workload.build_fleet"),
        "workload.trace_at_calls": counts["workload.trace_at_calls"],
        "datacenter.cluster_build_s": total("datacenter.cluster_build"),
        "datacenter.host_demand_calls": counts["datacenter.host_demand_calls"],
        "datacenter.vm_demand_calls": counts["datacenter.vm_demand_calls"],
        "datacenter.vm_demand_per_host_demand": _ratio(
            counts["datacenter.vm_demand_calls"], counts["datacenter.host_demand_calls"]
        ),
        "placement.spread_placement_s": total("placement.spread_placement"),
        **timing("placement.plan_evacuation", "placement.plan_evacuation"),
        "placement.recommend_s": total("placement.recommend"),
        "sim.run_s": run_s,
        "sim.events": counts["sim.events"],
        "sim.self_s": rec.self_seconds("sim.run"),
        "sim.us_per_event": _ratio(run_s * 1e6, counts["sim.events"]),
        **timing("telemetry.sample_once", "telemetry.sample_once"),
        "telemetry.stream_emit_s": total("telemetry.stream_emit"),
        "telemetry.stream_bytes": facts.get("stream_bytes", 0),
        "telemetry.trace_events": counts["telemetry.trace_events"],
        "telemetry.to_jsonl_s": total("telemetry.to_jsonl"),
        "telemetry.trace_jsonl_bytes": counts["telemetry.trace_jsonl_bytes"],
        "telemetry.build_report_s": total("telemetry.build_report"),
        **timing("core.plane.evaluate", "core.plane.evaluate"),
        "core.plane.react_to_shortfall_s": total("core.plane.react_to_shortfall"),
        "core.plane.wakes_requested": facts["wakes_requested"],
        "core.plane.parks_completed": facts["parks_completed"],
        "core.plane.wake_success_ratio": _ratio(
            facts["wakes_requested"] - facts["wake_failures"], facts["wakes_requested"]
        ),
        "migration.started": facts["migrations_started"],
        "migration.failed": facts["migrations_failed"],
        "migration.completed_ratio": _ratio(
            facts["migrations_completed"], facts["migrations_started"]
        ),
        "core.checkpoint.save_s": sum(saves),
        "core.checkpoint.save_count": len(saves),
        "core.checkpoint.save_p50_ms": duration_stats(saves)["p50_ms"],
        "core.checkpoint.bytes_per_save": _ratio(ckpt_bytes, len(saves)),
        "core.checkpoint.bytes_total": ckpt_bytes,
        "core.checkpoint.load_s": total("core.checkpoint.load"),
        "core.checkpoint.resume_s": record.get("resume_s", 0.0),
        "core.parallel.digest_s": total("core.parallel.digest"),
        "core.cache.get_s": total("core.cache.get"),
        "core.cache.put_s": total("core.cache.put"),
        "core.cache.entry_bytes": facts["cache_entry_bytes"],
        "core.cache.hits": counts["core.cache.hits"],
        "core.cache.misses": counts["core.cache.misses"],
    }
    return metrics


def durations(record: Dict[str, Any], sampler: Optional[PaceSampler]) -> Dict[str, Any]:
    """A repetition's timed intervals as net durations, and its pace.

    With a sampler, each interval loses the reference chunks that ran
    inside it, and the pace is taken over every timed interval together
    (None without a sampler, or if no chunk ran).
    """
    timed = record["wall_at"] + record["setup_at"]

    def net(interval: List[float]) -> float:
        start, end = interval
        return sampler.net((start, end)) if sampler else end - start

    out: Dict[str, Any] = {
        "wall_s": [net(i) for i in record["wall_at"]],
        "setup_s": statistics.median(net(i) for i in record["setup_at"])
        if record["setup_at"] else None,
        "pace": sampler.pace((min(i[0] for i in timed), max(i[1] for i in timed)))
        if sampler else None,
    }
    if "spec_at" in record:
        out["spec_s"] = [net(i) for i in record["spec_at"]]
    if "resume_at" in record:
        out["resume_s"] = net(record["resume_at"])
    return out


def child(args: argparse.Namespace) -> int:
    """Run one repetition and print its record as the last stdout line."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="rep-", dir=OUT) as tmp:
        scratch = Path(tmp)
        try:
            sampler: Optional[PaceSampler] = None
            if args.child == "traced":
                recorder = SpanRecorder()
                with installed(recorder):
                    record = workload.run(args.seed, scratch, "traced")
            elif args.child == "plain":
                with PaceSampler() as sampler:
                    record = workload.run(args.seed, scratch, "plain")
            else:
                record = workload.run(args.seed, scratch, args.child)
            record.update(durations(record, sampler))
            if args.child == "traced":
                record["layers"] = layer_metrics(recorder, record)
                spans_path = OUT / "spans-{}-seed{}.json".format(args.workload, args.seed)
                spans_path.write_text(json.dumps(recorder.dump()))
        except Exception:
            traceback.print_exc()
            return 1
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: repeat, check, aggregate, print
# ----------------------------------------------------------------------


def run_child(mode: str, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """One repetition in a fresh process; None if it crashed or hung.

    The child gets its own session, so a hung repetition is killed with
    every pool worker it started.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.Popen(
        cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: {} repetition timed out".format(mode), file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: {} repetition exited {}".format(mode, proc.returncode), file=sys.stderr)
        return None
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def metadata() -> Dict[str, Any]:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=str(ROOT), capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.decode().split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a repository, or one that merely encloses the checkout
    return lines[1]


class Tally:
    """Scenario runs attempted and failed over every repetition.

    Besides each repetition's own checks, every repetition (traced ones
    included) must reproduce the first one's energy and violation bits:
    the same seed gives the same outputs in every process.
    """

    def __init__(self, runs_per_rep: int) -> None:
        self.runs_per_rep = runs_per_rep
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.bits: Optional[Dict[str, Any]] = None

    def add(self, record: Optional[Dict[str, Any]]) -> None:
        if record is None:
            self.attempted += self.runs_per_rep
            self.failed += self.runs_per_rep
            self.messages.append("repetition crashed")
            return
        if self.bits is None:
            self.bits = record["bits"]
        failures = record["failures"]
        for label, bits in record["bits"].items():
            if bits != self.bits.get(label):
                failures.setdefault(label, []).append(
                    "bits {} differ from the first repetition's {}".format(
                        bits, self.bits.get(label)
                    )
                )
        for label, messages in failures.items():
            self.attempted += 1
            if messages:
                self.failed += 1
                self.messages.extend("{}: {}".format(label, m) for m in messages)


def _median(records: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(workload: Any, seed: int, reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over repetitions; wall time over every timed pass of them.

    Wall and set-up times are taken at the nominal host pace: each
    repetition's net times times its pace (see :mod:`pace`; 1 where no
    pace was measured).  The net times themselves are reported too.
    """
    paces = [r["pace"] or 1.0 for r in reps]
    walls = [wall * pace for r, pace in zip(reps, paces) for wall in r["wall_s"]]
    ticks = workload.host_ticks(seed)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_s"] * pace for r, pace in zip(reps, paces)),
        "host_ticks_per_s": statistics.median(ticks / wall for wall in walls),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
        "net_wall_s": statistics.median(wall for r in reps for wall in r["wall_s"]),
        "net_setup_s": _median(reps, "setup_s"),
        "pace": statistics.median(paces),
        "warm_rerun_s": _median(reps, "warm_rerun_s"),
    }
    for key in ("resume_s", "ckpt_bytes"):
        if key in reps[0]:
            metrics[key] = _median(reps, key)
    return metrics


def per_layer(groups: List[Dict[str, Dict[str, Any]]], workers: int) -> Dict[str, float]:
    """Median per-layer metrics over (untraced, [pooled], traced) groups."""
    rows = []
    for group in groups:
        traced = group["traced"]["wall_s"][0]
        untraced = group["plain"]["wall_s"][0]
        row = dict(group["traced"]["layers"])
        row["bench.untraced_wall_s"] = untraced
        row["bench.traced_wall_s"] = traced
        row["bench.trace_overhead_s"] = traced - untraced
        row["bench.trace_overhead_frac"] = (traced - untraced) / untraced
        row["core.parallel.pool_overhead_s"] = (
            group["pooled"]["wall_s"][0] - sum(group["plain"]["spec_s"]) / workers
            if "pooled" in group else 0.0
        )
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "pooled", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: simulator sources not found under {}".format(SRC), file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload {!r} (choose from {})".format(
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tally = Tally(workload.runs_per_rep)
    # A pooled workload's pool overhead is its pooled pass minus its
    # inline per-spec times shared among the workers.
    modes = ["plain"]
    if args.trace:
        modes += (["pooled"] if workload.workers > 1 else []) + ["traced"]

    # Repeat while another repetition is expected to end within the
    # measuring time (always at least one), so a run lasts about
    # ``--seconds`` however long one repetition takes.
    groups: List[Dict[str, Dict[str, Any]]] = []
    lasted: List[float] = []
    start = time.monotonic()
    while not lasted or time.monotonic() - start + statistics.median(lasted) <= args.seconds:
        began = time.monotonic()
        group = {}
        for mode in modes:
            record = run_child(mode, args)
            tally.add(record)
            if record is not None:
                group[mode] = record
        if len(group) < len(modes):
            break  # a crashed repetition is counted as failed; do not retry it
        groups.append(group)
        lasted.append(time.monotonic() - began)

    meta = metadata()
    correct = tally.failed == 0 and bool(groups)
    figures: Dict[str, float] = {}
    units = dict(END_TO_END, **WORKLOAD_FIGURES)
    if groups and not args.trace:
        figures = end_to_end(workload, args.seed, [g["plain"] for g in groups])
        names = END_TO_END
    elif groups:
        figures = per_layer(groups, workload.workers)
        units, names = dict(PER_LAYER, failed_frac="ratio"), PER_LAYER
    figures["failed_frac"] = _ratio(tally.failed, tally.attempted)

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / "result-{}-seed{}-trace{}.json".format(args.workload, args.seed, args.trace)
    result_path.write_text(json.dumps({
        "meta": meta, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "figures": figures, "failures": tally.messages,
        "repetitions": groups,
    }, indent=1))

    print("# perfbench {} seed={} trace={} repetitions={} {}".format(
        args.workload, args.seed, args.trace, len(groups), json.dumps(meta)))
    for message in tally.messages:
        print("# FAILED {}".format(message))
    for name, value in figures.items():
        print("{:<44} {:>18.6g} {}".format(name, value, units[name]))
    if not groups:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": figures[name], "unit": unit} for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
