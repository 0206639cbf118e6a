"""The benchmark's workloads: inputs made from a seed, timed passes, checks.

Each workload drives the simulator's public API the way a user would
(``run_scenario``, ``resume_scenario``, ``run_scenarios``,
``ResultCache``) and checks every output with the system's own oracles.
A failed check is recorded against the scenario run it concerns; it never
aborts the repetition.

One call to :meth:`Workload.run` is one *repetition*, and returns a
JSON-ready record.  Timed passes are recorded as ``[start, end]``
:func:`time.perf_counter` intervals (``wall_at``, ``setup_at``,
``spec_at``, ``resume_at``); the runner turns them into durations.
``mode`` selects the pass:

* ``"plain"``  — the end-to-end pass (the campaign runs every spec in
  this process, each spec timed, and times its set-up separately);
* ``"pooled"`` — the campaign through its 2-worker pool, the pass the
  pool overhead is measured on;
* ``"traced"`` — like ``"plain"``, under :mod:`spans` wrappers, so every
  simulation-layer span lands in one process.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.oracle import ideal_proportional_kwh
from repro.core import ResultCache, ScenarioSpec, run_scenarios, runner
from repro.core.parallel import snapshot_result
from repro.core.policies import always_on, hybrid_policy, s3_policy, s5_policy
from repro.datacenter import FaultModel, MigrationFaultModel, RepairModel, burst_window
from repro.prototype.calibration import make_prototype_blade_profile
from repro.telemetry import StalenessModel
from repro.telemetry.trace import parse_trace
from repro.telemetry.validate import validate_trace
from repro.workload import FleetSpec

#: The seed whose energy and violation bits are recorded below.
DEFAULT_SEED = 7
EPOCH_S = 60.0
HOST_CORES = 16.0
#: Warm cache reads per repetition; ``warm_rerun_s`` is their median.
WARM_READS = 15

#: ``(energy_kwh, violation_fraction)`` per scenario label at
#: ``DEFAULT_SEED`` and the default sizes.  The fleet-wide pair equals
#: BENCH_scale.json's 2000-host point.
REFERENCE: Dict[str, Dict[str, Tuple[float, float]]] = {
    "fleet-wide": {"S3-PM": (792.3285347977962, 2.6832565920205387e-06)},
    "long-horizon": {"S3-PM": (575.0530777749831, 0.0007516127960851518)},
    "policy-campaign": {
        "S5-PM": (289.86950351946774, 0.00042067385847842023),
        "S3-PM": (274.0590810904493, 0.0006923593980183542),
        "Hybrid": (267.38373556269727, 0.0005477701601162942),
        "S3-PM-neat": (274.0590810904493, 0.0006923593980183542),
        "AlwaysOn": (512.5587644398748, 0.0),
    },
}

Record = Dict[str, Any]


def _same_report(a: Any, b: Any) -> bool:
    """Bit-for-bit report equality (JSON text, so NaN equals NaN)."""
    return json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def _peak_rss_mb() -> float:
    """Peak RSS of this process (pool workers excluded: their peaks depend
    on which specs the scheduler happened to hand each of them)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Failed checks per scenario run; one entry per run attempted."""

    def __init__(self) -> None:
        self.failures: Dict[str, List[str]] = {}

    def run(self, label: str) -> None:
        self.failures.setdefault(label, [])

    def expect(self, label: str, ok: bool, message: str) -> None:
        self.run(label)
        if not ok:
            self.failures[label].append(message)

    def sane(self, label: str, report: Any, sampler: Any, n_hosts: int) -> None:
        """Seed-independent physics: proportional floor ≤ energy ≤ all-peak."""
        profile = make_prototype_blade_profile()
        floor = ideal_proportional_kwh(sampler.series["demand_cores"], profile, HOST_CORES)
        ceiling = n_hosts * profile.peak_w * report.horizon_s / 3.6e6
        self.expect(
            label, floor <= report.energy_kwh <= ceiling,
            "energy {} kWh outside [{}, {}]".format(report.energy_kwh, floor, ceiling),
        )
        self.expect(
            label, 0.0 <= report.violation_fraction <= 1.0,
            "violation fraction {} outside [0, 1]".format(report.violation_fraction),
        )

    def reference(
        self, label: str, report: Any, expected: Optional[Tuple[float, float]]
    ) -> None:
        if expected is None:
            return
        got = (report.energy_kwh, report.violation_fraction)
        self.expect(label, got == tuple(expected), "bits {} != reference {}".format(got, expected))

    def certified(self, label: str, trace: Any, report: Any) -> None:
        verdict = validate_trace(trace, report=report)
        self.expect(
            label, verdict.ok,
            "trace not certified: {}".format(", ".join(verdict.invariants_violated())),
        )

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for messages in self.failures.values() if messages)


def _warm_rerun(
    specs: List[ScenarioSpec], cache_dir: Path, workers: int
) -> Tuple[float, List[Any]]:
    """Serve ``specs`` from the disk cache; median wall time of the reads.

    Every read uses a new :class:`ResultCache`, so each one pays the disk
    read, digest check and unpickle (the in-process layer starts empty).
    """
    times = []
    artifacts: List[Any] = []
    for _ in range(WARM_READS):
        cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        artifacts = run_scenarios(specs, workers=workers, cache=cache)
        times.append(time.perf_counter() - t0)
        if cache.misses:
            raise RuntimeError("warm rerun missed the cache {} time(s)".format(cache.misses))
    return statistics.median(times), artifacts


def _cache_bytes(cache_dir: Path) -> int:
    return sum(p.stat().st_size for p in cache_dir.glob("*.pkl"))


def _plane_facts(reports: List[Any]) -> Dict[str, float]:
    """Management-plane and migration counts summed over ``reports``."""
    keys = (
        "wakes_requested", "wake_failures", "parks_completed",
        "migrations_started", "migrations_completed", "migrations_failed",
    )
    return {key: sum(r.extra[key] for r in reports) for key in keys}


class Workload:
    """One named workload; subclasses define the scenario and the passes."""

    name = ""
    #: Workers of the pooled pass (1: the workload has none).
    workers = 1
    #: Scenario runs one repetition attempts (and checks).
    runs_per_rep = 1

    def __init__(self, reference: Optional[Dict[str, Tuple[float, float]]] = None) -> None:
        self.reference = REFERENCE[self.name] if reference is None else reference

    def expected(self, seed: int, label: str) -> Optional[Tuple[float, float]]:
        return self.reference.get(label) if seed == DEFAULT_SEED else None

    def specs(self, seed: int) -> List[ScenarioSpec]:
        raise NotImplementedError

    def host_ticks(self, seed: int) -> float:
        """Σ hosts × horizon / epoch over the timed pass's scenarios."""
        return sum(
            spec.kwargs["n_hosts"] * spec.kwargs["horizon_s"] / EPOCH_S
            for spec in self.specs(seed)
        )

    def run(self, seed: int, scratch: Path, mode: str = "plain") -> Record:
        raise NotImplementedError


class FleetWide(Workload):
    name = "fleet-wide"

    def __init__(self, hosts: int = 2000, hours: float = 2.0, **kw: Any) -> None:
        super().__init__(**kw)
        self.hosts = hosts
        self.horizon_s = hours * 3600.0

    def specs(self, seed: int) -> List[ScenarioSpec]:
        return [
            ScenarioSpec(
                s3_policy(),
                kwargs=dict(
                    n_hosts=self.hosts,
                    horizon_s=self.horizon_s,
                    seed=seed,
                    epoch_s=EPOCH_S,
                    fleet_spec=FleetSpec(
                        n_vms=4 * self.hosts, horizon_s=self.horizon_s, shared_fraction=0.3
                    ),
                ),
            )
        ]

    def run(self, seed: int, scratch: Path, mode: str = "plain") -> Record:
        (spec,) = self.specs(seed)
        label = spec.name
        checks = Checks()
        t0 = time.perf_counter()
        result = runner.run_scenario(spec.config, **spec.kwargs)
        t1 = time.perf_counter()
        peak = _peak_rss_mb()
        checks.sane(label, result.report, result.sampler, self.hosts)
        checks.reference(label, result.report, self.expected(seed, label))

        cache_dir = scratch / "cache"
        ResultCache(cache_dir).put(spec.digest(), snapshot_result(result))
        warm_s, (warm,) = _warm_rerun([spec], cache_dir, workers=1)
        checks.expect(label, _same_report(warm.report, result.report), "warm report differs")
        return {
            "wall_at": [[t0, t1]],
            "setup_at": [[t0, t0 + result.setup_wall_s]],
            "warm_rerun_s": warm_s,
            "peak_rss_mb": peak,
            "bits": {label: [result.report.energy_kwh, result.report.violation_fraction]},
            "facts": dict(_plane_facts([result.report]), cache_entry_bytes=_cache_bytes(cache_dir)),
            "failures": checks.failures,
        }


class LongHorizon(Workload):
    name = "long-horizon"
    runs_per_rep = 2  # the uninterrupted run and the resumed one

    def __init__(self, hosts: int = 200, hours: float = 24.0, **kw: Any) -> None:
        super().__init__(**kw)
        self.hosts = hosts
        self.horizon_s = hours * 3600.0

    def specs(self, seed: int) -> List[ScenarioSpec]:
        return [
            ScenarioSpec(
                s3_policy(),
                kwargs=dict(
                    n_hosts=self.hosts,
                    horizon_s=self.horizon_s,
                    seed=seed,
                    epoch_s=EPOCH_S,
                    fleet_spec=FleetSpec(n_vms=4 * self.hosts, horizon_s=self.horizon_s),
                ),
                trace=True,
            )
        ]

    def run(self, seed: int, scratch: Path, mode: str = "plain") -> Record:
        (spec,) = self.specs(seed)
        label = spec.name
        checks = Checks()
        ckpt_dir = scratch / "ckpt"
        stream = scratch / "stream.jsonl"
        t0 = time.perf_counter()
        result = runner.run_scenario(
            spec.config,
            trace=True,
            checkpoint_every_s=3600.0,
            checkpoint_dir=ckpt_dir,
            stream=stream,
            **spec.kwargs,
        )
        t1 = time.perf_counter()
        saves = [path for path, _ in result.checkpoints.saved]
        ckpt_bytes = sum(path.stat().st_size for path in saves)
        stream_bytes = stream.stat().st_size
        stream_digest = hashlib.sha256(stream.read_bytes()).hexdigest()
        expected_saves = int(self.horizon_s // 3600.0) - 1
        checks.expect(
            label, len(saves) == expected_saves,
            "{} checkpoints saved, expected {}".format(len(saves), expected_saves),
        )
        checks.certified(label, result.trace, result.report)
        checks.sane(label, result.report, result.sampler, self.hosts)
        checks.reference(label, result.report, self.expected(seed, label))

        resumed_label = label + "-resumed"
        checks.run(resumed_label)
        r0 = time.perf_counter()
        resumed = runner.resume_scenario(saves[len(saves) // 2], stream=stream)
        resume_at = [r0, time.perf_counter()]
        checks.expect(
            resumed_label, resumed.trace.trace_hash() == result.trace.trace_hash(),
            "resumed trace hash differs from the uninterrupted run",
        )
        checks.expect(
            resumed_label, _same_report(resumed.report, result.report),
            "resumed report differs from the uninterrupted run",
        )
        checks.expect(
            resumed_label, hashlib.sha256(stream.read_bytes()).hexdigest() == stream_digest,
            "resumed metrics stream differs from the uninterrupted run",
        )
        checks.reference(resumed_label, resumed.report, self.expected(seed, label))
        peak = _peak_rss_mb()

        cache_dir = scratch / "cache"
        ResultCache(cache_dir).put(spec.digest(), snapshot_result(result))
        warm_s, (warm,) = _warm_rerun([spec], cache_dir, workers=1)
        checks.expect(
            label,
            warm.trace_hash == result.trace.trace_hash()
            and _same_report(warm.report, result.report),
            "warm artifacts differ from the run",
        )
        return {
            "wall_at": [[t0, t1]],
            "setup_at": [[t0, t0 + result.setup_wall_s]],
            "warm_rerun_s": warm_s,
            "resume_at": resume_at,
            "ckpt_bytes": ckpt_bytes,
            "peak_rss_mb": peak,
            "bits": {label: [result.report.energy_kwh, result.report.violation_fraction]},
            "facts": dict(
                _plane_facts([result.report]),
                ckpt_saves=len(saves),
                stream_bytes=stream_bytes,
                cache_entry_bytes=_cache_bytes(cache_dir),
            ),
            "failures": checks.failures,
        }


def chaos_fault_model(horizon_s: float) -> FaultModel:
    """Wake and migration failures, MTTR repair and a mid-run burst."""
    return FaultModel(
        wake_failure_rate=0.1,
        permanent_fraction=0.1,
        repair=RepairModel(mttr_s=3600.0),
        chaos=burst_window(0.25 * horizon_s, 0.5 * horizon_s, 0.5),
        migration=MigrationFaultModel(failure_rate=0.1),
    )


class PolicyCampaign(Workload):
    name = "policy-campaign"
    workers = 2

    #: The campaign's specs: (label, policy).  ``S3-PM-neat`` runs S3-PM
    #: on the decentralized plane and must equal centralized S3-PM.  The
    #: cheapest spec goes last, so the pool's makespan does not hinge on
    #: which worker happens to pick up a long spec at the end.
    POLICIES = (
        ("S5-PM", s5_policy),
        ("S3-PM", s3_policy),
        ("Hybrid", hybrid_policy),
        ("S3-PM-neat", lambda: s3_policy().with_overrides(plane="neat")),
        ("AlwaysOn", always_on),
    )
    runs_per_rep = len(POLICIES)

    def __init__(self, hosts: int = 100, hours: float = 24.0, **kw: Any) -> None:
        super().__init__(**kw)
        self.hosts = hosts
        self.horizon_s = hours * 3600.0

    def specs(self, seed: int) -> List[ScenarioSpec]:
        return [
            ScenarioSpec(
                policy(),
                kwargs=dict(
                    n_hosts=self.hosts,
                    horizon_s=self.horizon_s,
                    seed=seed,
                    epoch_s=EPOCH_S,
                    fleet_spec=FleetSpec(n_vms=4 * self.hosts, horizon_s=self.horizon_s),
                    churn_rate_per_h=2.0,
                    fault_model=chaos_fault_model(self.horizon_s),
                    telemetry_model=StalenessModel(delay_s=60.0, dropout_rate=0.1),
                ),
                label=label,
                trace=True,
            )
            for label, policy in self.POLICIES
        ]

    def run(self, seed: int, scratch: Path, mode: str = "plain") -> Record:
        specs = self.specs(seed)
        checks = Checks()
        cache_dir = scratch / "cache"
        spec_at: List[List[float]] = []
        t0 = time.perf_counter()
        if mode == "pooled":
            workers = self.workers
            cold = run_scenarios(specs, workers=workers, cache=ResultCache(cache_dir))
        else:
            workers = 1
            cold = []
            for spec in specs:
                s0 = time.perf_counter()
                cold.extend(run_scenarios([spec], workers=1, cache=ResultCache(cache_dir)))
                spec_at.append([s0, time.perf_counter()])
        t1 = time.perf_counter()
        peak = _peak_rss_mb()
        cache_entry_bytes = _cache_bytes(cache_dir)

        warm_s, warm = _warm_rerun(specs, cache_dir, workers=workers)
        builds: List[List[float]] = []
        if mode == "plain":
            # Each spec is built once more, outside the timed pass, for
            # set-up alone; they share one fleet and cluster shape, so the
            # median build is reported.
            for spec in specs:
                kwargs = dict(spec.kwargs, trace=spec.trace)
                b0 = time.perf_counter()
                runner.build_scenario(spec.config, **kwargs)
                builds.append([b0, time.perf_counter()])

        by_label = {}
        for spec, art, hot in zip(specs, cold, warm):
            label = spec.name
            by_label[label] = art
            checks.certified(label, parse_trace(art.trace_jsonl), art.report)
            checks.sane(label, art.report, art.sampler, self.hosts)
            checks.reference(label, art.report, self.expected(seed, label))
            checks.expect(
                label,
                hot.trace_hash == art.trace_hash and _same_report(hot.report, art.report),
                "warm artifacts differ from cold",
            )
        central, neat = by_label["S3-PM"].report, by_label["S3-PM-neat"].report
        checks.expect(
            "S3-PM-neat",
            (neat.energy_kwh, neat.violation_fraction)
            == (central.energy_kwh, central.violation_fraction),
            "neat plane differs from centralized S3-PM",
        )
        return {
            "wall_at": [[t0, t1]],
            "setup_at": builds,
            "warm_rerun_s": warm_s,
            "spec_at": spec_at,
            "peak_rss_mb": peak,
            "bits": {
                label: [art.report.energy_kwh, art.report.violation_fraction]
                for label, art in by_label.items()
            },
            "facts": dict(
                _plane_facts([art.report for art in cold]),
                cache_entry_bytes=cache_entry_bytes,
            ),
            "failures": checks.failures,
        }


WORKLOADS = {cls.name: cls for cls in (FleetWide, LongHorizon, PolicyCampaign)}
