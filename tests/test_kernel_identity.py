"""Bitwise identity of the batched kernel against the scalar paths.

The fleet-scale kernel (the demand block's VM × tick matrix, per-host
and per-class rows, vectorized power curves) is an *optimization*, not a
behavior change: every value it serves must equal — bit for bit, not within a
tolerance — what the scalar code path computes.  These tests pin that
contract directly, below the level the golden trace and differential
suites already cover.
"""

import random

import pytest

from repro.core import run_scenario, s3_policy
from repro.datacenter import VM, Cluster
from repro.power.models import LinearPowerModel, PiecewisePowerModel
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry.sampler import ClusterSampler
from repro.workload import FleetSpec
from repro.workload.fleet import build_fleet
from repro.workload.traces import (
    FlatTrace,
    PlateauTrace,
    SampledTrace,
    trace_grid,
    trace_matrix,
)


class TestPowerGridIdentity:
    """``power_at_grid`` returns exactly ``power_at`` per element."""

    def _points(self):
        rng = random.Random(20130624)
        pts = [rng.random() for _ in range(500)]
        # Edges and exact knot hits matter most for piecewise curves.
        pts += [0.0, 1.0, 0.1, 0.2, 0.25, 0.5, 0.75, 0.9]
        return pts

    def test_linear_model(self):
        model = LinearPowerModel(idle_w=155.0, peak_w=269.0)
        pts = self._points()
        grid = model.power_at_grid(pts)
        assert [float(v) for v in grid] == [model.power_at(u) for u in pts]

    def test_piecewise_model(self):
        model = PiecewisePowerModel(
            [(0.0, 150.0), (0.25, 190.0), (0.5, 220.0), (1.0, 270.0)]
        )
        pts = self._points()
        grid = model.power_at_grid(pts)
        assert [float(v) for v in grid] == [model.power_at(u) for u in pts]


class TestTraceGridIdentity:
    """``trace_matrix`` rows equal scalar ``trace.at`` over the whole fleet."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_fleet_traces_bit_identical(self, seed):
        fleet = build_fleet(
            FleetSpec(n_vms=24, horizon_s=86_400.0, shared_fraction=0.3),
            seed=seed,
        )
        ticks = [i * 60.0 for i in range(0, 256)]
        rows = trace_matrix([vm.trace for vm in fleet], ticks)
        for vm, row in zip(fleet, rows.tolist()):
            assert row == [vm.trace.at(t) for t in ticks], vm.name
            assert trace_grid(vm.trace, ticks).tolist() == row, vm.name

    def test_shared_index_cache_is_per_shape(self):
        # Sample grids of different shapes (step, length) in one batch
        # must each be gathered with their own index.
        fleet = build_fleet(FleetSpec(n_vms=8, horizon_s=86_400.0), seed=1)
        traces = [vm.trace for vm in fleet] + [
            SampledTrace([0.1, 0.2, 0.3], step_s=300.0),
            SampledTrace([0.4, 0.5], step_s=60.0),
            FlatTrace(0.25),
            PlateauTrace(),
        ]
        ticks = [i * 300.0 for i in range(64)]
        rows = trace_matrix(traces, ticks)
        for trace, row in zip(traces, rows.tolist()):
            assert row == [trace.at(t) for t in ticks]


def _walk(host, t):
    """Scalar reference: resident and per-class sums in VM-dict order."""
    resident = 0.0
    classes = [0.0, 0.0, 0.0]
    for vm in host.vms.values():
        v = vm.demand_cores(t)
        resident += v
        classes[vm.priority] += v
    return resident, classes


def _assert_block_matches_walk(cluster, t):
    """Every row of the cluster's block at ``t`` equals the scalar walk."""
    block = cluster._block
    j = block.col[t]
    for vm in cluster.iter_vms():
        assert block._row(vm)[j] == vm.demand_cores(t), vm.name
    for pos, host in enumerate(cluster.hosts):
        resident, classes = _walk(host, t)
        assert block.resident[pos][j] == resident, host.name
        assert [row[j] for row in block.classes[pos]] == classes, host.name
        u = min(resident / host.cores, 1.0)
        assert block.util[pos][j] == u
        assert block.power[pos][j] == host.machine.profile.active_model.power_at(u)
        assert host.resident_demand_cores(t) == resident
    total = 0.0
    class_totals = [0.0, 0.0, 0.0]
    for vm in cluster.iter_vms():
        v = vm.demand_cores(t)
        total += v
        class_totals[vm.priority] += v
    assert block.total[j] == total
    assert cluster.demand_cores(t) == total
    assert [row[j] for row in block.class_totals] == class_totals


class TestScenarioGridIdentity:
    """A live scenario's demand block matches fresh scalar walks."""

    def test_host_and_vm_grids_match_scalar_walk(self, monkeypatch):
        # Check every tick, including ticks after a mid-block migration or
        # churn admission/retirement — the rows those rewrite.
        counts = {"ticks": 0, "after_move": 0, "after_registry": 0}
        built = {}
        original = ClusterSampler.sample_once

        def checked(sampler):
            out = original(sampler)
            cluster = sampler.cluster
            block = cluster._block
            placement = {h.name: tuple(h.vms) for h in cluster.hosts}
            registry = tuple(vm.name for vm in cluster.iter_vms())
            if block.ticks[0] == sampler.env.now:
                built["block"] = (block, placement, registry)
            else:
                first, at_build, registry_at_build = built["block"]
                assert first is block
                counts["after_move"] += placement != at_build
                counts["after_registry"] += registry != registry_at_build
            _assert_block_matches_walk(cluster, sampler.env.now)
            counts["ticks"] += 1
            return out

        monkeypatch.setattr(ClusterSampler, "sample_once", checked)
        run_scenario(
            s3_policy(),
            n_hosts=8,
            horizon_s=6 * 3600.0,
            seed=3,
            fleet_spec=FleetSpec(n_vms=32, horizon_s=6 * 3600.0),
            churn_rate_per_h=6.0,
            churn_lifetime_s=3600.0,
        )
        # The test must exercise the rewritten rows, not vacuously pass.
        assert counts["ticks"] == 6 * 60
        assert counts["after_move"] > 20
        assert counts["after_registry"] > 20


class TestDemandBlock:
    """Rows follow placement changes made inside a block."""

    def _cluster(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 3)
        fleet = build_fleet(FleetSpec(n_vms=9, shared_fraction=0.2), seed=4)
        for i, vm in enumerate(fleet):
            cluster.add_vm(vm, cluster.hosts[i % 3])
        return cluster

    def test_rows_follow_place_remove_admit_retire(self):
        cluster = self._cluster()
        ticks = [i * 60.0 for i in range(16)]
        cluster.install_block(ticks, trace_matrix)
        _assert_block_matches_walk(cluster, 300.0)
        a, b = cluster.hosts[0], cluster.hosts[1]
        vm = next(iter(a.vms.values()))
        a.remove(vm)
        b.place(vm)
        _assert_block_matches_walk(cluster, 300.0)
        newcomer = VM("late", vcpus=2, mem_gb=4, trace=FlatTrace(0.4))
        cluster.add_vm(newcomer, a)
        _assert_block_matches_walk(cluster, 360.0)
        cluster.remove_vm(next(iter(b.vms.values())))
        _assert_block_matches_walk(cluster, 420.0)
        # Off the block's instants, reads are the scalar walk itself.
        assert a.resident_demand_cores(90.0) == _walk(a, 90.0)[0]

    def test_negative_trace_raises_naming_the_vm(self):
        class Negative:
            def at(self, t):
                return -0.5

        cluster = self._cluster()
        cluster.add_vm(VM("bad", vcpus=1, mem_gb=1, trace=Negative()), cluster.hosts[2])
        with pytest.raises(ValueError, match="trace for bad returned negative"):
            cluster.install_block([0.0, 60.0], trace_matrix)


def _compensated_sum(values):
    """Python 3.12's builtin ``sum`` of floats (Neumaier compensation)."""
    total = 0.0
    comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def _ordered_sum(values):
    total = 0.0
    for x in values:
        total += x
    return total


class TestOrderedSums:
    """Scans that twin a pre-aggregated sum use the same ordered adds.

    Builtin ``sum`` of floats is compensated from Python 3.12 on, so a
    scan written with it disagrees with the sequential accumulation it
    mirrors whenever the compensated total differs — as it does for the
    values below, on every Python version this suite runs on.
    """

    def _fleet(self):
        """Hosts whose overloads, headrooms, draws and loads sum differently."""
        from repro.core import ManagerConfig, PowerAwareManager
        from repro.migration import MigrationEngine

        rng = random.Random(2013)
        model = PROTOTYPE_BLADE.active_model
        for _ in range(1000):
            env = Environment()
            cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 12, cores=16.0)
            for i, host in enumerate(cluster.hosts):
                n, lo, hi = (5, 0.45, 1.0) if i % 2 == 0 else (2, 0.05, 0.6)
                for k in range(n):
                    trace = FlatTrace(rng.uniform(lo, hi))
                    vm = VM("vm-{}-{}".format(i, k), vcpus=8, mem_gb=4, trace=trace)
                    cluster.add_vm(vm, host)
            manager = PowerAwareManager(
                env, cluster, MigrationEngine(env), ManagerConfig()
            )
            ceiling = manager.config.balance.dst_ceiling
            demands = [h.demand_cores(0.0) for h in cluster.hosts]
            sums = [
                [max(0.0, d - 16.0) for d in demands],
                [max(0.0, 16.0 * ceiling - d) for d in demands],
                [model.power_at(min(d / 16.0, 1.0)) for d in demands],
            ]
            loads = [
                [vm.demand_cores(0.0) for vm in h.vms.values()] for h in cluster.hosts
            ]
            if all(_compensated_sum(v) != _ordered_sum(v) for v in sums) and any(
                _compensated_sum(v) != _ordered_sum(v) for v in loads
            ):
                return env, cluster, manager, ceiling
        raise AssertionError("no distinguishing fleet found")

    def test_watchdog_scan_equals_sampler_aggregates(self):
        env, cluster, manager, ceiling = self._fleet()
        sampler = ClusterSampler(env, cluster, headroom_ceiling=ceiling)
        sampler.sample_once()
        scanned = manager._overload_and_headroom(env.now)
        assert scanned == (sampler._agg_overload, sampler._agg_headroom)
        assert cluster.power_w() == sampler.series["power_w"].values[-1]

    def test_demand_fn_loads_equal_resident_demand(self):
        from repro.placement.evacuation import host_load

        env, cluster, _, _ = self._fleet()
        for t in (0.0, 37.5):
            for host in cluster.hosts:
                assert host_load(host, lambda vm: vm.demand_cores(t)) == (
                    host.resident_demand_cores(t)
                )
