"""Unit tests for evacuation planning."""

import math
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import VM, Cluster, Host
from repro.placement import EvacuationTargets, plan_evacuation
from repro.placement.evacuation import host_load
from repro.power.states import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace


@pytest.fixture
def cluster():
    env = Environment()
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=64.0)


def add_vm(cluster, host, name, vcpus=2, mem_gb=8, level=0.5):
    vm = VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))
    cluster.add_vm(vm, host)
    return vm


def demand_at_zero(vm):
    return vm.demand_cores(0.0)


class TestPlanEvacuation:
    def test_full_plan_for_every_vm(self, cluster):
        host = cluster.hosts[0]
        vms = [add_vm(cluster, host, "vm-{}".format(i)) for i in range(3)]
        plan = plan_evacuation(host, cluster.hosts[1:], demand_at_zero)
        assert plan is not None
        assert {vm for vm, _ in plan} == set(vms)
        assert all(dst is not host for _, dst in plan)

    def test_empty_host_gives_empty_plan(self, cluster):
        plan = plan_evacuation(cluster.hosts[0], cluster.hosts[1:], demand_at_zero)
        assert plan == []

    def test_self_in_targets_rejected(self, cluster):
        with pytest.raises(ValueError):
            plan_evacuation(cluster.hosts[0], cluster.hosts, demand_at_zero)

    def test_none_when_memory_does_not_fit(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "huge", mem_gb=60)
        add_vm(cluster, cluster.hosts[1], "filler-1", mem_gb=30)
        add_vm(cluster, cluster.hosts[2], "filler-2", mem_gb=30)
        plan = plan_evacuation(host, cluster.hosts[1:], demand_at_zero)
        assert plan is None

    def test_none_when_cpu_budget_exhausted(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "mover", vcpus=8, level=1.0)
        add_vm(cluster, cluster.hosts[1], "busy-1", vcpus=8, level=1.0)
        add_vm(cluster, cluster.hosts[2], "busy-2", vcpus=8, level=1.0)
        # Targets have 13.6-8=5.6 budget each; mover needs 8.
        plan = plan_evacuation(
            host, cluster.hosts[1:], demand_at_zero, cpu_target=0.85
        )
        assert plan is None

    def test_pinned_by_inflight_migration(self, cluster):
        host = cluster.hosts[0]
        vm = add_vm(cluster, host, "inflight")
        vm.migrating = True
        plan = plan_evacuation(host, cluster.hosts[1:], demand_at_zero)
        assert plan is None

    def test_excludes_unplaceable_targets(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "vm-0")
        cluster.hosts[1].evacuating = True
        plan = plan_evacuation(host, cluster.hosts[1:], demand_at_zero)
        assert plan is not None
        assert all(dst is cluster.hosts[2] for _, dst in plan)

    def test_best_fit_concentrates(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "vm-0", vcpus=2)
        # hosts[2] is tighter (already loaded) and should be preferred.
        add_vm(cluster, cluster.hosts[2], "resident", vcpus=8, level=1.0)
        plan = plan_evacuation(host, cluster.hosts[1:], demand_at_zero)
        assert plan is not None
        assert plan[0][1] is cluster.hosts[2]

    def test_invalid_cpu_target(self, cluster):
        with pytest.raises(ValueError):
            plan_evacuation(
                cluster.hosts[0], cluster.hosts[1:], demand_at_zero, cpu_target=1.5
            )

    def test_splits_across_multiple_targets(self, cluster):
        host = cluster.hosts[0]
        for i in range(6):
            add_vm(cluster, host, "vm-{}".format(i), vcpus=4, level=1.0)  # 24 cores
        plan = plan_evacuation(
            host, cluster.hosts[1:], demand_at_zero, cpu_target=0.85
        )
        assert plan is not None
        destinations = {dst.name for _, dst in plan}
        assert len(destinations) == 2


# ----------------------------------------------------------------------
# Differential: the target-table planner against the per-target greedy
# ----------------------------------------------------------------------


def oracle_plan_evacuation(
    host, targets, demand_fn=None, cpu_target=0.85, trace=None, now=0.0
):
    """The greedy the table planner replaced, kept verbatim: every call
    rebuilds every target's budgets and scans every target per VM."""
    if host in targets:
        raise ValueError("evacuation targets must exclude the host itself")
    if not 0.0 < cpu_target <= 1.0:
        raise ValueError("cpu_target must be in (0, 1]")

    canonical = demand_fn is None
    if demand_fn is None:
        def demand_fn(vm, _t=now):
            return vm.demand_cores(_t)

    cpu_budget = {}
    mem_budget = {}
    groups = {}
    usable = [t for t in targets if t.available_for_placement]
    for t in usable:
        cpu_budget[t.name] = t.cores * cpu_target - (
            t.resident_demand_cores(now)
            if canonical
            else host_load(t, demand_fn)
        )
        mem_budget[t.name] = t.mem_free_gb
        groups[t.name] = set(t._aa_groups) | t.groups_reserved

    movable = [vm for vm in host.vms.values() if not vm.migrating]
    if len(movable) != len(host.vms):
        if trace is not None:
            trace.evacuation_planned(now, host.name, len(host.vms), ok=False)
        return None

    plan = []
    ranked = sorted(
        [(demand_fn(vm), vm) for vm in movable], key=itemgetter(0), reverse=True
    )
    for demand, vm in ranked:
        fitting = [
            t
            for t in usable
            if demand <= cpu_budget[t.name] + 1e-9
            and vm.mem_gb <= mem_budget[t.name] + 1e-9
            and (
                vm.anti_affinity_group is None
                or vm.anti_affinity_group not in groups[t.name]
            )
        ]
        if not fitting:
            if trace is not None:
                trace.evacuation_planned(now, host.name, len(movable), ok=False)
            return None
        dst = min(fitting, key=lambda t: cpu_budget[t.name] - demand)
        cpu_budget[dst.name] -= demand
        mem_budget[dst.name] -= vm.mem_gb
        if vm.anti_affinity_group is not None:
            groups[dst.name].add(vm.anti_affinity_group)
        plan.append((vm, dst))
    if trace is not None:
        trace.evacuation_planned(now, host.name, len(plan), ok=True)
    return plan


class PlannedRecorder:
    """Stands in for a TraceBuffer; records ``evacuation_planned`` calls."""

    def __init__(self):
        self.calls = []

    def evacuation_planned(self, t, host, vms, ok):
        self.calls.append((t, host, vms, ok))


def distinct_budget_ties(plan, targets, demand_fn, cpu_target, now=0.0):
    """Choices in ``plan`` (the greedy's) where a fitting target with a
    different CPU budget had the same ``budget - demand`` key as the
    minimum: the case where the table planner must keep walking past an
    equal key and settle it by caller order."""
    if plan is None:
        return 0
    usable = [t for t in targets if t.available_for_placement]
    load = (
        (lambda t: t.resident_demand_cores(now))
        if demand_fn is None
        else (lambda t: host_load(t, demand_fn))
    )
    demand_of = demand_fn or (lambda vm: vm.demand_cores(now))
    cpu = {t.name: t.cores * cpu_target - load(t) for t in usable}
    mem = {t.name: t.mem_free_gb for t in usable}
    groups = {t.name: set(t._aa_groups) | t.groups_reserved for t in usable}
    hits = 0
    for vm, dst in plan:
        demand = demand_of(vm)
        group = vm.anti_affinity_group
        fitting = [
            t
            for t in usable
            if demand <= cpu[t.name] + 1e-9
            and vm.mem_gb <= mem[t.name] + 1e-9
            and (group is None or group not in groups[t.name])
        ]
        best = min(cpu[t.name] - demand for t in fitting)
        budgets = {cpu[t.name] for t in fitting if cpu[t.name] - demand == best}
        hits += len(budgets) > 1
        cpu[dst.name] -= demand
        mem[dst.name] -= vm.mem_gb
        if group is not None:
            groups[dst.name].add(group)
    return hits


custom_demand = st.one_of(
    st.sampled_from((-100.0, -1.0, 0.0, 0.25, 1.0, 2.0, 4.0)),
    st.floats(-8.0, 8.0, allow_nan=False),
)

vm_specs = st.fixed_dictionaries(
    {
        "vcpus": st.sampled_from((1, 2, 4, 8)),
        "mem_gb": st.sampled_from((2.0, 4.0, 8.0, 16.0, 30.0)),
        "level": st.sampled_from((0.1, 0.25, 0.5, 0.75, 1.0)),
        "group": st.sampled_from((None, None, "g1", "g2")),
        "migrating": st.sampled_from((False,) * 9 + (True,)),
        "custom": custom_demand,
    }
)

host_specs = st.fixed_dictionaries(
    {
        "cores": st.sampled_from((8.0, 16.0, 32.0)),
        "mem_gb": st.sampled_from((32.0, 64.0)),
        "state": st.sampled_from(
            ("ok",) * 5 + ("evacuating", "maintenance", "parked")
        ),
        # 2 GB + 0.5e-9 leaves an empty 32 GB host 0.5e-9 short of a 30 GB
        # VM, which the planner's 1e-9 memory slack still admits.
        "reserved_gb": st.sampled_from((0.0, 0.0, 0.0, 2.0 + 0.5e-9, 8.0, 40.0)),
        "reserved_group": st.sampled_from((None, None, None, "g1", "g2")),
        "vms": st.lists(vm_specs, max_size=4),
    }
)

scenarios = st.fixed_dictionaries(
    {
        "hosts": st.lists(host_specs, min_size=2, max_size=8),
        "custom": st.booleans(),
        "cpu_target": st.sampled_from((0.5, 0.85, 1.0)),
    }
)


@st.composite
def tie_scenarios(draw):
    """Scenarios built to tie: equal hosts, each target loaded by one VM
    up to 200 ulps above 4.25, and movers whose large negative demands
    put ``budget - demand`` in a binade where nearby budgets (an ulp or
    a few apart) round to one key."""

    def vm(custom):
        return {
            "vcpus": 1, "mem_gb": 2.0, "level": 0.5, "group": None,
            "migrating": False, "custom": custom,
        }

    def host(vms):
        return {
            "cores": 16.0, "mem_gb": 64.0, "state": "ok", "reserved_gb": 0.0,
            "reserved_group": None, "vms": vms,
        }

    movers = draw(
        st.lists(st.sampled_from((-1000.0, -100.0)), min_size=1, max_size=3)
    )
    ulps = draw(st.lists(st.integers(0, 200), min_size=2, max_size=6))
    hosts = [host([vm(d) for d in movers])]
    hosts += [host([vm(4.25 + k * math.ulp(4.25))]) for k in ulps]
    return {
        "hosts": hosts,
        "custom": True,
        "cpu_target": draw(st.sampled_from((0.85, 1.0))),
    }


def build(spec):
    """A cluster from ``spec``, plus its demand function (None: canonical)."""
    env = Environment()
    hosts = [
        Host(
            env,
            "h{}".format(i),
            PROTOTYPE_BLADE,
            cores=h["cores"],
            mem_gb=h["mem_gb"],
            initial_state=(
                PowerState.SLEEP if h["state"] == "parked" else PowerState.ACTIVE
            ),
        )
        for i, h in enumerate(spec["hosts"])
    ]
    cluster = Cluster(env, hosts)
    custom = {}
    for i, (host, h) in enumerate(zip(hosts, spec["hosts"])):
        if h["state"] == "parked":
            continue
        for j, v in enumerate(h["vms"]):
            vm = VM(
                "vm-{}-{}".format(i, j),
                vcpus=v["vcpus"],
                mem_gb=v["mem_gb"],
                trace=FlatTrace(v["level"]),
            )
            vm.anti_affinity_group = v["group"]
            if host.fits(vm):
                cluster.add_vm(vm, host)
                vm.migrating = v["migrating"]
                custom[vm.name] = v["custom"]
        host.mem_reserved_gb = h["reserved_gb"]
        if h["reserved_group"] is not None:
            host.groups_reserved.add(h["reserved_group"])
        if h["state"] == "evacuating":
            host.evacuating = True
        elif h["state"] == "maintenance":
            host.in_maintenance = True
    demand_fn = (lambda vm: custom[vm.name]) if spec["custom"] else None
    return cluster, demand_fn


def assert_same_plan(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert len(got) == len(want)
    for (vm, dst), (want_vm, want_dst) in zip(got, want):
        assert vm is want_vm
        assert dst is want_dst


def check_against_oracle(spec):
    """Plan ``hosts[0]`` both ways, from a sequence and from a table that
    includes it; returns the greedy's distinct-budget tie count."""
    cluster, demand_fn = build(spec)
    cpu_target = spec["cpu_target"]
    host, targets = cluster.hosts[0], cluster.hosts[1:]
    want_trace, got_trace = PlannedRecorder(), PlannedRecorder()
    want = oracle_plan_evacuation(
        host, targets, demand_fn, cpu_target=cpu_target, trace=want_trace
    )
    got = plan_evacuation(
        host, targets, demand_fn, cpu_target=cpu_target, trace=got_trace
    )
    assert_same_plan(got, want)
    assert got_trace.calls == want_trace.calls
    table = EvacuationTargets(cluster.hosts, demand_fn, cpu_target=cpu_target)
    assert_same_plan(
        plan_evacuation(host, table, demand_fn, cpu_target=cpu_target), want
    )
    return distinct_budget_ties(want, targets, demand_fn, cpu_target)


@settings(max_examples=200, deadline=None)
@given(st.one_of(scenarios, tie_scenarios()))
def test_table_planner_matches_the_greedy(spec):
    check_against_oracle(spec)


def test_strategy_reaches_distinct_budget_ties():
    hits = []

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(tie_scenarios())
    def run(spec):
        hits.append(check_against_oracle(spec))

    run()
    assert sum(hits) > 0


@settings(max_examples=80, deadline=None)
@given(st.one_of(scenarios, tie_scenarios()), st.randoms(use_true_random=False))
def test_round_plans_match_per_candidate_rebuilt_targets(spec, rnd):
    """Several candidates planned against one table, each planned host
    turning ``evacuating`` before the next plan (as a consolidation round
    does), against target lists rebuilt for every candidate."""
    cluster, demand_fn = build(spec)
    cpu_target = spec["cpu_target"]
    table = EvacuationTargets(cluster.hosts, demand_fn, cpu_target=cpu_target)
    candidates = list(cluster.hosts)
    rnd.shuffle(candidates)
    for host in candidates:
        targets = [t for t in cluster.hosts if t is not host and not t.evacuating]
        want = oracle_plan_evacuation(host, targets, demand_fn, cpu_target=cpu_target)
        got = plan_evacuation(host, table, demand_fn, cpu_target=cpu_target)
        assert_same_plan(got, want)
        if got is not None:
            host.evacuating = True


def tie_cluster():
    """Two targets whose budgets are an ulp apart and whose keys tie for
    the mover's (negative) demand."""
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=64.0)
    source, first, second = cluster.hosts
    load = {"mover": -1000.0, "a": 4.25, "b": 4.25 + math.ulp(4.25)}
    add_vm(cluster, source, "mover")
    add_vm(cluster, first, "a")
    add_vm(cluster, second, "b")
    return cluster, (lambda vm: load[vm.name])


class TestTargetTable:
    def test_distinct_budgets_with_equal_keys_go_to_caller_order(self):
        cluster, demand_fn = tie_cluster()
        source, first, second = cluster.hosts
        b_first = 16.0 * 0.85 - 4.25
        b_second = 16.0 * 0.85 - (4.25 + math.ulp(4.25))
        # The walk meets ``second`` (the smaller budget) first and must
        # still pick ``first``, which ties it on the key.
        assert b_second < b_first
        assert b_second - (-1000.0) == b_first - (-1000.0)
        for targets in ((first, second), EvacuationTargets(cluster.hosts, demand_fn)):
            plan = plan_evacuation(source, targets, demand_fn)
            assert plan == [(source.vms["mover"], first)]
        assert distinct_budget_ties(
            plan, (first, second), demand_fn, 0.85
        ) == 1

    @pytest.mark.parametrize("short", [0.5e-9, 1.5e-9])
    def test_cpu_slack_boundary(self, short):
        # The target's budget sits ``short`` below the mover's demand; the
        # planner's 1e-9 slack admits 0.5e-9 and rejects 1.5e-9.
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=16.0, mem_gb=64.0)
        source, target = cluster.hosts
        load = {"mover": 2.0, "resident": 14.0 + short}

        def demand_fn(vm):
            return load[vm.name]

        add_vm(cluster, source, "mover")
        add_vm(cluster, target, "resident")
        want = oracle_plan_evacuation(source, [target], demand_fn, cpu_target=1.0)
        assert (want is not None) == (short < 1e-9)
        for targets in ([target], EvacuationTargets(cluster.hosts, demand_fn, 1.0)):
            assert_same_plan(
                plan_evacuation(source, targets, demand_fn, cpu_target=1.0), want
            )

    @pytest.mark.parametrize("short", [0.5e-9, 1.5e-9])
    def test_memory_slack_boundary(self, cluster, short):
        source, target, full = cluster.hosts
        add_vm(cluster, source, "mover", mem_gb=30)
        add_vm(cluster, full, "filler", mem_gb=60)
        target.mem_reserved_gb = 34.0 + short
        want = oracle_plan_evacuation(source, [target, full], demand_at_zero)
        assert (want is not None) == (short < 1e-9)
        for targets in ([target, full], EvacuationTargets(cluster.hosts, demand_at_zero)):
            assert_same_plan(plan_evacuation(source, targets, demand_at_zero), want)

    def test_arguments_must_match_the_table(self, cluster):
        table = EvacuationTargets(cluster.hosts, cpu_target=1.0, now=5.0)
        host = cluster.hosts[0]
        assert plan_evacuation(host, table, cpu_target=1.0, now=5.0) == []
        with pytest.raises(ValueError):
            plan_evacuation(host, table, now=5.0)
        with pytest.raises(ValueError):
            plan_evacuation(host, table, cpu_target=1.0)
        with pytest.raises(ValueError):
            plan_evacuation(host, table, demand_at_zero, cpu_target=1.0, now=5.0)

    def test_table_holds_only_placeable_targets(self, cluster):
        cluster.hosts[1].evacuating = True
        table = EvacuationTargets(cluster.hosts)
        assert table.hosts == [cluster.hosts[0], cluster.hosts[2]]

    def test_invalid_cpu_target(self, cluster):
        with pytest.raises(ValueError):
            EvacuationTargets(cluster.hosts, cpu_target=0.0)
