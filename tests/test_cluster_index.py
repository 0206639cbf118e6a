"""Property tests: the incremental host index matches a from-scratch scan.

The cluster keeps position-sorted per-category index lists, re-filed by
mutation callbacks (power transitions, flag changes, placement).  These
tests drive randomized admit/retire/park/wake/fault/maintenance
sequences — advancing simulated time so checks land mid-transition too —
and after every operation compare each indexed view against the
predicate scan it replaced, and the capacity sums bit for bit against
sums over that scan in inventory order.
"""

import itertools
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import VM, Cluster
from repro.power.states import IllegalTransition, PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace


def scan_views(cluster):
    """Recompute every category with the original full-inventory scans."""
    hosts = cluster.hosts
    return {
        "active": [h for h in hosts if h.is_active],
        "placeable": [h for h in hosts if h.available_for_placement],
        "parked": [
            h
            for h in hosts
            if not h.machine.in_transition
            and h.state.is_parked
            and not h.out_of_service
            and not h.in_maintenance
        ],
        "oos": [h for h in hosts if h.out_of_service],
        "transitioning": [h for h in hosts if h.machine.in_transition],
        "waking": [
            h
            for h in hosts
            if h.machine.in_transition
            and h.machine.target_state is PowerState.ACTIVE
        ],
        "evacuating": [h for h in hosts if h.evacuating],
    }


def index_views(cluster):
    return {
        "active": cluster.active_hosts(),
        "placeable": cluster.placeable_hosts(),
        "parked": cluster.parked_hosts(),
        "oos": cluster.out_of_service_hosts(),
        "transitioning": cluster.transitioning_hosts(),
        "waking": cluster.waking_hosts(),
        "evacuating": cluster.evacuating_hosts(),
    }


def assert_index_matches_scan(cluster):
    scanned = scan_views(cluster)
    indexed = index_views(cluster)
    for category in scanned:
        assert indexed[category] == scanned[category], category
    # The O(1) counters must agree with the views they summarize.
    assert cluster.n_active_hosts() == len(scanned["active"])
    assert cluster.n_parked_hosts() == len(scanned["parked"])
    assert cluster.n_transitioning_hosts() == len(scanned["transitioning"])
    assert cluster.n_evacuating_hosts() == len(scanned["evacuating"])
    assert cluster.evacuating_cores() == sum(
        h.cores for h in scanned["evacuating"]
    )
    # Capacity sums: same bits as a from-scratch sum in inventory order.
    active = sum(h.cores for h in scanned["active"])
    committed = active + sum(h.cores for h in scanned["waking"])
    assert cluster.active_capacity_cores().hex() == active.hex()
    assert cluster.committed_capacity_cores().hex() == committed.hex()


PARK_STATES = (PowerState.SLEEP, PowerState.HIBERNATE, PowerState.OFF)

#: op kinds: (code, host index selector, park-state selector, dt)
operations = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "park",
                "wake",
                "fault",
                "repair",
                "maintenance",
                "evacuate",
                "admit",
                "retire",
                "advance",
            ]
        ),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=400.0),
    ),
    min_size=1,
    max_size=60,
)


#: Fresh VM names across every generated sequence.
_vm_names = ("vm-{:06d}".format(i) for i in itertools.count())


def apply_op(env, cluster, op, vm_vcpus=1.0):
    """Apply one generated operation to ``cluster`` (skipping illegal ones)."""
    code, host_idx, state_idx, dt = op
    host = cluster.hosts[host_idx]
    if code == "park":
        if host.is_active and not host.vms:
            env.process(host.park(PARK_STATES[state_idx]))
            # Nudge the clock so the transition actually starts (the
            # index must reflect the in-flight transition).
            env.run(until=env.now + 1e-9)
    elif code == "wake":
        if (
            not host.machine.in_transition
            and host.state.is_parked
            and not host.out_of_service
        ):
            env.process(host.wake())
            env.run(until=env.now + 1e-9)
    elif code == "fault":
        host.out_of_service = True
    elif code == "repair":
        if host.out_of_service:
            host.repair()
    elif code == "maintenance":
        host.in_maintenance = not host.in_maintenance
    elif code == "evacuate":
        host.evacuating = not host.evacuating
    elif code == "admit":
        if host.is_active:
            vm = VM(
                next(_vm_names),
                vcpus=vm_vcpus,
                mem_gb=2.0,
                trace=FlatTrace(0.5),
            )
            if host.fits(vm):
                cluster.add_vm(vm, host)
    elif code == "retire":
        if cluster.vms:
            cluster.remove_vm(cluster.vms[0])
    elif code == "advance":
        env.run(until=env.now + dt)


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_index_matches_scan_after_random_operations(ops):
    env = Environment()
    cluster = Cluster.homogeneous(
        env, PROTOTYPE_BLADE, n_hosts=6, cores=8.0, mem_gb=64.0
    )
    for op in ops:
        apply_op(env, cluster, op)
        assert_index_matches_scan(cluster)
    # Drain all in-flight transitions and check the settled state too.
    env.run()
    assert_index_matches_scan(cluster)


#: Non-integral core counts whose float sum depends on summation order,
#: so a capacity sum taken in any order but inventory order shows.
ODD_CORES = (0.1, 0.2, 0.3, 0.7, 1.1, 2.9)


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() of floats is compensated from Python 3.12 on, so the "
    "order of these positive terms cannot change the result",
)
def test_odd_cores_make_summation_order_visible():
    assert sum(ODD_CORES) != sum(reversed(ODD_CORES))


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_capacity_sums_match_scan_on_heterogeneous_inventory(ops):
    env = Environment()
    cluster = Cluster.heterogeneous(
        env,
        [
            {"count": 1, "profile": PROTOTYPE_BLADE, "cores": c, "mem_gb": 64.0}
            for c in ODD_CORES
        ],
    )
    assert_index_matches_scan(cluster)
    for op in ops:
        apply_op(env, cluster, op, vm_vcpus=0.05)
        assert_index_matches_scan(cluster)
    env.run()
    assert_index_matches_scan(cluster)
    # A checkpoint pickles the sums with the index; the restored cluster
    # must carry them intact and keep them current through later changes.
    env, cluster = pickle.loads(pickle.dumps((env, cluster)))
    assert_index_matches_scan(cluster)
    for op in ops:
        apply_op(env, cluster, op, vm_vcpus=0.05)
        assert_index_matches_scan(cluster)
    env.run()
    assert_index_matches_scan(cluster)


def test_capacity_sums_track_wakes_in_flight():
    """A waking host counts as committed, not active, until it is up."""
    env = Environment()
    cluster = Cluster.heterogeneous(
        env,
        [
            {"count": 1, "profile": PROTOTYPE_BLADE, "cores": c, "mem_gb": 64.0}
            for c in ODD_CORES
        ],
    )
    for idx in (0, 2, 3, 5):
        env.process(cluster.hosts[idx].park(PowerState.SLEEP))
    env.run()
    assert_index_matches_scan(cluster)
    for idx in (5, 0, 3):
        env.process(cluster.hosts[idx].wake())
        env.run(until=env.now + 1e-9)
        assert cluster.hosts[idx] in cluster.waking_hosts()
        assert_index_matches_scan(cluster)
    assert cluster.committed_capacity_cores() > cluster.active_capacity_cores()
    env.run()
    assert cluster.waking_hosts() == []
    assert_index_matches_scan(cluster)


@settings(max_examples=30, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8)
)
def test_index_tracks_failed_wakes_and_illegal_requests(seq):
    """Rejected transitions must leave the index untouched."""
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, n_hosts=3)
    host = cluster.hosts[0]
    for choice in seq:
        try:
            if choice == 0:
                env.process(host.park(PARK_STATES[0]))
            elif choice == 1:
                env.process(host.wake())
            else:
                env.run(until=env.now + 50.0)
        except (IllegalTransition, RuntimeError):
            pass
        assert_index_matches_scan(cluster)
    env.run()
    assert_index_matches_scan(cluster)


def test_index_serves_views_in_inventory_order():
    """Views preserve host inventory order exactly (float-sum identity)."""
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, n_hosts=5)
    # Park hosts out of order; the parked view must still come back in
    # inventory order.
    for idx in (3, 1, 4):
        env.process(cluster.hosts[idx].park(PowerState.SLEEP))
    env.run()
    assert cluster.parked_hosts() == [
        cluster.hosts[1],
        cluster.hosts[3],
        cluster.hosts[4],
    ]
    assert cluster.active_hosts() == [cluster.hosts[0], cluster.hosts[2]]
