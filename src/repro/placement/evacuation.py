"""Evacuation planning: empty a host so it can be parked."""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.host import Host
from repro.datacenter.vm import VM

DemandFn = Callable[[VM], float]


def host_load(host: Host, demand_fn: DemandFn) -> float:
    """``demand_fn`` summed over ``host``'s VMs in dict order, from zero.

    The same sequential accumulation as ``Host.resident_demand_cores``
    (``sum`` of floats is compensated from Python 3.12 on).
    """
    load = 0.0
    for vm in host.vms.values():
        load += demand_fn(vm)
    return load


class EvacuationTargets:
    """The destination budgets of one consolidation round.

    Built once from the round's target hosts and read by every plan of
    the round.  Holds, for the targets available for placement, in
    caller order, each one's CPU budget (``cores * cpu_target`` minus its
    load at ``now``) and free memory, plus an index of the targets
    sorted by CPU budget with the largest free memory at or above each
    position.  A plan bisects that index for the first target with
    enough CPU instead of scanning them all.

    The table is a snapshot: it stays valid while the cluster does not
    change, except that hosts may turn ``evacuating`` (a plan skips those)
    and a plan's own host may be in it (skipped too).  ``demand_fn=None``
    selects the canonical demand, ``vm.demand_cores(now)``, with host
    loads read from ``Host.resident_demand_cores``.
    """

    def __init__(
        self,
        targets: Sequence[Host],
        demand_fn: Optional[DemandFn] = None,
        cpu_target: float = 0.85,
        now: float = 0.0,
    ) -> None:
        if not 0.0 < cpu_target <= 1.0:
            raise ValueError("cpu_target must be in (0, 1]")
        self.demand_fn = demand_fn
        self.cpu_target = cpu_target
        self.now = now
        hosts = [t for t in targets if t.available_for_placement]
        if demand_fn is None:
            cpu = [t.cores * cpu_target - t.resident_demand_cores(now) for t in hosts]
        else:
            cpu = [t.cores * cpu_target - host_load(t, demand_fn) for t in hosts]
        mem = [t.mem_free_gb for t in hosts]
        # A stable sort: equal budgets keep caller order.
        order = sorted(range(len(hosts)), key=cpu.__getitem__)
        mem_above = [0.0] * len(order)
        most = float("-inf")
        for k in range(len(order) - 1, -1, -1):
            most = max(most, mem[order[k]])
            mem_above[k] = most
        self.hosts = hosts
        self.cpu = cpu
        self.mem = mem
        self.order = order
        #: ``cpu[order[k]] + 1e-9``: a VM of demand ``d`` passes the CPU
        #: test on exactly the targets from ``bisect_left(fit, d)`` on.
        self.fit = [cpu[i] + 1e-9 for i in order]
        #: The largest ``mem`` over ``order[k:]``.
        self.mem_above = mem_above


def plan_evacuation(
    host: Host,
    targets: Union[Sequence[Host], EvacuationTargets],
    demand_fn: Optional[DemandFn] = None,
    cpu_target: float = 0.85,
    trace: Optional["TraceBuffer"] = None,
    now: float = 0.0,
) -> Optional[List[Tuple[VM, Host]]]:
    """Plan destinations for every VM on ``host``, or None if impossible.

    Uses best-fit over the target hosts' remaining CPU/memory budgets so
    evacuations concentrate load (the consolidation objective) rather than
    spreading it: each VM, largest demand first, goes to the fitting
    target with the least CPU budget left, the first in caller order on
    a tie.  A plain target sequence must not include ``host`` itself; an
    :class:`EvacuationTargets` table may (the host is skipped), and
    ``demand_fn``, ``cpu_target`` and ``now`` must be the ones it was
    built with.

    Returns a list of ``(vm, destination)`` pairs covering *all* resident,
    non-migrating VMs; a partial evacuation is useless for parking, so a
    single unplaceable VM fails the whole plan.
    """
    if isinstance(targets, EvacuationTargets):
        table = targets
        if (
            demand_fn is not table.demand_fn
            or cpu_target != table.cpu_target
            or now != table.now
        ):
            raise ValueError("plan arguments differ from the target table's")
    else:
        if host in targets:
            raise ValueError("evacuation targets must exclude the host itself")
        table = EvacuationTargets(targets, demand_fn, cpu_target, now)

    movable = [vm for vm in host.vms.values() if not vm.migrating]
    if len(movable) != len(host.vms):
        # In-flight migrations pin the host; caller should retry later.
        if trace is not None:
            trace.evacuation_planned(now, host.name, len(host.vms), ok=False)
        return None

    if demand_fn is None:
        demands = [(vm.demand_cores(now), vm) for vm in movable]
    else:
        demands = [(demand_fn(vm), vm) for vm in movable]
    ranked = sorted(demands, key=itemgetter(0), reverse=True)
    hosts, cpu, mem = table.hosts, table.cpu, table.mem
    order, fit, mem_above = table.order, table.fit, table.mem_above
    n = len(order)
    # Targets this plan has charged: position -> (cpu, mem, groups).
    charged: Dict[int, Tuple[float, float, Set[str]]] = {}
    plan: List[Tuple[VM, Host]] = []
    for demand, vm in ranked:
        need = vm.mem_gb
        group = vm.anti_affinity_group
        # The winner minimizes (cpu - demand, caller position); ``n``
        # stands for "none yet".
        best, best_key = n, float("inf")
        for i, (b, m, groups) in charged.items():
            if (
                demand <= b + 1e-9
                and need <= m + 1e-9
                and (group is None or group not in groups)
            ):
                key = b - demand
                if key < best_key or (key == best_key and i < best):
                    best, best_key = i, key
        # Uncharged targets in budget order, from the first that passes
        # the CPU test: keys only grow along it, but distinct budgets can
        # round to one key, so an equal key is still a candidate.
        k = bisect_left(fit, demand)
        while k < n and need <= mem_above[k] + 1e-9:
            i = order[k]
            k += 1
            key = cpu[i] - demand
            if key > best_key:
                break
            if (key == best_key and i > best) or need > mem[i] + 1e-9 or i in charged:
                continue
            t = hosts[i]
            if (
                t is host
                or t.evacuating
                or (
                    group is not None
                    and (t.hosts_group(group) or group in t.groups_reserved)
                )
            ):
                continue
            best, best_key = i, key
        if best == n:
            if trace is not None:
                trace.evacuation_planned(now, host.name, len(movable), ok=False)
            return None
        dst = hosts[best]
        entry = charged.get(best)
        if entry is None:
            b, m, groups = cpu[best], mem[best], dst.groups_reserved.union(dst._aa_groups)
        else:
            b, m, groups = entry
        if group is not None:
            groups.add(group)
        charged[best] = (b - demand, m - need, groups)
        plan.append((vm, dst))
    if trace is not None:
        trace.evacuation_planned(now, host.name, len(plan), ok=True)
    return plan
