"""The demand block: every VM's, host's and class's demand over a run of ticks.

The sampler builds one :class:`DemandBlock` per block of sampler ticks
and installs it on its cluster.  Every row holds exactly the floats the
scalar walk it replaces would produce at each tick, because each is the
same *ordered* accumulation from zero, run elementwise:

* the VM × tick matrix: ``min(trace.at(t), 1.0) * vcpus``;
* ``resident[h]``: host ``h``'s resident VMs in its ``vms`` dict order,
  and ``classes[h]``: the same walk split GOLD / SILVER / BRONZE;
* ``util[h]`` / ``power[h]``: ``min(resident / cores, 1.0)`` and the
  active power model's watts at that utilization;
* ``total`` / ``class_totals``: the cluster registry in registry order.

Placement changes (place, remove, admit, retire) rewrite the rows they
touch, so no read ever sees a stale row.  The migration tax is not part
of any row; readers add it.  Rows are Python float lists, converted once
per row with ``tolist``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Sequence,
    Tuple,
)

import numpy as np

from repro.datacenter.vm import Priority

if TYPE_CHECKING:
    from repro.datacenter.cluster import Cluster
    from repro.datacenter.host import Host
    from repro.datacenter.vm import VM

#: ``(traces, ticks) -> fractions``, one row per trace, bit-identical to
#: the scalar ``trace.at`` at every tick (the sampler passes
#: :func:`repro.workload.traces.trace_matrix`).
MatrixFn = Callable[[Sequence[object], List[float]], np.ndarray]

_CLASSES = tuple(Priority)


class DemandBlock:
    """Demand of one cluster at the instants ``ticks``."""

    def __init__(
        self, cluster: "Cluster", ticks: Sequence[float], matrix_fn: MatrixFn
    ) -> None:
        self.ticks = list(ticks)
        #: Instant → column; a read at any other instant is not served.
        self.col: Dict[float, int] = {t: j for j, t in enumerate(self.ticks)}
        self._cluster = cluster
        self._matrix_fn = matrix_fn
        n = len(self.ticks)
        self._zero = [0.0] * n
        self._idle: Dict[int, List[float]] = {}
        # Matrix rows: 0 is a zero row (the padding of the slot matrix
        # below), then the registry, then any VM placed without admission.
        vms: List["VM"] = list(cluster.iter_vms())
        row_of: Dict["VM", int] = {vm: r for r, vm in enumerate(vms, 1)}
        slots: List[List[int]] = []
        for host in cluster.hosts:
            rows = []
            for vm in host.vms.values():
                r = row_of.get(vm)
                if r is None:
                    r = row_of[vm] = len(vms) + 1
                    vms.append(vm)
                rows.append(r)
            slots.append(rows)
        matrix = np.zeros((len(vms) + 1, n))
        if vms:
            matrix[1:] = self._demand_rows(vms)
        self._rows: Dict["VM", np.ndarray] = dict(zip(vms, matrix[1:]))
        # Slot matrix: column h lists host h's matrix rows in dict order,
        # padded with the zero row; adding slot k for every host at once
        # runs each host's accumulation (x + 0.0 == x for these values).
        hosts = cluster.hosts
        depth = max(map(len, slots), default=0)
        slot = np.zeros((depth, len(hosts)), dtype=np.intp)
        for h, rows in enumerate(slots):
            slot[: len(rows), h] = rows
        prio = np.array([-1] + [int(vm.priority) for vm in vms])
        acc = np.zeros((1 + len(_CLASSES), len(hosts), n))
        for rows in slot:
            demand = matrix[rows]
            acc[0] += demand
            p = prio[rows]
            for c in _CLASSES:
                acc[1 + c] += np.where((p == c)[:, None], demand, 0.0)
        self.resident: List[List[float]] = [[]] * len(hosts)
        self.util: List[List[float]] = [[]] * len(hosts)
        self.power: List[List[float]] = [[]] * len(hosts)
        self.classes: List[Tuple[List[float], ...]] = [()] * len(hosts)
        self._store_hosts(list(range(len(hosts))), acc)
        self.total: List[float] = []
        self.class_totals: Tuple[List[float], ...] = ()
        self.registry_changed()

    def _demand_rows(self, vms: Sequence["VM"]) -> np.ndarray:
        """Demand in cores, one row per VM (the scalar ``VM.demand_cores``)."""
        frac = self._matrix_fn([vm.trace for vm in vms], self.ticks)
        low = frac.min(axis=1)
        negative = np.flatnonzero(low < 0.0)
        if negative.size:
            r = int(negative[0])
            raise ValueError(
                "trace for {} returned negative demand {}".format(
                    vms[r].name, low[r].item()
                )
            )
        vcpus = np.array([vm.vcpus for vm in vms])
        return np.minimum(frac, 1.0) * vcpus[:, None]

    def _row(self, vm: "VM") -> np.ndarray:
        row = self._rows.get(vm)
        if row is None:
            # Admitted (or placed) after the block was built.
            row = self._rows[vm] = self._demand_rows([vm])[0]
        return row

    def _store_idle(self, h: int) -> None:
        """Rows of host ``h`` while it has no VMs.

        Idle hosts share one zero row and one idle-power row per power
        model (the values the sums of nothing produce), which keeps a
        mostly parked fleet's block small.
        """
        zero = self._zero
        self.resident[h] = self.util[h] = zero
        self.classes[h] = (zero,) * len(_CLASSES)
        model = self._cluster.hosts[h].machine.profile.active_model
        idle = self._idle.get(id(model))
        if idle is None:
            idle = self._idle[id(model)] = (
                model.power_at_grid(np.zeros(1)).tolist() * len(zero)
            )
        self.power[h] = idle

    def _store_hosts(self, positions: List[int], acc: np.ndarray) -> None:
        """Install resident/class sums ``acc[:, i]`` as host ``positions[i]``'s rows."""
        hosts = self._cluster.hosts
        busy = []
        for i, h in enumerate(positions):
            if hosts[h].vms:
                busy.append(i)
            else:
                self._store_idle(h)
        if not busy:
            return
        positions = [positions[i] for i in busy]
        acc = acc[:, busy]
        cores = np.array([hosts[h].cores for h in positions])
        util = np.minimum(acc[0] / cores[:, None], 1.0)
        by_model: Dict[int, Tuple[object, List[int]]] = {}
        for i, h in enumerate(positions):
            model = hosts[h].machine.profile.active_model
            by_model.setdefault(id(model), (model, []))[1].append(i)
        if len(by_model) == 1:
            ((model, _),) = by_model.values()
            power = model.power_at_grid(util)
        else:
            power = np.empty_like(util)
            for model, members in by_model.values():
                power[members] = model.power_at_grid(util[members])
        rows = zip(
            positions,
            acc[0].tolist(),
            util.tolist(),
            power.tolist(),
            zip(*(acc[1 + c].tolist() for c in _CLASSES)),
        )
        for h, resident, u, watts, classes in rows:
            self.resident[h] = resident
            self.util[h] = u
            self.power[h] = watts
            self.classes[h] = classes

    def host_changed(self, host: "Host") -> None:
        """Rewrite ``host``'s rows after its VM set changed."""
        acc = np.zeros((1 + len(_CLASSES), 1, len(self.ticks)))
        resident, *classes = acc[:, 0]
        for vm in host.vms.values():
            row = self._row(vm)
            resident += row
            classes[vm.priority] += row
        self._store_hosts([host._slot], acc)

    def vm_admitted(self, vm: "VM") -> None:
        """Add the newest registry VM to the totals (registry order ends with it)."""
        row = self._row(vm)
        self.total = (np.array(self.total) + row).tolist()
        classes = list(self.class_totals)
        classes[vm.priority] = (np.array(classes[vm.priority]) + row).tolist()
        self.class_totals = tuple(classes)

    def registry_changed(self) -> None:
        """Recompute the registry-order totals (at build, and after a retirement)."""
        n = len(self.ticks)
        total = np.zeros(n)
        classes = [np.zeros(n) for _ in _CLASSES]
        for vm in self._cluster.iter_vms():
            row = self._row(vm)
            total += row
            classes[vm.priority] += row
        self.total = total.tolist()
        self.class_totals = tuple(row.tolist() for row in classes)
