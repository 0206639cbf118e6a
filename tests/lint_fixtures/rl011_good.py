"""Fixture: retired RL011 — hot paths read the incremental index views."""


class Manager:
    def __init__(self, cluster):
        self.cluster = cluster

    def evaluate(self):  # reprolint: hot
        # Sizing reads the maintained aggregates, not a fleet walk — and
        # hands back a generator-built list, not a comprehension.
        committed = self.cluster.committed_capacity_cores()
        needed = self.cluster.demand_cores()
        if committed < needed:
            return list(h.name for h in self.cluster.parked_hosts())
        return []

    def react_to_shortfall(self):  # reprolint: hot
        # The index views return only the hosts in the relevant state.
        overload = sum(
            max(0.0, h.demand_cores(0.0) - h.cores)
            for h in self.cluster.active_hosts()
        )
        if overload <= 0.25:
            return 0.0
        # A deliberate reconciliation pass must see every host — the
        # per-line suppression documents that choice.
        stuck = list(
            h
            for h in self.cluster.hosts  # reprolint: disable=RL015
            if h.out_of_service
        )
        return overload, stuck

    def report(self):
        # Cold paths may walk the inventory freely.
        return [h.name for h in self.cluster.hosts]
