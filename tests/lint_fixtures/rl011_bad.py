"""Fixture: retired RL011 — fleet scans in hot paths, now flagged by RL015."""


class Manager:
    def __init__(self, cluster):
        self.cluster = cluster

    def evaluate(self):  # reprolint: hot
        total = 0.0
        for host in self.cluster.hosts:  # finding: O(fleet) scan per round
            total += host.demand_cores(0.0)
        return total

    def react_to_shortfall(self):  # reprolint: hot
        overloaded = [  # finding: list built per call
            h
            for h in self.cluster.hosts  # finding: watchdog runs every tick
            if h.demand_cores(0.0) > h.cores
        ]
        spare = sum(h.cores for h in self.cluster.hosts)  # finding: genexpr scan
        return overloaded, spare

    def report(self):
        # Not registered hot: cold paths may walk the inventory.
        return [h.name for h in self.cluster.hosts]


def evaluate(cluster):  # reprolint: hot
    # Module-level hot function: same discipline applies (the setcomp
    # and its scan are two findings on one line).
    return {h.name for h in cluster.hosts}  # finding: setcomp scan
