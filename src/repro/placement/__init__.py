"""Placement substrate: initial packing, DRM-style balancing, evacuation.

This package is pure planning — it inspects the cluster and returns
recommendations; the management layer (``repro.core``) executes them with
the migration engine.  Keeping planning side-effect-free makes both the
baseline DRM controller and the power-aware controller testable without a
simulation run.
"""

from repro.placement.packing import (
    PackingError,
    best_fit_decreasing,
    dot_product_packing,
    first_fit_decreasing,
    pack_onto_minimal_hosts,
)
from repro.placement.balancer import BalanceConfig, LoadBalancer, Move
from repro.placement.evacuation import EvacuationTargets, plan_evacuation

__all__ = [
    "BalanceConfig",
    "EvacuationTargets",
    "LoadBalancer",
    "Move",
    "PackingError",
    "best_fit_decreasing",
    "dot_product_packing",
    "first_fit_decreasing",
    "pack_onto_minimal_hosts",
    "plan_evacuation",
]
