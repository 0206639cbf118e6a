"""Unit tests for fleet construction."""

import hashlib

import numpy as np
import pytest

from repro.workload import FleetSpec, build_fleet, enterprise_mix
from repro.workload.fleet import _cdf, _draw


class TestFleetSpec:
    def test_defaults_valid(self):
        FleetSpec()

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(n_vms=0)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(vcpu_choices=(1, 2), vcpu_weights=(1.0,))

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(archetype_weights={"weird": 1.0})

    def test_shared_fraction_validated(self):
        with pytest.raises(ValueError):
            FleetSpec(shared_fraction=1.5)
        with pytest.raises(ValueError):
            FleetSpec(shared_kind="nope", shared_fraction=0.5)


class TestBuildFleet:
    def test_size(self):
        fleet = build_fleet(FleetSpec(n_vms=25), seed=0)
        assert len(fleet) == 25

    def test_unique_names(self):
        fleet = build_fleet(FleetSpec(n_vms=30), seed=0)
        assert len({vm.name for vm in fleet}) == 30

    def test_reproducible_from_seed(self):
        a = build_fleet(FleetSpec(n_vms=20), seed=5)
        b = build_fleet(FleetSpec(n_vms=20), seed=5)
        for vm_a, vm_b in zip(a, b):
            assert vm_a.vcpus == vm_b.vcpus
            assert vm_a.mem_gb == vm_b.mem_gb
            for t in (0.0, 3600.0, 40000.0):
                assert vm_a.demand_cores(t) == vm_b.demand_cores(t)

    def test_seed_changes_fleet(self):
        a = build_fleet(FleetSpec(n_vms=20), seed=1)
        b = build_fleet(FleetSpec(n_vms=20), seed=2)
        demands_a = [vm.demand_cores(7200.0) for vm in a]
        demands_b = [vm.demand_cores(7200.0) for vm in b]
        assert demands_a != demands_b

    def test_vcpus_from_choices(self):
        spec = FleetSpec(n_vms=40, vcpu_choices=(2, 4), vcpu_weights=(0.5, 0.5))
        for vm in build_fleet(spec, seed=0):
            assert vm.vcpus in (2.0, 4.0)

    def test_memory_per_vcpu(self):
        spec = FleetSpec(n_vms=10, mem_gb_per_vcpu=8.0)
        for vm in build_fleet(spec, seed=0):
            assert vm.mem_gb == pytest.approx(vm.vcpus * 8.0)

    def test_demand_within_bounds(self):
        fleet = build_fleet(FleetSpec(n_vms=30), seed=0)
        for vm in fleet:
            for t in range(0, 86_400, 3600):
                d = vm.demand_cores(float(t))
                assert 0.0 <= d <= vm.vcpus

    def test_name_prefix(self):
        fleet = build_fleet(FleetSpec(n_vms=3), seed=0, name_prefix="web")
        assert all(vm.name.startswith("web-") for vm in fleet)


class TestSharedFraction:
    def test_shared_signal_correlates_fleet(self):
        import numpy as np

        spec = FleetSpec(
            n_vms=30,
            archetype_weights={"flat": 1.0},
            shared_fraction=0.8,
            shared_kind="bursty",
            horizon_s=2 * 86_400.0,
        )
        fleet = build_fleet(spec, seed=3)
        times = np.arange(0, 2 * 86_400.0, 300.0)
        total = np.array(
            [sum(vm.demand_cores(t) for vm in fleet) for t in times]
        )
        # Correlated bursts make aggregate demand swing much more than
        # independent flat traces would (which would stay near constant).
        assert total.max() > 1.8 * total.min()

    def test_zero_shared_fraction_independent(self):
        spec = FleetSpec(n_vms=5, shared_fraction=0.0)
        fleet = build_fleet(spec, seed=3)
        assert len(fleet) == 5


class TestEnterpriseMix:
    def test_factory(self):
        spec = enterprise_mix(n_vms=42)
        assert spec.n_vms == 42
        assert set(spec.archetype_weights) == {"diurnal", "bursty", "flat", "spiky"}


def _trace_bytes(trace, h):
    h.update(type(trace).__name__.encode())
    parts = getattr(trace, "parts", None)
    if parts is not None:
        for weight, part in parts:
            h.update(repr(weight).encode())
            _trace_bytes(part, h)
    elif hasattr(trace, "_samples"):
        h.update(trace._samples.tobytes())
    else:
        h.update(repr(sorted(vars(trace).items())).encode())


def _fleet_digest(vms):
    h = hashlib.sha256()
    for vm in vms:
        h.update(
            "{} {!r} {!r} {}|".format(
                vm.name, vm.vcpus, vm.mem_gb, vm.priority.name
            ).encode()
        )
        _trace_bytes(vm.trace, h)
    return h.hexdigest()


class TestDraws:
    """Fleet draws bisect a cumulative table instead of ``Generator.choice``."""

    def test_draw_matches_generator_choice(self):
        weight_rng = np.random.default_rng(20130624)
        for seed in range(200):
            k = int(weight_rng.integers(1, 9))
            weights = weight_rng.uniform(0.0, 5.0, size=k)
            if k > 2:
                weights[int(weight_rng.integers(0, k))] = 0.0
            if weights.sum() == 0.0:
                weights[0] = 1.0
            p = weights / weights.sum()
            cdf = _cdf(weights.tolist())
            ours = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            for _ in range(50):
                assert _draw(ours, cdf) == int(ref.choice(k, p=p))
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _cdf([0.5, -0.1, 0.6])

    @pytest.mark.parametrize(
        "spec, seed, pinned",
        [
            (
                FleetSpec(n_vms=1000, horizon_s=7200.0, shared_fraction=0.3),
                7,
                "4be29dd74a4b1d7be4881568a65a25a466efc22b87d053ce9da553b36eefdf54",
            ),
            (
                FleetSpec(n_vms=200, horizon_s=86_400.0),
                7,
                "5ac5953e4669dfc6ed9d79dcef87229698dd232abef2fb47415288187b8b149c",
            ),
            (
                FleetSpec(
                    n_vms=100,
                    horizon_s=2 * 86_400.0,
                    shared_fraction=0.5,
                    shared_kind="diurnal",
                ),
                11,
                "941b9846c49e483f63550b865756a5cd3376364203bc545cd98c530c36ad3869",
            ),
        ],
        ids=["fleet-wide", "long-horizon", "shared-diurnal"],
    )
    def test_fleet_digest_is_pinned(self, spec, seed, pinned):
        # Pinned with the ``Generator.choice`` draws this replaced.
        assert _fleet_digest(build_fleet(spec, seed=seed)) == pinned
