"""Unit tests for the churn generator."""

import pytest

from repro.sim import Environment
from repro.workload import ChurnGenerator, FleetSpec


@pytest.fixture
def env():
    return Environment()


def run_churn(env, admit, horizon=12 * 3600.0, rate=10.0, lifetime=1800.0, seed=0):
    retired = []
    churn = ChurnGenerator(
        env,
        seed=seed,
        admit=admit,
        retire=retired.append,
        arrival_rate_per_h=rate,
        mean_lifetime_s=lifetime,
        spec=FleetSpec(n_vms=1, horizon_s=horizon),
    )
    churn.start()
    env.run(until=horizon)
    return churn, retired


class TestChurn:
    def test_arrivals_roughly_match_rate(self, env):
        churn, _ = run_churn(env, admit=lambda vm: True, rate=10.0)
        # 10/h over 12h = 120 expected; Poisson 3-sigma ~ +/-33
        assert 80 <= churn.arrived <= 160

    def test_departures_follow_lifetimes(self, env):
        churn, retired = run_churn(env, admit=lambda vm: True, lifetime=900.0)
        assert churn.departed == len(retired)
        assert churn.departed > 0.5 * churn.arrived

    def test_rejections_counted(self, env):
        churn, retired = run_churn(env, admit=lambda vm: False)
        assert churn.rejected == churn.arrived
        assert churn.departed == 0
        assert retired == []

    def test_live_vms_tracked(self, env):
        churn, _ = run_churn(env, admit=lambda vm: True, lifetime=1e9)
        assert len(churn.live_vms) == churn.arrived

    def test_deterministic_given_seed(self):
        def run_once():
            env = Environment()
            churn, _ = run_churn(env, admit=lambda vm: True, seed=7)
            return churn.arrived, churn.departed

        assert run_once() == run_once()

    def test_draws_are_pinned(self, env):
        # Pinned before the draw tables were hoisted out of ``_draw_vm``:
        # building them once must not change a single draw.
        import hashlib

        churn = ChurnGenerator(
            env,
            seed=9,
            admit=lambda vm: True,
            retire=lambda vm: None,
            spec=FleetSpec(n_vms=1, horizon_s=6 * 3600.0),
        )
        h = hashlib.sha256()
        for _ in range(40):
            vm = churn._draw_vm()
            h.update(
                "{} {} {} {}|".format(
                    vm.name, vm.vcpus, vm.priority.name, type(vm.trace).__name__
                ).encode()
            )
            h.update(vm.trace._samples.tobytes())
        assert h.hexdigest() == (
            "6a7fe13d96c0ee1991af0b3db825e5f4f834451c0e114a39009cc704ab150550"
        )

    def test_unique_names(self, env):
        names = []
        churn, _ = run_churn(env, admit=lambda vm: names.append(vm.name) or True)
        assert len(names) == len(set(names))

    def test_validation(self, env):
        with pytest.raises(ValueError):
            ChurnGenerator(
                env,
                seed=0,
                admit=lambda vm: True,
                retire=lambda vm: None,
                arrival_rate_per_h=0.0,
            )
