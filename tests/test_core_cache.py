"""Tests for the scenario result cache (repro.core.cache)."""

import pytest

from repro.core import ScenarioSpec, s3_policy, s5_policy
from repro.core.cache import (
    ResultCache,
    Uncacheable,
    canonical,
    scenario_digest,
)
from repro.datacenter import FaultModel
from repro.power.states import PowerState
from repro.prototype import make_prototype_blade_profile
from repro.workload import FleetSpec


class OpaqueTrace:
    """A trace carrying live RNG state: runnable but not canonicalizable."""

    def __init__(self):
        import numpy as np

        self.rng = np.random.default_rng(1)

    def at(self, t):
        return 0.5


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(3) == 3
        assert canonical(2.5) == 2.5
        assert canonical("x") == "x"
        assert canonical(None) is None
        assert canonical(True) is True

    def test_enum_and_containers(self):
        enc = canonical({"state": PowerState.SLEEP, "xs": (1, 2)})
        assert enc["__dict__"]["xs"] == [1, 2]
        assert enc["__dict__"]["state"]["name"] == "SLEEP"

    def test_dataclass_fields_are_captured(self):
        a = canonical(FleetSpec(n_vms=10))
        b = canonical(FleetSpec(n_vms=11))
        assert a != b
        assert a["fields"]["n_vms"] == 10

    def test_numpy_scalars(self):
        import numpy as np

        assert canonical(np.float64(1.5)) == 1.5
        assert canonical(np.int64(4)) == 4

    def test_power_profile_is_canonical(self):
        profile = make_prototype_blade_profile()
        assert canonical(profile) == canonical(make_prototype_blade_profile())
        slow = make_prototype_blade_profile(resume_latency_s=60.0)
        assert canonical(profile) != canonical(slow)

    def test_unencodable_raises(self):
        with pytest.raises(Uncacheable):
            canonical(lambda: None)
        with pytest.raises(Uncacheable):
            canonical(object())


class TestScenarioDigest:
    def test_stable_across_equal_configs(self):
        kw = dict(n_hosts=4, seed=1, fleet_spec=FleetSpec(n_vms=8))
        assert scenario_digest(s3_policy(), kw) == scenario_digest(
            s3_policy(), dict(kw)
        )

    def test_sensitive_to_policy_and_kwargs(self):
        kw = dict(n_hosts=4, seed=1)
        base = scenario_digest(s3_policy(), kw)
        assert scenario_digest(s5_policy(), kw) != base
        assert scenario_digest(s3_policy(), dict(kw, seed=2)) != base
        assert scenario_digest(
            s3_policy(), dict(kw, fault_model=FaultModel(wake_failure_rate=0.1))
        ) != base

    def test_sensitive_to_package_version(self, monkeypatch):
        import repro

        kw = dict(n_hosts=4, seed=1)
        before = scenario_digest(s3_policy(), kw)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert scenario_digest(s3_policy(), kw) != before

    def test_generated_fleet_is_cacheable(self):
        """build_fleet VMs are pure value objects — they hash cleanly."""
        from repro.workload.fleet import build_fleet

        fleet = build_fleet(FleetSpec(n_vms=2), seed=0)
        spec = ScenarioSpec(s3_policy(), kwargs=dict(fleet=fleet))
        assert spec.digest() == spec.digest()

    def test_vm_demand_memo_does_not_change_digest(self):
        """Runtime memo state is excluded via __cache_ignore__."""
        from repro.workload.fleet import build_fleet

        fresh = build_fleet(FleetSpec(n_vms=2), seed=0)
        used = build_fleet(FleetSpec(n_vms=2), seed=0)
        for vm in used:
            vm.demand_cores(120.0)
        assert canonical(fresh) == canonical(used)

    def test_hand_built_fleet_canonical_form_is_pinned(self):
        """Recipe/digest bookkeeping on seeded traces stays out of the key.

        The pinned hash was computed before seeded traces recorded their
        constructor arguments; neither that nor caching a sample digest
        (as a checkpoint save does) nor a pickle round trip may move it.
        """
        import hashlib
        import json
        import pickle

        from repro.workload.fleet import build_fleet

        fleet = build_fleet(
            FleetSpec(n_vms=8, horizon_s=4 * 3600.0, shared_fraction=0.25),
            seed=5,
        )

        def key(vms):
            blob = json.dumps(canonical(vms), sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        pinned = "60086ba04d6059748757d3eb8fd879a484dfd53512c1e1cc506e1ec146337579"
        assert key(fleet) == pinned
        for vm in fleet:
            for _, part in vm.trace.parts:
                if hasattr(part, "samples_digest"):
                    part.samples_digest()
        assert key(fleet) == pinned
        assert key(pickle.loads(pickle.dumps(fleet))) == pinned

    def test_spec_digest_raises_for_live_objects(self):
        from repro.workload.fleet import build_fleet

        fleet = build_fleet(FleetSpec(n_vms=2), seed=0)
        fleet[0].trace = OpaqueTrace()
        spec = ScenarioSpec(s3_policy(), kwargs=dict(fleet=fleet))
        with pytest.raises(Uncacheable):
            spec.digest()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 8, {"value": 42})
        assert cache.get("k" * 8) == {"value": 42}
        assert cache.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_disk_persistence(self, tmp_path):
        ResultCache(tmp_path).put("abc", [1, 2, 3])
        assert ResultCache(tmp_path).get("abc") == [1, 2, 3]

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert list(cache.entries()) == []
        assert ResultCache(tmp_path).get("a") is None

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("broken", {"x": 1})
        path = list(cache.entries())[0]
        path.write_bytes(b"\x80not a pickle")
        assert ResultCache(tmp_path).get("broken") is None

    def test_size_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.size_bytes() == 0
        cache.put("a", list(range(100)))
        assert cache.size_bytes() > 0

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = ResultCache()
        assert cache.root == tmp_path / "elsewhere"
