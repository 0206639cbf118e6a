"""Checkpoint/resume: differential determinism, rejection, streaming, branch.

The hard bar: a run resumed from any checkpoint must produce a decision
trace **byte-identical** to the uninterrupted run's, on both management
planes, with churn, faults and stale telemetry in play.  The trace hash
is the certification key (same as the differential suite), and the trace
validator certifies the resumed runs too.
"""

import json

import numpy as np
import pytest

from repro.core import run_scenario
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    load_checkpoint,
    read_manifest,
)
from repro.core.policies import hybrid_policy, s3_policy, s5_policy
from repro.core.runner import branch_scenario, resume_scenario
from repro.datacenter import FaultModel, RepairModel
from repro.telemetry.validate import validate_trace
from repro.workload import traces

KW = dict(
    n_hosts=6,
    n_vms=18,
    horizon_s=3 * 3600.0,
    seed=11,
    churn_rate_per_h=6.0,
    trace=True,
)
EVERY_S = 1800.0


def _checkpointed(tmp_path, config, name, **overrides):
    kwargs = dict(KW)
    kwargs.update(overrides)
    ckdir = tmp_path / name
    result = run_scenario(
        config, checkpoint_every_s=EVERY_S, checkpoint_dir=ckdir, **kwargs
    )
    assert result.checkpoints is not None
    assert result.checkpoints.saved, "no checkpoint was ever written"
    return result


class TestDifferentialDeterminism:
    def test_checkpointing_does_not_perturb_the_run(self, tmp_path):
        baseline = run_scenario(s3_policy(), **KW)
        ckpt = _checkpointed(tmp_path, s3_policy(), "ck")
        assert ckpt.trace.trace_hash() == baseline.trace.trace_hash()

    @pytest.mark.parametrize("preset", [s3_policy, hybrid_policy])
    def test_resume_is_byte_identical_centralized(self, tmp_path, preset):
        baseline = run_scenario(preset(), **KW)
        ckpt = _checkpointed(tmp_path, preset(), "ck")
        path, manifest = ckpt.checkpoints.saved[len(ckpt.checkpoints.saved) // 2]
        assert manifest["sim_time_s"] < KW["horizon_s"]
        resumed = resume_scenario(path)
        assert resumed.trace.trace_hash() == baseline.trace.trace_hash()
        assert resumed.report.to_dict() == baseline.report.to_dict()
        outcome = validate_trace(resumed.trace, report=resumed.report)
        assert outcome.ok, outcome.render_text()

    def test_resume_is_byte_identical_neat_plane(self, tmp_path):
        config = s3_policy().with_overrides(
            plane="neat", neat_request_delay_s=30.0, neat_request_dropout=0.1
        )
        baseline = run_scenario(config, **KW)
        ckpt = _checkpointed(tmp_path, config, "neat")
        path, _ = ckpt.checkpoints.saved[2]
        resumed = resume_scenario(path)
        assert resumed.trace.trace_hash() == baseline.trace.trace_hash()
        outcome = validate_trace(resumed.trace, report=resumed.report)
        assert outcome.ok, outcome.render_text()

    def test_resume_with_faults_and_pending_repairs(self, tmp_path):
        fault_model = FaultModel(
            wake_failure_rate=0.3,
            permanent_fraction=0.5,
            repair=RepairModel(mttr_s=1800.0),
        )
        baseline = run_scenario(s3_policy(), fault_model=fault_model, **KW)
        ckpt = _checkpointed(
            tmp_path, s3_policy(), "faults", fault_model=fault_model
        )
        for path, _ in ckpt.checkpoints.saved[1::2]:
            resumed = resume_scenario(path)
            assert resumed.trace.trace_hash() == baseline.trace.trace_hash()

    def test_every_checkpoint_of_one_run_resumes_identically(self, tmp_path):
        baseline = run_scenario(s3_policy(), **KW)
        ckpt = _checkpointed(tmp_path, s3_policy(), "all")
        for path, _ in ckpt.checkpoints.saved:
            resumed = resume_scenario(path)
            assert resumed.trace.trace_hash() == baseline.trace.trace_hash()


class TestRejection:
    def _one_checkpoint(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "rej")
        return ckpt.checkpoints.saved[0][0]

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            resume_scenario(path)

    def test_truncated_manifest_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError, match="truncated"):
            resume_scenario(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            resume_scenario(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        path.write_bytes(b"NOTACKPT\n" + path.read_bytes())
        with pytest.raises(CheckpointError, match="bad magic"):
            resume_scenario(path)

    def test_stale_writer_version_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        raw = path.read_bytes()
        magic, rest = raw.split(b"\n", 1)
        header, payload = rest.split(b"\n", 1)
        manifest = json.loads(header)
        manifest["repro_version"] = "0.0.0-other"
        path.write_bytes(
            magic + b"\n"
            + json.dumps(manifest, sort_keys=True).encode() + b"\n"
            + payload
        )
        with pytest.raises(CheckpointError, match="stale"):
            resume_scenario(path)

    def test_incompatible_schema_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        raw = path.read_bytes()
        magic, rest = raw.split(b"\n", 1)
        header, payload = rest.split(b"\n", 1)
        manifest = json.loads(header)
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        manifest["schema"] = CHECKPOINT_SCHEMA + 1
        path.write_bytes(
            magic + b"\n"
            + json.dumps(manifest, sort_keys=True).encode() + b"\n"
            + payload
        )
        with pytest.raises(CheckpointError, match="schema"):
            resume_scenario(path)

    def _assert_schema_rejected(self, tmp_path, schema):
        path = self._one_checkpoint(tmp_path)
        raw = path.read_bytes()
        magic, rest = raw.split(b"\n", 1)
        header, payload = rest.split(b"\n", 1)
        manifest = json.loads(header)
        manifest["schema"] = schema
        path.write_bytes(
            magic + b"\n"
            + json.dumps(manifest, sort_keys=True).encode() + b"\n"
            + payload
        )
        with pytest.raises(CheckpointError, match="schema {}".format(schema)):
            resume_scenario(path)

    def test_schema_1_rejected(self, tmp_path):
        self._assert_schema_rejected(tmp_path, 1)

    def test_schema_3_rejected(self, tmp_path):
        # Schema 3 pickled lazily refreshed capacity sums that could be
        # stale; schema 4 clusters trust the pickled sums as current.
        self._assert_schema_rejected(tmp_path, 3)

    def test_trace_that_regenerates_differently_rejected(
        self, tmp_path, monkeypatch
    ):
        path = self._one_checkpoint(tmp_path)
        real_init = traces.SampledTrace.__init__

        def drifted(self, samples, step_s=60.0):
            real_init(self, np.roll(samples, 1), step_s)

        monkeypatch.setattr(traces.SampledTrace, "__init__", drifted)
        with pytest.raises(CheckpointError, match="unreadable payload"):
            resume_scenario(path)

    def test_read_manifest_skips_the_payload(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        manifest = read_manifest(path)
        data = path.read_bytes()
        header_end = data.index(b"\n", data.index(b"\n") + 1)
        path.write_bytes(data[: header_end + 1 + 16])
        assert read_manifest(path) == manifest
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            resume_scenario(tmp_path / "absent.repro")

    def test_manifest_carries_runner_metadata(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        manifest = read_manifest(path)
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        assert manifest["policy"] == s3_policy().name
        assert manifest["seed"] == KW["seed"]
        assert manifest["horizon_s"] == KW["horizon_s"]
        assert len(manifest["sha256"]) == 64


class TestHorizonIndependence:
    def test_bytes_per_vm_do_not_depend_on_horizon(self, tmp_path):
        # Same fleet, 2 h vs 48 h scenario: the t = 1 h checkpoints hold
        # the same state, so their sizes must not scale with the horizon
        # (seeded traces pickle as recipes, not as sample grids).
        sizes = {}
        for hours in (2, 48):
            result = run_scenario(
                s3_policy(),
                n_hosts=4,
                n_vms=12,
                horizon_s=hours * 3600.0,
                seed=3,
                checkpoint_every_s=3600.0,
                checkpoint_dir=tmp_path / "h{}".format(hours),
            )
            path, manifest = result.checkpoints.saved[0]
            assert manifest["sim_time_s"] == 3600.0
            sizes[hours] = path.stat().st_size
        assert abs(sizes[48] - sizes[2]) < 0.05 * sizes[2], sizes

    def test_restore_rebuilds_derived_grids(self, tmp_path):
        # The demand block is derived state: absent from the payload, and
        # rebuilt by the first sampler tick after restore.
        ckpt = _checkpointed(tmp_path, s3_policy(), "grids")
        path, manifest = ckpt.checkpoints.saved[0]
        assert b"DemandBlock" not in path.read_bytes()
        state, _, _ = load_checkpoint(path)
        assert state.cluster._block is None
        now = state.env.now
        assert now == manifest["sim_time_s"]
        state.sampler.sample_once()
        block = state.cluster._block
        assert block is not None and block.ticks[0] == now
        # Its rows are the scalar walks at that instant.
        for pos, host in enumerate(state.cluster.hosts):
            resident = 0.0
            for vm in host.vms.values():
                resident += vm.demand_cores(now)
            assert block.resident[pos][0] == resident, host.name
        total = 0.0
        for vm in state.cluster.iter_vms():
            total += vm.demand_cores(now)
        assert block.total[0] == total


class TestStreaming:
    def test_stream_resume_heals_torn_tail_byte_identically(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        run_scenario(s3_policy(), stream=ref, **KW)
        golden = ref.read_bytes()

        live = tmp_path / "live.jsonl"
        ckpt = _checkpointed(tmp_path, s3_policy(), "stream", stream=live)
        assert live.read_bytes() == golden
        path, manifest = ckpt.checkpoints.saved[2]
        assert manifest["stream_offset"] > 0
        # Simulate a crash after the checkpoint: a torn half-record.
        with open(live, "ab") as fh:
            fh.write(b'{"window": 999, "t": 1e9, "ju')
        resume_scenario(path, stream=live)
        assert live.read_bytes() == golden

    def test_stream_resume_requires_recorded_offset(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "nostream")
        path, _ = ckpt.checkpoints.saved[0]
        with pytest.raises(ValueError, match="stream"):
            resume_scenario(path, stream=tmp_path / "late.jsonl")

    def test_stream_windows_are_sorted_json_lines(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run_scenario(s3_policy(), stream=out, **KW)
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "repro-stream"
        windows = [json.loads(line) for line in lines[1:]]
        assert [w["window"] for w in windows] == list(range(len(windows)))
        assert all("power_w" in w and "shortfall_cores" in w for w in windows)


class TestBoundedSeries:
    def test_bounded_report_matches_full_series(self):
        full = run_scenario(s3_policy(), **KW)
        bounded = run_scenario(s3_policy(), bounded_series=True, **KW)
        ref = full.report.to_dict()
        got = bounded.report.to_dict()
        assert set(ref) == set(got)
        for key, want in ref.items():
            have = got[key]
            if isinstance(want, float):
                assert have == pytest.approx(want, rel=1e-9), key
            else:
                assert have == want, key

    def test_bounded_series_keeps_no_samples(self):
        bounded = run_scenario(s3_policy(), bounded_series=True, **KW)
        series = bounded.sampler.series["power_w"]
        assert len(series._times) == 0
        assert len(series) > 0
        with pytest.raises(RuntimeError, match="no samples"):
            series.values
        # The trace is unaffected by the series representation.
        full = run_scenario(s3_policy(), **KW)
        assert bounded.trace.trace_hash() == full.trace.trace_hash()


class TestBranch:
    def test_branch_fans_warm_state_across_policies(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "branch")
        path, manifest = ckpt.checkpoints.saved[2]
        for preset in (s5_policy, hybrid_policy):
            result = branch_scenario(path, preset())
            assert result.report.policy == preset().name
            # The branch continues the parent horizon from the snapshot.
            assert result.env.now == KW["horizon_s"]

    def test_branch_same_policy_reproduces_parent(self, tmp_path):
        baseline = run_scenario(s3_policy(), **KW)
        ckpt = _checkpointed(tmp_path, s3_policy(), "same")
        path, _ = ckpt.checkpoints.saved[1]
        result = branch_scenario(path, s3_policy())
        assert result.trace.trace_hash() == baseline.trace.trace_hash()

    def test_branch_rejects_plane_mismatch(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "plane")
        path, _ = ckpt.checkpoints.saved[0]
        neat = s3_policy().with_overrides(plane="neat")
        with pytest.raises(CheckpointError, match="plane"):
            branch_scenario(path, neat)

    def test_branch_extends_horizon(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "long")
        path, _ = ckpt.checkpoints.saved[0]
        result = branch_scenario(path, s5_policy(), horizon_s=4 * 3600.0)
        assert result.env.now == 4 * 3600.0
