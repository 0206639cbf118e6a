"""Unit tests for the atomic-write helper and cache torn-entry quarantine."""

import os
import pickle

import pytest

from repro.core.atomicio import atomic_write, atomic_write_json, atomic_write_text
from repro.core.cache import _ENTRY_MAGIC, ResultCache


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_writes_chunks_back_to_back(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write(target, (b"head\n", memoryview(b"pay"), b"load"))
        assert target.read_bytes() == b"head\npayload"

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        atomic_write(target, b"new")
        assert target.read_bytes() == b"new"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.bin"
        atomic_write(target, b"x")
        assert target.read_bytes() == b"x"

    def test_no_tmp_residue_on_success(self, tmp_path):
        atomic_write(tmp_path / "out.bin", b"x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_failed_write_leaves_target_and_no_tmp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        atomic_write(target, b"original")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, b"would tear")
        monkeypatch.undo()
        assert target.read_bytes() == b"original"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_text_and_json_helpers(self, tmp_path):
        atomic_write_text(tmp_path / "t.txt", "héllo\n")
        assert (tmp_path / "t.txt").read_text() == "héllo\n"
        atomic_write_json(tmp_path / "d.json", {"b": 1, "a": [2]})
        assert (
            (tmp_path / "d.json").read_text()
            == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        )


class TestCacheQuarantine:
    def test_entry_frame_verifies(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("deadbeef", {"x": 1})
        raw = (tmp_path / "deadbeef.pkl").read_bytes()
        assert raw.startswith(_ENTRY_MAGIC)
        assert ResultCache(tmp_path).get("deadbeef") == {"x": 1}

    def test_torn_entry_quarantined_not_raised(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("torn", {"x": 1})
        path = tmp_path / "torn.pkl"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])  # crash mid-write

        fresh = ResultCache(tmp_path)
        assert fresh.get("torn") is None
        assert fresh.quarantined == 1
        assert not path.exists()
        assert (tmp_path / "torn.quarantine").exists()
        # Quarantined entries never satisfy later reads either.
        assert ResultCache(tmp_path).get("torn") is None

    def test_bitrot_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("rot", [1, 2, 3])
        path = tmp_path / "rot.pkl"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        fresh = ResultCache(tmp_path)
        assert fresh.get("rot") is None
        assert fresh.quarantined == 1

    def test_preframe_entry_quarantined(self, tmp_path):
        # An entry written by the pre-digest format: raw pickle bytes.
        (tmp_path / "legacy.pkl").write_bytes(
            pickle.dumps({"old": True}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        fresh = ResultCache(tmp_path)
        assert fresh.get("legacy") is None
        assert fresh.quarantined == 1

    def test_quarantined_entries_leave_the_entry_glob(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("good", 1)
        (tmp_path / "bad.pkl").write_bytes(b"garbage")
        fresh = ResultCache(tmp_path)
        assert fresh.get("bad") is None
        assert [p.name for p in fresh.entries()] == ["good.pkl"]

    def test_memory_layer_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("hot", {"v": 9})
        # Corrupt on disk; the in-process layer still serves the value.
        (tmp_path / "hot.pkl").write_bytes(b"junk")
        assert cache.get("hot") == {"v": 9}
        assert cache.quarantined == 0
