"""Durable router state: outcome-store persistence and RouterCore recovery.

These tests exercise the disk format directly (checksummed log lines,
snapshot compaction, peer visibility) and the router behaviours built on
it: crash recovery, terminal-record eviction with store-backed recall,
and the ``--join`` epoch handshake.
"""

from __future__ import annotations

import json

import pytest

from repro.core.integrity import integrity_events
from repro.service.outcome_store import EVENT_CORRUPT_RECORD, OutcomeStore
from repro.service.router import ReplicaEndpoint, RouterCore


class FakeClock:
    """Settable monotonic clock for TTL-driven tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- the store itself --------------------------------------------------------

class TestOutcomeStore:
    def test_roundtrip_across_restart(self, tmp_path):
        store = OutcomeStore(tmp_path)
        store.record_assignment("j1", {"kind": "simulate"}, "r0")
        store.record_terminal("j1", {"status": "completed", "result": 7})
        store.record_assignment("j2", {"kind": "profile"}, "r1")
        store.close()

        reborn = OutcomeStore(tmp_path)
        jobs = reborn.jobs()
        assert set(jobs) == {"j1", "j2"}
        assert jobs["j1"].terminal == {"status": "completed", "result": 7}
        assert jobs["j1"].replica_id == "r0"
        assert jobs["j2"].terminal is None
        assert jobs["j2"].replica_id == "r1"

    def test_assignment_is_latest_wins(self, tmp_path):
        store = OutcomeStore(tmp_path)
        store.record_assignment("j1", {"kind": "simulate"}, "r0")
        store.record_assignment("j1", {"kind": "simulate"}, "r2")
        assert store.jobs()["j1"].replica_id == "r2"
        store.close()
        assert OutcomeStore(tmp_path).jobs()["j1"].replica_id == "r2"

    def test_terminal_is_first_wins(self, tmp_path):
        store = OutcomeStore(tmp_path)
        store.record_terminal("j1", {"status": "completed", "result": 1})
        store.record_terminal("j1", {"status": "failed", "result": None})
        assert store.jobs()["j1"].terminal["status"] == "completed"
        store.close()
        reborn = OutcomeStore(tmp_path)
        assert reborn.jobs()["j1"].terminal["status"] == "completed"

    def test_corrupt_log_lines_skipped_and_counted(self, tmp_path):
        store = OutcomeStore(tmp_path)
        store.record_terminal("good", {"status": "completed"})
        log_path = store._own_log_path()
        store.close()

        # A torn tail (not JSON) and a bit-flipped checksummed line.
        good_line = log_path.read_text(encoding="utf-8").splitlines()[0]
        tampered = json.loads(good_line)
        tampered["record"]["job_id"] = "evil"  # checksum no longer matches
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tampered) + "\n")
            fh.write('{"schema": 1, "rec')  # torn mid-write

        before = integrity_events.snapshot()
        reborn = OutcomeStore(tmp_path)
        delta = integrity_events.delta(before)
        assert reborn.corrupt_lines == 2
        assert delta.get(EVENT_CORRUPT_RECORD) == 2
        jobs = reborn.jobs()
        assert "good" in jobs and "evil" not in jobs

    def test_corrupt_snapshot_rejected_not_trusted(self, tmp_path):
        store = OutcomeStore(tmp_path)
        store.record_terminal("j1", {"status": "completed"})
        assert store.compact(force=True)
        store.close()
        snap = tmp_path / "router" / "outcomes.snap"
        doc = json.loads(snap.read_text(encoding="utf-8"))
        doc["jobs"] = [{"job_id": "forged", "payload": {},
                        "replica_id": None, "terminal": None}]
        snap.write_text(json.dumps(doc), encoding="utf-8")  # stale checksum

        reborn = OutcomeStore(tmp_path)
        assert reborn.corrupt_lines >= 1
        assert "forged" not in reborn.jobs()

    def test_forced_compaction_folds_and_retires_own_log(self, tmp_path):
        store = OutcomeStore(tmp_path)
        store.record_assignment("j1", {"kind": "simulate"}, "r0")
        store.record_terminal("j1", {"status": "completed"})
        own_log = store._own_log_path()
        assert own_log.exists()
        assert store.compact(force=True)
        assert store.compactions == 1
        assert not own_log.exists()
        assert (tmp_path / "router" / "outcomes.snap").exists()
        # Nothing pending: a threshold-gated compact is a no-op now.
        assert store.compact() is False
        store.close()

        reborn = OutcomeStore(tmp_path)
        assert reborn.jobs()["j1"].terminal == {"status": "completed"}

    def test_compaction_triggers_at_threshold(self, tmp_path):
        store = OutcomeStore(tmp_path, compact_threshold=3)
        for n in range(3):
            store.record_assignment(f"j{n}", {"n": n}, "r0")
        assert store.compactions == 1
        store.close()

    def test_live_peer_log_survives_compaction(self, tmp_path):
        peer = OutcomeStore(tmp_path)
        peer.record_terminal("peer-job", {"status": "completed"})
        me = OutcomeStore(tmp_path)
        me.record_terminal("my-job", {"status": "completed"})
        assert me.compact(force=True)
        # The peer's log was appended moments ago: not stale, not deleted.
        assert peer._own_log_path().exists()
        # But its records are folded into the snapshot all the same.
        reborn = OutcomeStore(tmp_path)
        assert {"peer-job", "my-job"} <= set(reborn.jobs())
        for store in (peer, me, reborn):
            store.close()

    def test_stale_peer_log_retired_by_compaction(self, tmp_path):
        import os as _os
        import time as _time

        peer = OutcomeStore(tmp_path)
        peer.record_terminal("peer-job", {"status": "completed"})
        peer_log = peer._own_log_path()
        peer.close()
        # Backdate the peer's log past stale_log_seconds (no append since).
        ancient = _time.time() - 10_000.0
        _os.utime(peer_log, (ancient, ancient))
        me = OutcomeStore(tmp_path)
        assert me.compact(force=True)
        assert not peer_log.exists()
        assert OutcomeStore(tmp_path).jobs()["peer-job"].terminal is not None
        me.close()

    def test_lookup_refresh_sees_peer_writes(self, tmp_path):
        me = OutcomeStore(tmp_path)
        assert me.lookup("late") is None
        peer = OutcomeStore(tmp_path)
        peer.record_terminal("late", {"status": "completed", "result": 3})
        assert me.lookup("late") is None  # in-memory table is per-process
        found = me.lookup("late", refresh=True)
        assert found is not None
        assert found.terminal == {"status": "completed", "result": 3}
        me.close()
        peer.close()


# -- RouterCore on top of the store ------------------------------------------

def _terminal(result: int = 7) -> dict:
    return {"status": "completed", "result": result}


class TestRouterRecovery:
    def test_recovers_terminal_and_pending_counters(self, tmp_path):
        store = OutcomeStore(tmp_path)
        store.record_assignment("done", {"kind": "simulate"}, "r0")
        store.record_terminal("done", _terminal())
        store.record_assignment("inflight", {"kind": "simulate"}, "r0")
        store.close()

        core = RouterCore([], store=OutcomeStore(tmp_path))
        counters = core.fleet_snapshot()["counters"]
        assert counters["recovered_terminal"] == 1
        assert counters["recovered_pending"] == 1

        status, body = core.lookup("done")
        assert status == 200 and body == _terminal()
        # The pending job has no routable replica yet: the handle stays
        # valid and reports queued, not 404.
        status, body = core.lookup("inflight")
        assert status == 200
        assert body["status"] == "queued" and body["reassigned"] is False

    def test_recall_serves_peer_recorded_outcome(self, tmp_path):
        core = RouterCore([], store=OutcomeStore(tmp_path))
        assert core.lookup("ghost")[0] == 404
        peer = OutcomeStore(tmp_path)
        peer.record_terminal("peer-job", _terminal(9))
        peer.close()
        status, body = core.lookup("peer-job")
        assert status == 200 and body == _terminal(9)


class TestTerminalEviction:
    def _core(self, tmp_path, clock, **kwargs):
        return RouterCore([], store=OutcomeStore(tmp_path, clock=clock),
                          clock=clock, **kwargs)

    def _settle(self, core, job_id, result=7):
        from repro.service.router import _JobRecord

        record = _JobRecord({"kind": "simulate"}, "r0")
        with core._jobs_lock:
            core._jobs[job_id] = record
        core._settle(job_id, record, _terminal(result))

    def test_ttl_eviction_keeps_outcome_servable_from_store(self, tmp_path):
        clock = FakeClock()
        core = self._core(tmp_path, clock, terminal_ttl=100.0)
        self._settle(core, "old", result=1)
        clock.advance(150.0)
        self._settle(core, "fresh", result=2)  # settling runs eviction

        snap = core.fleet_snapshot()
        assert snap["counters"]["evicted_terminal"] == 1
        assert snap["jobs_tracked"] == 1  # "old" left the in-memory table
        # ...but its outcome is still servable, recalled from the store.
        status, body = core.lookup("old")
        assert status == 200 and body == _terminal(1)

    def test_max_terminal_evicts_oldest_first(self, tmp_path):
        clock = FakeClock()
        core = self._core(tmp_path, clock, terminal_ttl=1e9, max_terminal=2)
        for n, job_id in enumerate(["a", "b", "c"]):
            clock.advance(1.0)
            self._settle(core, job_id, result=n)

        snap = core.fleet_snapshot()
        assert snap["counters"]["evicted_terminal"] == 1
        assert snap["jobs_tracked"] == 2
        with core._jobs_lock:
            assert set(core._jobs) == {"b", "c"}  # oldest ("a") evicted
        assert core.lookup("a") == (200, _terminal(0))  # via the store

    def test_pending_records_are_never_evicted(self, tmp_path):
        clock = FakeClock()
        core = self._core(tmp_path, clock, terminal_ttl=10.0, max_terminal=1)
        from repro.service.router import _JobRecord

        with core._jobs_lock:
            core._jobs["pending"] = _JobRecord({"kind": "simulate"}, "r0")
        clock.advance(1_000.0)
        self._settle(core, "done")
        with core._jobs_lock:
            assert "pending" in core._jobs


class TestRegisterEpochs:
    def test_new_replica_registers_and_becomes_routable(self):
        core = RouterCore([])
        status, body = core.register_replica("r1", "http://h:1", 10)
        assert status == 200
        assert body == {"registered": True, "replica_id": "r1",
                        "epoch": 10, "rejoined": False}
        assert core.ready()
        assert core.fleet_snapshot()["counters"]["registered"] == 1

    def test_same_epoch_heartbeat_is_idempotent(self):
        core = RouterCore([])
        core.register_replica("r1", "http://h:1", 10)
        status, body = core.register_replica("r1", "http://h:1", 10)
        assert status == 200 and body["rejoined"] is False
        assert len(core.endpoints()) == 1

    def test_higher_epoch_is_a_rejoin(self):
        core = RouterCore([])
        core.register_replica("r1", "http://h:1", 10)
        status, body = core.register_replica("r1", "http://h:2", 11)
        assert status == 200 and body["rejoined"] is True
        (endpoint,) = core.endpoints()
        assert endpoint.base_url == "http://h:2"
        assert endpoint.snapshot()["restarts"] == 1

    def test_lower_epoch_straggler_is_refused(self):
        core = RouterCore([])
        core.register_replica("r1", "http://h:2", 11)
        status, body = core.register_replica("r1", "http://h:1", 10)
        assert status == 409
        assert "stale epoch" in body["error"]
        (endpoint,) = core.endpoints()
        assert endpoint.base_url == "http://h:2"  # URL did not roll back

    def test_empty_fields_rejected(self):
        core = RouterCore([])
        assert core.register_replica("", "http://h:1", 1)[0] == 400
        assert core.register_replica("r1", "", 1)[0] == 400

    def test_rejoin_requeues_previous_assignments(self, tmp_path):
        """A restarted replica kept no queue: its jobs must requeue.

        With no *other* routable replica the requeue lands back on the
        rejoined one — the counter is what this test pins down."""
        store = OutcomeStore(tmp_path)
        store.record_assignment("lost", {"kind": "simulate"}, "r1")
        store.close()
        endpoint = ReplicaEndpoint("r1")
        core = RouterCore([endpoint], store=OutcomeStore(tmp_path))
        assert core.fleet_snapshot()["counters"]["recovered_pending"] == 1
        # Rejoin with a higher epoch; the requeue attempt runs (it will
        # fail to place: the base_url is a black hole) and the job stays
        # pending rather than silently vanishing.
        core.register_replica("r1", "http://127.0.0.1:9", 2)
        core.register_replica("r1", "http://127.0.0.1:9", 3)
        with core._jobs_lock:
            assert core._jobs["lost"].terminal is None
