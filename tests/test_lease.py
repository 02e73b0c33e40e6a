"""Unit tests for the lease-file ownership protocol (core.lease).

Everything time-dependent runs on an injected fake clock, so expiry and
takeover are exercised without sleeping.
"""

from __future__ import annotations

import json
import os
import socket
import threading

import pytest

from repro.core.lease import (
    ACQUIRED_FRESH,
    ACQUIRED_TAKEOVER,
    LeaseFile,
    LeaseHeartbeat,
    LeaseLostError,
    default_owner_id,
    owner_is_dead,
)


class FakeClock:
    """A settable wall clock for driving lease expiry deterministically."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def _lease(tmp_path, clock, owner="owner-a", ttl=10.0):
    return LeaseFile(tmp_path / "build.lease", owner_id=owner, ttl=ttl,
                     clock=clock)


class TestAcquire:
    def test_fresh_acquire_writes_lease_body(self, tmp_path, clock):
        lease = _lease(tmp_path, clock)
        assert lease.try_acquire() == ACQUIRED_FRESH
        assert lease.held
        body = json.loads(lease.path.read_text())
        assert body["owner"] == "owner-a"
        assert body["expires_at"] == pytest.approx(clock.now + 10.0)

    def test_live_lease_blocks_other_owners(self, tmp_path, clock):
        holder = _lease(tmp_path, clock, owner="holder")
        contender = _lease(tmp_path, clock, owner="contender")
        assert holder.try_acquire() == ACQUIRED_FRESH
        assert contender.try_acquire() is None
        assert not contender.held

    def test_expired_lease_is_taken_over(self, tmp_path, clock):
        holder = _lease(tmp_path, clock, owner="holder", ttl=5.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        clock.advance(6.0)
        contender = _lease(tmp_path, clock, owner="contender")
        assert contender.try_acquire() == ACQUIRED_TAKEOVER
        body = json.loads(contender.path.read_text())
        assert body["owner"] == "contender"

    def test_reacquiring_own_stale_lease_is_fresh_not_takeover(
            self, tmp_path, clock):
        lease = _lease(tmp_path, clock, ttl=5.0)
        assert lease.try_acquire() == ACQUIRED_FRESH
        clock.advance(6.0)
        again = _lease(tmp_path, clock)  # same owner id, new handle
        assert again.try_acquire() == ACQUIRED_FRESH

    def test_malformed_lease_file_reads_as_expired(self, tmp_path, clock):
        lease = _lease(tmp_path, clock)
        lease.path.parent.mkdir(parents=True, exist_ok=True)
        lease.path.write_text("{not json", encoding="utf-8")
        body = lease.read()
        assert body is not None and body["expires_at"] == 0.0
        assert lease.try_acquire() == ACQUIRED_TAKEOVER

    def test_non_dict_lease_body_reads_as_expired(self, tmp_path, clock):
        lease = _lease(tmp_path, clock)
        lease.path.parent.mkdir(parents=True, exist_ok=True)
        lease.path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        assert lease.try_acquire() == ACQUIRED_TAKEOVER


def _reaped_pid() -> int:
    """The pid of a child that has exited and been reaped: no such process."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
class TestDeadOwner:
    """A same-host owner whose pid is gone is dead now; every other owner
    keeps the TTL rules."""

    def test_dead_same_host_owner_taken_over_before_expiry(
            self, tmp_path, clock):
        dead = f"{socket.gethostname()}:{_reaped_pid()}:0"
        assert owner_is_dead(dead)
        holder = _lease(tmp_path, clock, owner=dead, ttl=30.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        contender = _lease(tmp_path, clock, owner="contender")
        assert contender.try_acquire() == ACQUIRED_TAKEOVER
        assert json.loads(contender.path.read_text())["owner"] == "contender"

    def test_foreign_host_owner_waits_for_expiry(self, tmp_path, clock):
        foreign = f"not-{socket.gethostname()}:{_reaped_pid()}:0"
        assert not owner_is_dead(foreign)
        holder = _lease(tmp_path, clock, owner=foreign, ttl=30.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        contender = _lease(tmp_path, clock, owner="contender")
        clock.advance(29.0)
        assert contender.try_acquire() is None
        clock.advance(2.0)
        assert contender.try_acquire() == ACQUIRED_TAKEOVER

    def test_live_same_process_owner_waits_for_expiry(self, tmp_path, clock):
        live = default_owner_id()  # this very process: alive
        assert not owner_is_dead(live)
        holder = _lease(tmp_path, clock, owner=live, ttl=30.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        contender = _lease(tmp_path, clock, owner="contender")
        clock.advance(29.0)
        assert contender.try_acquire() is None
        clock.advance(2.0)
        assert contender.try_acquire() == ACQUIRED_TAKEOVER

    @pytest.mark.parametrize("owner", [
        "?", "", "owner-a", "host-1234-0", ":1:0", "h:x:0", None, 7,
    ])
    def test_other_owner_forms_are_not_dead(self, owner):
        assert not owner_is_dead(owner)


class TestRenewRelease:
    def test_renew_pushes_expiry_out(self, tmp_path, clock):
        lease = _lease(tmp_path, clock, ttl=10.0)
        assert lease.try_acquire() == ACQUIRED_FRESH
        clock.advance(7.0)
        lease.renew()
        body = json.loads(lease.path.read_text())
        assert body["expires_at"] == pytest.approx(clock.now + 10.0)

    def test_renew_after_takeover_raises_and_clears_held(self, tmp_path,
                                                         clock):
        holder = _lease(tmp_path, clock, owner="holder", ttl=5.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        clock.advance(6.0)
        contender = _lease(tmp_path, clock, owner="contender")
        assert contender.try_acquire() == ACQUIRED_TAKEOVER
        with pytest.raises(LeaseLostError):
            holder.renew()
        assert not holder.held

    def test_renew_of_vanished_lease_raises(self, tmp_path, clock):
        lease = _lease(tmp_path, clock)
        assert lease.try_acquire() == ACQUIRED_FRESH
        lease.path.unlink()
        with pytest.raises(LeaseLostError):
            lease.renew()

    def test_release_unlinks_own_lease(self, tmp_path, clock):
        lease = _lease(tmp_path, clock)
        assert lease.try_acquire() == ACQUIRED_FRESH
        lease.release()
        assert not lease.held
        assert not lease.path.exists()

    def test_release_leaves_foreign_lease_alone(self, tmp_path, clock):
        holder = _lease(tmp_path, clock, owner="holder", ttl=5.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        clock.advance(6.0)
        contender = _lease(tmp_path, clock, owner="contender")
        assert contender.try_acquire() == ACQUIRED_TAKEOVER
        holder.release()  # must not delete the contender's lease
        assert holder.path.exists()
        body = json.loads(holder.path.read_text())
        assert body["owner"] == "contender"

    def test_release_is_idempotent(self, tmp_path, clock):
        lease = _lease(tmp_path, clock)
        assert lease.try_acquire() == ACQUIRED_FRESH
        lease.release()
        lease.release()  # second release of a gone lease: no raise


class TestContention:
    def test_exactly_one_of_many_contenders_wins(self, tmp_path, clock):
        contenders = [
            _lease(tmp_path, clock, owner=f"c{i}") for i in range(8)
        ]
        outcomes = [lease.try_acquire() for lease in contenders]
        assert outcomes.count(ACQUIRED_FRESH) == 1
        assert outcomes.count(None) == len(contenders) - 1

    def test_exactly_one_takeover_of_an_expired_lease(self, tmp_path, clock):
        holder = _lease(tmp_path, clock, owner="holder", ttl=1.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        clock.advance(2.0)
        contenders = [
            _lease(tmp_path, clock, owner=f"c{i}") for i in range(8)
        ]
        barrier = threading.Barrier(len(contenders))
        results = [None] * len(contenders)

        def attempt(i):
            barrier.wait()
            results[i] = contenders[i].try_acquire()

        threads = [threading.Thread(target=attempt, args=(i,))
                   for i in range(len(contenders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # A winner that buried the corpse reports takeover; one that found
        # the path already buried (and free) reports fresh — both valid.
        assert all(r in (ACQUIRED_TAKEOVER, ACQUIRED_FRESH)
                   for r in results if r is not None)
        winners = [c for c, r in zip(contenders, results) if r is not None]
        assert winners, "an expired lease must be taken over"
        # At most one *surviving* owner: a winner whose lease was raced
        # away discovers it on the next renew (the heartbeat's move).
        survivors = []
        for winner in winners:
            try:
                winner.renew()
            except LeaseLostError:
                continue
            survivors.append(winner)
        assert len(survivors) == 1
        body = json.loads(survivors[0].path.read_text())
        assert body["owner"] == survivors[0].owner_id

    def test_stale_burier_never_leaves_an_orphaned_lease(self, tmp_path,
                                                         clock, monkeypatch):
        # A contender whose checks all saw the expired corpse renames the
        # winner's brand-new lease aside, and the winner's confirming read
        # falls before the contender's next step.  Exactly one of the two
        # must end up holding the lease file that is left at the path.
        holder = _lease(tmp_path, clock, owner="holder", ttl=1.0)
        assert holder.try_acquire() == ACQUIRED_FRESH
        clock.advance(2.0)
        corpse = holder.read()
        winner = _lease(tmp_path, clock, owner="winner")
        stale = _lease(tmp_path, clock, owner="stale")
        stale_reads = iter([corpse, corpse])  # first read, then the re-read
        real_read = stale.read
        stale.read = lambda: next(stale_reads, None) or real_read()
        renamed, winner_done = threading.Event(), threading.Event()
        real_rename = os.rename

        def rename(src, dst):
            real_rename(src, dst)
            if threading.current_thread() is stale_thread:
                renamed.set()
                assert winner_done.wait(5.0)

        monkeypatch.setattr(os, "rename", rename)
        stale_thread = threading.Thread(target=stale.try_acquire)
        create = winner._create

        def create_then_raced():
            created = create()
            stale_thread.start()
            assert renamed.wait(5.0)
            return created

        winner._create = create_then_raced
        winner.try_acquire()
        winner_done.set()
        stale_thread.join(5.0)
        assert not stale_thread.is_alive()
        holders = [lease for lease in (winner, stale) if lease.held]
        assert len(holders) == 1
        body = json.loads(winner.path.read_text())
        assert body["owner"] == holders[0].owner_id


class TestHeartbeat:
    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        # Real clock here: the heartbeat thread waits on wall time.
        lease = LeaseFile(tmp_path / "hb.lease", owner_id="hb", ttl=0.4)
        assert lease.try_acquire() == ACQUIRED_FRESH
        beat = LeaseHeartbeat(lease).start()
        try:
            done = threading.Event()
            done.wait(1.2)  # several TTLs; renewals must keep it live
            body = lease.read()
            assert body is not None and body["owner"] == "hb"
            import time as _time
            assert body["expires_at"] > _time.time()
            assert not beat.lost.is_set()
        finally:
            beat.stop()

    def test_heartbeat_sets_lost_after_takeover(self, tmp_path):
        lease = LeaseFile(tmp_path / "hb.lease", owner_id="victim", ttl=0.3)
        assert lease.try_acquire() == ACQUIRED_FRESH
        beat = LeaseHeartbeat(lease, interval=0.05).start()
        try:
            # Simulate a takeover out from under the holder.
            lease.path.write_text(json.dumps({
                "schema": 1, "owner": "usurper",
                "acquired_at": 0.0, "expires_at": 1e18,
            }), encoding="utf-8")
            assert beat.lost.wait(2.0)
        finally:
            beat.stop()


def test_default_owner_ids_are_unique():
    ids = {default_owner_id() for _ in range(100)}
    assert len(ids) == 100
    sample = next(iter(ids))
    host, pid, _seq = sample.rsplit(":", 2)
    assert int(pid) > 0
