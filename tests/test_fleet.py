"""Tests for the fleet front door, load generator, and bench schema.

``RouterCore`` is deliberately HTTP-free: these tests replace the module's
``http_json`` with an in-memory fake fleet, so placement, spill, shed, and
reassignment semantics are exercised without sockets.  One compact live
test at the end boots a real two-replica fleet end to end.
"""

import io
import json

import pytest

import repro.service.router as router_mod
from repro.service.bench import BENCH_SCHEMA, validate_report
from repro.service.loadgen import LoadReport, ReqGenEngine
from repro.service.router import ReplicaEndpoint, RouterCore, RouterMonitor


# -- in-memory fleet fake ---------------------------------------------------

class FakeReplica:
    """Accepts jobs, completes them on first lookup; togglable failure."""

    def __init__(self):
        self.jobs = {}
        self.shed = False          # 429 every submit
        self.down = False          # transport error on any request
        self.job_status = "completed"

    def handle(self, method, path, body):
        if self.down:
            raise ConnectionError("replica down")
        if method == "POST" and path == "/jobs":
            if self.shed:
                return 429, {"error": "queue full", "retry_after": 1,
                             "error_kind": "rejected"}
            job_id = body["job_id"]
            self.jobs[job_id] = dict(body)
            return 202, {"job_id": job_id, "status": "queued"}
        if method == "GET" and path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if job_id not in self.jobs:
                return 404, {"error": "unknown job"}
            return 200, {"job_id": job_id, "status": self.job_status,
                         "result": {"ok": True}}
        return 404, {"error": path}


class FakeFleet:
    """Replica ``r<i>`` answers at ``http://fake-<i>``; every one joined
    through the router's ``register_replica`` handshake."""

    def __init__(self, n, monkeypatch):
        self.replicas = [FakeReplica() for _ in range(n)]
        self.core = RouterCore([])
        for index in range(n):
            self.core.register_replica(f"r{index}", f"http://fake-{index}", 1)
        self.endpoints = [self.core.endpoint(f"r{index}")
                          for index in range(n)]
        for ep in self.endpoints:
            ep.mark_healthy({"est_wait_seconds": 0.0})
        monkeypatch.setattr(router_mod, "http_json", self._http_json)

    def _http_json(self, method, url, body=None, timeout=None):
        prefix = "http://fake-"
        assert url.startswith(prefix), url
        index, _, path = url[len(prefix):].partition("/")
        return self.replicas[int(index)].handle(method, "/" + path, body)

    def replica(self, endpoint):
        """The fake process behind ``endpoint``."""
        return self.replicas[int(endpoint.replica_id[1:])]

    def jobs_per_replica(self):
        return [len(r.jobs) for r in self.replicas]


def _payload(**params):
    merged = {"target": "vectoradd", "scale": "tiny", "cores": 2}
    merged.update(params)
    return {"kind": "simulate", "params": merged}


@pytest.fixture
def fleet3(monkeypatch):
    return FakeFleet(3, monkeypatch)


# -- placement --------------------------------------------------------------

class TestPlacement:
    def test_submit_accepts_and_names_replica(self, fleet3):
        status, body = fleet3.core.submit(_payload())
        assert status == 202
        assert body["replica"] in {"r0", "r1", "r2"}
        assert body["job_id"].startswith("fleet-")

    def test_sticky_same_key_lands_same_replica(self, fleet3):
        for _ in range(6):
            status, _body = fleet3.core.submit(_payload())
            assert status == 202
        counts = fleet3.jobs_per_replica()
        assert sorted(counts) == [0, 0, 6]  # one replica owns the key

    def test_distinct_keys_spread(self, fleet3):
        for i in range(24):
            status, _body = fleet3.core.submit(_payload(cores=i))
            assert status == 202
        # Rendezvous hashing over 24 distinct keys should not collapse
        # onto a single replica.
        assert sum(1 for c in fleet3.jobs_per_replica() if c > 0) >= 2

    def test_rendezvous_minimal_disruption(self, fleet3):
        payload = _payload()
        before = [ep.replica_id for ep in fleet3.core.candidates_for(payload)]
        fleet3.core.endpoint(before[0]).mark_probe_failed(threshold=1)
        after = [ep.replica_id for ep in fleet3.core.candidates_for(payload)]
        # Losing the top candidate only removes it; the rest keep order.
        assert after == before[1:]

    def test_fault_jobs_route_by_load_not_key(self, fleet3):
        fleet3.endpoints[0].mark_healthy({"est_wait_seconds": 9.0})
        fleet3.endpoints[1].mark_healthy({"est_wait_seconds": 0.1})
        fleet3.endpoints[2].mark_healthy({"est_wait_seconds": 4.0})
        chaos = dict(_payload(), fault={"spec": "kill:*:*"})
        order = [ep.replica_id for ep in fleet3.core.candidates_for(chaos)]
        assert order == ["r1", "r2", "r0"]  # least estimated wait first

    def test_output_jobs_route_by_load(self, fleet3):
        fleet3.endpoints[0].mark_healthy({"est_wait_seconds": 9.0})
        fleet3.endpoints[1].mark_healthy({"est_wait_seconds": 0.1})
        fleet3.endpoints[2].mark_healthy({"est_wait_seconds": 2.0})
        side_effect = _payload(output="/tmp/x.json")
        assert fleet3.core.candidates_for(side_effect)[0].replica_id == "r1"

    def test_load_routing_uses_per_kind_service_time(self, fleet3):
        # Two replicas with equal backlogs: the one that has historically
        # run analytic jobs in milliseconds must win an analytic submit,
        # even though its fleet-wide average (dominated by replays) loses.
        fleet3.endpoints[0].mark_healthy({
            "est_wait_seconds": 1.0, "avg_job_seconds": 6.0,
            "avg_job_seconds_by_kind": {"simulate:analytic": 0.005},
        })
        fleet3.endpoints[1].mark_healthy({
            "est_wait_seconds": 1.0, "avg_job_seconds": 2.0,
            "avg_job_seconds_by_kind": {},
        })
        fleet3.endpoints[2].mark_probe_failed(threshold=1)
        chaos = dict(_payload(analytic=True), fault={"spec": "kill:*:*"})
        assert fleet3.core.candidates_for(chaos)[0].replica_id == "r0"

    def test_invalid_payload_rejected(self, fleet3):
        status, body = fleet3.core.submit(["not", "a", "dict"])
        assert status == 400
        assert body["error_kind"] == "invalid_request"

    def test_no_routable_replicas(self, fleet3):
        for ep in fleet3.endpoints:
            ep.mark_probe_failed(threshold=1)
        status, body = fleet3.core.submit(_payload())
        assert status == 503
        assert body["error_kind"] == "rejected"


# -- failover ---------------------------------------------------------------

class TestFailover:
    def test_spill_past_dead_replica(self, fleet3):
        payload = _payload()
        top = fleet3.core.candidates_for(payload)[0]
        fleet3.replica(top).down = True
        status, body = fleet3.core.submit(payload)
        assert status == 202
        assert body["replica"] != top.replica_id
        assert fleet3.core.fleet_snapshot()["counters"]["spilled"] == 1
        assert not top.routable  # one transport error marks it suspect

    def test_all_shed_returns_429(self, fleet3):
        for replica in fleet3.replicas:
            replica.shed = True
        status, body = fleet3.core.submit(_payload())
        assert status == 429
        assert body["retry_after"] == 1
        assert fleet3.core.fleet_snapshot()["counters"]["shed"] == 1

    def test_partial_shed_spills_sideways(self, fleet3):
        payload = _payload()
        top = fleet3.core.candidates_for(payload)[0]
        fleet3.replica(top).shed = True
        status, body = fleet3.core.submit(payload)
        assert status == 202
        assert body["replica"] != top.replica_id


# -- lookup and reassignment ------------------------------------------------

class TestLookupReassign:
    def test_lookup_caches_terminal(self, fleet3):
        _status, body = fleet3.core.submit(_payload())
        job_id = body["job_id"]
        status, job = fleet3.core.lookup(job_id)
        assert (status, job["status"]) == (200, "completed")
        # The owning replica forgets the job (restart): the router still
        # serves the cached terminal outcome.
        for replica in fleet3.replicas:
            replica.jobs.clear()
        status, job = fleet3.core.lookup(job_id)
        assert (status, job["status"]) == (200, "completed")

    def test_unknown_job_404(self, fleet3):
        status, body = fleet3.core.lookup("no-such-job")
        assert status == 404

    def test_lookup_reassigns_lost_job(self, fleet3):
        _status, body = fleet3.core.submit(_payload())
        job_id = body["job_id"]
        owner = next(i for i, r in enumerate(fleet3.replicas)
                     if job_id in r.jobs)
        fleet3.replicas[owner].jobs.clear()  # replica lost it (restart)
        status, job = fleet3.core.lookup(job_id)
        assert status == 200
        assert job["reassigned"] is True
        new_owner = next(i for i, r in enumerate(fleet3.replicas)
                         if job_id in r.jobs)
        assert new_owner != owner  # prefers a different replica

    def test_refused_lookup_marks_replica_unroutable(self, monkeypatch):
        fleet = FakeFleet(2, monkeypatch)
        r0, r1 = fleet.endpoints
        payload = next(
            p for p in (_payload(cores=i) for i in range(64))
            if fleet.core.candidates_for(p)[0] is r0)
        _status, body = fleet.core.submit(payload)
        assert body["replica"] == "r0"
        fleet.replicas[0].down = True  # killed: every request is refused
        status, job = fleet.core.lookup(body["job_id"])
        assert (status, job["reassigned"]) == (200, True)
        assert not r0.routable
        # r0's key now goes straight to r1, without a refused POST first.
        spilled = fleet.core.fleet_snapshot()["counters"]["spilled"]
        status, body = fleet.core.submit(dict(payload))
        assert (status, body["replica"]) == (202, "r1")
        assert fleet.core.fleet_snapshot()["counters"]["spilled"] == spilled

    def test_reassign_replica_moves_only_nonterminal(self, fleet3):
        _s, settled = fleet3.core.submit(_payload(cores=101))
        fleet3.core.lookup(settled["job_id"])  # settle it (terminal cached)
        _s, live = fleet3.core.submit(_payload(cores=102))
        owner = next(i for i, r in enumerate(fleet3.replicas)
                     if live["job_id"] in r.jobs)
        fleet3.replicas[owner].down = True
        fleet3.endpoints[owner].mark_probe_failed(threshold=1)
        moved = fleet3.core.reassign_replica(f"r{owner}")
        assert moved == 1  # only the live job moves
        assert any(live["job_id"] in r.jobs
                   for i, r in enumerate(fleet3.replicas) if i != owner)
        # The settled job was never resubmitted: it still exists only on
        # its original replica.
        settled_copies = sum(1 for r in fleet3.replicas
                             if settled["job_id"] in r.jobs)
        assert settled_copies == 1

    def test_reassign_keeps_job_id(self, fleet3):
        _s, body = fleet3.core.submit(_payload(cores=7))
        job_id = body["job_id"]
        owner = next(i for i, r in enumerate(fleet3.replicas)
                     if job_id in r.jobs)
        fleet3.replicas[owner].down = True
        fleet3.endpoints[owner].mark_probe_failed(threshold=1)
        assert fleet3.core.reassign_replica(f"r{owner}") == 1
        new_owner = next(i for i, r in enumerate(fleet3.replicas)
                         if job_id in r.jobs)
        assert new_owner != owner
        assert fleet3.replicas[new_owner].jobs[job_id]["params"][
            "cores"] == 7
        snap = fleet3.core.fleet_snapshot()
        assert snap["counters"]["reassigned"] == 1


# -- endpoint state machine --------------------------------------------------

class TestReplicaEndpoint:
    def test_probe_failure_threshold(self):
        ep = ReplicaEndpoint("r0")
        ep.register("http://x", 1)
        ep.mark_healthy({})
        assert ep.routable
        assert ep.mark_probe_failed(threshold=3) is False
        assert ep.routable  # one failure is not a transition
        assert ep.mark_probe_failed(threshold=3) is False
        assert ep.mark_probe_failed(threshold=3) is True  # crossed
        assert not ep.routable
        # Further failures are not a new transition.
        assert ep.mark_probe_failed(threshold=3) is False

    def test_mark_healthy_resets_failures(self):
        ep = ReplicaEndpoint("r0")
        ep.register("http://x", 1)
        ep.mark_healthy({})
        ep.mark_probe_failed(threshold=3)
        ep.mark_probe_failed(threshold=3)
        ep.mark_healthy({"est_wait_seconds": 1.5})
        assert ep.mark_probe_failed(threshold=3) is False  # counter reset
        assert ep.est_wait_seconds() == 1.5

    def test_garbage_telemetry_is_zero_wait(self):
        ep = ReplicaEndpoint("r0")
        ep.register("http://x", 1)
        ep.mark_healthy({"est_wait_seconds": "not-a-number"})
        assert ep.est_wait_seconds() == 0.0

    def test_est_wait_for_kind_adds_kind_service_time(self):
        ep = ReplicaEndpoint("r0")
        ep.register("http://x", 1)
        ep.mark_healthy({
            "est_wait_seconds": 2.0, "avg_job_seconds": 5.0,
            "avg_job_seconds_by_kind": {"simulate:analytic": 0.004},
        })
        assert ep.est_wait_seconds_for(None) == 2.0
        assert ep.est_wait_seconds_for("simulate:analytic") == \
            pytest.approx(2.004)
        # Unknown kind: fall back to the fleet-wide average service time.
        assert ep.est_wait_seconds_for("simulate") == pytest.approx(7.0)

    def test_est_wait_for_kind_tolerates_garbage(self):
        ep = ReplicaEndpoint("r0")
        ep.register("http://x", 1)
        ep.mark_healthy({
            "est_wait_seconds": 1.0,
            "avg_job_seconds_by_kind": {"simulate": "oops"},
        })
        assert ep.est_wait_seconds_for("simulate") == 1.0


# -- the router monitor ------------------------------------------------------

def _readyz(est_wait, avg_by_kind):
    """A replica's ``/readyz`` body: the queue snapshot at the top level."""
    return {
        "ready": True, "replica_id": "r?", "draining": False, "running": 1,
        "queue_depth": 3, "queue_capacity": 32, "workers": 1,
        "avg_job_seconds": 1.0, "avg_job_seconds_by_kind": avg_by_kind,
        "est_wait_seconds": est_wait,
    }


class TestRouterMonitor:
    def test_tick_stores_readyz_telemetry_for_load_routing(self, monkeypatch):
        """The monitor hands the whole ``/readyz`` body to the endpoint, so
        least-wait routing sees each replica's backlog."""
        bodies = {
            "http://busy": _readyz(9.0, {"simulate": 2.0}),
            "http://idle": _readyz(0.1, {"simulate": 2.0}),
        }
        monkeypatch.setattr(
            router_mod, "http_json",
            lambda method, url, body=None, timeout=None:
                (200, dict(bodies[url[:-len("/readyz")]])))
        core = RouterCore([])
        core.register_replica("r0", "http://busy", 1)
        core.register_replica("r1", "http://idle", 1)
        RouterMonitor(core).tick()
        busy, idle = core.endpoints()
        assert busy.est_wait_seconds_for("simulate") == pytest.approx(11.0)
        assert idle.est_wait_seconds_for("simulate") == pytest.approx(2.1)
        chaos = dict(_payload(), fault={"spec": "kill:*:*"})
        assert [ep.replica_id for ep in core.candidates_for(chaos)] == \
            ["r1", "r0"]

    def test_same_epoch_heartbeat_keeps_a_demoted_replica_out(
            self, monkeypatch):
        """Only a successful probe (or a restart) returns a replica the
        monitor demoted to rotation; its heartbeat does not."""
        answer = {"up": False}

        def fake(method, url, body=None, timeout=None):
            if not answer["up"]:
                raise ConnectionError("refused")
            return 200, _readyz(0.0, {})

        monkeypatch.setattr(router_mod, "http_json", fake)
        core = RouterCore([])
        core.register_replica("r0", "http://h:1", 7)
        monitor = RouterMonitor(core, down_after=3)
        for _ in range(3):
            monitor.tick()
        (endpoint,) = core.endpoints()
        assert not endpoint.routable
        status, body = core.register_replica("r0", "http://h:1", 7)
        assert status == 200 and body["rejoined"] is False
        assert not endpoint.routable
        answer["up"] = True
        monitor.tick()
        assert endpoint.routable

    def test_parked_replica_stays_out_of_rotation(self):
        core = RouterCore([])
        core.register_replica("r0", "http://h:1", 7)
        endpoint = core.endpoint("r0")
        endpoint.mark_parked()
        endpoint.mark_healthy({})
        core.register_replica("r0", "http://h:1", 7)
        assert not endpoint.routable
        assert endpoint.snapshot()["parked"] is True


# -- request generator -------------------------------------------------------

class TestReqGenEngine:
    def test_seeded_determinism(self):
        a = ReqGenEngine(seed=42, key_diversity=4)
        b = ReqGenEngine(seed=42, key_diversity=4)
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]

    def test_key_diversity_bounds_pool(self):
        engine = ReqGenEngine(seed=1, key_diversity=3)
        seen = {json.dumps(engine.next(), sort_keys=True)
                for _ in range(60)}
        assert 1 <= len(seen) <= 3

    def test_key_diversity_validated(self):
        with pytest.raises(ValueError):
            ReqGenEngine(key_diversity=0)

    def test_payloads_are_independent_copies(self):
        engine = ReqGenEngine(seed=1, key_diversity=1)
        first = engine.next()
        first["params"]["cores"] = 999  # caller mutates its copy
        assert engine.next()["params"]["cores"] != 999

    def test_record_then_replay_roundtrip(self, tmp_path):
        sink = io.StringIO()
        recorder = ReqGenEngine(seed=7, key_diversity=4, record_to=sink)
        issued = [recorder.next() for _ in range(10)]
        trace = tmp_path / "trace.jsonl"
        trace.write_text(sink.getvalue())
        replayer = ReqGenEngine.from_trace(str(trace))
        assert [replayer.next() for _ in range(10)] == issued
        assert replayer.next() is None  # replay streams exhaust


# -- report math -------------------------------------------------------------

class TestLoadReport:
    def test_percentiles_interpolated(self):
        report = LoadReport(mode="closed", duration_seconds=2.0,
                            submitted=4, completed=4,
                            latencies_ms=[40.0, 10.0, 30.0, 20.0])
        doc = report.to_dict()
        assert doc["latency_ms"]["p50"] == 25.0
        assert doc["latency_ms"]["max"] == 40.0
        assert doc["throughput_rps"] == 2.0

    def test_shed_rate_and_empty_latency(self):
        report = LoadReport(mode="open", duration_seconds=1.0,
                            submitted=10, completed=0, shed=4, failed=6)
        doc = report.to_dict()
        assert doc["shed_rate"] == 0.4
        assert doc["latency_ms"]["p99"] == 0.0

    def test_zero_submitted(self):
        doc = LoadReport(mode="closed", duration_seconds=0.0).to_dict()
        assert doc["shed_rate"] == 0.0
        assert doc["throughput_rps"] == 0.0


# -- bench schema ------------------------------------------------------------

def _bench_doc():
    block = LoadReport(mode="closed", duration_seconds=1.0,
                       submitted=1, completed=1,
                       latencies_ms=[5.0]).to_dict()
    return {
        "schema": BENCH_SCHEMA,
        "single": dict(block),
        "fleet": dict(block),
        "overload": {"offered_rate_rps": 4.0, "report": dict(block)},
        "recovery": {"kill_to_routable_seconds": 0.5, "recovered": True},
        "priority": {
            "offered_bulk_rate_rps": 8.0,
            "bulk": dict(block),
            "interactive": dict(block),
            "bulk_saturation_interactive_p99": 5.0,
        },
        "gates": {"zero_failed": True},
    }


class TestBenchSchema:
    def test_valid_doc_passes(self):
        assert validate_report(_bench_doc()) is None

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(schema=99), "schema"),
        (lambda d: d.pop("fleet"), "fleet"),
        (lambda d: d["single"].pop("throughput_rps"), "throughput_rps"),
        (lambda d: d["overload"].pop("offered_rate_rps"), "overload"),
        (lambda d: d.pop("recovery"), "recovery"),
        (lambda d: d["priority"].pop("bulk_saturation_interactive_p99"),
         "priority"),
        (lambda d: d.pop("gates"), "gates"),
    ])
    def test_broken_docs_name_the_problem(self, mutate, fragment):
        doc = _bench_doc()
        mutate(doc)
        problem = validate_report(doc)
        assert problem is not None
        assert fragment in problem


# -- live two-replica integration --------------------------------------------

class TestLiveFleet:
    def test_fleet_end_to_end(self, tmp_path):
        """Boot a real 2-replica fleet, push a small closed-loop workload
        through the router, check the fleet snapshot accounting, then
        SIGKILL r0 and watch it rejoin with a higher epoch."""
        import threading

        from repro.service.backoff import poll_until
        from repro.service.fleet import Fleet, FleetConfig
        from repro.service.loadgen import Workload

        config = FleetConfig(
            replicas=2, workers=1, queue_capacity=8, job_timeout=30.0,
            isolation="thread", health_interval=0.2, restart_base=0.1,
            boot_timeout=60.0, shared_cache_dir=str(tmp_path / "shared"),
        )
        with Fleet(config) as fleet:
            assert fleet.wait_routable(2, timeout=60.0)

            def members():
                status, body = router_mod.http_json(
                    "GET", f"{fleet.router_url}/fleet")
                assert status == 200
                return {r["replica_id"]: r for r in body["replicas"]}

            assert poll_until(
                lambda: all(r["telemetry"] for r in members().values()),
                timeout=30.0)
            before = members()
            assert set(before) == {"r0", "r1"}
            for replica in before.values():
                assert replica["epoch"] > 0
                assert "est_wait_seconds" in replica["telemetry"]

            engine = ReqGenEngine(seed=99, key_diversity=4, scale="tiny")
            workload = Workload(fleet.router_url, engine, job_deadline=30.0)
            report = workload.run_closed(clients=2, max_requests=6)
            doc = report.to_dict()
            assert doc["completed"] == 6
            assert doc["failed"] == 0 and doc["lost"] == 0
            snap = fleet.snapshot()
            assert snap["routable"] == 2
            assert snap["jobs_tracked"] >= 6
            assert snap["counters"]["routed"] >= 6

            engine = ReqGenEngine(seed=100, key_diversity=6, scale="tiny")
            workload = Workload(fleet.router_url, engine, job_deadline=30.0)
            holder = {}
            thread = threading.Thread(
                target=lambda: holder.update(report=workload.run_closed(
                    clients=2, max_requests=6)),
                daemon=True)
            thread.start()
            poll_until(lambda: workload.progress() >= 1, timeout=30.0)
            fleet.kill_replica(0)
            thread.join(60.0)
            doc = holder["report"].to_dict()
            assert doc["completed"] == 6
            assert doc["failed"] == 0 and doc["lost"] == 0
            assert poll_until(
                lambda: members()["r0"]["epoch"] > before["r0"]["epoch"]
                and fleet.routable("r0"), timeout=60.0)
            assert members()["r0"]["restarts"] == 1


# -- counter lock discipline (regression: interprocedural analyzer) ---------

class _TrackingLock:
    """Context-managed lock that records which thread currently holds it."""

    def __init__(self):
        import threading

        self._threading = threading
        self._inner = threading.Lock()
        self.holder = None

    def __enter__(self):
        self._inner.acquire()
        self.holder = self._threading.get_ident()
        return self

    def __exit__(self, *exc):
        self.holder = None
        self._inner.release()
        return False


class _GuardedCounters(dict):
    """Counter dict that records writes made without the jobs lock held."""

    def __init__(self, lock, seed):
        super().__init__(seed)
        self._lock = lock
        self.unlocked_writes = []

    def __setitem__(self, key, value):
        import threading

        if self._lock.holder != threading.get_ident():
            self.unlocked_writes.append(key)
        super().__setitem__(key, value)


class TestRouterCounterLockDiscipline:
    """The analyzer flagged router counter increments racing ``_jobs_lock``;
    every placement-path counter mutation must now hold the lock."""

    def _instrument(self, core):
        lock = _TrackingLock()
        core._jobs_lock = lock
        core._counters = _GuardedCounters(lock, core._counters)
        return core._counters

    def test_routed_counter_under_lock(self, fleet3):
        counters = self._instrument(fleet3.core)
        status, _body = fleet3.core.submit(_payload())
        assert status == 202
        assert counters["routed"] == 1
        assert counters.unlocked_writes == []

    def test_spill_and_shed_counters_under_lock(self, monkeypatch):
        core = RouterCore([])
        for index in range(2):
            core.register_replica(f"r{index}", f"http://fake-{index}", 1)
        counters = self._instrument(core)
        monkeypatch.setattr(
            router_mod, "http_json",
            lambda method, url, body=None, timeout=None:
                (429, {"error": "at capacity", "retry_after": 1.0}))
        status, _body = core.submit(_payload())
        assert status == 429
        assert counters["spilled"] == 2  # both replicas shed sideways
        assert counters["shed"] == 1
        assert counters.unlocked_writes == []

    def test_unreachable_replica_spill_under_lock(self, monkeypatch):
        core = RouterCore([])
        core.register_replica("r0", "http://fake-0", 1)
        counters = self._instrument(core)

        def unreachable(method, url, body=None, timeout=None):
            raise OSError("connection refused")

        monkeypatch.setattr(router_mod, "http_json", unreachable)
        status, _body = core.submit(_payload())
        assert status == 503
        assert counters["spilled"] == 1
        assert counters.unlocked_writes == []
