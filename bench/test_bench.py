"""Tests of the benchmark's machinery: ``python -m pytest bench``."""

from __future__ import annotations

import json
import re
import signal
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from bench import calibrate, compare, serve, stats
from bench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class TestStats:
    def test_percentile_interpolates_between_ranks(self):
        assert stats.percentile([5, 1, 3, 2, 4], 50) == 3
        assert stats.percentile([1, 2, 3, 4], 50) == 2.5
        assert stats.percentile(list(range(101)), 95) == 95
        assert stats.percentile([7.0], 95) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)

    def test_median_and_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q1, mid, q3 = stats.quartiles(values)
        assert (q1, mid, q3) == tuple(statistics.quantiles(values, n=4))
        assert stats.median(values) == statistics.median(values) == mid
        assert stats.spread(values) == pytest.approx((q3 - q1) / mid)

    def test_single_sample_is_its_own_quartiles(self):
        assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
        assert stats.spread([2.5]) == 0.0

    @pytest.mark.parametrize("count, expected", [
        (10000, 99.9), (1000, 99.0), (240, 95.0), (200, 95.0),
        (199, 90.0), (144, 90.0), (20, 50.0), (19, None),
    ])
    def test_tail_percentile_keeps_ten_samples_beyond(self, count, expected):
        assert stats.tail_percentile(count) == expected


class TestHostClock:
    def test_reads_the_code_time_over_the_slowness(self, monkeypatch):
        # A host twice as slow as the reference: every slice reads 2x.
        monkeypatch.setattr(calibrate, "_slice",
                            lambda: 2 * calibrate.REFERENCE_SECONDS)
        previous = signal.getsignal(signal.SIGALRM)
        with calibrate.HostClock() as clock:
            time.sleep(2.2 * calibrate.INTERVAL_S)
        ticks = round(clock.busy_s / (2 * calibrate.REFERENCE_SECONDS))
        assert ticks == 2
        assert len(clock.slices) == calibrate.MIN_SLICES
        assert clock.slowness == pytest.approx(2.0)
        assert clock.seconds == pytest.approx(
            (clock.wall_s - clock.busy_s) / 2.0)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_slowness_is_the_harmonic_mean(self):
        clock = calibrate.HostClock()
        ref = calibrate.REFERENCE_SECONDS
        clock.slices = [ref, 3 * ref]
        assert clock.slowness == pytest.approx(1.5)

    def test_backdated_start_counts_in_wall_time(self):
        with calibrate.HostClock(started=time.perf_counter() - 1.0) as clock:
            pass
        assert clock.wall_s >= 1.0 and clock.busy_s == 0.0


class TestRequestStream:
    def test_same_seed_same_stream(self):
        assert serve.open_stream(7, 240) == serve.open_stream(7, 240)
        first, second = serve.closed_rounds(7), serve.closed_rounds(7)
        assert [first() for _ in range(3)] == [second() for _ in range(3)]

    def test_different_seeds_differ(self):
        assert serve.open_stream(7, 240) != serve.open_stream(8, 240)
        assert serve.closed_rounds(7)() != serve.closed_rounds(8)()

    def test_fresh_keys_are_new_and_used_once(self):
        hot = {serve.key_of(p) for p in serve.hot_payloads()}
        assert len(hot) == 54
        stream = [serve.key_of(p) for p in serve.open_stream(1234, 240)]
        fresh = [key for key in stream if key not in hot]
        assert len(fresh) == len(set(fresh))
        assert len(fresh) == round(serve.FRESH_SHARE * len(stream))

    def test_a_closed_round_requests_every_hot_key_once(self):
        keys = [serve.key_of(p) for p in serve.closed_rounds(3)()]
        assert sorted(keys) == sorted(serve.key_of(p)
                                      for p in serve.hot_payloads())


class FakeRouter:
    """Stands in for the router: jobs finish ``service`` s after submission;
    the first submission stalls for ``stall`` s."""

    def __init__(self, service: float, stall: float = 0.0) -> None:
        self.service = service
        self.stall = stall
        self.ready: Dict[str, float] = {}
        self.lock = threading.Lock()

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Any:
        if method == "POST":
            with self.lock:
                job_id = f"job{len(self.ready)}"
                self.ready[job_id] = float("inf")
            if job_id == "job0" and self.stall:
                time.sleep(self.stall)
            self.ready[job_id] = time.perf_counter() + self.service
            return 202, {"job_id": job_id}
        job_id = path.rsplit("/", 1)[-1]
        if time.perf_counter() >= self.ready[job_id]:
            return 200, {"status": "completed", "result": {}, "attempts": 1}
        return 200, {"status": "running"}


class TestOpenLoop:
    def test_latency_is_clocked_from_the_scheduled_send_time(self):
        router = FakeRouter(service=0.01, stall=0.3)
        loop = serve.run_open(router, serve.hot_payloads()[:8], rate=20.0)
        first, second, last = (loop.requests[0], loop.requests[1],
                               loop.requests[-1])
        assert all(r.status == "completed" for r in loop.requests)
        # The stalled submit held back the next request, due 50 ms later:
        # its wait before sending counts in its latency and as lateness.
        assert second.sent - second.due >= 0.2
        assert second.latency >= second.sent - second.due + router.service
        assert max(loop.lateness) >= 0.2
        assert first.latency >= 0.3
        # Requests due after the stall cleared are on time again.
        assert last.sent - last.due < 0.05
        assert last.latency < 0.15

    def test_unfinished_request_counts_as_the_deadline(self):
        req = serve.Request(serve.hot_payloads()[0], due=0.0, status="lost")
        assert req.latency == serve.JOB_DEADLINE

    def test_closed_round_settles_every_request(self):
        router = FakeRouter(service=0.002)
        seconds, reqs = serve.run_round(router, serve.hot_payloads()[:10])
        assert len(reqs) == 10 and seconds > 0
        assert all(r.status == "completed" and r.polls for r in reqs)


class TestBenchmarkSchema:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_top_level_layout(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert SPEC["command"] == ["python3", "bench/run.py"]
        assert SPEC["paths"] == ["bench"]
        assert isinstance(SPEC["run_seconds"], int)
        assert 1 <= SPEC["run_seconds"] <= 60

    def test_counts(self):
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128

    def test_names_are_valid_and_unique(self):
        names = [entry["name"] for key in ("workloads", "end_to_end",
                                           "per_layer")
                 for entry in SPEC[key]]
        assert all(self.NAME.match(name) for name in names)
        metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert len(set(metrics)) == len(metrics)

    def test_every_metric_has_unit_direction_and_bound(self):
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in SPEC["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert self.UNIT.match(metric["unit"])
            assert metric["better"] in ("lower", "higher")

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in SPEC["end_to_end"]}
        assert bounds["setup_s"]["unit"] == "s"
        assert bounds["setup_s"]["better"] == "lower"
        assert bounds["setup_s"]["bound"] == max(
            m["bound"] for m in SPEC["end_to_end"])

    def test_gated_workloads_are_the_sweeps(self):
        from bench import run

        # serve-mix runs but is not gated: see README, "Noise policy".
        gated = [w["name"] for w in SPEC["workloads"]]
        assert gated == list(run.SWEEP_WORKLOADS)
        assert run.SERVE_WORKLOAD in run.WORKLOADS
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
                   for w in SPEC["workloads"])

    def test_per_layer_metrics_are_the_ones_the_code_reports(self):
        from bench import sweeps

        reported = set(sweeps.LAYER_METRICS) | set(serve.LAYER_METRICS)
        assert {m["name"] for m in SPEC["per_layer"]} == reported


def _result(workload: str, seed: int, values: Dict[str, float],
            trace: int = 0) -> Dict[str, Any]:
    return {"workload": workload, "seed": seed, "trace": trace,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in values.items()}}


def _side(workload: str, run_s: List[float],
          req: Optional[List[float]] = None) -> List[Dict[str, Any]]:
    req = req or [10.0] * len(run_s)
    return [_result(workload, seed, {"run_s": r, "req_per_s": q})
            for seed, (r, q) in enumerate(zip(run_s, req))]


#: Bounds for the comparison tests, independent of BENCHMARK.json's.
COMPARE_SPEC = {
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "req_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [],
}


class TestCompare:
    STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]

    def _verdicts(self, parent, change) -> Dict[str, str]:
        rows = compare.compare(parent, change, COMPARE_SPEC)
        return {row.metric: row.verdict for row in rows}

    def test_a_clear_gain_is_improved(self):
        faster = [v * 0.8 for v in self.STEADY]
        verdicts = self._verdicts(_side("w", self.STEADY),
                                  _side("w", faster))
        assert verdicts == {"run_s": "improved", "req_per_s": "unchanged"}

    def test_worse_beyond_the_bound_is_regressed(self):
        slower = [v * 1.2 for v in self.STEADY]
        fewer = [8.0] * 10
        verdicts = self._verdicts(_side("w", self.STEADY),
                                  _side("w", slower, fewer))
        assert verdicts == {"run_s": "regressed", "req_per_s": "regressed"}

    def test_a_noisy_parent_is_unresolved(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 12.0]
        verdicts = self._verdicts(_side("w", noisy), _side("w", noisy[::-1]))
        assert verdicts["run_s"] == "unresolved"
        # ... unless every change run beats every parent run.
        verdicts = self._verdicts(_side("w", noisy), _side("w", [1.0] * 10))
        assert verdicts["run_s"] == "improved"

    def test_within_the_bound_is_unchanged_and_pairs_are_counted(self):
        close = [v * 1.02 for v in self.STEADY]
        rows = compare.compare(_side("w", self.STEADY), _side("w", close),
                               COMPARE_SPEC)
        run_s = next(row for row in rows if row.metric == "run_s")
        assert run_s.verdict == "unchanged"
        assert run_s.pairs == 10 and run_s.won == 0.0
        assert run_s.delta == pytest.approx(0.02, abs=1e-3)

    def test_each_workload_gets_its_own_rows(self):
        parent = _side("a", self.STEADY) + _side("b", self.STEADY)
        change = _side("a", self.STEADY) + _side("b", [v * 1.5 for v in
                                                      self.STEADY])
        rows = compare.compare(parent, change, COMPARE_SPEC)
        verdicts = {(row.workload, row.metric): row.verdict for row in rows}
        assert verdicts[("a", "run_s")] == "unchanged"
        assert verdicts[("b", "run_s")] == "regressed"
        assert "\nb (10 pairs)" in compare.format_rows(rows)

    def test_main_reads_directories_and_fails_on_regression(self, tmp_path):
        spec = tmp_path / "BENCHMARK.json"
        spec.write_text(json.dumps(COMPARE_SPEC))
        for side, scale in (("parent", 1.0), ("change", 1.5)):
            directory = tmp_path / side
            directory.mkdir()
            for result in _side("w", [v * scale for v in self.STEADY]):
                (directory / f"{result['seed']}.json").write_text(
                    json.dumps(result))
        for change, status in (("parent", 0), ("change", 1)):
            assert compare.main([str(tmp_path / "parent"),
                                 str(tmp_path / change),
                                 "--benchmark", str(spec)]) == status


class _Work:
    """Dummy layers for the tracer."""

    def outer(self, depth: int) -> int:
        time.sleep(0.002)
        return self.inner() + (self.outer(depth - 1) if depth else 0)

    def inner(self) -> int:
        time.sleep(0.004)
        return 1

    @classmethod
    def build(cls) -> "_Work":
        return cls()


class TestTracing:
    def test_every_wrapper_is_removed(self):
        from bench import sweeps

        tracer = Tracer()
        sweeps.install_wrappers(tracer)
        installed = list(tracer._patches)
        assert installed
        for owner, attr, raw in installed:
            assert owner.__dict__[attr] is not raw
        tracer.close()
        for owner, attr, raw in installed:
            assert owner.__dict__[attr] is raw
        assert isinstance(
            sweeps.AnalyticCacheModel.__dict__["from_flat"], classmethod)

    def test_self_time_excludes_traced_children(self):
        with Tracer("t") as tracer:
            tracer.patch(_Work, "outer", "outer", span=True)
            tracer.patch(_Work, "inner", "inner")
            tracer.patch(_Work, "build", "build")
            assert _Work.build().outer(1) == 2
        assert tracer.calls("outer") == 1      # the nested call counts once
        assert tracer.calls("inner") == 2
        assert tracer.total("outer") >= tracer.total("inner") > 0.007
        assert tracer.self_time("outer") == pytest.approx(
            tracer.total("outer") - tracer.total("inner"), abs=1e-6)
        spans = tracer.spans
        assert [s["name"] for s in spans] == ["outer", "outer"]
        inner_span, outer_span = spans
        assert inner_span["parent"] == outer_span["id"]
        assert outer_span["parent"] is None and outer_span["run"] == "t"

    def test_traced_simulation_is_bit_identical(self, tmp_path):
        from repro.gpu.executor import execute_kernel
        from repro.memsim.config import PAPER_BASELINE
        from repro.memsim.simulator import SimtSimulator
        from repro.workloads import suite

        from bench import sweeps

        kernel = suite.make("nw", scale="tiny")  # has L1 hits, L2 and DRAM
        config = PAPER_BASELINE.with_(num_cores=2)
        plain = SimtSimulator(config).run(execute_kernel(kernel, 2))
        with Tracer("sim") as tracer:
            sweeps.install_wrappers(tracer)
            traced = SimtSimulator(config).run(execute_kernel(kernel, 2))
        assert traced.to_dict() == plain.to_dict()
        assert tracer.calls("l1.access") == plain.l1.accesses
        assert tracer.counters["l1.access.hits"] == plain.l1.hits
        assert tracer.counters["simulator.requests"] == plain.requests_issued
        assert tracer.counters["dram.requests"] == plain.dram.requests > 0
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {"run", "id", "parent", "name", "start", "end"} <= set(lines[0])
        assert any(line.get("kind") == "aggregate" for line in lines)
