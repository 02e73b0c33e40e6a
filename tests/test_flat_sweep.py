"""Flat sim_mode wiring: harness, sweep runner, service, verify report.

The tentpole engine's cross-validation lives in
``test_vectorized_memsim.py``; this file covers the plumbing around it —
``sim_mode="flat"`` through :func:`simulate_pair` / :func:`run_sweep` /
:class:`SweepRunner`, the ``gmap-sweep`` report artifact (replay and
analytic) and its ``gmap check`` rules, the simulate job handler's
flat/sweep modes, and the per-stage memsim circuit breaker.
"""

from __future__ import annotations

import pytest

from repro.core.backend import numpy_available
from repro.memsim.config import (
    PAPER_BASELINE,
    CacheConfig,
    DramConfig,
    PrefetcherConfig,
    SimConfig,
)
from repro.memsim.simulator import (
    SWEEP_FORMAT,
    SWEEP_SCHEMA_VERSION,
    simulate_flat_trace,
    sweep_report,
)
from repro.service.degradation import STAGE_MEMSIM, DegradationPolicy
from repro.service.handlers import execute_job
from repro.validation.harness import (
    build_pipeline,
    replay_sweep,
    resolve_sim_mode,
    run_sweep,
    simulate_pair,
)
from repro.validation.parallel import SweepRunner
from repro.workloads import suite

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(scope="module")
def pipeline():
    kernel = suite.make("kmeans", "tiny")
    return build_pipeline(kernel, num_cores=4, seed=7)


def fast_config(**overrides) -> SimConfig:
    defaults = dict(
        num_cores=4,
        l1=CacheConfig(size=16 * 1024, assoc=4, line_size=128),
        l2=CacheConfig(size=256 * 1024, assoc=8, line_size=128,
                       hit_latency=30, banks=8),
        dram=DramConfig(channels=4),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSimMode:
    def test_resolve_defaults_to_simt(self):
        assert resolve_sim_mode(None) == "simt"
        assert resolve_sim_mode("SIMT") == "simt"
        assert resolve_sim_mode("flat") == "flat"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_sim_mode("turbo")

    def test_flat_pair_is_fixed_order_replay(self, pipeline):
        """A flat pair must equal a direct flat-trace replay of the
        pipeline's drained assignments — no scheduling feedback."""
        config = fast_config()
        [pair] = run_sweep(pipeline, [config], sim_mode="flat").pairs
        direct = simulate_flat_trace(pipeline.original_flat(), config)
        assert pair.original.to_dict() == direct.to_dict()
        assert pair.config == config

    def test_flat_differs_from_simt(self, pipeline):
        """Flat replay has no latency feedback, so it is a different
        experiment from the SIMT loop — the modes must not be conflated
        (which is also why flat pairs never enter the pair cache)."""
        config = fast_config()
        [flat] = run_sweep(pipeline, [config], sim_mode="flat").pairs
        simt = simulate_pair(pipeline, config)
        assert flat.original.cycles != simt.original.cycles

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_sweep_flat_matches_replay_sweep(self, pipeline, backend):
        configs = [fast_config(), fast_config(
            l1=CacheConfig(size=32 * 1024, assoc=4, line_size=128))]
        swept = run_sweep(pipeline, configs, sim_mode="flat",
                          backend=backend)
        replayed = replay_sweep(pipeline, configs, backend=backend)
        assert [p.original.to_dict() for p in swept.pairs] == \
            [p.original.to_dict() for p in replayed.pairs]
        assert [p.proxy.to_dict() for p in swept.pairs] == \
            [p.proxy.to_dict() for p in replayed.pairs]


class TestSweepRunnerFlat:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serial_flat_matches_harness(self, backend):
        kernel = suite.make("kmeans", "tiny")
        configs = [fast_config(), fast_config(
            l1=CacheConfig(size=32 * 1024, assoc=4, line_size=128))]
        swept = SweepRunner(jobs=1, use_cache=False).run(
            [kernel], configs, num_cores=4, seed=7,
            sim_mode="flat", backend=backend)
        reference = replay_sweep(
            build_pipeline(kernel, num_cores=4, seed=7), configs,
            backend="python")
        assert len(swept) == 1
        assert [p.original.to_dict() for p in swept[0].pairs] == \
            [p.original.to_dict() for p in reference.pairs]

    def test_parallel_flat_matches_serial(self):
        kernel = suite.make("vectoradd", "tiny")
        configs = [fast_config(), fast_config(
            l1=CacheConfig(size=8 * 1024, assoc=2, line_size=128))]
        serial = SweepRunner(jobs=1, use_cache=False).run(
            [kernel], configs, num_cores=4, sim_mode="flat")
        parallel = SweepRunner(jobs=2, use_cache=False).run(
            [kernel], configs, num_cores=4, sim_mode="flat")
        assert [p.original.to_dict() for p in serial[0].pairs] == \
            [p.original.to_dict() for p in parallel[0].pairs]

    def test_rejects_unknown_sim_mode(self):
        kernel = suite.make("vectoradd", "tiny")
        with pytest.raises(ValueError):
            SweepRunner(jobs=1).run(
                [kernel], [fast_config()], num_cores=4, sim_mode="warp")


class TestSweepReport:
    """The one ``gmap-sweep`` artifact, replay and analytic alike."""

    @pytest.fixture(scope="class", params=[False, True],
                    ids=["replay", "analytic"])
    def report(self, request):
        from repro.gpu.executor import execute_kernel, flat_drain

        kernel = suite.make("vectoradd", "tiny")
        traces = flat_drain(execute_kernel(kernel, 4))
        configs = [
            fast_config(),
            fast_config(l1=CacheConfig(size=32 * 1024, assoc=4,
                                       line_size=128)),
            fast_config(l1_prefetcher=PrefetcherConfig(kind="stride")),
        ]
        return sweep_report(traces, configs, backend="python",
                            target="vectoradd", analytic=request.param)

    def test_shape(self, report):
        analytic = report["engine"] == "analytic"
        assert report["format"] == SWEEP_FORMAT
        assert report["schema_version"] == SWEEP_SCHEMA_VERSION
        assert report["num_configs"] == 3
        assert len(report["results"]) == 3
        assert ("tolerance" in report) == analytic
        for entry in report["results"]:
            assert isinstance(entry["config"], str)
            block = entry["result"]
            for level in ("l1", "l2"):
                stats = block[level]
                assert stats["hits"] + stats["misses"] == stats["accesses"]
        engines = [entry["engine"] for entry in report["results"]]
        if analytic:
            # The prefetcher config is outside the model: it replays on
            # the python backend's oracle, with its reasons recorded.
            assert engines == ["analytic", "analytic", "oracle"]
            assert [f["index"] for f in report["fallbacks"]] == [2]
            assert any("prefetchers" in reason
                       for reason in report["fallbacks"][0]["reasons"])
        else:
            assert report["engine"] == "oracle"
            assert engines == ["oracle"] * 3
            assert report["fallbacks"] == []

    def test_passes_verifier(self, report):
        from repro.analysis.verify import verify_sweep_report

        assert verify_sweep_report(report, "<test>") == []

    def test_verifier_rules_fire(self, report):
        import copy

        from repro.analysis.verify import verify_sweep_report

        bad = copy.deepcopy(report)
        bad["num_configs"] = 9
        bad["results"][0]["result"]["cycles"] += 1
        bad["results"][1]["result"]["l1"]["hits"] += 1
        bad["results"][1]["engine"] = "warp"
        if "tolerance" in bad:
            del bad["tolerance"]
        else:
            bad["tolerance"] = 0.1
        bad["fallbacks"].append({"index": 0, "reasons": []})
        rules = {f.rule for f in verify_sweep_report(bad, "<test>")}
        assert {"sweep-count", "sweep-trace-mismatch", "sweep-totals",
                "sweep-engine", "sweep-tolerance", "sweep-fallback-reasons",
                "sweep-fallback-contradiction"} <= rules

    def test_check_dispatches_on_format(self, report, tmp_path):
        import json

        from repro.analysis.verify import verify_profile_file
        from repro.cli import main

        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert verify_profile_file(path) == []
        assert main(["check", "--verify-only", str(path)]) == 0

    def test_retired_format_is_an_unknown_artifact(self, report, tmp_path):
        import json

        from repro.analysis.verify import verify_profile_file

        path = tmp_path / "old.json"
        path.write_text(json.dumps({**report, "format": "gmap-multi-config"}),
                        encoding="utf-8")
        findings = verify_profile_file(path)
        assert [f.rule for f in findings] == ["unknown-artifact-format"]
        assert SWEEP_FORMAT in findings[0].message


@pytest.mark.skipif(not numpy_available(), reason="array engine needs numpy")
def test_array_sweep_records_trace_level_fallback():
    """A texture-touching trace under a config with a texture cache runs
    on the oracle; the numpy replay sweep must say so, with the reason
    the array engine gave when it declined."""
    from repro.analysis.verify import verify_sweep_report
    from repro.gpu.instructions import pack
    from repro.gpu.memspace import TEXTURE_BASE

    traces = [[pack(80, 0x1000_0000, 4, False),
               pack(84, TEXTURE_BASE + 64, 4, False)]]
    config = PAPER_BASELINE.with_(num_cores=1)
    report = sweep_report(traces, [config], backend="numpy")
    assert report["engine"] == "array"
    assert report["results"][0]["engine"] == "oracle"
    assert report["fallbacks"] == [
        {"index": 0, "reasons": [
            "texture-cache traffic requires the read-only-cache scalar path"]},
    ]
    assert verify_sweep_report(report, "<test>") == []


class TestSimulateHandler:
    def _run(self, params, backend="python"):
        request = {"kind": "simulate", "params": params}
        outcome = execute_job(request, backend)
        assert outcome["ok"], outcome.get("error")
        return outcome["result"]

    def test_default_is_simt(self):
        result = self._run({"target": "vectoradd", "scale": "tiny",
                            "cores": 4})
        assert result["sim_mode"] == "simt"

    def test_flat_mode(self):
        result = self._run({"target": "vectoradd", "scale": "tiny",
                            "cores": 4, "flat": True})
        assert result["sim_mode"] == "flat"
        assert result["result"]["requests_issued"] > 0

    def test_sweep_mode_returns_report(self):
        result = self._run({"target": "vectoradd", "scale": "tiny",
                            "cores": 4, "sweep": "l1"})
        assert result["format"] == SWEEP_FORMAT
        assert result["num_configs"] == len(result["results"]) == 6

    def test_unknown_sweep_is_invalid_request(self):
        request = {"kind": "simulate",
                   "params": {"target": "vectoradd", "scale": "tiny",
                              "sweep": "l3"}}
        outcome = execute_job(request, "python")
        assert not outcome["ok"]
        assert outcome["error_kind"] == "invalid_request"


@pytest.mark.skipif(not numpy_available(),
                    reason="DegradationPolicy(backend='numpy') needs numpy")
class TestMemsimStageBreaker:
    def test_stage_breaker_is_independent(self):
        policy = DegradationPolicy(
            backend="numpy", failure_threshold=2, cooldown=60.0,
            clock=lambda: 0.0)
        for _ in range(2):
            policy.observe_job_failure("numpy", stage=STAGE_MEMSIM)
        backend, reasons = policy.effective_backend(STAGE_MEMSIM)
        assert backend == "python"
        assert reasons == ["circuit_open:numpy:memsim"]
        # The base breaker (profile/generate jobs) is untouched.
        backend, reasons = policy.effective_backend(None)
        assert backend == "numpy"
        assert reasons == []

    def test_base_breaker_does_not_demote_memsim(self):
        policy = DegradationPolicy(
            backend="numpy", failure_threshold=2, cooldown=60.0,
            clock=lambda: 0.0)
        for _ in range(2):
            policy.observe_job_failure("numpy")
        assert policy.effective_backend(None)[0] == "python"
        assert policy.effective_backend(STAGE_MEMSIM)[0] == "numpy"

    def test_stage_success_closes_breaker(self):
        clock = {"now": 0.0}
        policy = DegradationPolicy(
            backend="numpy", failure_threshold=1, cooldown=10.0,
            clock=lambda: clock["now"])
        policy.observe_job_failure("numpy", stage=STAGE_MEMSIM)
        assert policy.effective_backend(STAGE_MEMSIM)[0] == "python"
        clock["now"] = 11.0  # cooldown over: half-open probe allowed
        assert policy.effective_backend(STAGE_MEMSIM)[0] == "numpy"
        policy.observe("numpy", [], stage=STAGE_MEMSIM)
        assert policy.effective_backend(STAGE_MEMSIM)[0] == "numpy"


def _one_point_entry(target, backend, analytic):
    """``(engine, result block, reasons)`` of a one-config ``gmap-sweep``."""
    from repro.gpu.executor import execute_kernel, flat_drain

    traces = flat_drain(execute_kernel(
        suite.make(target, "tiny"), 4, backend=backend))
    report = sweep_report(traces, [PAPER_BASELINE.with_(num_cores=4)],
                          backend=backend, target=target, analytic=analytic)
    [entry] = report["results"]
    [reasons] = [f["reasons"] for f in report["fallbacks"]] or [[]]
    return entry["engine"], entry["result"], reasons


def _cli_text(label, block):
    """What ``_print_result`` prints for a ``SimResult.to_dict()`` block."""
    def rate(stats):
        accesses = stats["accesses"]
        return stats["misses"] / accesses if accesses else 0.0

    l1, l2, dram = block["l1"], block["l2"], block["dram"]
    return (
        f"== {label}\n"
        f"  requests      : {block['requests_issued']}\n"
        f"  cycles        : {block['cycles']:.0f}\n"
        f"  L1 miss rate  : {rate(l1):.4f} ({l1['misses']}/{l1['accesses']})\n"
        f"  L2 miss rate  : {rate(l2):.4f} ({l2['misses']}/{l2['accesses']})\n"
        f"  DRAM          : RBL={dram['row_buffer_locality']:.3f} "
        f"queue={dram['avg_queue_length']:.2f} "
        f"rdlat={dram['avg_read_latency']:.1f} "
        f"wrlat={dram['avg_write_latency']:.1f}\n"
    )


def _service_block(block):
    """The service's result block for a ``SimResult.to_dict()`` block."""
    def cache(stats):
        accesses = stats["accesses"]
        return {"accesses": accesses, "misses": stats["misses"],
                "miss_rate": stats["misses"] / accesses if accesses else 0.0}

    dram = block["dram"]
    return {
        "requests_issued": block["requests_issued"],
        "cycles": block["cycles"],
        "l1": cache(block["l1"]),
        "l2": cache(block["l2"]),
        "dram": {key: dram[key] for key in (
            "row_buffer_locality", "avg_queue_length", "avg_read_latency",
            "avg_write_latency")},
    }


class TestOneConfigIsOnePointSweep:
    """``--flat``/``--analytic`` and the service's ``flat``/``analytic``
    jobs run one config through the same engine chain as a sweep: the
    engine, the result and the reasons equal the one-config ``gmap-sweep``
    entry of the same stream."""

    @pytest.fixture(params=["vectoradd", "convolution_texture"])
    def target(self, request):
        return request.param

    @pytest.mark.parametrize("mode", ["flat", "analytic"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cli(self, target, backend, mode, capsys):
        from repro.cli import main

        engine, block, reasons = _one_point_entry(
            target, backend, mode == "analytic")
        assert main(["simulate", target, "--scale", "tiny", "--cores", "4",
                     "--backend", backend, f"--{mode}"]) == 0
        captured = capsys.readouterr()
        if mode == "flat":
            assert engine != "analytic"
            label = f"{target} (flat replay: {engine})"
            err = "".join(f"flat fallback: {r}\n" for r in reasons)
        elif engine == "analytic":
            label, err = f"{target} (analytic)", ""
        else:
            label = f"{target} (analytic fallback: flat replay)"
            err = "".join(f"analytic fallback: {r}\n" for r in reasons)
        assert captured.out == _cli_text(label, block)
        assert captured.err == err

    @pytest.mark.parametrize("mode", ["flat", "analytic"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_service(self, target, backend, mode):
        engine, block, reasons = _one_point_entry(
            target, backend, mode == "analytic")
        outcome = execute_job(
            {"kind": "simulate", "params": {
                "target": target, "scale": "tiny", "cores": 4, mode: True}},
            backend)
        assert outcome["ok"], outcome.get("error")
        expected = {"target": target, "sim_mode": mode,
                    "result": _service_block(block)}
        if mode == "flat":
            expected["backend"] = backend
        elif engine == "analytic":
            expected["analytic"] = True
        else:
            expected.update(analytic=False, fallback_reasons=reasons,
                            backend=backend)
        assert outcome["result"] == expected

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_flat_names_the_oracle_and_its_reasons(self, capsys):
        """Texture and constant traffic: the array engine declines with
        two reasons and the oracle replays; the CLI says so."""
        from repro.cli import main

        target = "convolution_texture"
        engine, block, reasons = _one_point_entry(target, "numpy", False)
        assert engine == "oracle"
        assert len(reasons) == 2
        assert main(["simulate", target, "--scale", "tiny", "--cores", "4",
                     "--backend", "numpy", "--flat"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"flat fallback: {reason}" for reason in reasons]
        assert captured.out == _cli_text(f"{target} (flat replay: oracle)",
                                         block)
