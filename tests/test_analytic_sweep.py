"""Tests for the analytic O(histogram) sweep backend.

Three contracts from the analytic-mode design:

* **cross-validation** — on any LRU, prefetch-free configuration the
  model claims, the L1 prediction is *bit-exact* against the flat-replay
  oracle (the event simulator fills the cache array at miss time, which
  is exactly per-set LRU stack semantics), and the L2 miss rate stays
  within the model's stated tolerance (the documented gap is L2 MSHR
  merge accounting, which inflates the replay's L2 access denominator);
* **fallback completeness** — every configuration feature the model
  cannot capture (prefetchers, non-LRU replacement, oversized
  associativity, inclusive L2) must produce a non-empty reason list and
  route the config to replay, recorded in the ``gmap-sweep`` artifact's
  ``fallbacks`` list;
* **journal resume** — a journaled analytic sweep mixing predictions and
  replay fallbacks resumes bit-identically without recomputation, with
  the fallback matrix restored from the journal.

The model-level contracts run on both scans: the scalar stack walk (the
``model`` fixture) and, in the ``*ArrayScan`` subclasses, the ``numpy``
array scan, which must predict bit-identically.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical.analytic import (
    ANALYTIC_MISS_RATE_TOLERANCE,
    AnalyticCacheModel,
)
from repro.analysis import verify_sweep_report
from repro.core.backend import numpy_available
from repro.gpu.executor import execute_kernel, flat_drain
from repro.memsim.capabilities import fallback_reasons
from repro.memsim.config import PAPER_BASELINE, CacheConfig, PrefetcherConfig
from repro.memsim.simulator import simulate_flat_trace, sweep_report
from repro.validation import sweeps
from repro.validation.harness import build_pipeline, run_sweep
from repro.validation.parallel import SweepRunner
from repro.workloads import suite

NUM_CORES = 4


@pytest.fixture(scope="module")
def traces():
    kernel = suite.make("kmeans", scale="tiny")
    return flat_drain(execute_kernel(kernel, NUM_CORES))


@pytest.fixture(scope="module")
def scalar_model(traces):
    """The model on the scalar scan (the stdlib oracle)."""
    return AnalyticCacheModel.from_flat(traces, "python")


@pytest.fixture(scope="module")
def array_model(traces):
    """The model on the ``numpy`` array scan."""
    return AnalyticCacheModel.from_flat(traces, "numpy")


@pytest.fixture(scope="module")
def model(scalar_model):
    """The model under test; the ``*ArrayScan`` classes override it."""
    return scalar_model


needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the array scan needs numpy")

#: Randomized LRU geometries of the cross-validation tests.
LRU_GEOMETRIES = dict(
    l1_sets=st.sampled_from([16, 32, 64, 128]),
    l1_assoc=st.sampled_from([1, 2, 4, 8]),
    l1_line=st.sampled_from([32, 64, 128]),
    # L2 >= 128 KiB: below that the documented small-L2 writeback gap
    # (store misses the replay charges as L2 writeback traffic) exceeds
    # the stated tolerance; docs/performance.md records that envelope.
    l2_sets=st.sampled_from([1024, 2048, 4096]),
    l2_assoc=st.sampled_from([2, 4, 8]),
    l2_line=st.sampled_from([64, 128]),
)


def _config(l1_sets, l1_assoc, l1_line, l2_sets, l2_assoc, l2_line):
    return PAPER_BASELINE.with_(
        num_cores=NUM_CORES,
        l1=CacheConfig(size=l1_sets * l1_assoc * l1_line, assoc=l1_assoc,
                       line_size=l1_line),
        l2=CacheConfig(size=l2_sets * l2_assoc * l2_line, assoc=l2_assoc,
                       line_size=l2_line, hit_latency=30, banks=8),
    )


class TestCrossValidation:
    """Analytic predictions vs the scalar flat-replay oracle."""

    @settings(max_examples=12, deadline=None)
    @given(**LRU_GEOMETRIES)
    def test_randomized_lru_configs(self, model, traces, l1_sets, l1_assoc,
                                    l1_line, l2_sets, l2_assoc, l2_line):
        config = _config(l1_sets, l1_assoc, l1_line,
                         l2_sets, l2_assoc, l2_line)
        assert model.applicability(config) == []
        predicted = model.predict(config)
        truth = simulate_flat_trace(traces, config, "python")
        # L1 is exact per-set LRU stack-distance — bit-exact, not close.
        assert predicted.l1.accesses == truth.l1.accesses
        assert predicted.l1.misses == truth.l1.misses
        # L2: the conditioned model tracks miss *counts* closely; the miss
        # *rate* carries the documented MSHR-merge denominator gap.
        assert (abs(predicted.l2_miss_rate - truth.l2_miss_rate)
                <= ANALYTIC_MISS_RATE_TOLERANCE)

    def test_trace_identity(self, model, traces):
        """Predictions describe the same stream the replay walks."""
        config = _config(32, 4, 128, 1024, 8, 128)
        predicted = model.predict(config)
        truth = simulate_flat_trace(traces, config, "python")
        assert predicted.requests_issued == truth.requests_issued
        assert predicted.cycles == truth.cycles

    def test_gate_grid_within_tolerance(self, model, traces):
        """The bench gate's grid: every reduced-fig6a point in tolerance."""
        for base in sweeps.l1_sweep(reduced=True):
            config = base.with_(num_cores=NUM_CORES)
            assert model.applicability(config) == []
            predicted = model.predict(config)
            truth = simulate_flat_trace(traces, config, "python")
            assert predicted.l1.misses == truth.l1.misses
            assert (abs(predicted.l2_miss_rate - truth.l2_miss_rate)
                    <= ANALYTIC_MISS_RATE_TOLERANCE)


@needs_numpy
class TestCrossValidationArrayScan(TestCrossValidation):
    """The same contracts with the model on the ``numpy`` array scan.

    The randomized test checks the array model against the scalar model
    for bit-identical results, rather than re-drawing the replay
    comparison: the two models agree exactly, so the scalar run above
    carries the replay contract for both.
    """

    @pytest.fixture(scope="class")
    def model(self, array_model):
        return array_model

    @settings(max_examples=12, deadline=None)
    @given(**LRU_GEOMETRIES)
    def test_randomized_lru_configs(self, model, scalar_model, l1_sets,
                                    l1_assoc, l1_line, l2_sets, l2_assoc,
                                    l2_line):
        config = _config(l1_sets, l1_assoc, l1_line,
                         l2_sets, l2_assoc, l2_line)
        assert (model.predict(config).to_dict()
                == scalar_model.predict(config).to_dict())

    def test_backends_predict_identically(self, model, scalar_model):
        """Both scans give bit-identical results on the reduced fig6a grid."""
        for base in sweeps.l1_sweep(reduced=True):
            config = base.with_(num_cores=NUM_CORES)
            assert (model.predict(config).to_dict()
                    == scalar_model.predict(config).to_dict())


class TestFallbackCompleteness:
    """Every un-capturable feature must produce a reason, none silently."""

    BASELINE = PAPER_BASELINE.with_(num_cores=NUM_CORES)

    @pytest.mark.parametrize("label,mutate", [
        ("l1-prefetcher", lambda c: c.with_(
            l1_prefetcher=PrefetcherConfig(kind="stride"))),
        ("l2-prefetcher", lambda c: c.with_(
            l2_prefetcher=PrefetcherConfig(kind="stream"))),
        ("l1-fifo", lambda c: c.with_(
            l1=dataclasses.replace(c.l1, replacement="fifo"))),
        ("l1-random", lambda c: c.with_(
            l1=dataclasses.replace(c.l1, replacement="random"))),
        ("l2-fifo", lambda c: c.with_(
            l2=dataclasses.replace(c.l2, replacement="fifo"))),
        ("l2-random", lambda c: c.with_(
            l2=dataclasses.replace(c.l2, replacement="random"))),
        ("inclusive-l2", lambda c: c.with_(l2_inclusion="inclusive")),
    ])
    def test_feature_triggers_fallback(self, model, label, mutate):
        config = mutate(self.BASELINE)
        assert fallback_reasons(config, "analytic"), label
        assert model.applicability(config), label

    def test_baseline_is_in_model(self, model):
        assert fallback_reasons(self.BASELINE, "analytic") == []
        assert model.applicability(self.BASELINE) == []

    def test_report_records_every_fallback(self, model, traces):
        grid = [c.with_(num_cores=NUM_CORES)
                for c in sweeps.l1_sweep(reduced=True)][:3]
        grid[1] = grid[1].with_(
            l1=dataclasses.replace(grid[1].l1, replacement="fifo"))
        report = sweep_report(traces, grid, backend=model.backend,
                              target="kmeans", analytic=True)
        # FIFO is refused by the array engine too: the fallback lands on
        # the oracle, and the shared table row is recorded once.
        engines = [entry["engine"] for entry in report["results"]]
        assert engines == ["analytic", "oracle", "analytic"]
        fallbacks = report["fallbacks"]
        assert [entry["index"] for entry in fallbacks] == [1]
        assert fallbacks[0]["reasons"] == fallback_reasons(grid[1], "analytic")
        # The artifact must satisfy its own verifier, including the
        # two-way engine <-> reason consistency contract.
        assert verify_sweep_report(report, "<test>") == []


@needs_numpy
class TestFallbackCompletenessArrayScan(TestFallbackCompleteness):
    """Fallback completeness with the model on the ``numpy`` array scan."""

    @pytest.fixture(scope="class")
    def model(self, array_model):
        return array_model


class TestHarnessMode:
    """``run_sweep(..., sim_mode="analytic")`` wiring."""

    def test_pairs_flagged_and_fallbacks_annotated(self):
        kernel = suite.make("vectoradd", scale="tiny")
        pipeline = build_pipeline(kernel, num_cores=NUM_CORES)
        grid = [c.with_(num_cores=NUM_CORES)
                for c in sweeps.l1_sweep(reduced=True)][:3]
        grid[2] = grid[2].with_(
            l2=dataclasses.replace(grid[2].l2, replacement="random"))
        result = run_sweep(pipeline, grid, sim_mode="analytic")
        assert [pair.analytic for pair in result.pairs] == [True, True, False]
        assert len(result.analytic_fallbacks) == 1
        assert result.analytic_fallbacks[0]["reasons"]


    @needs_numpy
    def test_backend_picks_the_scan(self):
        kernel = suite.make("vectoradd", scale="tiny")
        pipeline = build_pipeline(kernel, num_cores=NUM_CORES)
        grid = [c.with_(num_cores=NUM_CORES)
                for c in sweeps.l1_sweep(reduced=True)][:2]
        array = run_sweep(pipeline, grid, sim_mode="analytic",
                          backend="numpy")
        scalar = run_sweep(pipeline, grid, sim_mode="analytic",
                           backend="python")
        assert pipeline.original_model("numpy").backend == "numpy"
        assert pipeline.proxy_model("python").backend == "python"
        assert pipeline.original_model("numpy") is pipeline.original_model(
            "numpy")
        for got, expected in zip(array.pairs, scalar.pairs):
            assert got.original.to_dict() == expected.original.to_dict()
            assert got.proxy.to_dict() == expected.proxy.to_dict()


class TestJournalResume:
    """Mixed analytic/fallback chunks checkpoint and resume losslessly."""

    GRID = [c.with_(num_cores=NUM_CORES)
            for c in sweeps.l1_sweep(reduced=True, keep=2)] + [
        sweeps.l1_sweep(reduced=True, keep=1)[0].with_(
            num_cores=NUM_CORES,
            l1=dataclasses.replace(
                sweeps.l1_sweep(reduced=True, keep=1)[0].l1,
                replacement="fifo")),
    ]

    def _run(self, tmp_path, **kwargs):
        return SweepRunner(jobs=1, chunk_size=1, journal=True,
                           journal_dir=tmp_path, **kwargs)

    def test_resume_is_bit_identical_and_skips_work(self, tmp_path):
        kernels = [suite.make("vectoradd", "tiny")]
        first = self._run(tmp_path)
        results = first.run(kernels, self.GRID, num_cores=NUM_CORES,
                            sim_mode="analytic")
        assert [p.analytic for p in results[0].pairs] == [True, True, False]
        assert len(results[0].analytic_fallbacks) == 1

        executed = []
        resumed = self._run(
            tmp_path, resume=True, run_id=first.last_run_id,
            fault_injector=executed.append,
        ).run(kernels, self.GRID, num_cores=NUM_CORES, sim_mode="analytic")
        assert executed == []  # everything came from the journal
        assert len(resumed) == len(results)
        for got, expected in zip(resumed, results):
            assert got.analytic_fallbacks == expected.analytic_fallbacks
            assert len(got.pairs) == len(expected.pairs)
            for gp, ep in zip(got.pairs, expected.pairs):
                assert gp.config == ep.config
                assert gp.analytic == ep.analytic
                assert gp.original.to_dict() == ep.original.to_dict()
                assert gp.proxy.to_dict() == ep.proxy.to_dict()
