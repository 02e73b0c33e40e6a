"""Figure 7: DRAM design-space exploration.

11 GDDR configurations per benchmark (bus width, channel parallelism,
RoBaRaCoCh vs ChRaBaRoCo addressing).  Three metrics are compared, each
normalised to AES's value as in the paper's plot: DRAM row buffer locality
(paper avg error 9.95%), average memory-controller queue length (8.64%) and
average read/write latency (12.6%); average correlation 0.85.
"""

from __future__ import annotations

from repro.validation.harness import ExperimentReport

from benchmarks.conftest import sweep_figure

METRICS = (
    ("dram_rbl", "RBL", "9.95%"),
    ("dram_queue_length", "avg queue length", "8.64%"),
    ("dram_rw_latency", "avg R/W latency", "12.6%"),
)


def test_fig7_dram_exploration():
    # One sweep run; the three metrics are folded from its pairs.
    _, _, sweeps = sweep_figure("fig7")
    by_app = {sweep.benchmark: sweep for sweep in sweeps}

    # Normalisation baseline: AES (as in the paper's Figure 7).  In reduced
    # mode AES may be absent; fall back to the first app.
    norm_app = "aes" if "aes" in by_app else sweeps[0].benchmark
    print(f"    (values normalised to {norm_app}'s baseline-config original)")

    overall = {}
    for metric, label, paper_err in METRICS:
        norm = by_app[norm_app].pairs[0].original.metric(metric) or 1.0
        report = ExperimentReport(
            metric, [sweep.comparison(metric) for sweep in sweeps])
        print(f"    --- {label} (paper avg error {paper_err})")
        for c in report.comparisons:
            n = len(c.originals)
            print(f"    {c.benchmark:<16} orig {sum(c.originals) / n / norm:8.3f} "
                  f"proxy {sum(c.proxies) / n / norm:8.3f} "
                  f"corr {c.correlation:6.3f}")
        rel_err = sum(
            c.mean_rel_error for c in report.comparisons
        ) / len(report.comparisons)
        corr = report.mean_correlation
        overall[metric] = (rel_err, corr)
        print(f"    {label}: avg relative error {rel_err * 100:.2f}% "
              f"corr {corr:.3f}")

    # Shape constraints: RBL and queue metrics must clone within a loose
    # band, and the proxy must preserve metric ordering across apps.
    assert overall["dram_rbl"][0] < 0.40
    assert overall["dram_rw_latency"][0] < 0.50
