"""End-to-end chaos scenarios against a live ``gmap serve`` instance.

Thin pytest bindings over :mod:`repro.service.chaos` — each scenario boots
a real service (HTTP listener, process-isolated workers), injects its
fault, and reports violations of the acceptance invariants (no crash,
typed outcomes, bounded queue, labeled degradation, lossless
drain/resume, and the fleet's kill-recovery and saturation gates).  The
CI ``service`` and ``fleet`` jobs additionally run the harness as a
standalone binary under hard wall-clock timeouts, each scenario once.
"""

from __future__ import annotations

import random

import pytest

from repro.service import chaos


@pytest.fixture(scope="module")
def rng():
    return random.Random(20170618)  # DAC'17 vintage


@pytest.mark.parametrize("scenario", chaos.SCENARIOS,
                         ids=lambda s: s.__name__)
def test_chaos_scenario(scenario, rng, tmp_path):
    result = scenario(tmp_path, rng, smoke=True)
    assert result.ok, "; ".join(result.violations)


def test_harness_main_smoke_report(tmp_path):
    """The standalone entry point: exit 0 and a JSON report on success.

    Runs a single scenario via ``--only`` — the parametrized test above
    already covers the full matrix; this checks the binary surface.
    """
    out = tmp_path / "report.json"
    code = chaos.main(["--smoke", "--seed", "99", "--out", str(out),
                       "--only", "queue_flood"])
    assert code == 0
    import json

    report = json.loads(out.read_text())
    assert report["smoke"] is True
    assert [s["name"] for s in report["scenarios"]] == ["queue_flood"]
    assert all(s["ok"] for s in report["scenarios"])


def test_scaling_floor_can_fail(capsys):
    """``--require-scaling`` arms fleet_saturation's throughput floor: an
    unreachable floor turns an otherwise healthy run into exit 1."""
    code = chaos.main(["--smoke", "--only", "fleet_saturation",
                       "--require-scaling", "1e9"])
    assert code == 1
    assert "below the 1000000000.00x floor" in capsys.readouterr().out


def test_scaling_floor_needs_its_scenario():
    with pytest.raises(SystemExit) as excinfo:
        chaos.main(["--smoke", "--only", "queue_flood",
                    "--require-scaling", "2.0"])
    assert excinfo.value.code == 2
