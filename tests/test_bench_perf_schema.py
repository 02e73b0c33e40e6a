"""``scripts/bench_perf.py`` schema: the checked-in record must validate.

``timings.analytic_scan_s`` (the analytic model's per-geometry scans,
billed apart from the predict-only ``analytic_sweep_s``) is optional, so
schema-v5 records written before it existed still validate, but when
present it must be a float like every other timing.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_perf():
    spec = importlib.util.spec_from_file_location(
        "bench_perf", REPO / "scripts" / "bench_perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def record():
    return json.loads((REPO / "BENCH_sweep.json").read_text())


def test_checked_in_record_validates(bench_perf, record):
    bench_perf.validate_schema(record)


def test_scan_timing_is_optional_float(bench_perf, record):
    payload = copy.deepcopy(record)
    payload["timings"]["analytic_scan_s"] = 0.25
    bench_perf.validate_schema(payload)
    payload["timings"]["analytic_scan_s"] = "0.25"
    with pytest.raises(AssertionError, match="analytic_scan_s"):
        bench_perf.validate_schema(payload)
