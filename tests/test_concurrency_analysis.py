"""Tests for the interprocedural concurrency analyzer.

Covers the three layers separately: the interprocedural core (summaries,
call graph, transitive facts), the rule checks (each known-bad fixture
fires, each known-good stays silent — mirroring ``--self-test``), and the
delivery machinery around them (baseline add/expire, suppression edge
cases, SARIF output, CLI wiring).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.concurrency import (
    CONCURRENCY_RULE_IDS,
    analyze_sources,
    apply_baseline,
    default_baseline_path,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import collect_suppressions, lint_source
from repro.analysis.interproc import build_project
from repro.analysis.sarif import findings_to_sarif
from repro.cli import main


def _rules(findings):
    return {item.finding.rule for item in findings}


# -- interprocedural core ---------------------------------------------------


class TestInterprocCore:
    def test_summaries_and_lock_events(self):
        project = build_project({
            "app/mod.py": (
                "import threading\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._value = 0\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self._value += 1\n"
            ),
        })
        summary = project.functions["app.mod:Box.bump"]
        (event,) = summary.lock_events
        assert event.lock == "app.mod:Box._lock"
        assert event.structured
        mutates = [a for a in summary.attr_accesses if a.mode == "mutate"]
        assert mutates and mutates[0].held == ("app.mod:Box._lock",)

    def test_transitive_blocking_through_call_graph(self):
        project = build_project({
            "app/a.py": (
                "from app.b import middle\n"
                "def top():\n"
                "    middle()\n"
            ),
            "app/b.py": (
                "import time\n"
                "def middle():\n"
                "    bottom()\n"
                "def bottom():\n"
                "    time.sleep(1)\n"
            ),
        })
        blocking = project.transitive_blocking("app.a:top")
        assert blocking  # sleep two hops down is visible from the top

    def test_resolve_module_bridges_import_prefix(self):
        project = build_project({"service/backoff.py": "x = 1\n"})
        assert (project.resolve_module("repro.service.backoff")
                == "service.backoff")
        assert project.resolve_module("service.backoff") == "service.backoff"
        assert project.resolve_module("other.pkg") is None

    def test_imported_lock_identity_unifies(self):
        project = build_project({
            "app/locks.py": "import threading\nlock = threading.Lock()\n",
            "app/user.py": (
                "from app.locks import lock\n"
                "def f():\n"
                "    with lock:\n"
                "        pass\n"
            ),
        })
        (event,) = project.functions["app.user:f"].lock_events
        assert event.lock == "app.locks:lock"


# -- rule checks ------------------------------------------------------------


class TestConcurrencyRules:
    def test_every_rule_has_selftest_coverage(self):
        from repro.analysis.selftest import (
            CONCURRENCY_BAD_FIXTURES,
            CONCURRENCY_GOOD_FIXTURES,
        )

        bad = {name.split(":", 1)[0] for name in CONCURRENCY_BAD_FIXTURES}
        good = {name.split(":", 1)[0] for name in CONCURRENCY_GOOD_FIXTURES}
        assert bad == set(CONCURRENCY_RULE_IDS)
        assert good == set(CONCURRENCY_RULE_IDS)

    @pytest.mark.parametrize("name", sorted(
        __import__("repro.analysis.selftest", fromlist=["x"])
        .CONCURRENCY_BAD_FIXTURES))
    def test_bad_fixture_fires(self, name):
        from repro.analysis.selftest import CONCURRENCY_BAD_FIXTURES

        rule = name.split(":", 1)[0]
        findings = analyze_sources(CONCURRENCY_BAD_FIXTURES[name])
        assert rule in _rules(findings), f"{name} did not fire {rule}"

    @pytest.mark.parametrize("name", sorted(
        __import__("repro.analysis.selftest", fromlist=["x"])
        .CONCURRENCY_GOOD_FIXTURES))
    def test_good_fixture_silent(self, name):
        from repro.analysis.selftest import CONCURRENCY_GOOD_FIXTURES

        rule = name.split(":", 1)[0]
        findings = analyze_sources(CONCURRENCY_GOOD_FIXTURES[name])
        assert rule not in _rules(findings), f"{name} falsely fired {rule}"

    def test_condition_wait_not_blocking_under_lock(self):
        findings = analyze_sources({
            "app/q.py": (
                "import threading\n"
                "class Q:\n"
                "    def __init__(self):\n"
                "        self._cond = threading.Condition()\n"
                "    def get(self):\n"
                "        with self._cond:\n"
                "            self._cond.wait(0.1)\n"
            ),
        })
        assert "blocking-under-lock" not in _rules(findings)

    def test_finding_keys_are_line_independent(self):
        src = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def leak(self):\n"
            "        self._lock.acquire()\n"
        )
        first = analyze_sources({"app/box.py": src})
        shifted = analyze_sources({"app/box.py": "# comment\n" + src})
        assert [i.key for i in first] == [i.key for i in shifted]
        assert first[0].finding.line != shifted[0].finding.line

    def test_allow_comment_suppresses_concurrency_finding(self):
        findings = analyze_sources({
            "app/box.py": (
                "import threading\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "    def leak(self):\n"
                "        self._lock.acquire()  "
                "# gmap: allow(lock-discipline)\n"
            ),
        })
        assert "lock-discipline" not in _rules(findings)


# -- baseline lifecycle -----------------------------------------------------


def _leak_findings(attr="_lock"):
    return analyze_sources({
        "app/box.py": (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            f"        self.{attr} = threading.Lock()\n"
            "    def leak(self):\n"
            f"        self.{attr}.acquire()\n"
        ),
    })


class TestBaseline:
    def test_add_semantics_unbaselined_is_new(self):
        findings = _leak_findings()
        result = apply_baseline(findings, {})
        assert len(result.new) == 1
        assert result.accepted == []
        assert result.stale_keys == []

    def test_accepted_finding_not_reported(self, tmp_path):
        findings = _leak_findings()
        path = tmp_path / "baseline.json"
        write_baseline(findings, path)
        baseline = load_baseline(path)
        result = apply_baseline(findings, baseline)
        assert result.new == []
        assert len(result.accepted) == 1

    def test_expire_semantics_stale_key_reported(self):
        findings = _leak_findings()
        baseline = {"lock-discipline|gone.mod:f|app.gone:lock": "old"}
        result = apply_baseline(findings, baseline)
        assert len(result.new) == 1
        assert result.stale_keys == [
            "lock-discipline|gone.mod:f|app.gone:lock"]

    def test_write_baseline_carries_reasons_and_drops_stale(self, tmp_path):
        first = _leak_findings()
        path = tmp_path / "baseline.json"
        write_baseline(first, path)
        # Document the acceptance, as a human editing the file would.
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["entries"][0]["reason"] = "deliberate: paired API"
        raw["entries"].append({"key": "lock-discipline|gone:f|x",
                               "reason": "stale"})
        path.write_text(json.dumps(raw), encoding="utf-8")
        previous = load_baseline(path)
        write_baseline(first, path, previous=previous)
        rewritten = load_baseline(path)
        key = first[0].key
        assert rewritten == {key: "deliberate: paired API"}

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"schema_version": 99, "entries": []}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_checked_in_baseline_loads(self):
        baseline = load_baseline(default_baseline_path())
        assert baseline  # non-empty: every entry documents a deliberate one
        for key, reason in baseline.items():
            rule = key.split("|", 1)[0]
            assert rule in CONCURRENCY_RULE_IDS
            assert reason != "accepted"  # every acceptance has a rationale


# -- suppression edge cases -------------------------------------------------


class TestSuppressionEdgeCases:
    def test_multiline_statement_span_covered(self):
        text = (
            "value = call(\n"
            "    1,\n"
            "    2,  # gmap: allow(some-rule)\n"
            "    3,\n"
            ")\n"
        )
        suppressed = collect_suppressions(text)
        # The allow on an argument line covers the whole statement span,
        # including line 1 where findings anchor.
        for line in range(1, 6):
            assert "some-rule" in suppressed.get(line, set()), line

    def test_compound_statement_body_not_covered(self):
        text = (
            "def f():  # gmap: allow(some-rule)\n"
            "    a = 1\n"
            "    b = 2\n"
            "    c = 3\n"
        )
        suppressed = collect_suppressions(text)
        assert "some-rule" in suppressed.get(1, set())
        assert "some-rule" in suppressed.get(2, set())  # line below
        assert 4 not in suppressed  # not the whole function body

    def test_unknown_rule_name_flagged(self):
        findings = lint_source(
            "x = 1  # gmap: allow(no-such-rule)\n", "scratch.py")
        assert [f.rule for f in findings] == ["unknown-suppression"]
        assert "no-such-rule" in findings[0].message

    def test_known_rule_names_not_flagged(self):
        findings = lint_source(
            "x = 1  # gmap: allow(unseeded-random, lock-discipline)\n",
            "scratch.py")
        assert "unknown-suppression" not in {f.rule for f in findings}

    def test_allow_in_string_literal_inert(self):
        # Docstrings and fixture strings mention allow() syntax without
        # meaning it; only real comments count.
        findings = lint_source(
            'text = "x = 1  # gmap: allow(no-such-rule)"\n', "scratch.py")
        assert "unknown-suppression" not in {f.rule for f in findings}
        suppressed = collect_suppressions(
            'text = "# gmap: allow(unseeded-random)"\n')
        assert suppressed == {}

    def test_unknown_suppression_is_itself_suppressible(self):
        findings = lint_source(
            "x = 1  # gmap: allow(no-such-rule, unknown-suppression)\n",
            "scratch.py")
        assert "unknown-suppression" not in {f.rule for f in findings}


# -- SARIF ------------------------------------------------------------------


class TestSarif:
    def test_minimal_shape_and_fingerprint(self):
        findings = [item.finding for item in _leak_findings()]
        payload = json.loads(findings_to_sarif(findings))
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "gmap-check"
        (result,) = run["results"]
        assert result["ruleId"] == "lock-discipline"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "app/box.py"
        assert location["region"]["startLine"] == 6
        fingerprint = result["partialFingerprints"]["gmapFindingKey/v1"]
        assert len(fingerprint) == 32

    def test_fingerprint_stable_across_line_shift(self):
        first = [item.finding for item in _leak_findings()]
        # Same defect, shifted — SARIF fingerprints must match so GitHub
        # tracks the finding across commits.
        sarif_a = json.loads(findings_to_sarif(first))
        shifted = analyze_sources({
            "app/box.py": (
                "# header comment\n"
                "import threading\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "    def leak(self):\n"
                "        self._lock.acquire()\n"
            ),
        })
        sarif_b = json.loads(findings_to_sarif(
            [item.finding for item in shifted]))
        keyfun = (lambda p: p["runs"][0]["results"][0]
                  ["partialFingerprints"]["gmapFindingKey/v1"])
        assert keyfun(sarif_a) == keyfun(sarif_b)

    def test_empty_findings_valid_sarif(self):
        payload = json.loads(findings_to_sarif([]))
        assert payload["runs"][0]["results"] == []


# -- CLI wiring -------------------------------------------------------------


_LEAK_SRC = (
    "import threading\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "    def leak(self):\n"
    "        self._lock.acquire()\n"
)


class TestCli:
    def test_concurrency_finds_leak(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(_LEAK_SRC, encoding="utf-8")
        assert main(["check", str(scratch), "--concurrency"]) == 1
        assert "lock-discipline" in capsys.readouterr().out

    def test_repo_scan_clean_against_baseline(self, capsys):
        # The acceptance gate: the checked-in baseline accepts every
        # deliberate pattern and the tree introduces nothing new.
        assert main(["check", "--lint-only", "--concurrency"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_write_and_enforce_baseline(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(_LEAK_SRC, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(scratch), "--concurrency",
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["check", str(scratch), "--concurrency",
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        # A second defect is *new* relative to the baseline and fails.
        scratch.write_text(
            _LEAK_SRC + "    def leak2(self):\n        self._lock.acquire()\n",
            encoding="utf-8")
        assert main(["check", str(scratch), "--concurrency",
                     "--baseline", str(baseline)]) == 1

    def test_stale_baseline_keys_warn_not_fail(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text("x = 1\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema_version": 1, "tool": "gmap-concurrency",
            "entries": [{"key": "lock-discipline|gone:f|x",
                         "reason": "old"}],
        }), encoding="utf-8")
        assert main(["check", str(scratch), "--concurrency",
                     "--baseline", str(baseline)]) == 0
        captured = capsys.readouterr()
        assert "stale baseline entry" in captured.err

    def test_no_baseline_reports_accepted_findings(self, capsys):
        # Ignoring the baseline must re-surface the documented deliberate
        # patterns — proves the clean run is baseline-driven, not blind.
        from pathlib import Path

        import repro.analysis

        assert main(["check", "--lint-only", "--concurrency",
                     "--no-baseline"]) == 1
        out = capsys.readouterr().out
        baseline = json.loads(
            (Path(repro.analysis.__file__).parent
             / "concurrency_baseline.json").read_text(encoding="utf-8"))
        rules = {entry["key"].split("|")[0] for entry in baseline["entries"]}
        assert rules
        for rule in rules:
            assert rule in out

    def test_sarif_format_end_to_end(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(_LEAK_SRC, encoding="utf-8")
        assert main(["check", str(scratch), "--concurrency",
                     "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {r["ruleId"] for r in payload["runs"][0]["results"]}
        assert "lock-discipline" in rules

    def test_write_baseline_needs_explicit_path_in_default_scope(
            self, capsys):
        # Never silently rewrite the checked-in package baseline.
        assert main(["check", "--lint-only", "--concurrency",
                     "--no-baseline", "--write-baseline"]) == 2
        assert "needs a path" in capsys.readouterr().err
