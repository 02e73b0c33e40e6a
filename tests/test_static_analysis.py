"""Tests for the determinism linter (``gmap check``'s lint pass)."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.analysis import lint_paths
from repro.analysis.engine import EngineConfig, lint_file, lint_source
from repro.analysis.rules import get_rules, rule_ids
from repro.analysis.selftest import run_self_test
from repro.cli import main


def rules_fired(source: str, rel_path: str = "core/mod.py") -> set:
    return {f.rule for f in lint_source(source, rel_path)}


class TestUnseededRandom:
    def test_global_random_calls(self):
        source = "import random\nrandom.seed(1)\nx = random.random()\n"
        assert "unseeded-random" in rules_fired(source)

    def test_from_import_alias(self):
        source = "from random import shuffle as shf\nshf([1, 2])\n"
        assert "unseeded-random" in rules_fired(source)

    def test_numpy_global_and_alias(self):
        source = "import numpy as np\nnp.random.rand(3)\n"
        assert "unseeded-random" in rules_fired(source)

    def test_default_rng_without_seed(self):
        assert "unseeded-random" in rules_fired(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )

    def test_seeded_instances_are_clean(self):
        source = (
            "import random\nimport numpy as np\n"
            "rng = random.Random(1234)\nx = rng.random()\n"
            "gen = np.random.default_rng(7)\n"
        )
        assert "unseeded-random" not in rules_fired(source)

    def test_system_random_flagged(self):
        assert "unseeded-random" in rules_fired(
            "import random\nr = random.SystemRandom()\n"
        )

    def test_unrelated_attribute_chain_is_clean(self):
        # `self.random()` / local objects must not resolve to the module.
        assert rules_fired("class A:\n    def f(self):\n        self.random()\n") == set()


class TestWallClock:
    def test_flagged_inside_sim_paths(self):
        source = "import time\nt = time.time()\n"
        for rel in ("core/x.py", "memsim/x.py", "gpu/deep/x.py"):
            assert "wallclock-in-sim" in rules_fired(source, rel)

    def test_allowed_outside_sim_paths(self):
        source = "import time\nt = time.perf_counter()\n"
        assert "wallclock-in-sim" not in rules_fired(source, "validation/h.py")

    def test_datetime_now(self):
        source = "from datetime import datetime\nd = datetime.now()\n"
        assert "wallclock-in-sim" in rules_fired(source, "core/x.py")


class TestSaltedHash:
    def test_flagged_inside_sim_paths(self):
        source = "def seed(name):\n    return hash(name) | 1\n"
        for rel in ("core/x.py", "memsim/x.py", "gpu/deep/x.py"):
            assert "salted-hash" in rules_fired(source, rel)

    def test_allowed_outside_sim_paths(self):
        source = "key = hash('a')\n"
        assert "salted-hash" not in rules_fired(source, "service/x.py")

    def test_stable_hashes_and_methods_are_clean(self):
        source = (
            "import zlib\n"
            "seed = zlib.crc32(b'L2')\n"
            "def f(table):\n    return table.hash(seed)\n"
        )
        assert "salted-hash" not in rules_fired(source, "memsim/x.py")


class TestUnorderedIteration:
    def test_set_call(self):
        assert "unordered-iteration" in rules_fired(
            "for x in set([3, 1]):\n    pass\n"
        )

    def test_set_literal_and_union(self):
        assert "unordered-iteration" in rules_fired(
            "for x in {1, 2} | set([3]):\n    pass\n"
        )

    def test_comprehension_iterable(self):
        assert "unordered-iteration" in rules_fired(
            "xs = [v for v in set([1, 2])]\n"
        )

    def test_dict_keys(self):
        assert "unordered-iteration" in rules_fired(
            "d = {}\nfor k in d.keys():\n    pass\n"
        )

    def test_sorted_wrapper_is_clean(self):
        assert "unordered-iteration" not in rules_fired(
            "for x in sorted(set([3, 1])):\n    pass\n"
        )

    def test_plain_dict_iteration_is_clean(self):
        assert "unordered-iteration" not in rules_fired(
            "d = {}\nfor k in d:\n    pass\n"
        )


class TestFloatEq:
    def test_non_integral_literal(self):
        assert "float-eq" in rules_fired("def f(x):\n    return x == 0.1\n")

    def test_not_equal(self):
        assert "float-eq" in rules_fired("def f(x):\n    return x != 2.5\n")

    def test_integral_sentinel_is_clean(self):
        assert "float-eq" not in rules_fired(
            "def f(x):\n    return x != 1.0 or x == 0.0\n"
        )

    def test_ordering_comparisons_are_clean(self):
        assert "float-eq" not in rules_fired("def f(x):\n    return x < 0.1\n")


class TestMutableDefault:
    def test_list_literal(self):
        assert "mutable-default" in rules_fired("def f(a=[]):\n    pass\n")

    def test_dict_call_and_kwonly(self):
        assert "mutable-default" in rules_fired(
            "def f(*, a=dict()):\n    pass\n"
        )

    def test_histogram_constructor(self):
        assert "mutable-default" in rules_fired(
            "from repro.core.distributions import Histogram\n"
            "def f(h=Histogram()):\n    pass\n"
        )

    def test_none_default_is_clean(self):
        assert "mutable-default" not in rules_fired("def f(a=None):\n    pass\n")


class TestBareExcept:
    def test_flagged(self):
        assert "bare-except" in rules_fired("try:\n    pass\nexcept:\n    pass\n")

    def test_typed_handler_is_clean(self):
        assert "bare-except" not in rules_fired(
            "try:\n    pass\nexcept ValueError:\n    pass\n"
        )


class TestEnvRead:
    def test_flagged_outside_config_modules(self):
        for source in (
            "import os\nx = os.environ.get('A')\n",
            "import os\nx = os.getenv('A')\n",
            "import os\nx = os.environ['A']\n",
        ):
            assert "env-read" in rules_fired(source, "core/mod.py")

    def test_allowed_in_cli_and_config(self):
        source = "import os\nx = os.environ.get('A')\n"
        for rel in ("cli.py", "memsim/config.py", "core/cache.py",
                    "validation/resilience.py", "conftest.py"):
            assert "env-read" not in rules_fired(source, rel)


class TestSuppressions:
    def test_same_line(self):
        source = (
            "import random\n"
            "x = random.random()  # gmap: allow(unseeded-random)\n"
        )
        assert rules_fired(source) == set()

    def test_line_above(self):
        source = (
            "import random\n"
            "# gmap: allow(unseeded-random)\n"
            "x = random.random()\n"
        )
        assert rules_fired(source) == set()

    def test_multiple_rules_one_comment(self):
        source = (
            "import random\n"
            "def f(a=[]):  # gmap: allow(mutable-default, unseeded-random)\n"
            "    return random.random()\n"
        )
        assert rules_fired(source) == set()

    def test_wrong_rule_id_does_not_suppress(self):
        source = (
            "import random\n"
            "x = random.random()  # gmap: allow(bare-except)\n"
        )
        assert "unseeded-random" in rules_fired(source)


class TestEngine:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", "core/x.py")
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_findings_carry_location(self):
        findings = lint_source(
            "import random\n\nx = random.random()\n", "core/x.py"
        )
        assert findings[0].line == 3
        assert findings[0].path == "core/x.py"

    def test_lint_file_and_directory(self, tmp_path):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\nrandom.seed(0)\n", encoding="utf-8")
        by_file = lint_file(bad, root=tmp_path)
        by_dir = lint_paths([tmp_path])
        assert {f.rule for f in by_file} == {"unseeded-random"}
        assert [f.rule for f in by_dir] == [f.rule for f in by_file]

    def test_rule_registry_has_unique_ids(self):
        ids = [rule.id for rule in get_rules()]
        assert len(ids) == len(set(ids))
        assert set(rule_ids()) == set(ids)


class TestRepoIsClean:
    """The acceptance bar: zero unsuppressed findings on our own sources.

    This is the regression lock for the hazards audit — new hazards anywhere
    in the package fail here before they fail in CI.
    """

    def test_package_sources_lint_clean(self):
        package_root = Path(repro.__file__).parent
        findings = lint_paths([package_root])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_scripts_and_examples_lint_clean(self):
        repo_root = Path(repro.__file__).resolve().parents[2]
        targets = [
            repo_root / name
            for name in ("scripts", "examples", "benchmarks")
            if (repo_root / name).is_dir()
        ]
        findings = lint_paths(targets)
        assert findings == [], "\n".join(f.format() for f in findings)


class TestSelfTest:
    def test_every_rule_fires(self):
        ok, lines = run_self_test()
        assert ok, "\n".join(lines)

    def test_every_registered_rule_has_a_fixture(self):
        from repro.analysis.selftest import LINT_FIXTURES

        assert set(rule_ids()) <= set(LINT_FIXTURES)


class TestCheckCommand:
    def test_clean_repo_exits_zero(self, capsys):
        assert main(["check"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_seeded_rng_violation_json(self, tmp_path, capsys):
        # The acceptance scenario: a scratch module with a seeded-RNG
        # violation produces a nonzero exit and a JSON finding carrying
        # rule id, file, and line.
        scratch = tmp_path / "scratch.py"
        scratch.write_text(
            "import random\n\nvalue = random.random()\n", encoding="utf-8"
        )
        assert main(["check", str(scratch), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "unseeded-random"
        assert finding["path"] == str(scratch)
        assert finding["line"] == 3

    def test_self_test_flag(self, capsys):
        assert main(["check", "--self-test"]) == 0
        assert "all rules fire" in capsys.readouterr().out

    def test_lint_only_skips_verifier(self, tmp_path, capsys):
        bad_profile = tmp_path / "bad.json"
        bad_profile.write_text("{}", encoding="utf-8")
        assert main(["check", "--lint-only", str(bad_profile)]) == 0

    def test_verify_only_skips_linter(self, tmp_path):
        scratch = tmp_path / "scratch.py"
        scratch.write_text("import random\nrandom.random()\n", encoding="utf-8")
        assert main(["check", "--verify-only", str(scratch)]) == 0


class TestEngineConfigScoping:
    def test_custom_sim_prefixes(self):
        config = EngineConfig(sim_path_prefixes=("",))
        findings = lint_source(
            "import time\nt = time.time()\n", "anywhere.py", config=config
        )
        assert {f.rule for f in findings} == {"wallclock-in-sim"}
