"""Tests for the gmap command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.io.profile_io import load_profile
from repro.io.trace_io import load_warp_traces


class TestList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kmeans" in out
        assert "ispass" in out
        assert "18-benchmark" in out


class TestProfileCommand:
    def test_profile_benchmark(self, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        assert main(["profile", "vectoradd", "--scale", "tiny",
                     "-o", str(out_path)]) == 0
        profile = load_profile(out_path)
        assert profile.name == "vectoradd"
        assert "pi profiles" in capsys.readouterr().out

    def test_profile_obfuscated(self, tmp_path):
        plain_path = tmp_path / "plain.json"
        hidden_path = tmp_path / "hidden.json"
        main(["profile", "vectoradd", "--scale", "tiny", "-o", str(plain_path)])
        main(["profile", "vectoradd", "--scale", "tiny", "--obfuscate",
              "-o", str(hidden_path)])
        plain = load_profile(plain_path)
        hidden = load_profile(hidden_path)
        assert plain.instructions[0x50].base_address != \
            hidden.instructions[0x50].base_address

    def test_profile_thread_granularity(self, tmp_path):
        out_path = tmp_path / "p.json"
        main(["profile", "vectoradd", "--scale", "tiny", "--no-coalescing",
              "-o", str(out_path)])
        assert load_profile(out_path).unit == "thread"

    def test_profile_from_trace_file(self, tmp_path):
        trace_path = tmp_path / "w.trace"
        profile_path = tmp_path / "p.json"
        main(["profile", "vectoradd", "--scale", "tiny",
              "-o", str(tmp_path / "tmp.json")])
        # Build a trace via generate, then profile it back.
        main(["generate", str(tmp_path / "tmp.json"), "-o", str(trace_path)])
        assert main(["profile", str(trace_path), "-o", str(profile_path)]) == 0
        assert load_profile(profile_path).num_instructions >= 1


class TestGenerateCommand:
    def test_generate(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        trace_path = tmp_path / "c.trace"
        main(["profile", "vectoradd", "--scale", "tiny", "-o", str(profile_path)])
        assert main(["generate", str(profile_path), "-o", str(trace_path)]) == 0
        traces = load_warp_traces(trace_path)
        assert traces
        assert "generated" in capsys.readouterr().out

    def test_generate_miniaturized(self, tmp_path):
        profile_path = tmp_path / "p.json"
        main(["profile", "vectoradd", "--scale", "tiny", "-o", str(profile_path)])
        full_path = tmp_path / "full.trace"
        small_path = tmp_path / "small.trace"
        main(["generate", str(profile_path), "-o", str(full_path)])
        main(["generate", str(profile_path), "--factor", "4",
              "-o", str(small_path)])
        full = sum(len(t.transactions) for t in load_warp_traces(full_path))
        small = sum(len(t.transactions) for t in load_warp_traces(small_path))
        assert small < full / 3


class TestSimulateCommand:
    def test_simulate_benchmark(self, capsys):
        assert main(["simulate", "vectoradd", "--scale", "tiny",
                     "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "L1 miss rate" in out
        assert "DRAM" in out

    def test_simulate_with_overrides(self, capsys):
        assert main(["simulate", "aes", "--scale", "tiny", "--cores", "4",
                     "--l1", "65536,8,128", "--scheduler", "gto",
                     "--dram-preset", "hbm2-like"]) == 0
        assert "L1 miss rate" in capsys.readouterr().out

    def test_simulate_bad_cache_spec(self):
        with pytest.raises(SystemExit, match="bad cache spec"):
            main(["simulate", "aes", "--scale", "tiny", "--l1", "banana"])

    def test_sweep_applies_overrides_to_every_point(self, tmp_path, capsys):
        import dataclasses
        import json

        from repro.core.cache import config_fingerprint
        from repro.memsim.presets import dram_preset
        from repro.validation.sweeps import l1_sweep

        base = ["simulate", "vectoradd", "--scale", "tiny", "--cores", "4",
                "--backend", "python", "--sweep", "l1"]
        out = tmp_path / "sweep.json"
        assert main(base + ["--dram-preset", "hbm2-like",
                            "--l2", "524288,8,128", "--out", str(out)]) == 0
        overridden = capsys.readouterr().out
        expected = [
            config_fingerprint(config.with_(
                num_cores=4, dram=dram_preset("hbm2-like"),
                l2=dataclasses.replace(config.l2, size=524288, assoc=8,
                                       line_size=128)))
            for config in l1_sweep(reduced=True)
        ]
        report = json.loads(out.read_text())
        assert [entry["config"] for entry in report["results"]] == expected
        assert main(base) == 0
        assert capsys.readouterr().out != overridden.replace(
            f"wrote {out}\n", "")

    @pytest.mark.parametrize("argv, flag", [
        (["--sweep", "l1", "--l1", "65536,8,128"], "--l1"),
        (["--sweep", "l2", "--l2", "524288,8,128"], "--l2"),
        (["--flat", "--scheduler", "gto"], "--scheduler"),
        (["--analytic", "--scheduler", "gto"], "--scheduler"),
        (["--sweep", "l1", "--scheduler", "gto"], "--scheduler"),
    ], ids=["l1-sweep-l1", "l2-sweep-l2", "flat-scheduler",
            "analytic-scheduler", "sweep-scheduler"])
    def test_refuses_an_override_the_mode_drops(self, argv, flag, capsys):
        assert main(["simulate", "vectoradd", "--scale", "tiny",
                     "--cores", "4"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot be combined" in captured.err
        assert flag in captured.err

    def test_simulate_trace_file(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        trace_path = tmp_path / "c.trace"
        main(["profile", "vectoradd", "--scale", "tiny", "-o", str(profile_path)])
        main(["generate", str(profile_path), "-o", str(trace_path)])
        assert main(["simulate", str(trace_path), "--cores", "4"]) == 0
        assert "requests" in capsys.readouterr().out


class TestInspectCommand:
    def test_inspect_summarises_profile(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        main(["profile", "kmeans", "--scale", "tiny", "-o", str(profile_path)])
        capsys.readouterr()
        assert main(["inspect", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "pi profiles: 1" in out
        assert "0xe8" in out
        assert "4352" in out     # Table 1's dominant inter-warp stride
        assert "high" in out     # reuse class

    def test_inspect_top_limits_rows(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        main(["profile", "blackscholes", "--scale", "tiny",
              "-o", str(profile_path)])
        capsys.readouterr()
        main(["inspect", str(profile_path), "--top", "1"])
        out = capsys.readouterr().out
        pcs = [l for l in out.splitlines() if l.strip().startswith("0x")]
        assert len(pcs) == 1


class TestDiffCommand:
    def test_self_diff_is_zero(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["profile", "kmeans", "--scale", "tiny", "-o", str(path)])
        capsys.readouterr()
        assert main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "inter_stride     0.0000" in out
        assert "only in A: 0" in out

    def test_clone_round_trip_diff_small(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        trace = tmp_path / "c.trace"
        b = tmp_path / "b.json"
        main(["profile", "kmeans", "--scale", "tiny", "-o", str(a)])
        main(["generate", str(a), "-o", str(trace)])
        main(["profile", str(trace), "-o", str(b)])
        capsys.readouterr()
        main(["diff", str(a), str(b)])
        out = capsys.readouterr().out
        # Regenerated statistics must be close to the source profile's.
        import re
        values = {
            m.group(1): float(m.group(2))
            for m in re.finditer(r"(\w+)\s+(\d\.\d{4})", out)
        }
        assert values["inter_stride"] < 0.1
        assert values["txns_per_access"] < 0.1


class TestApplicationProfiles:
    def test_list_shows_applications(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "srad_app" in out
        assert "multi-kernel application" in out

    def test_profile_application(self, tmp_path, capsys):
        path = tmp_path / "app.json"
        assert main(["profile", "srad_app", "--scale", "tiny",
                     "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 kernels" in out
        from repro.io.profile_io import load_application_profile
        profile = load_application_profile(path)
        assert [p.name for p in profile.kernel_profiles] == ["srad1", "srad2"]

    def test_profile_application_obfuscated(self, tmp_path):
        plain = tmp_path / "plain.json"
        hidden = tmp_path / "hidden.json"
        main(["profile", "srad_app", "--scale", "tiny", "-o", str(plain)])
        main(["profile", "srad_app", "--scale", "tiny", "--obfuscate",
              "-o", str(hidden)])
        from repro.io.profile_io import load_application_profile
        a = load_application_profile(plain)
        b = load_application_profile(hidden)
        assert a.kernel_profiles[0].instructions[0x250].base_address != \
            b.kernel_profiles[0].instructions[0x250].base_address


class TestValidateCommand:
    def test_validate_reduced(self, capsys):
        assert main(["validate", "fig6a", "--benchmarks", "vectoradd",
                     "--scale", "tiny", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "vectoradd" in out
        assert "AVERAGE" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "fig99"])

    def test_validate_fig6e_runs_both_policies(self, capsys):
        assert main(["validate", "fig6e", "--benchmarks", "vectoradd",
                     "--scale", "tiny", "--cores", "4", "--no-cache",
                     "--no-journal"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6e" in out
        assert "2 configs x 1 benchmarks" in out

    def test_workers_alias_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "fig6a", "--benchmarks", "vectoradd",
                  "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestTypedErrors:
    """Operator mistakes exit code 2 with a one-line typed error — a
    traceback from ``gmap`` always means a bug, never a bad input."""

    def test_nonexistent_profile_path(self, capsys):
        assert main(["inspect", "/no/such/profile.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gmap inspect: error [invalid_request]")
        assert "Traceback" not in err

    def test_malformed_profile_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json at all")
        assert main(["inspect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error [invalid_request]" in err
        assert "Traceback" not in err

    def test_unknown_benchmark_name(self, capsys):
        assert main(["simulate", "definitely_not_a_benchmark"]) == 2
        err = capsys.readouterr().err
        assert "error [invalid_request]" in err
        assert "unknown benchmark" in err

    def test_corrupt_npz_trace_is_typed(self, tmp_path, capsys):
        pytest.importorskip("numpy", exc_type=ImportError)
        corrupt = tmp_path / "bad.trace.npz"
        corrupt.write_bytes(b"PK\x03\x04 this is not a real zip")
        assert main(["simulate", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert "error [corrupt_artifact]" in err

    def test_generate_from_missing_profile(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "ghost.json"),
                     "-o", str(tmp_path / "out.trace")]) == 2
        assert "error [invalid_request]" in capsys.readouterr().err

    def test_locked_journal_is_typed_rejected(self, tmp_path, capsys):
        from repro.validation.resilience import RunJournal

        holder = RunJournal("cli-lock", tmp_path)
        holder.acquire_lock()
        try:
            code = main([
                "validate", "fig6a", "--benchmarks", "vectoradd",
                "--scale", "tiny", "--no-cache",
                "--journal-dir", str(tmp_path), "--run-id", "cli-lock",
            ])
        finally:
            holder.release_lock()
        assert code == 2
        assert "error [rejected]" in capsys.readouterr().err

    def test_bench_serve_subcommand_removed(self, capsys):
        """Its gates are chaos scenarios (replica_kill, fleet_saturation)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-serve", "--smoke"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_subcommand_is_wired(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--queue-capacity" in out
        assert "--drain-timeout" in out
