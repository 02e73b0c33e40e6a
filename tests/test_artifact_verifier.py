"""Tests for the statistical-artifact verifier (``gmap check``'s verify pass)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.selftest import _minimal_profile
from repro.analysis.verify import (
    ProfileVerificationError,
    verify_application_payload,
    verify_profile,
    verify_profile_file,
    verify_profile_payload,
    verify_sim_config,
    verify_sweep_configs,
)
from repro.cli import main
from repro.core.miniaturize import miniaturize_profile
from repro.core.profiler import GmapProfiler
from repro.io.profile_io import load_profile, save_profile
from repro.memsim.config import PAPER_BASELINE, CacheConfig
from repro.validation.harness import build_pipeline
from repro.workloads import suite


def rules_for(payload) -> set:
    return {f.rule for f in verify_profile_payload(payload, origin="<test>")}


@pytest.fixture()
def payload():
    return _minimal_profile()


class TestEdgeCases:
    def test_empty_profile(self, payload):
        payload["pi_profiles"] = []
        payload["instructions"] = {}
        assert rules_for(payload) == {"empty-profile"}

    def test_single_pi_profile_is_clean(self, payload):
        # One pi profile with probability exactly 1 is the degenerate but
        # legal case (a kernel with a single dominant execution profile).
        assert len(payload["pi_profiles"]) == 1
        assert rules_for(payload) == set()

    def test_q_off_by_more_than_tolerance(self, payload):
        payload["pi_profiles"][0]["probability"] = 1.0 - 1e-5
        assert rules_for(payload) == {"q-not-normalized"}

    def test_q_within_tolerance_is_clean(self, payload):
        payload["pi_profiles"][0]["probability"] = 1.0 - 1e-7
        assert rules_for(payload) == set()

    def test_q_entry_out_of_range(self, payload):
        payload["pi_profiles"][0]["probability"] = -0.2
        assert "q-out-of-range" in rules_for(payload)

    def test_negative_histogram_bin(self, payload):
        payload["instructions"]["80"]["intra_stride"] = {"4": -1}
        assert rules_for(payload) == {"hist-negative-bin"}

    def test_negative_reuse_bin(self, payload):
        payload["pi_profiles"][0]["reuse"] = {"0": -2}
        assert rules_for(payload) == {"hist-negative-bin"}

    def test_non_numeric_bin(self, payload):
        payload["instructions"]["80"]["inter_stride"] = {"128": "many"}
        assert rules_for(payload) == {"hist-bad-bin"}

    def test_pi_sequence_references_unknown_pc(self, payload):
        payload["pi_profiles"][0]["sequence"] = [80, 4096]
        assert rules_for(payload) == {"pi-unknown-pc"}

    def test_base_misaligned(self, payload):
        payload["instructions"]["80"]["base_address"] = 0x1000_0001
        assert rules_for(payload) == {"base-misaligned"}

    def test_negative_base(self, payload):
        payload["instructions"]["80"]["base_address"] = -128
        assert rules_for(payload) == {"base-misaligned"}

    def test_reuse_fraction_out_of_range(self, payload):
        payload["pi_profiles"][0]["reuse_fraction"] = 2.0
        assert rules_for(payload) == {"reuse-fraction-range"}

    def test_miniaturized_reuse_support_exceeds_sequence(self, payload):
        payload["scale_factor"] = 8.0
        payload["pi_profiles"][0]["reuse"] = {"50": 1}
        assert rules_for(payload) == {"reuse-exceeds-sequence"}

    def test_unminiaturized_long_reuse_is_legal(self, payload):
        # Without miniaturization the sequence is not truncated, so a long
        # reuse distance only means the pi sequence repeats per unit.
        payload["pi_profiles"][0]["reuse"] = {"50": 1}
        assert rules_for(payload) == set()

    def test_coalescing_degree_below_one(self, payload):
        payload["instructions"]["80"]["txns_per_access"] = {"0": 4}
        assert rules_for(payload) == {"txns-nonpositive"}

    def test_negative_totals(self, payload):
        payload["total_transactions"] = -5
        payload["instructions"]["80"]["dynamic_count"] = -1
        assert rules_for(payload) == {"negative-count"}


class TestApplicationPayload:
    def test_empty_application(self):
        assert {
            f.rule
            for f in verify_application_payload({"kernels": []}, "<test>")
        } == {"empty-profile"}

    def test_kernel_findings_carry_kernel_origin(self, payload):
        payload["pi_profiles"][0]["probability"] = 0.5
        findings = verify_application_payload(
            {"name": "app", "kernels": [payload]}, "app.json"
        )
        assert findings[0].rule == "q-not-normalized"
        assert "app.json::fixture" in findings[0].path


class TestSimConfig:
    def test_paper_baseline_is_clean(self):
        assert verify_sim_config(PAPER_BASELINE) == []

    def test_non_power_of_two_associativity(self):
        config = PAPER_BASELINE.with_(
            l1=CacheConfig(size=1536, assoc=3, line_size=128)
        )
        findings = verify_sim_config(config, origin="sweep[3]")
        assert [f.rule for f in findings] == ["config-assoc-pow2"]
        assert findings[0].path == "sweep[3].l1"

    def test_texture_cache_odd_ways_not_flagged(self):
        # Fermi's 12KB 24-way texture cache is legitimate; only the main
        # data caches are held to power-of-two associativity.
        assert PAPER_BASELINE.texture_cache.assoc == 24
        assert verify_sim_config(PAPER_BASELINE) == []

    def test_sweep_helper_labels_by_index(self):
        bad = PAPER_BASELINE.with_(
            l1=CacheConfig(size=1536, assoc=3, line_size=128)
        )
        findings = verify_sweep_configs([PAPER_BASELINE, bad], origin="fig6a")
        assert [f.path for f in findings] == ["fig6a[1].l1"]

    def test_experiment_sweeps_are_clean(self):
        from repro.validation.experiments import EXPERIMENTS

        for name, spec in EXPERIMENTS.items():
            assert verify_sweep_configs(spec.configs(reduced=True), name) == []


class TestConfigConstructorRegression:
    """Regressions for the validation gaps the verifier work surfaced:
    these used to construct silently and fail (or corrupt time) mid-sweep.
    """

    def test_zero_mshrs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="MSHR"):
            CacheConfig(size=16 * 1024, assoc=4, line_size=128, mshrs=0)

    def test_negative_hit_latency_rejected(self):
        with pytest.raises(ValueError, match="hit latency"):
            CacheConfig(size=16 * 1024, assoc=4, line_size=128, hit_latency=-5)


class TestRealProfiles:
    def test_profiled_kernel_is_clean(self):
        profile = GmapProfiler().profile(suite.make("vectoradd", scale="tiny"))
        assert verify_profile(profile) == []

    def test_miniaturized_profile_is_clean(self):
        profile = GmapProfiler().profile(suite.make("kmeans", scale="tiny"))
        for thin in (True, False):
            mini = miniaturize_profile(profile, 8.0, thin_statistics=thin)
            findings = verify_profile(mini)
            assert findings == [], (thin, [f.format() for f in findings])

    def test_miniaturize_clips_reuse_support_without_thinning(self):
        # Regression: thin_statistics=False used to skip the structural
        # reuse-distance clip, leaving lookbacks beyond the truncated
        # sequence that the generator could never satisfy.
        profile = GmapProfiler().profile(suite.make("kmeans", scale="tiny"))
        mini = miniaturize_profile(profile, 8.0, thin_statistics=False)
        for pi in mini.pi_profiles:
            if pi.reuse.empty:
                continue
            assert max(pi.reuse.support()) <= max(0, len(pi.sequence) - 1)

    def test_obfuscated_profile_stays_clean(self):
        profile = GmapProfiler().profile(suite.make("vectoradd", scale="tiny"))
        assert verify_profile(profile.obfuscated()) == []


class TestFileAndLoaderIntegration:
    def make_bad_file(self, tmp_path, mutate):
        payload = _minimal_profile()
        mutate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_verify_profile_file_reports_rules(self, tmp_path):
        path = self.make_bad_file(
            tmp_path,
            lambda p: p["pi_profiles"][0].update(probability=0.5),
        )
        findings = verify_profile_file(path)
        assert [f.rule for f in findings] == ["q-not-normalized"]
        assert findings[0].path == str(path)

    def test_verify_profile_file_corrupt_checksum(self, tmp_path):
        profile = GmapProfiler().profile(suite.make("vectoradd", scale="tiny"))
        path = tmp_path / "p.json"
        save_profile(profile, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"name": "vectoradd"',
                                     '"name": "tampered"'), encoding="utf-8")
        findings = verify_profile_file(path)
        assert [f.rule for f in findings] == ["corrupt-artifact"]

    def test_load_profile_verify_flag(self, tmp_path):
        path = self.make_bad_file(
            tmp_path,
            lambda p: p["pi_profiles"][0].update(probability=0.5),
        )
        load_profile(path)  # default: loads, statistics caveat emptor
        with pytest.raises(ProfileVerificationError) as err:
            load_profile(path, verify=True)
        assert any(f.rule == "q-not-normalized" for f in err.value.findings)

    def test_cli_check_bad_profile_json(self, tmp_path, capsys):
        # Acceptance: an injected un-normalized-Q fixture exits nonzero
        # with a JSON finding carrying the rule id and file.
        path = self.make_bad_file(
            tmp_path,
            lambda p: p["pi_profiles"][0].update(probability=0.5),
        )
        assert main(["check", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert finding["rule"] == "q-not-normalized"
        assert finding["path"] == str(path)
        assert finding["source"] == "verify"

    def test_cli_generate_refuses_bad_profile(self, tmp_path, capsys):
        path = self.make_bad_file(
            tmp_path,
            lambda p: p["pi_profiles"][0].update(probability=0.5),
        )
        code = main(["generate", str(path), "-o", str(tmp_path / "o.trace")])
        assert code == 1
        assert "fails verification" in capsys.readouterr().err
        assert not (tmp_path / "o.trace").exists()

    def test_cli_generate_accepts_good_profile(self, tmp_path):
        profile_path = tmp_path / "p.json"
        assert main(["profile", "vectoradd", "--scale", "tiny",
                     "-o", str(profile_path)]) == 0
        assert main(["generate", str(profile_path),
                     "-o", str(tmp_path / "o.trace")]) == 0


class TestPipelineGate:
    def test_build_pipeline_rejects_malformed_profile(self):
        class BrokenProfiler(GmapProfiler):
            def profile(self, kernel, **kwargs):
                profile = super().profile(kernel, **kwargs)
                broken = copy.deepcopy(profile)
                broken.pi_profiles[0].probability = 0.25
                return broken

        kernel = suite.make("vectoradd", scale="tiny")
        with pytest.raises(ProfileVerificationError):
            build_pipeline(kernel, num_cores=2, profiler=BrokenProfiler())

    def test_build_pipeline_verify_can_be_disabled(self):
        class BrokenProfiler(GmapProfiler):
            def profile(self, kernel, **kwargs):
                profile = super().profile(kernel, **kwargs)
                broken = copy.deepcopy(profile)
                broken.pi_profiles[0].probability = 0.25
                return broken

        kernel = suite.make("vectoradd", scale="tiny")
        pipeline = build_pipeline(
            kernel, num_cores=2, profiler=BrokenProfiler(), verify=False
        )
        assert pipeline.profile.pi_profiles[0].probability == 0.25


class TestBarrierPcInPiSequences:
    """``SYNC_PC`` flows through π sequences with no entry in B, by design."""

    def test_sync_pc_is_not_an_unknown_pc(self, payload):
        payload["pi_profiles"][0]["sequence"] = [80, -1, 80]
        assert rules_for(payload) == set()

    def test_unknown_pc_still_fires_next_to_sync_pc(self, payload):
        payload["pi_profiles"][0]["sequence"] = [80, -1, 999]
        assert rules_for(payload) == {"pi-unknown-pc"}

    @pytest.mark.parametrize("name", ["histogram_shared", "matmul_shared",
                                      "pathfinder", "reduction"])
    def test_barrier_kernels_build_verified(self, name):
        kernel = suite.make(name, scale="tiny")
        pipeline = build_pipeline(kernel, num_cores=4, verify=True)
        assert any(-1 in pi.sequence for pi in pipeline.profile.pi_profiles)
