"""Tests for DRAM presets and the experiment registry."""

from __future__ import annotations

import pytest

from repro.memsim.config import PAPER_BASELINE
from repro.memsim.dram import DramModel
from repro.memsim.presets import GDDR3_PAPER, HBM2_LIKE, PRESETS, dram_preset
from repro.validation.experiments import EXPERIMENTS, experiment


class TestDramPresets:
    def test_paper_preset_matches_table2(self):
        assert GDDR3_PAPER == PAPER_BASELINE.dram

    def test_lookup(self):
        assert dram_preset("gddr5").clock_mhz == 1750.0
        with pytest.raises(ValueError, match="unknown DRAM preset"):
            dram_preset("ddr2")

    def test_all_presets_instantiate(self):
        for name, config in PRESETS.items():
            model = DramModel(config, txn_size=128)
            latency = model.access(1000.0, 0)
            assert latency > 0, name

    def test_hbm_has_more_channel_parallelism(self):
        """HBM's 16 channels drain a burst faster than GDDR3's 8."""
        burst = [i * 128 for i in range(64)]
        gddr = DramModel(GDDR3_PAPER, txn_size=128)
        hbm = DramModel(HBM2_LIKE, txn_size=128)
        gddr_lat = max(gddr.access(1000.0, a) for a in burst)
        hbm_lat = max(hbm.access(1000.0, a) for a in burst)
        assert hbm_lat < gddr_lat


class TestExperimentRegistry:
    def test_all_paper_figures_present(self):
        assert set(EXPERIMENTS) == {
            "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig7"}

    def test_fig6e_grid_is_both_policies_in_either_mode(self):
        spec = experiment("fig6e")
        assert spec.metric == "l1_miss_rate"
        for reduced in (True, False):
            assert [c.scheduler for c in spec.configs(reduced=reduced)] == [
                "lrr", "gto"]

    def test_lookup(self):
        spec = experiment("fig6a")
        assert spec.metric == "l1_miss_rate"
        assert spec.paper_error == "5.1%"
        with pytest.raises(ValueError, match="unknown experiment"):
            experiment("fig9")

    def test_configs_reduced_and_full(self):
        spec = experiment("fig6a")
        assert len(spec.configs(reduced=False)) == 30
        assert len(spec.configs(reduced=True)) < 30

    @pytest.mark.parametrize("figure_id", sorted(EXPERIMENTS))
    def test_every_spec_builds_configs(self, figure_id):
        spec = experiment(figure_id)
        configs = spec.configs(reduced=True)
        assert configs
        assert spec.description
        assert spec.figure.startswith("Figure")
