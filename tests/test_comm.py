import pytest

from fedlora.comm import (
    PRESETS,
    CommPreset,
    entries_from_transcripts,
    format_gb,
    preset_summary,
    reduction_pct,
)
from fedlora.datasim import PlantedRule, SiteSpec, generate_site
from fedlora.federation import FederationConfig, Strategy, run_federation
from fedlora.model import Backbone, ModelConfig, SgdConfig


class TestReductionPct:
    def test_full_scale_counts(self):
        assert reduction_pct(8_030_261_248, 41_943_040) == 99.48

    def test_no_reduction(self):
        assert reduction_pct(123, 123) == 0.00

    def test_ninety_nine(self):
        assert reduction_pct(100, 1) == 99.00

    def test_lora_larger_than_full_rejected(self):
        with pytest.raises(ValueError):
            reduction_pct(10, 11)


class TestFullModelComparison:
    def full_row(self, clients):
        (row,) = preset_summary(PRESETS["llama3_8b"], rounds=2, site_counts=(clients,))
        assert row["full_params"] == 8_030_261_248
        return row

    def test_per_site_round_is_29_92(self):
        row = self.full_row(2)
        assert row["full_per_site_round_bytes"] == 32_121_044_992
        assert format_gb(row["full_per_site_round_bytes"], 2) == "29.92"

    def test_two_site_total_is_239(self):
        row = self.full_row(2)
        assert row["full_total_bytes"] == 2 * 2 * 2 * 32_121_044_992
        assert format_gb(row["full_total_bytes"], 0) == "239"

    def test_three_site_total_is_359(self):
        row = self.full_row(3)
        assert row["full_total_bytes"] == 2 * 3 * 2 * 32_121_044_992
        assert format_gb(row["full_total_bytes"], 0) == "359"


class TestPresetSummary:
    def test_headline_numbers(self):
        rows = preset_summary(PRESETS["llama3_8b"], rounds=2, site_counts=(2, 3))
        two, three = rows
        assert two["lora_total_bytes"] == 2 * 2 * 2 * 41_943_040 * 4 == 1_342_177_280
        assert two["lora_total_gb"] == "1.25"
        assert three["lora_total_bytes"] == 2_013_265_920
        assert three["lora_total_bytes"] / 2**30 == 1.875
        assert three["lora_total_gb"] == "1.88"
        assert two["full_per_site_round_gb"] == "29.92"
        assert two["full_total_gb"] == "239"
        assert three["full_total_gb"] == "359"
        assert two["reduction_pct"] == 99.48


class TestLedgerFromTranscripts:
    def make_run(self, rounds=2):
        rule = PlantedRule(vocab_size=60)
        cfg = ModelConfig(60, 8, 9, 16, rank=2, alpha=4.0, seed=1)
        sites = [
            generate_site(SiteSpec(f"s{i}", 20, seed=40 + i), rule) for i in range(2)
        ]
        config = FederationConfig(
            Strategy.FEDAVG, 2, rounds, SgdConfig(0.1, 1, 8), seed=5
        )
        return run_federation(config, sites, None, Backbone.build(cfg))

    def test_entry_bytes_are_params_times_bpp(self):
        result = self.make_run()
        entries = entries_from_transcripts(result.transcripts, bytes_per_param=4)
        for entry in entries:
            assert entry.bytes == entry.params * 4

    def test_ledger_conservation(self):
        result = self.make_run()
        entries = entries_from_transcripts(result.transcripts, bytes_per_param=4)
        # 2 rounds x 2 clients x 2 directions, each moving the whole adapter set
        assert len(entries) == 8
        per_move = result.adapters.param_count()
        assert sum(e.params for e in entries) == 8 * per_move
        assert sum(e.bytes for e in entries) == 8 * per_move * 4

    def test_zero_rounds_zero_bytes(self):
        assert entries_from_transcripts([], bytes_per_param=4) == []

    def test_full_model_reference(self):
        # the same movement pattern at full-model size
        result = self.make_run()
        entries = entries_from_transcripts(result.transcripts, bytes_per_param=4)
        preset = CommPreset("toy", 10_000, result.adapters.param_count())
        (full,) = preset_summary(preset, rounds=2, site_counts=(2,))
        assert full["full_total_bytes"] == len(entries) * 10_000 * 4
        assert full["lora_total_bytes"] == sum(e.bytes for e in entries)
        assert reduction_pct(10_000, entries[0].params) == reduction_pct(
            10_000, result.adapters.param_count()
        )


class TestFormatGb:
    def test_half_up_rounding(self):
        assert format_gb(2_013_265_920, 2) == "1.88"  # 1.875 rounds up
        assert format_gb(1_342_177_280, 2) == "1.25"
        assert format_gb(int(239.328 * 2**30), 0) == "239"
