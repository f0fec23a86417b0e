"""Tests for the Table 2 configuration dataclasses."""

import pytest

from repro.core.config import (
    AcceleratorConfig,
    MemoryConfig,
    PEConfig,
    TileConfig,
    bfloat16_config,
    paper_default_config,
)


class TestPEConfig:
    def test_defaults_match_table2(self):
        config = PEConfig()
        assert config.lanes == 16
        assert config.staging_depth == 3
        assert config.datatype == "fp32"
        assert config.lookahead == 2
        assert config.value_bits == 32
        assert config.max_speedup == 3.0

    def test_bfloat16_width(self):
        assert PEConfig(datatype="bfloat16").value_bits == 16

    def test_rejects_bad_lanes(self):
        with pytest.raises(ValueError):
            PEConfig(lanes=0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            PEConfig(staging_depth=0)

    def test_rejects_unknown_datatype(self):
        with pytest.raises(ValueError):
            PEConfig(datatype="int4")


class TestTileConfig:
    def test_defaults_match_table2(self):
        config = TileConfig()
        assert config.rows == 4
        assert config.columns == 4
        assert config.pes == 16

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TileConfig(rows=0)


class TestAcceleratorConfig:
    def test_defaults_match_table2(self):
        config = paper_default_config()
        assert config.num_tiles == 16
        assert config.total_pes == 256
        assert config.macs_per_cycle == 4096
        assert config.frequency_mhz == 500
        assert config.cycle_time_ns == pytest.approx(2.0)

    def test_memory_defaults_match_table2(self):
        memory = MemoryConfig()
        assert memory.am_kb_per_bank == 256
        assert memory.banks_per_tile == 4
        assert memory.scratchpad_banks == 3
        assert memory.dram_channels == 4
        assert memory.dram_mts == 3200
        assert memory.on_chip_kb_per_tile == 3 * 256 * 4

    def test_bfloat16_variant(self):
        config = bfloat16_config()
        assert config.pe.datatype == "bfloat16"
        assert config.macs_per_cycle == 4096

    def test_with_pe_override(self):
        config = paper_default_config().with_pe(staging_depth=2)
        assert config.pe.staging_depth == 2
        assert config.pe.lanes == 16

    def test_with_tile_override(self):
        config = paper_default_config().with_tile(rows=8)
        assert config.tile.rows == 8
        assert config.tile.columns == 4
        assert config.total_pes == 16 * 8 * 4

    def test_describe_is_informative(self):
        text = paper_default_config().describe()
        assert "fp32" in text
        assert "500 MHz" in text

    def test_rejects_bad_tiles(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_tiles=0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(frequency_mhz=0)
