"""Off-chip DRAM: peak bandwidth, transfer time and energy.

Peak bandwidth is :attr:`repro.core.config.MemoryConfig.peak_dram_bandwidth_gbps`.
It grounds :meth:`repro.memory.hierarchy.MemoryHierarchy.table2`, whose
DRAM cycles are each operation's transfer time, and DRAM energy is the
:class:`repro.energy.EnergyAccountant`'s per-byte charge.  Their
arithmetic is pinned down here.
"""

import pytest

from repro.core.config import AcceleratorConfig, MemoryConfig
from repro.energy import EnergyAccountant
from repro.energy.energy_model import DRAM_PJ_PER_BYTE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.traffic import MemoryTraffic

FREQUENCY_MHZ = 500


def dram_cycles(num_bytes, channels=4):
    """Accelerator cycles the Table 2 hierarchy charges to move the bytes."""
    config = AcceleratorConfig(memory=MemoryConfig(dram_channels=channels))
    verdict = MemoryHierarchy.table2(config).constrain(
        0, MemoryTraffic(dram_bytes=num_bytes), FREQUENCY_MHZ
    )
    return verdict.dram_cycles


def dram_energy_pj(traffic):
    return EnergyAccountant().baseline_energy(0, traffic).dram_pj


class TestBandwidth:
    def test_table2_peak_bandwidth(self):
        # 4-channel LPDDR4-3200, 32-bit bus: 4 * 3200e6 * 4 B = 51.2 GB/s.
        assert MemoryConfig().peak_dram_bandwidth_gbps == pytest.approx(51.2)

    def test_bandwidth_scales_with_channels_and_rate(self):
        one = MemoryConfig(dram_channels=1).peak_dram_bandwidth_gbps
        four = MemoryConfig(dram_channels=4).peak_dram_bandwidth_gbps
        assert four == pytest.approx(4 * one)
        slow = MemoryConfig(dram_mts=1600).peak_dram_bandwidth_gbps
        assert MemoryConfig(dram_mts=3200).peak_dram_bandwidth_gbps == pytest.approx(2 * slow)

    def test_rejects_nonpositive_channels(self):
        with pytest.raises(ValueError, match="dram_channels"):
            MemoryConfig(dram_channels=0).peak_dram_bandwidth_gbps


class TestTransferLatency:
    def test_latency_is_bytes_over_peak_bandwidth(self):
        # 51200 B at 51.2 GB/s = 1 microsecond = 500 cycles at 500 MHz.
        assert dram_cycles(51_200) == 500

    def test_zero_byte_transfer_has_zero_latency_and_energy(self):
        assert dram_cycles(0) == 0
        assert dram_energy_pj(MemoryTraffic()) == 0.0

    def test_latency_linear_in_bytes(self):
        assert dram_cycles(3072) == 3 * dram_cycles(1024)

    def test_fewer_channels_mean_proportionally_longer_latency(self):
        wide = dram_cycles(4096, channels=4)
        narrow = dram_cycles(4096, channels=1)
        assert narrow == 4 * wide


class TestTransferEnergy:
    def test_energy_is_pj_per_byte(self):
        energy = dram_energy_pj(MemoryTraffic(dram_bytes=1000))
        assert energy == pytest.approx(1000 * DRAM_PJ_PER_BYTE)
