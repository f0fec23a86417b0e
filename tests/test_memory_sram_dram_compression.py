"""Tests for DRAM bandwidth and energy, zero compression and traffic counting."""

import numpy as np
import pytest

from repro.core.config import MemoryConfig
from repro.energy import EnergyAccountant
from repro.energy.energy_model import DRAM_PJ_PER_BYTE
from repro.memory.compression import RUN_BYTES, CompressingDMA
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.traffic import MemoryTraffic, TrafficCounter


class TestDRAM:
    def test_peak_bandwidth(self):
        memory = MemoryConfig(dram_channels=4, dram_mts=3200)
        assert memory.peak_dram_bandwidth_gbps == pytest.approx(4 * 3200e6 * 4 / 1e9)

    def test_transfer_accumulates_bytes_and_energy(self):
        traffic = MemoryTraffic(dram_bytes=1000) + MemoryTraffic(dram_bytes=500)
        assert traffic.dram_bytes == 1500
        energy = EnergyAccountant().baseline_energy(0, traffic).dram_pj
        assert energy == pytest.approx(1500 * DRAM_PJ_PER_BYTE)

    def test_latency_scales_with_bytes(self):
        hierarchy = MemoryHierarchy.table2()

        def cycles(num_bytes):
            traffic = MemoryTraffic(dram_bytes=num_bytes)
            return hierarchy.constrain(0, traffic, 500).dram_cycles

        assert cycles(10240) == cycles(1024) * 10


class TestCompressingDMA:
    def test_compression_ratio_tracks_sparsity(self):
        rng = np.random.default_rng(1)
        dma = CompressingDMA(value_bytes=4)
        ratios = []
        for sparsity in (0.0, 0.5, 0.9):
            tensor = rng.normal(size=(64, 64))
            tensor[rng.random(tensor.shape) < sparsity] = 0.0
            ratios.append(dma.compressed_size(tensor).ratio)
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert ratios[2] > 5.0

    def test_dense_tensor_does_not_inflate_meaningfully(self):
        dma = CompressingDMA(value_bytes=4)
        result = dma.compressed_size(np.ones((32, 32)))
        assert result.compressed_bytes <= result.dense_bytes + RUN_BYTES


class TestTrafficCounter:
    def _operands(self, sparsity):
        rng = np.random.default_rng(3)
        activations = rng.normal(size=(8, 16, 8, 8)).astype(np.float32)
        activations[rng.random(activations.shape) < sparsity] = 0.0
        weights = rng.normal(size=(32, 16, 3, 3)).astype(np.float32)
        return {"A": activations, "W": weights}

    def test_compression_reduces_dram_bytes(self):
        dense_counter = TrafficCounter(compress_offchip=False)
        compressed_counter = TrafficCounter(compress_offchip=True)
        operands = self._operands(sparsity=0.7)
        dense = dense_counter.operation_traffic(operands, outputs_size=1024)
        compressed = compressed_counter.operation_traffic(operands, outputs_size=1024)
        assert compressed.dram_bytes < dense.dram_bytes

    def test_scheduled_onchip_reduces_sram_bytes(self):
        plain = TrafficCounter(scheduled_onchip=False)
        scheduled = TrafficCounter(scheduled_onchip=True)
        operands = self._operands(sparsity=0.7)
        assert (
            scheduled.operation_traffic(operands, 1024).sram_bytes
            < plain.operation_traffic(operands, 1024).sram_bytes
        )

    def test_traffic_addition_and_scaling(self):
        traffic = MemoryTraffic(dram_bytes=100, sram_bytes=200, scratchpad_bytes=300)
        doubled = traffic + traffic
        assert doubled.dram_bytes == 200
        scaled = traffic.scaled(2.5)
        assert scaled.sram_bytes == 500

    def test_scaled_rounds_instead_of_truncating(self):
        # Regression: int() used to floor every count, so extrapolating
        # sampled streams systematically undercounted traffic.
        traffic = MemoryTraffic(dram_bytes=999, sram_bytes=1001, scratchpad_bytes=3)
        scaled = traffic.scaled(1.0 / 3.0)
        assert scaled.dram_bytes == 333
        assert scaled.sram_bytes == 334   # 333.67 rounds up, not down
        assert scaled.scratchpad_bytes == 1
        up = MemoryTraffic(dram_bytes=7, sram_bytes=0, scratchpad_bytes=0).scaled(1.99)
        assert up.dram_bytes == 14        # 13.93 -> 14, int() would give 13

    def test_scaled_round_trip_error_is_bounded(self):
        traffic = MemoryTraffic(dram_bytes=12345, sram_bytes=67891, scratchpad_bytes=11)
        for factor in (0.1, 1.5, 3.1415):
            scaled = traffic.scaled(factor)
            assert abs(scaled.dram_bytes - traffic.dram_bytes * factor) <= 0.5
            assert abs(scaled.sram_bytes - traffic.sram_bytes * factor) <= 0.5

    def test_bfloat16_traffic_is_half_of_fp32(self):
        operands = self._operands(sparsity=0.0)
        fp32 = TrafficCounter(value_bytes=4, compress_offchip=False)
        bf16 = TrafficCounter(value_bytes=2, compress_offchip=False)
        assert (
            bf16.operation_traffic(operands, 0).dram_bytes
            == fp32.operation_traffic(operands, 0).dram_bytes // 2
        )
