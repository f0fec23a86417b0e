"""Tests for the DRAM model, zero compression and traffic counting."""

import numpy as np
import pytest

from repro.memory.compression import (
    CompressingDMA,
    run_length_decode,
    run_length_encode,
)
from repro.memory.dram import DRAMModel
from repro.memory.traffic import MemoryTraffic, TrafficCounter


class TestDRAM:
    def test_peak_bandwidth(self):
        dram = DRAMModel(channels=4, mts=3200, bus_bits=32)
        assert dram.peak_bandwidth_gbps == pytest.approx(4 * 3200e6 * 4 / 1e9)

    def test_transfer_accumulates_bytes_and_energy(self):
        dram = DRAMModel()
        dram.transfer(1000)
        dram.transfer(500, write=True)
        assert dram.bytes_read == 1000
        assert dram.bytes_written == 500
        assert dram.total_bytes == 1500
        assert dram.energy_pj == pytest.approx(1500 * dram.pj_per_byte)

    def test_latency_scales_with_bytes(self):
        dram = DRAMModel()
        small = dram.transfer(1000).latency_ns
        large = dram.transfer(10000).latency_ns
        assert large == pytest.approx(small * 10)

    def test_reset(self):
        dram = DRAMModel()
        dram.transfer(100)
        dram.reset()
        assert dram.total_bytes == 0
        assert dram.energy_pj == 0.0

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            DRAMModel().transfer(-1)


class TestRunLengthCoding:
    def test_roundtrip_random_sparse(self):
        rng = np.random.default_rng(0)
        for sparsity in (0.0, 0.5, 0.95, 1.0):
            values = rng.normal(size=200)
            values[rng.random(200) < sparsity] = 0.0
            encoded = run_length_encode(values)
            assert np.allclose(run_length_decode(encoded, 200), values)

    def test_all_zero_stream_encodes_compactly(self):
        encoded = run_length_encode(np.zeros(100))
        assert len(encoded) == 1

    def test_long_zero_runs_chunked_at_max_run(self):
        encoded = run_length_encode(np.zeros(600), max_run=255)
        assert len(encoded) == 3

    def test_decode_rejects_overflow(self):
        with pytest.raises(ValueError):
            run_length_decode([(0, 1.0), (0, 2.0)], total=1)


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
        assert result.compressed_bytes <= result.dense_bytes + dma.run_bytes

    def test_compress_decompress_roundtrip(self):
        rng = np.random.default_rng(2)
        dma = CompressingDMA()
        tensor = rng.normal(size=(8, 16))
        tensor[rng.random(tensor.shape) < 0.6] = 0.0
        encoded, _ = dma.compress(tensor)
        assert np.allclose(dma.decompress(encoded, tensor.shape), tensor)


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
