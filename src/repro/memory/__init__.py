"""Memory-hierarchy models: DRAM, zero compression, traffic counting, and
the bandwidth/capacity performance model (:mod:`repro.memory.hierarchy`)
the cycle simulator enforces."""

from repro.memory.dram import DRAMModel
from repro.memory.compression import (
    CompressingDMA,
    run_length_encode,
    run_length_decode,
)
from repro.memory.traffic import TrafficCounter, MemoryTraffic
from repro.memory.hierarchy import MemoryHierarchy, MemoryVerdict, bytes_per_cycle

__all__ = [
    "DRAMModel",
    "CompressingDMA",
    "run_length_encode",
    "run_length_decode",
    "TrafficCounter",
    "MemoryTraffic",
    "MemoryHierarchy",
    "MemoryVerdict",
    "bytes_per_cycle",
]
