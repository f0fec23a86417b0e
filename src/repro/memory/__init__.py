"""Memory-hierarchy models: zero compression, traffic counting, and the
bandwidth/capacity performance model (:mod:`repro.memory.hierarchy`) the
cycle simulator enforces."""

from repro.memory.compression import CompressingDMA
from repro.memory.traffic import TrafficCounter, MemoryTraffic
from repro.memory.hierarchy import MemoryHierarchy, MemoryVerdict, bytes_per_cycle

__all__ = [
    "CompressingDMA",
    "TrafficCounter",
    "MemoryTraffic",
    "MemoryHierarchy",
    "MemoryVerdict",
    "bytes_per_cycle",
]
