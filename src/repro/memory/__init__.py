"""Memory-hierarchy models: zero compression, traffic counting, and the
bandwidth/capacity performance model (:mod:`repro.memory.hierarchy`) the
cycle simulator enforces."""

from repro._lazy import lazy_exports

__all__ = [
    "CompressingDMA",
    "TrafficCounter",
    "MemoryTraffic",
    "MemoryHierarchy",
    "MemoryVerdict",
    "bytes_per_cycle",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memory.compression": ("CompressingDMA",),
    "repro.memory.traffic": ("TrafficCounter", "MemoryTraffic"),
    "repro.memory.hierarchy": (
        "MemoryHierarchy", "MemoryVerdict", "bytes_per_cycle",
    ),
})
