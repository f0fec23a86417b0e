"""Bandwidth/capacity model of the memory hierarchy as a *performance* constraint.

Historically this repository used :mod:`repro.memory` only for post-hoc
energy accounting: cycle counts came purely from the compute tile, so every
simulated design point was implicitly compute-bound and bandwidth knobs
could not change speedup.  This module makes memory a first-class
performance constraint.  A :class:`MemoryHierarchy` describes the
sustainable bandwidth of the on-chip AM/BM/CM SRAM and the off-chip LPDDR4
DRAM channels (plus an optional on-chip capacity); the cycle simulator
consults it per operation and charges

``total_cycles = max(compute_cycles, ceil(bytes_moved / effective_bandwidth))``

per memory level, recording the per-level stall cycles and a
compute-bound / memory-bound verdict in
:class:`~repro.core.accelerator.OperationResult`.

The default hierarchy is :meth:`MemoryHierarchy.unbounded` — infinite
bandwidth, unlimited capacity — which reproduces the pre-hierarchy cycle
counts bit-exactly, so existing configurations and cached results keep
their meaning.  The paper's Table 2 machine (4-channel LPDDR4-3200 behind
16 tiles of banked SRAM) is available via :meth:`MemoryHierarchy.table2`,
and :meth:`MemoryHierarchy.edge` models a bandwidth-starved single-channel
edge device, opening the memory-bound corner of the design space.

Approximations (documented, deliberate):

* Bytes are charged at operation granularity.  For the uniform-rate operand
  streams the stream extractor produces this is equivalent to charging each
  staging window its share of the transfer, because ``ceil`` over the sum
  differs from the sum of per-window ceilings by at most one cycle per
  window.
* The on-chip working set of an operation is approximated by its SRAM
  traffic (each value is counted once per use); the overflow beyond
  ``sram_kb`` must be re-fetched and is charged as extra DRAM traffic.
* Both designs (dense baseline and TensorDash) share the hierarchy *and*
  the byte counts, as in the paper's shared-DMA methodology: zero
  compression shrinks both designs' DRAM traffic equally, so under a
  finite hierarchy they differ only in their compute cycles.  (Scheduled-
  form on-chip storage — ``TrafficCounter(scheduled_onchip=True)`` —
  would give TensorDash a per-design byte advantage but is not enabled by
  the simulator.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.memory.traffic import MemoryTraffic

#: Width of one SRAM bank access in bytes.
SRAM_WIDTH_BYTES = 64

#: The three shared on-chip memories (AM, BM, CM) a tile reads/writes.
ONCHIP_MEMORIES = 3


def bytes_per_cycle(bandwidth_gbps: float, frequency_mhz: float) -> float:
    """Sustainable bytes per accelerator cycle at a given bandwidth.

    ``bandwidth_gbps`` is in GB/s (1e9 bytes per second); at ``f`` MHz the
    accelerator retires ``f * 1e6`` cycles per second.
    """
    if bandwidth_gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_gbps}")
    if frequency_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_mhz}")
    return bandwidth_gbps * 1e9 / (frequency_mhz * 1e6)


@dataclass(frozen=True)
class MemoryVerdict:
    """Outcome of constraining one operation's compute cycles by memory.

    ``bound`` names the binding resource: ``"compute"`` when the operation
    finishes at its compute rate, ``"dram"`` / ``"sram"`` when that level's
    bandwidth sets the pace.
    """

    compute_cycles: int
    total_cycles: int
    stall_cycles: int
    dram_cycles: int
    sram_cycles: int
    #: Effective DRAM bytes charged: recorded traffic plus capacity spill.
    dram_bytes: int
    bound: str

    @property
    def memory_bound(self) -> bool:
        return self.bound != "compute"

    @property
    def stall_fraction(self) -> float:
        """Share of the total cycles spent stalled on memory."""
        if self.total_cycles == 0:
            return 0.0
        return self.stall_cycles / self.total_cycles


@dataclass(frozen=True)
class MemoryHierarchy:
    """Bandwidth and capacity limits the cycle simulator enforces.

    Every field is optional; ``None`` means *unlimited* for that resource.
    The all-``None`` default is the unbounded hierarchy — the behaviour of
    the repository before memory awareness — so existing configurations
    are unaffected unless a limit is set explicitly.

    Parameters
    ----------
    dram_bandwidth_gbps:
        Sustainable off-chip bandwidth across all LPDDR4 channels, GB/s.
    sram_bandwidth_gbps:
        Aggregate on-chip AM/BM/CM bandwidth, GB/s.  Rarely binding for
        realistic geometries (banked SRAM is fast); exposed so starved
        on-chip designs can be studied.
    sram_kb:
        Total on-chip capacity in KB.  When an operation's streaming
        working set exceeds it, the overflow is re-fetched from DRAM (and
        charged to the DRAM byte count the bandwidth model and energy
        accounting share).
    """

    dram_bandwidth_gbps: Optional[float] = None
    sram_bandwidth_gbps: Optional[float] = None
    sram_kb: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("dram_bandwidth_gbps", "sram_bandwidth_gbps"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.sram_kb is not None and self.sram_kb < 1:
            raise ValueError(f"sram_kb must be >= 1, got {self.sram_kb}")

    # ------------------------------------------------------------------
    @property
    def is_unbounded(self) -> bool:
        """True when no limit is set (the bit-exact legacy behaviour)."""
        return (
            self.dram_bandwidth_gbps is None
            and self.sram_bandwidth_gbps is None
            and self.sram_kb is None
        )

    @property
    def has_bandwidth_limit(self) -> bool:
        """True when any *bandwidth* (not just capacity) limit is set.

        Gates bandwidth-rate effects such as the staging-refill clamp; a
        capacity-only hierarchy (``sram_kb`` alone) affects byte counts
        but never compute cycle counts.
        """
        return (
            self.dram_bandwidth_gbps is not None
            or self.sram_bandwidth_gbps is not None
        )

    @classmethod
    def unbounded(cls) -> "MemoryHierarchy":
        """Infinite bandwidth, unlimited capacity (the default)."""
        return cls()

    @classmethod
    def table2(cls, config=None) -> "MemoryHierarchy":
        """The paper's Table 2 machine derived from an accelerator config.

        ``config`` is any object with ``memory``, ``num_tiles`` and
        ``frequency_mhz`` attributes (duck-typed to avoid a circular
        import with :mod:`repro.core.config`); the defaults give 4-channel
        LPDDR4-3200 (51.2 GB/s), the aggregate banked AM/BM/CM bandwidth
        and the full on-chip capacity across tiles.
        """
        if config is None:
            from repro.core.config import AcceleratorConfig

            config = AcceleratorConfig()
        memory = config.memory
        dram = memory.peak_dram_bandwidth_gbps
        sram_bytes_per_cycle = (
            ONCHIP_MEMORIES * memory.banks_per_tile * SRAM_WIDTH_BYTES * config.num_tiles
        )
        sram = sram_bytes_per_cycle * config.frequency_mhz * 1e6 / 1e9
        return cls(
            dram_bandwidth_gbps=dram,
            sram_bandwidth_gbps=sram,
            sram_kb=config.memory.on_chip_kb_per_tile * config.num_tiles,
        )

    @classmethod
    def edge(cls) -> "MemoryHierarchy":
        """A bandwidth-starved edge device: one LPDDR4 channel, 256 KB SRAM."""
        return cls(dram_bandwidth_gbps=12.8, sram_kb=256)

    # ------------------------------------------------------------------
    def spill_bytes(self, traffic: MemoryTraffic) -> int:
        """DRAM re-fetch bytes caused by the on-chip capacity limit.

        The streaming working set is approximated by the operation's SRAM
        traffic; whatever does not fit in ``sram_kb`` must round-trip to
        DRAM once more.
        """
        if self.sram_kb is None:
            return 0
        capacity = self.sram_kb * 1024
        return max(0, traffic.sram_bytes - capacity)

    def effective_dram_bytes(self, traffic: MemoryTraffic) -> int:
        """DRAM bytes the bandwidth model (and energy accounting) charge."""
        return traffic.dram_bytes + self.spill_bytes(traffic)

    def constrain(
        self,
        compute_cycles: int,
        traffic: MemoryTraffic,
        frequency_mhz: float,
    ) -> MemoryVerdict:
        """Impose the hierarchy on one operation's compute-cycle count.

        Returns the :class:`MemoryVerdict` with
        ``total_cycles = max(compute_cycles, per-level memory cycles)``,
        the stall cycles (total minus compute) and the binding resource.
        With an unbounded hierarchy the verdict is exactly the compute
        cycles with zero stalls — the legacy behaviour.
        """
        dram_bytes = self.effective_dram_bytes(traffic)
        dram_cycles = 0
        if self.dram_bandwidth_gbps is not None:
            dram_cycles = math.ceil(
                dram_bytes / bytes_per_cycle(self.dram_bandwidth_gbps, frequency_mhz)
            )
        sram_cycles = 0
        if self.sram_bandwidth_gbps is not None:
            sram_cycles = math.ceil(
                traffic.sram_bytes
                / bytes_per_cycle(self.sram_bandwidth_gbps, frequency_mhz)
            )
        memory_cycles = max(dram_cycles, sram_cycles)
        total = max(int(compute_cycles), memory_cycles)
        stall = total - int(compute_cycles)
        if memory_cycles <= compute_cycles:
            bound = "compute"
        elif dram_cycles >= sram_cycles:
            bound = "dram"
        else:
            bound = "sram"
        return MemoryVerdict(
            compute_cycles=int(compute_cycles),
            total_cycles=total,
            stall_cycles=stall,
            dram_cycles=dram_cycles,
            sram_cycles=sram_cycles,
            dram_bytes=dram_bytes,
            bound=bound,
        )
