"""Configuration dataclasses mirroring the paper's Table 2 defaults."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.memory.hierarchy import MemoryHierarchy


#: Datatypes the hardware model supports.  The paper evaluates FP32 and
#: bfloat16; the PE model is datatype agnostic so fixed-point widths are
#: accepted too for the energy model.
SUPPORTED_DATATYPES = ("fp32", "bfloat16", "fp16", "fixed16", "fixed8")

#: Bits per value for each supported datatype.
DATATYPE_BITS = {
    "fp32": 32,
    "bfloat16": 16,
    "fp16": 16,
    "fixed16": 16,
    "fixed8": 8,
}


@dataclass(frozen=True)
class PEConfig:
    """Configuration of a single processing element.

    The paper's preferred PE performs 16 MACs per cycle with a 3-deep
    staging buffer per operand side (lookahead 2, lookaside 5 — eight
    movement options per multiplier input, Fig. 9).
    """

    lanes: int = 16
    staging_depth: int = 3
    datatype: str = "fp32"

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        if self.staging_depth < 1:
            raise ValueError(
                f"staging_depth must be >= 1, got {self.staging_depth}"
            )
        if self.datatype not in SUPPORTED_DATATYPES:
            raise ValueError(
                f"unsupported datatype {self.datatype!r}; "
                f"expected one of {SUPPORTED_DATATYPES}"
            )

    @property
    def lookahead(self) -> int:
        """Maximum lookahead in time steps (staging depth minus one)."""
        return self.staging_depth - 1

    @property
    def value_bits(self) -> int:
        """Width of a single operand value in bits."""
        return DATATYPE_BITS[self.datatype]

    @property
    def max_speedup(self) -> float:
        """Upper bound on speedup: at most ``staging_depth`` rows retire per cycle."""
        return float(self.staging_depth)


@dataclass(frozen=True)
class TileConfig:
    """Configuration of a grid of PEs sharing operands (Fig. 11)."""

    rows: int = 4
    columns: int = 4

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise ValueError(
                f"tile must have positive dimensions, got {self.rows}x{self.columns}"
            )

    @property
    def pes(self) -> int:
        """Number of PEs in the tile."""
        return self.rows * self.columns


@dataclass(frozen=True)
class MemoryConfig:
    """On-chip and off-chip memory configuration (Table 2).

    Only the values a result depends on are fields.  Table 2's other
    memory parameters (1 KB per scratchpad bank, 15 transposers with
    1 KB buffers each, 16 GB of DRAM) enter no model.
    """

    #: Per-tile activation / B-operand / output SRAM: 256 KB x 4 banks each.
    am_kb_per_bank: int = 256
    bm_kb_per_bank: int = 256
    cm_kb_per_bank: int = 256
    banks_per_tile: int = 4
    #: Per-PE scratchpad banks (1 KB each); they bound the staging refill.
    scratchpad_banks: int = 3
    #: Off-chip memory: 4-channel LPDDR4-3200 with a 32-bit bus.
    dram_channels: int = 4
    dram_mts: int = 3200
    #: Zero-compress off-chip transfers (both designs do, per the paper's
    #: methodology).  Disabling it feeds raw byte counts to the bandwidth
    #: model and the DRAM energy accounting alike.
    compress_offchip: bool = True

    @property
    def on_chip_kb_per_tile(self) -> int:
        """Total AM + BM + CM capacity per tile in KB."""
        return (
            self.am_kb_per_bank + self.bm_kb_per_bank + self.cm_kb_per_bank
        ) * self.banks_per_tile

    @property
    def peak_dram_bandwidth_gbps(self) -> float:
        """Peak off-chip bandwidth in GB/s: channels x transfers/s x 4 bytes
        (51.2 GB/s for Table 2's memory)."""
        if self.dram_channels < 1:
            raise ValueError(
                f"dram_channels must be positive, got {self.dram_channels}"
            )
        return self.dram_channels * self.dram_mts * 1e6 * 4.0 / 1e9


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full accelerator configuration (Table 2 defaults).

    16 tiles of 4x4 PEs, 16 MACs per PE: 4096 MACs per cycle at 500 MHz.
    The area and power constants are calibrated for the paper's 65 nm
    node; no model scales them with the node.
    """

    pe: PEConfig = field(default_factory=PEConfig)
    tile: TileConfig = field(default_factory=TileConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: Bandwidth/capacity limits the cycle simulator enforces.  The
    #: default is unbounded (infinite bandwidth), which reproduces the
    #: compute-only cycle counts bit-exactly; set finite limits (or use
    #: ``MemoryHierarchy.table2()`` / ``.edge()``) to make memory a
    #: performance constraint.
    hierarchy: MemoryHierarchy = field(default_factory=MemoryHierarchy)
    num_tiles: int = 16
    frequency_mhz: int = 500
    #: When True, the TensorDash-specific components are power-gated and the
    #: accelerator behaves exactly like the dense baseline.
    power_gated: bool = False

    def __post_init__(self) -> None:
        if self.num_tiles < 1:
            raise ValueError(f"num_tiles must be >= 1, got {self.num_tiles}")
        if self.frequency_mhz <= 0:
            raise ValueError(
                f"frequency_mhz must be positive, got {self.frequency_mhz}"
            )

    @property
    def total_pes(self) -> int:
        """Number of PEs across all tiles."""
        return self.num_tiles * self.tile.pes

    @property
    def macs_per_cycle(self) -> int:
        """Peak MAC throughput per cycle."""
        return self.total_pes * self.pe.lanes

    @property
    def cycle_time_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1000.0 / self.frequency_mhz

    def with_pe(self, **kwargs) -> "AcceleratorConfig":
        """Return a copy with PE fields overridden."""
        return replace(self, pe=replace(self.pe, **kwargs))

    def with_hierarchy(self, **kwargs) -> "AcceleratorConfig":
        """Return a copy with memory-hierarchy fields overridden.

        Unset fields keep their current value, so limits compose::

            config.with_hierarchy(dram_bandwidth_gbps=25.6).with_hierarchy(sram_kb=512)
        """
        return replace(self, hierarchy=replace(self.hierarchy, **kwargs))

    def with_tile(self, rows: int | None = None, columns: int | None = None) -> "AcceleratorConfig":
        """Return a copy with tile geometry overridden."""
        tile = TileConfig(
            rows=rows if rows is not None else self.tile.rows,
            columns=columns if columns is not None else self.tile.columns,
        )
        return replace(self, tile=tile)

    def describe(self) -> str:
        """Human-readable one-line summary used by the benchmark harness."""
        text = (
            f"{self.num_tiles} tiles x {self.tile.rows}x{self.tile.columns} PEs x "
            f"{self.pe.lanes} MACs ({self.pe.datatype}, staging depth "
            f"{self.pe.staging_depth}, {self.frequency_mhz} MHz)"
        )
        if not self.hierarchy.is_unbounded:
            limits = []
            if self.hierarchy.dram_bandwidth_gbps is not None:
                limits.append(f"DRAM {self.hierarchy.dram_bandwidth_gbps:g} GB/s")
            if self.hierarchy.sram_bandwidth_gbps is not None:
                limits.append(f"SRAM {self.hierarchy.sram_bandwidth_gbps:g} GB/s")
            if self.hierarchy.sram_kb is not None:
                limits.append(f"SRAM {self.hierarchy.sram_kb} KB")
            text += f" [memory: {', '.join(limits)}]"
        return text


def paper_default_config() -> AcceleratorConfig:
    """The configuration of Table 2 used for all headline results."""
    return AcceleratorConfig()


def bfloat16_config() -> AcceleratorConfig:
    """The bfloat16 variant evaluated in Section 4.4."""
    return AcceleratorConfig(pe=PEConfig(datatype="bfloat16"))
