"""The TensorDash hardware model: the paper's primary contribution.

The package models, at cycle level, the components described in Sections 3
and 3.1-3.6 of the paper:

* :mod:`repro.core.interconnect` — the sparse per-lane multiplexer
  connectivity (lookahead / lookaside movement options).
* :mod:`repro.core.scheduler` — the hierarchical combinational hardware
  scheduler (the readable oracle) and its bit-plane batch kernel.  The
  oracle's ``walk`` steps a tile's PE rows in lockstep through their
  N-deep staging windows.
* :mod:`repro.core.pe` — baseline (dense) and TensorDash processing elements.
* :mod:`repro.core.accelerator` — the 16-tile accelerator; with
  ``power_gated`` set it runs as the dense baseline.
* :mod:`repro.core.dataflow` — work distribution across tiles and the
  slowest tile's latency.
* :mod:`repro.core.backside` — pre-scheduling (compressed, scheduled-form
  storage).
* :mod:`repro.core.config` — Table 2 default configurations.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AcceleratorConfig",
    "PEConfig",
    "TileConfig",
    "ConnectivityPattern",
    "HardwareScheduler",
    "Schedule",
    "BatchScheduler",
    "BaselinePE",
    "TensorDashPE",
    "Accelerator",
    "PreScheduler",
    "ScheduledTensor",
    "TileWorkPartitioner",
    "MultiTileResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": ("AcceleratorConfig", "PEConfig", "TileConfig"),
    "repro.core.interconnect": ("ConnectivityPattern",),
    "repro.core.scheduler": (
        "HardwareScheduler", "Schedule", "BatchScheduler",
    ),
    "repro.core.pe": ("BaselinePE", "TensorDashPE"),
    "repro.core.accelerator": ("Accelerator",),
    "repro.core.backside": ("PreScheduler", "ScheduledTensor"),
    "repro.core.dataflow": ("TileWorkPartitioner", "MultiTileResult"),
})
