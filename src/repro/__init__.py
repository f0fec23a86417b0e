"""TensorDash reproduction library.

This package reproduces the system described in "TensorDash: Exploiting
Sparsity to Accelerate Deep Neural Network Training and Inference"
(MICRO 2020).  It contains:

``repro.core``
    The paper's contribution: the sparse input interconnect, the hierarchical
    hardware scheduler (stepping a tile's PE rows in lockstep through their
    staging windows), TensorDash and baseline processing elements and the
    multi-tile accelerator model.

``repro.nn``
    A from-scratch numpy training framework used to generate realistic
    sparsity traces (activations, weights and gradients) for the simulator.

``repro.models``
    A scaled-down model zoo mirroring the networks evaluated in the paper.

``repro.pruning``
    Pruning-during-training methods (dynamic sparse reparameterization and
    sparse momentum) used for the resnet50_DS90 / resnet50_SM90 workloads.

``repro.training``
    Training loop and operand-trace collection for the three training
    convolutions.

``repro.memory``
    Off-chip DRAM, zero compression and traffic-counting models, plus the
    :class:`~repro.memory.hierarchy.MemoryHierarchy` bandwidth/capacity
    model the cycle simulator enforces (unbounded by default; finite
    hierarchies add stall cycles and memory-bound verdicts).

``repro.energy``
    Area, power and energy accounting for FP32 and bfloat16 configurations.

``repro.simulation``
    Mapping of layers to operand streams, the cycle-level simulation driver
    and the experiment runner used by the benchmark harness.

``repro.engine``
    The execution layer: the simulation engine with its
    content-addressed on-disk result cache, which lets sweeps skip
    already-simulated layers.

``repro.explore``
    Declarative design-space exploration: JSON-loadable study specs over
    accelerator knobs x workloads x sparsity scenarios, a resumable
    study runner on top of the engine, and Pareto-frontier reporting
    (the ``repro explore`` CLI subcommand).

``repro.api``
    The unified programmatic front door: versioned JSON-serialisable
    request/result schema, the :class:`~repro.api.Session` facade that
    keeps one engine and its caches warm across simulate / sweep /
    explore / roofline calls, and the ``repro serve`` batch service.
    The CLI subcommands are thin clients of this layer.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AcceleratorConfig",
    "PEConfig",
    "TileConfig",
    "Accelerator",
    "SimulationEngine",
    "MemoryHierarchy",
    "ExperimentRunner",
    "Session",
    "simulate_model_training",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro._version": ("__version__",),
    "repro.core.config": ("AcceleratorConfig", "PEConfig", "TileConfig"),
    "repro.core.accelerator": ("Accelerator",),
    "repro.engine.engine": ("SimulationEngine",),
    "repro.memory.hierarchy": ("MemoryHierarchy",),
    "repro.simulation.runner": ("ExperimentRunner", "simulate_model_training"),
    "repro.api.session": ("Session",),
})
