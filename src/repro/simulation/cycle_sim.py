"""Layer-level cycle simulation of the three training convolutions.

The :class:`LayerSimulator` turns a traced layer (operand non-zero masks
plus convolution hyper-parameters) into operand streams, runs them through
the accelerator model and returns baseline / TensorDash cycle counts, MAC
counts and memory traffic for each of the paper's three operations.

A layer's result is computed in two parts:

* the **compute part** (:data:`LayerCompute`):
  :meth:`LayerSimulator.compute_layers` extracts every layer's operand
  streams, hands the work groups of *all* layers and operations to one
  :meth:`~repro.core.accelerator.Accelerator.run_operations_batched`
  call (the bit-plane :class:`~repro.core.scheduler.BatchScheduler`
  kernel, which runs every staging geometry), and scales the
  per-operation cycle and MAC counts up by the stream sampling factor.
  It depends on the trace and on :attr:`LayerSimulator.compute_inputs`
  alone — the few configuration values stream extraction and the kernel
  read — so configurations that differ only in datatype, memory or
  energy parameters share it;
* the **finalize part**: :meth:`LayerSimulator.finalize_layer` counts
  the memory traffic from the masks and imposes the configured memory
  hierarchy on the compute part.

The kernel is property-tested against the readable oracle
:meth:`~repro.core.accelerator.Accelerator.run_operation_reference`.
For cross-run reuse, wrap the simulator in a
:class:`repro.engine.SimulationEngine`: it caches compute parts keyed by
(compute inputs, trace) and re-runs the finalize part for every layer of
every call, so a cached compute part serves any configuration that
shares its compute inputs.

Memory awareness: after the kernel returns an operation's compute cycles,
the simulator consults ``config.hierarchy``
(:class:`repro.memory.hierarchy.MemoryHierarchy`) with the operation's
byte counts and records the bandwidth-constrained totals —
``max(compute_cycles, ceil(bytes / bytes_per_cycle))`` per level — plus
stall cycles and a compute/memory-bound verdict in each
:class:`OperationResult`.  The default hierarchy is unbounded, which
leaves every cycle count bit-identical to the compute-only model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.accelerator import Accelerator, OperationResult
from repro.core.config import AcceleratorConfig
from repro.memory.traffic import MemoryTraffic, TrafficCounter
from repro.simulation.streams import OPERATIONS, OperandStreams, operation_streams
from repro.training.tracing import LayerTrace


@dataclass
class LayerResult:
    """Simulation outcome of one traced layer."""

    layer_name: str
    operations: Dict[str, OperationResult] = field(default_factory=dict)
    traffic: Dict[str, MemoryTraffic] = field(default_factory=dict)

    def speedup(self, operation: Optional[str] = None) -> float:
        """Speedup for one operation, or overall when ``operation`` is None."""
        if operation is not None:
            return self.operations[operation].speedup
        baseline = sum(op.baseline_cycles for op in self.operations.values())
        tensordash = sum(op.tensordash_cycles for op in self.operations.values())
        return baseline / tensordash if tensordash else 1.0

    @property
    def baseline_cycles(self) -> int:
        return sum(op.baseline_cycles for op in self.operations.values())

    @property
    def tensordash_cycles(self) -> int:
        return sum(op.tensordash_cycles for op in self.operations.values())

    @property
    def stall_cycles(self) -> int:
        """TensorDash memory-stall cycles summed across operations."""
        return sum(op.tensordash_stall_cycles for op in self.operations.values())

    @property
    def baseline_stall_cycles(self) -> int:
        """Baseline memory-stall cycles summed across operations."""
        return sum(op.baseline_stall_cycles for op in self.operations.values())

    def stall_fraction(self) -> float:
        """Share of TensorDash's total cycles spent stalled on memory."""
        total = self.tensordash_cycles
        return self.stall_cycles / total if total else 0.0

    def memory_bound_operations(self) -> List[str]:
        """Names of the operations whose pace memory bandwidth set."""
        return [name for name, op in self.operations.items() if op.memory_bound]

    def effective_dram_bytes(self) -> int:
        """DRAM bytes the bandwidth model charged (incl. capacity spill)."""
        return sum(op.dram_bytes for op in self.operations.values())

    def total_traffic(self) -> MemoryTraffic:
        """Summed memory traffic across operations."""
        total = MemoryTraffic()
        for traffic in self.traffic.values():
            total = total + traffic
        return total


def traced_layers(traces: Sequence[LayerTrace]) -> List[LayerTrace]:
    """The subset of ``traces`` that carries operand masks to simulate.

    The single definition of the skip rule shared by the simulator and
    by the engine's cache partitioning, so they can never disagree on
    which layers are simulated.
    """
    return [t for t in traces if t.activation_mask is not None]


#: The compute part of one layer's result: per-operation compute-only
#: :class:`OperationResult` objects (baseline and TensorDash cycles,
#: total and effectual MACs), already scaled up by the stream sampling
#: factor and not yet constrained by the memory hierarchy.
LayerCompute = Dict[str, OperationResult]


class LayerSimulator:
    """Simulates traced layers on the baseline and TensorDash accelerators."""

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        max_groups: Optional[int] = 256,
    ):
        self.config = config or AcceleratorConfig()
        self.accelerator = Accelerator(self.config)
        self.max_groups = max_groups
        value_bytes = self.config.pe.value_bits // 8
        self.traffic_counter = TrafficCounter(
            value_bytes=value_bytes,
            compress_offchip=self.config.memory.compress_offchip,
        )

    @property
    def compute_inputs(self) -> Tuple[Tuple[str, object], ...]:
        """Every value besides the trace that a :data:`LayerCompute` depends
        on: what :meth:`streams_for_trace` reads, then what the kernel
        reads (:attr:`Accelerator.kernel_inputs`).  Simulators with equal
        compute inputs compute identical compute parts.
        """
        return (
            ("tile_rows", self.config.tile.rows),
            ("max_groups", self.max_groups),
            *self.accelerator.kernel_inputs,
        )

    # ------------------------------------------------------------------
    def streams_for_trace(self, trace: LayerTrace) -> Dict[str, OperandStreams]:
        """Operand streams per traced operation (empty if nothing traced).

        Public so :meth:`compute_layers` can extract every layer's
        streams up front and fuse them into large scheduling batches.
        """
        activations = trace.activation_mask
        gradients = trace.output_gradient_mask
        if activations is None:
            return {}
        if trace.layer_type == "fc":
            # The 1x1 convolution: features become channels.
            activations = activations.reshape(activations.shape[0], -1, 1, 1)
            if gradients is not None:
                gradients = gradients.reshape(gradients.shape[0], -1, 1, 1)
        operations = OPERATIONS if gradients is not None else ("AxW",)
        return {
            operation: operation_streams(
                operation, activations, gradients,
                trace.kernel, trace.stride, trace.padding,
                self.config.tile.rows, self.config.pe.lanes, self.max_groups,
            )
            for operation in operations
        }

    def _traffic_for_trace(self, trace: LayerTrace) -> Dict[str, MemoryTraffic]:
        """Approximate memory traffic per operation from the traced masks."""
        traffic: Dict[str, MemoryTraffic] = {}
        activations = trace.activation_mask
        gradients = trace.output_gradient_mask
        weights = trace.weight_mask
        if activations is None or weights is None:
            return traffic
        # The counter reads only each mask's size and non-zero count.
        out_size = int(activations.shape[0]) * int(weights.shape[0])
        traffic["AxW"] = self.traffic_counter.operation_traffic(
            {"A": activations, "W": weights}, out_size
        )
        if gradients is not None:
            traffic["AxG"] = self.traffic_counter.operation_traffic(
                {"GO": gradients, "W": weights}, int(activations.size)
            )
            traffic["WxG"] = self.traffic_counter.operation_traffic(
                {"GO": gradients, "A": activations}, int(weights.size)
            )
        return traffic

    def _constrain(
        self, op_result: OperationResult, traffic: Optional[MemoryTraffic]
    ) -> OperationResult:
        """Impose the configured memory hierarchy on one operation.

        Both designs share the hierarchy (and the byte counts), so the
        baseline and TensorDash compute cycles are constrained by the same
        per-level memory-cycle floor; the recorded verdict and effective
        DRAM bytes describe the TensorDash design.  With the default
        unbounded hierarchy the totals are returned unchanged (zero
        stalls), keeping the legacy cycle counts bit-exact.
        """
        if traffic is None:
            return op_result
        hierarchy = self.config.hierarchy
        frequency = self.config.frequency_mhz
        base = hierarchy.constrain(op_result.baseline_cycles, traffic, frequency)
        dash = hierarchy.constrain(op_result.tensordash_cycles, traffic, frequency)
        return OperationResult(
            name=op_result.name,
            baseline_cycles=base.total_cycles,
            tensordash_cycles=dash.total_cycles,
            macs_total=op_result.macs_total,
            macs_effectual=op_result.macs_effectual,
            baseline_stall_cycles=base.stall_cycles,
            tensordash_stall_cycles=dash.stall_cycles,
            memory_cycles=max(dash.dram_cycles, dash.sram_cycles),
            dram_bytes=dash.dram_bytes,
            bound=dash.bound,
        )

    def finalize_layer(
        self, trace: LayerTrace, compute: LayerCompute
    ) -> LayerResult:
        """Assemble a :class:`LayerResult` from a layer's compute part.

        Counts the layer's memory traffic from its masks and imposes the
        configured memory hierarchy on each operation.  The compute part
        is already scaled up to the full operation, so the bandwidth
        constraint sees full-operation compute cycles against
        full-operation byte counts.
        """
        result = LayerResult(layer_name=trace.layer_name)
        result.traffic = self._traffic_for_trace(trace)
        for operation, op_result in compute.items():
            result.operations[operation] = self._constrain(
                op_result, result.traffic.get(operation)
            )
        return result

    def simulate_layer(self, trace: LayerTrace) -> LayerResult:
        """Simulate all traced operations of one layer."""
        results = self.simulate_layers([trace])
        if not results:
            raise ValueError(
                f"layer {trace.layer_name!r} has no operand masks to simulate"
            )
        return results[0]

    def compute_layers(self, traces: Sequence[LayerTrace]) -> List[LayerCompute]:
        """The compute part of every traced layer; layers without masks
        are skipped.

        Stream extraction runs per layer, but the extracted work groups of
        *all* layers and operations go to one
        :meth:`~repro.core.accelerator.Accelerator.run_operations_batched`
        call, so the per-cycle scheduling cost is amortised across the
        whole trace rather than per operation.  When the stream extractor
        subsampled an operation's work groups, its cycle and MAC counts
        are scaled back up by the sampling factor, so they stay
        commensurate with the unsampled traffic counts that
        :meth:`finalize_layer` and the energy accounting use; speedups
        are ratios and are unaffected.  Results come back in trace order.
        """
        layer_streams = [self.streams_for_trace(trace) for trace in traced_layers(traces)]
        units = [
            (index, operation, operand_streams)
            for index, streams in enumerate(layer_streams)
            for operation, operand_streams in streams.items()
        ]
        op_results = self.accelerator.run_operations_batched(
            [(operation, s.groups) for _, operation, s in units]
        )
        computes: List[LayerCompute] = [{} for _ in layer_streams]
        for (index, operation, operand_streams), op_result in zip(units, op_results):
            factor = operand_streams.sampling_factor
            if factor > 1.0:
                op_result = OperationResult(
                    name=op_result.name,
                    baseline_cycles=int(round(op_result.baseline_cycles * factor)),
                    tensordash_cycles=int(round(op_result.tensordash_cycles * factor)),
                    macs_total=int(round(op_result.macs_total * factor)),
                    macs_effectual=int(round(op_result.macs_effectual * factor)),
                )
            computes[index][operation] = op_result
        return computes

    def simulate_layers(self, traces: Sequence[LayerTrace]) -> List[LayerResult]:
        """Simulate every traced layer (:meth:`compute_layers`, then
        :meth:`finalize_layer` per layer); layers without masks are
        skipped.  Results come back in trace order.
        """
        layers = traced_layers(traces)
        return [
            self.finalize_layer(trace, compute)
            for trace, compute in zip(layers, self.compute_layers(layers))
        ]
