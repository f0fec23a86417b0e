"""Multi-device scaling runs: shard, simulate per device, roll up.

:class:`ScaleRunner` answers the question none of the single-chip layers
can: *how does speedup scale when a training workload is partitioned
across N accelerator instances?*  It

1. simulates the full traced epoch once — the single-device reference
   the speedup and efficiency numbers are measured against;
2. partitions the trace with one of the :mod:`repro.scale.partition`
   strategies (``"data"`` batch sharding or ``"pipeline"`` layer
   stages);
3. simulates every device's shard through the same
   :class:`~repro.engine.SimulationEngine` as everything else in the
   repository — so the on-disk result cache and the session memo all
   apply per shard, and a ``num_devices=1`` run re-uses the
   reference simulation's cache entries outright;
4. prices the partition's communication pattern with the
   :class:`~repro.scale.Interconnect` model (weight-gradient ring
   all-reduce for data parallelism, boundary activation/gradient
   transfers for pipelining) and rolls everything up into a
   :class:`~repro.scale.ScalingReport`.

Timing model (deliberately simple, documented here once).  Communication
overlaps compute — bucketed all-reduce starts while the backward pass is
still producing gradients, and pipeline boundary transfers are
double-buffered — so a device's per-batch critical path is
``max(compute, comm)``, the same law the memory hierarchy applies to
bandwidth; only the *exposed* link cycles (``comm - compute`` when
positive) stall the system:

* **data**: every device computes its batch shard while taking part in
  the ring all-reduce of the full weight gradient; the system's
  per-batch critical path is the slowest device's ``max(compute,
  all-reduce)``.
* **pipeline**: steady-state throughput — the initiation interval is
  the slowest stage's ``max(compute, boundary transfers)`` (activations
  forward plus activation gradients backward); fill/drain is ignored.

With one device and an unbounded interconnect both models degenerate to
exactly the single-device cycle count, bit-for-bit — the parity contract
``tests/test_scale.py`` enforces.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.config import AcceleratorConfig
from repro.engine.engine import SimulationEngine
from repro.scale.interconnect import Interconnect
from repro.scale.partition import (
    check_partition,
    partition_data,
    partition_pipeline,
    stage_boundary_bytes,
    weight_gradient_bytes,
)
from repro.scale.report import DeviceResult, ScalingReport
from repro.telemetry.tracing import get_tracer
from repro.training.tracing import EpochTrace


class ScaleRunner:
    """Runs multi-device scaling experiments over one simulation engine.

    Parameters
    ----------
    config:
        Accelerator configuration of *each* device (Table 2 defaults).
    engine:
        An existing :class:`~repro.engine.SimulationEngine` to dispatch
        every shard through (how :class:`repro.api.Session` and the
        study runner share their warm caches with scaling runs).  When
        omitted, the runner builds its own engine, whose memo keeps the
        per-shard passes from re-simulating layers the reference pass
        already covered.
    cache_dir:
        Engine knob for the self-built engine; ignored when ``engine``
        is given.
    max_groups:
        Stream-sampling cap, forwarded per call so shard simulations
        share cache keys with equally-parameterised single-device runs.
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        engine: Optional[SimulationEngine] = None,
        cache_dir: Optional[str] = None,
        max_groups: Optional[int] = 64,
    ):
        self.config = config or AcceleratorConfig()
        if engine is None:
            engine = SimulationEngine(
                self.config, cache_dir=cache_dir, max_groups=max_groups
            )
        self.engine = engine
        self.max_groups = max_groups

    # ------------------------------------------------------------------
    def _simulate(self, layers) -> List:
        """One engine pass over a shard's traced layers."""
        if not layers:
            return []
        return self.engine.simulate_layers(
            layers, config=self.config, max_groups=self.max_groups
        )

    @staticmethod
    def _cycles(results) -> tuple:
        """(baseline, tensordash) cycle totals of one shard's results."""
        baseline = sum(result.baseline_cycles for result in results)
        tensordash = sum(result.tensordash_cycles for result in results)
        return baseline, tensordash

    # ------------------------------------------------------------------
    def run(
        self,
        epoch: EpochTrace,
        workload: str = "model",
        num_devices: int = 1,
        partition: str = "data",
        interconnect: Optional[Interconnect] = None,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> ScalingReport:
        """Scale one traced epoch across ``num_devices`` devices.

        Returns the :class:`ScalingReport` with per-device cycle counts,
        the communication cycles on the critical path, and the derived
        speedup/efficiency/bound numbers.

        ``on_event`` receives one structured dict after the reference
        pass and after each device shard's simulation — per-unit
        progress for the job layer's SSE stream; it may raise to abort
        the run at that boundary (cooperative cancellation).
        """
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        check_partition(partition)
        if interconnect is None:
            interconnect = Interconnect.default()
        frequency = self.config.frequency_mhz
        value_bytes = self.config.pe.value_bits // 8
        tracer = get_tracer()
        notify = on_event or (lambda event: None)

        # The single-device reference: the full trace on one device.
        with tracer.span(
            "scale.reference", workload=workload, layers=len(epoch.layers)
        ):
            reference = self._simulate(epoch.layers)
        single_baseline, single_cycles = self._cycles(reference)
        notify({
            "type": "scale",
            "phase": "reference",
            "workload": workload,
            "layers": len(epoch.layers),
        })

        if partition == "data":
            shards = partition_data(epoch, num_devices)
        else:
            shards = partition_pipeline(epoch, num_devices)

        shard_results = []
        for index, shard in enumerate(shards):
            with tracer.span(
                "scale.device", workload=workload, device=index,
                partition=partition, layers=len(shard.layers),
            ):
                shard_results.append(self._simulate(shard.layers))
            notify({
                "type": "scale",
                "phase": "device",
                "workload": workload,
                "device": index,
                "devices": num_devices,
                "partition": partition,
                "layers": len(shard.layers),
            })
        compute = [self._cycles(results) for results in shard_results]

        if partition == "data":
            # Every device joins the same ring all-reduce of the full
            # weight gradient after its backward pass.
            comm_each = interconnect.allreduce_cycles(
                weight_gradient_bytes(epoch, value_bytes),
                num_devices,
                frequency,
            )
            comm = [comm_each] * num_devices
        else:
            # Each stage receives its inputs and sends its outputs, both
            # as forward activations and backward activation gradients.
            boundaries = stage_boundary_bytes(shards, value_bytes)
            comm = []
            for device in range(num_devices):
                in_bytes = boundaries[device - 1] if device > 0 else 0
                out_bytes = (
                    boundaries[device] if device < num_devices - 1 else 0
                )
                comm.append(
                    2 * interconnect.transfer_cycles(in_bytes, frequency)
                    + 2 * interconnect.transfer_cycles(out_bytes, frequency)
                )

        devices = [
            DeviceResult(
                device=index,
                layers=len(shard_results[index]),
                baseline_cycles=compute[index][0],
                compute_cycles=compute[index][1],
                comm_cycles=comm[index],
            )
            for index in range(num_devices)
        ]
        critical = max(devices, key=lambda device: device.total_cycles)
        return ScalingReport(
            workload=workload,
            partition=partition,
            num_devices=num_devices,
            interconnect=interconnect,
            single_device_cycles=single_cycles,
            single_device_baseline_cycles=single_baseline,
            scaled_cycles=critical.total_cycles,
            comm_stall_cycles=critical.stall_cycles,
            devices=devices,
        )
