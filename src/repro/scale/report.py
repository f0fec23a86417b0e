"""Roll-up of one multi-device scaling run: per-device cycles and efficiency.

A :class:`ScalingReport` is what :class:`repro.scale.ScaleRunner`
produces: the single-device reference cycles, one
:class:`DeviceResult` per simulated device (compute cycles from the
engine, communication cycles from the interconnect model), and the
derived headline numbers — speedup over one device, scaling efficiency
against ideal linear, the communication fraction of the scaled critical
path, and a compute/interconnect bound verdict.

Reports serialise to plain JSON (:meth:`ScalingReport.as_dict` /
:meth:`ScalingReport.from_dict`) so they can ride inside the versioned
``repro.api`` result schema, and render to the aligned plain-text table
the ``repro scale`` CLI prints (:func:`format_scaling_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.scale.interconnect import Interconnect


@dataclass
class DeviceResult:
    """Simulated outcome of one device's shard."""

    device: int
    #: Traced layers this device holds (data: layers with assigned
    #: samples; pipeline: layers of its stage).
    layers: int
    baseline_cycles: int
    #: TensorDash cycles of the shard, memory stalls included.
    compute_cycles: int
    #: Interconnect cycles this device's communication pattern needs.
    comm_cycles: int

    @property
    def total_cycles(self) -> int:
        """This device's per-batch critical path.

        Communication overlaps compute (double-buffered links, bucketed
        all-reduce), so the path is ``max(compute, comm)`` — the same law
        the memory hierarchy applies to bandwidth per operation.
        """
        return max(self.compute_cycles, self.comm_cycles)

    @property
    def stall_cycles(self) -> int:
        """Exposed communication: link cycles compute could not hide."""
        return self.total_cycles - self.compute_cycles

    @property
    def bound(self) -> str:
        """The pacing resource: ``"link"`` when communication dominates."""
        return "link" if self.comm_cycles > self.compute_cycles else "compute"

    def as_dict(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "layers": self.layers,
            "baseline_cycles": self.baseline_cycles,
            "compute_cycles": self.compute_cycles,
            "comm_cycles": self.comm_cycles,
            "stall_cycles": self.stall_cycles,
            "total_cycles": self.total_cycles,
            "bound": self.bound,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DeviceResult":
        """Rebuild from :meth:`as_dict` (derived fields are recomputed)."""
        return cls(
            device=int(payload["device"]),
            layers=int(payload["layers"]),
            baseline_cycles=int(payload["baseline_cycles"]),
            compute_cycles=int(payload["compute_cycles"]),
            comm_cycles=int(payload["comm_cycles"]),
        )


@dataclass
class ScalingReport:
    """Aggregated outcome of scaling one workload across N devices."""

    workload: str
    partition: str
    num_devices: int
    interconnect: Interconnect
    #: Full-trace TensorDash cycles on one device (the speedup reference).
    single_device_cycles: int
    single_device_baseline_cycles: int
    #: Per-batch cycles of the scaled system's critical path.
    scaled_cycles: int
    #: Exposed communication on that path: link cycles the critical
    #: device could not hide under compute (0 with an ideal link).
    comm_stall_cycles: int
    devices: List[DeviceResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def speedup(self) -> float:
        """Throughput gain over a single device (ideal: ``num_devices``)."""
        if self.scaled_cycles <= 0:
            return 1.0
        return self.single_device_cycles / self.scaled_cycles

    @property
    def efficiency(self) -> float:
        """Scaling efficiency against ideal linear (1.0 = perfect)."""
        return self.speedup / self.num_devices

    @property
    def comm_fraction(self) -> float:
        """Share of the scaled critical path stalled on the interconnect."""
        if self.scaled_cycles <= 0:
            return 0.0
        return self.comm_stall_cycles / self.scaled_cycles

    @property
    def bound(self) -> str:
        """System verdict: ``"interconnect"`` when communication paces it."""
        return "interconnect" if self.comm_stall_cycles > 0 else "compute"

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON document (derived numbers included for readers)."""
        return {
            "workload": self.workload,
            "partition": self.partition,
            "num_devices": self.num_devices,
            "interconnect": self.interconnect.as_dict(),
            "single_device_cycles": self.single_device_cycles,
            "single_device_baseline_cycles": self.single_device_baseline_cycles,
            "scaled_cycles": self.scaled_cycles,
            "comm_stall_cycles": self.comm_stall_cycles,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "comm_fraction": self.comm_fraction,
            "bound": self.bound,
            "devices": [device.as_dict() for device in self.devices],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScalingReport":
        """Rebuild from :meth:`as_dict`; derived numbers are recomputed."""
        return cls(
            workload=str(payload["workload"]),
            partition=str(payload["partition"]),
            num_devices=int(payload["num_devices"]),
            interconnect=Interconnect.from_dict(payload.get("interconnect") or {}),
            single_device_cycles=int(payload["single_device_cycles"]),
            single_device_baseline_cycles=int(
                payload["single_device_baseline_cycles"]
            ),
            scaled_cycles=int(payload["scaled_cycles"]),
            comm_stall_cycles=int(payload["comm_stall_cycles"]),
            devices=[
                DeviceResult.from_dict(device)
                for device in payload.get("devices", [])
            ],
        )


def format_scaling_report(report: ScalingReport) -> str:
    """The plain-text rendering the ``repro scale`` CLI prints."""
    table = format_table(
        f"{report.workload}: {report.partition} partition across "
        f"{report.num_devices} device(s) ({report.interconnect.describe()})",
        ["device", "layers", "compute", "comm", "stall", "total", "bound"],
        [
            [
                device.device,
                device.layers,
                device.compute_cycles,
                device.comm_cycles,
                device.stall_cycles,
                device.total_cycles,
                device.bound,
            ]
            for device in report.devices
        ],
    )
    lines = [
        table,
        f"Single-device cycles:   {report.single_device_cycles}",
        f"Scaled cycles/batch:    {report.scaled_cycles}",
        f"Speedup:                {report.speedup:.3f}x "
        f"(ideal {report.num_devices}x)",
        f"Scaling efficiency:     {report.efficiency:.1%}",
        f"Communication fraction: {report.comm_fraction:.1%}",
        f"Bound:                  {report.bound}",
    ]
    return "\n".join(lines)
