"""Golden-output tests: the Session-routed CLI is byte-identical to PR 3.

The acceptance criterion for the ``repro.api`` redesign is that all four
simulating subcommands route through :meth:`Session.submit` *without
changing a byte* of their default table output.  Each test here renders
the expected text with the pre-API wiring — a frozen copy of the old
command bodies driving ``ExperimentRunner`` / ``StudyRunner`` directly —
and compares it against the real CLI output character by character.

Everything is seeded, so the two paths must agree exactly; any
formatting drift in the new layer fails loudly here.
"""

import io
import json
from contextlib import redirect_stdout

from repro.analysis.reporting import format_engine_stats, format_table
from repro.cli import main
from repro.core.config import AcceleratorConfig
from repro.models.registry import trace_workload
from repro.simulation.runner import ExperimentRunner

#: Small-but-real run parameters shared by every golden comparison.
MODEL = "snli"
EPOCHS = 1
BATCHES = 1
BATCH_SIZE = 4
MAX_GROUPS = 8


def _trace():
    return trace_workload(MODEL, epochs=EPOCHS, batches_per_epoch=BATCHES,
                          batch_size=BATCH_SIZE, seed=0)


def _golden_simulate() -> str:
    """The PR 3 ``repro simulate`` body, frozen."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        config = AcceleratorConfig().with_pe(datatype="fp32")
        print(f"Accelerator: {config.describe()}")
        print(f"Training {MODEL} for {EPOCHS} epoch(s)...")
        trace = _trace()
        runner = ExperimentRunner(config, max_groups=MAX_GROUPS)
        result = runner.run_final_epoch(trace)
        potentials = ExperimentRunner.potential_speedups_from_trace(trace.final_epoch())
        speedups = result.per_operation_speedups()
        rows = [
            [op, potentials.get(op, float("nan")), speedups[op]]
            for op in ("AxW", "AxG", "WxG", "Total")
        ]
        print(format_table(
            f"{MODEL}: TensorDash vs baseline",
            ["operation", "potential", "speedup"],
            rows,
        ))
        report = runner.energy_report(result)
        print(f"Core energy efficiency:    {report.core_efficiency:.3f}x")
        print(f"Overall energy efficiency: {report.overall_efficiency:.3f}x")
        print(format_engine_stats(runner.engine_stats))
    return buffer.getvalue()


def _golden_roofline(dram_bandwidth: float) -> str:
    """The PR 3 ``repro roofline`` body, frozen."""
    from repro.analysis.roofline import format_roofline_report, roofline_report

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        config = AcceleratorConfig().with_pe(datatype="fp32")
        config = config.with_hierarchy(dram_bandwidth_gbps=dram_bandwidth)
        print(f"Accelerator: {config.describe()}")
        print(f"Training {MODEL} for {EPOCHS} epoch(s)...")
        trace = _trace()
        runner = ExperimentRunner(config, max_groups=MAX_GROUPS)
        result = runner.run_final_epoch(trace)
        report = roofline_report(result, config)
        print(format_roofline_report(report))
        bound_counts = result.bound_counts()
        memory_bound = sum(n for bound, n in bound_counts.items() if bound != "compute")
        total_ops = sum(bound_counts.values())
        stalls = result.stall_cycles()
        cycles = result.cycles()
        compute_speedup = 1.0
        compute_tensordash = cycles["tensordash"] - stalls["tensordash"]
        if compute_tensordash:
            compute_speedup = (
                cycles["baseline"] - stalls["baseline"]
            ) / compute_tensordash
        print(f"Memory-bound operations:   {memory_bound} of {total_ops}")
        print(f"Stall fraction:            {result.stall_fraction():.1%}")
        print(f"Speedup (with stalls):     {result.speedup():.3f}x")
        print(f"Speedup (compute only):    {compute_speedup:.3f}x")
        print(format_engine_stats(runner.engine_stats))
    return buffer.getvalue()


def _golden_sweep(knob: str, values) -> str:
    """The PR 3 ``repro sweep`` body, frozen."""
    from repro.explore.report import format_points_table
    from repro.explore.runner import StudyRunner
    from repro.explore.spec import StudySpec

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        spec = StudySpec(
            name=f"{MODEL}-{knob}-sweep",
            workloads=[MODEL],
            knobs={knob: values},
            epochs=EPOCHS,
            max_groups=MAX_GROUPS,
            seed=0,
            objectives=["speedup", "core_energy_efficiency", "energy_efficiency"],
        )
        print(f"Training {MODEL} once; sweeping {knob} over {values}...")
        runner = StudyRunner(spec)
        result = runner.run()
        print(format_points_table(result, title=f"{MODEL}: {knob} sweep"))
        print(format_engine_stats(result.stats))
    return buffer.getvalue()


def _golden_explore(spec_path: str) -> str:
    """The PR 3 ``repro explore`` body (table format, no study dir), frozen."""
    from repro.explore.report import format_study_report
    from repro.explore.runner import StudyRunner
    from repro.explore.spec import StudySpec

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        spec = StudySpec.from_json(spec_path)
        print(f"Study '{spec.name}': {spec.space_size} of {spec.space_size} "
              f"points ({spec.mode}), objectives {', '.join(spec.objectives)}")
        runner = StudyRunner(spec)
        result = runner.run(resume=False, progress=print)
        print(format_study_report(result, None))
    return buffer.getvalue()


class TestGoldenOutput:
    def test_simulate_output_is_byte_identical(self, capsys):
        golden = _golden_simulate()
        assert main([
            "simulate", MODEL, "--epochs", str(EPOCHS),
            "--batches-per-epoch", str(BATCHES),
            "--batch-size", str(BATCH_SIZE), "--max-groups", str(MAX_GROUPS),
        ]) == 0
        assert capsys.readouterr().out == golden

    def test_roofline_output_is_byte_identical(self, capsys):
        golden = _golden_roofline(dram_bandwidth=2.0)
        assert main([
            "roofline", MODEL, "--epochs", str(EPOCHS),
            "--batches-per-epoch", str(BATCHES),
            "--batch-size", str(BATCH_SIZE), "--max-groups", str(MAX_GROUPS),
            "--dram-bandwidth-gbps", "2",
        ]) == 0
        assert capsys.readouterr().out == golden

    def test_sweep_output_is_byte_identical(self, capsys):
        golden = _golden_sweep("staging", [2, 3])
        assert main([
            "sweep", MODEL, "--knob", "staging", "--values", "2,3",
            "--epochs", str(EPOCHS), "--max-groups", str(MAX_GROUPS),
        ]) == 0
        assert capsys.readouterr().out == golden

    def test_explore_output_is_byte_identical(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps({
            "name": "tiny-golden",
            "workloads": [MODEL],
            "knobs": {"staging": [2, 3]},
            "epochs": EPOCHS,
            "batches_per_epoch": BATCHES,
            "batch_size": BATCH_SIZE,
            "max_groups": MAX_GROUPS,
        }))
        golden = _golden_explore(str(spec_path))
        assert main(["explore", str(spec_path)]) == 0
        assert capsys.readouterr().out == golden
