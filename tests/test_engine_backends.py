"""Kernel-vs-oracle equivalence and result-cache tests for the engine.

The engine's core guarantee is that the batched scheduling kernel
(``Accelerator.run_operations_batched``) is bit-identical to the readable
oracle (``Accelerator.run_operation_reference``) — same cycle counts,
same MAC counts, same traffic — across sparsity levels and layer shapes.
These tests enforce that at the operation level (random row groups) and
at the system level (traced layers through the full ``SimulationEngine``,
run once on the kernel and once on the oracle via :func:`run_on_oracle`),
and cover the on-disk cache's hit/miss/invalidation semantics.
"""

import json
import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.core.config import AcceleratorConfig
from repro.engine import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    SimulationEngine,
    compute_fingerprint,
    layer_key,
    trace_fingerprint,
)
from repro.simulation.cycle_sim import LayerSimulator
from repro.training.tracing import LayerTrace

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def run_on_oracle():
    """Schedule every operation on the readable oracle while active.

    Patches :meth:`Accelerator.run_operations_batched` to map
    :meth:`Accelerator.run_operation_reference` over its units, so whole
    engines, runners and sessions run on ``HardwareScheduler.walk``
    without any production switch.
    """
    def reference(self, units):
        return [self.run_operation_reference(name, groups) for name, groups in units]

    with mock.patch.object(Accelerator, "run_operations_batched", reference):
        yield


def random_groups(rng, num_groups, tile_rows, stream_rows, lanes=16, sparsity=0.6):
    return rng.random((num_groups, tile_rows, stream_rows, lanes)) >= sparsity


def make_conv_trace(rng, name="conv0", channels=6, size=10, batch=2,
                    kernel=3, sparsity=0.6):
    shape = (batch, channels, size, size)
    activation = rng.random(shape) >= sparsity
    gradient = rng.random(shape) >= sparsity
    weights = rng.random((4, channels, kernel, kernel)) >= 0.2
    return LayerTrace(
        layer_name=name,
        layer_type="conv",
        kernel=kernel,
        stride=1,
        padding=1,
        weight_mask=weights,
        activation_mask=activation,
        output_gradient_mask=gradient,
        macs=int(np.prod(shape)) * 9,
    )


def assert_results_identical(lhs, rhs):
    assert [r.layer_name for r in lhs] == [r.layer_name for r in rhs]
    for a, b in zip(lhs, rhs):
        assert set(a.operations) == set(b.operations)
        for op in a.operations:
            assert a.operations[op] == b.operations[op], (a.layer_name, op)
        assert a.traffic == b.traffic


class TestOperationEquivalence:
    """Property test: random sparsities/shapes, bit-identical operations."""

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_vectorized_matches_reference_across_sparsity(self, sparsity):
        rng = np.random.default_rng(int(sparsity * 10))
        acc = Accelerator()
        groups = random_groups(rng, 6, 4, 33, sparsity=sparsity)
        ref = acc.run_operation_reference("AxW", groups)
        vec = acc.run_operation_batched("AxW", groups)
        assert ref == vec

    @pytest.mark.parametrize("seed", range(5))
    def test_vectorized_matches_reference_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        num_groups = int(rng.integers(1, 9))
        tile_rows = int(rng.integers(1, 5))
        stream_rows = int(rng.integers(1, 50))
        sparsity = float(rng.random())
        config = AcceleratorConfig().with_pe(
            staging_depth=int(rng.integers(1, 5))
        ).with_tile(rows=tile_rows)
        acc = Accelerator(config)
        groups = random_groups(rng, num_groups, tile_rows, stream_rows,
                               sparsity=sparsity)
        ref = acc.run_operation_reference("WxG", groups)
        vec = acc.run_operation_batched("WxG", groups)
        assert ref == vec

    def test_power_gated_baseline_identical(self):
        rng = np.random.default_rng(7)
        acc = Accelerator(AcceleratorConfig(power_gated=True))
        groups = random_groups(rng, 4, 4, 20, sparsity=0.5)
        ref = acc.run_operation_reference("AxG", groups)
        vec = acc.run_operation_batched("AxG", groups)
        assert ref == vec
        assert ref.tensordash_cycles == ref.baseline_cycles

    def test_accelerator_serial_and_batched_paths_agree(self):
        rng = np.random.default_rng(11)
        acc = Accelerator()
        groups = random_groups(rng, 5, 4, 29, sparsity=0.7)
        serial = sum(int(acc.tile_cycles_batch(g[None])[0]) for g in groups)
        batched = acc.run_operation_batched("AxW", groups)
        assert serial == batched.tensordash_cycles


class TestSystemEquivalence:
    """Traced layers through the full engine, on the kernel and the oracle."""

    @pytest.fixture(scope="class")
    def traces(self):
        rng = np.random.default_rng(42)
        return [
            make_conv_trace(rng, "conv_dense", sparsity=0.1),
            make_conv_trace(rng, "conv_mid", sparsity=0.5),
            make_conv_trace(rng, "conv_sparse", sparsity=0.9),
        ]

    @pytest.fixture(scope="class")
    def reference_results(self, traces):
        with run_on_oracle():
            return SimulationEngine(max_groups=16).simulate_layers(traces)

    def test_vectorized_bit_identical(self, traces, reference_results):
        engine = SimulationEngine(max_groups=16)
        assert_results_identical(engine.simulate_layers(traces),
                                 reference_results)

    def test_all_backends_identical_under_finite_hierarchy(self, traces):
        """Memory-aware results match the oracle too (incl. stalls)."""
        config = AcceleratorConfig().with_hierarchy(
            dram_bandwidth_gbps=4.0, sram_kb=128
        )
        with run_on_oracle():
            reference = SimulationEngine(
                config, max_groups=16
            ).simulate_layers(traces)
        assert any(
            op.memory_bound
            for result in reference
            for op in result.operations.values()
        )
        results = SimulationEngine(config, max_groups=16).simulate_layers(traces)
        assert_results_identical(results, reference)

    def test_refill_clamp_equivalence_deep_staging(self):
        """staging depth > scratchpad banks: the clamp binds, kernel = oracle."""
        rng = np.random.default_rng(11)
        config = AcceleratorConfig().with_pe(staging_depth=4).with_hierarchy(
            dram_bandwidth_gbps=51.2
        )
        acc = Accelerator(config)
        # Single-row groups: the group advance equals the row advance, so
        # highly sparse streams regularly drain all 4 staging rows at once
        # and hit the 3-bank refill ceiling.
        groups = random_groups(rng, 8, 1, 40, sparsity=0.97)
        ref = acc.run_operation_reference("AxW", groups)
        vec = acc.run_operation_batched("AxW", groups)
        assert ref == vec
        unclamped = Accelerator(
            AcceleratorConfig().with_pe(staging_depth=4)
        ).run_operation_batched("AxW", groups)
        assert vec.tensordash_cycles > unclamped.tensordash_cycles

    def test_layers_without_masks_are_skipped(self, traces):
        engine = SimulationEngine(max_groups=16)
        bare = LayerTrace(layer_name="untraced", layer_type="conv")
        results = engine.simulate_layers([bare] + list(traces))
        assert [r.layer_name for r in results] == [t.layer_name for t in traces]
        with pytest.raises(ValueError, match="'untraced' has no operand masks"):
            engine.simulator_for().simulate_layer(bare)

    def test_stats_count_simulated_layers(self, traces):
        engine = SimulationEngine(max_groups=16)
        engine.simulate_layers(traces)
        assert engine.stats.layers_simulated == len(traces)
        assert "backend" not in engine.stats.as_dict()
        assert engine.stats.as_dict()["hit_rate"] == 0.0


class TestResultCache:
    @pytest.fixture()
    def traces(self):
        rng = np.random.default_rng(3)
        return [make_conv_trace(rng, f"conv{i}", sparsity=0.5) for i in range(3)]

    def test_second_run_is_all_hits_and_bit_identical(self, traces, tmp_path):
        first = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        results_first = first.simulate_layers(traces)
        assert first.stats.cache_misses == len(traces)
        assert first.stats.layers_simulated == len(traces)

        second = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        results_second = second.simulate_layers(traces)
        assert second.stats.cache_hits == len(traces)
        assert second.stats.cache_misses == 0
        assert second.stats.layers_simulated == 0
        assert second.stats.hit_rate == 1.0
        assert_results_identical(results_first, results_second)

    def test_config_change_invalidates(self, traces, tmp_path):
        SimulationEngine(cache_dir=tmp_path, max_groups=16).simulate_layers(traces)
        other = SimulationEngine(
            AcceleratorConfig().with_pe(staging_depth=2),
            cache_dir=tmp_path, max_groups=16,
        )
        other.simulate_layers(traces)
        assert other.stats.cache_hits == 0
        assert other.stats.cache_misses == len(traces)

    def test_hierarchy_change_invalidates(self, traces, tmp_path):
        """Results from differing memory hierarchies must never collide.

        A hierarchy that moves the staging-refill limit misses; one that
        keeps it reuses the compute part but is finalized under its own
        bandwidth."""
        SimulationEngine(cache_dir=tmp_path, max_groups=16).simulate_layers(traces)
        bounded = SimulationEngine(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=4.0),
            cache_dir=tmp_path, max_groups=16,
        )
        slow = bounded.simulate_layers(traces)
        assert bounded.stats.cache_hits == 0
        assert bounded.stats.cache_misses == len(traces)
        # A different bandwidth with the same refill limit hits, and its
        # stalls are its own.
        other_config = AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=8.0)
        other = SimulationEngine(other_config, cache_dir=tmp_path, max_groups=16)
        served = other.simulate_layers(traces)
        assert other.stats.cache_hits == len(traces)
        assert_results_identical(
            served, SimulationEngine(other_config, max_groups=16).simulate_layers(traces)
        )
        assert [r.stall_cycles for r in served] != [r.stall_cycles for r in slow]
        # Re-running the same bounded config is all hits, with the
        # stall/bound fields recomputed on the way out.
        again = SimulationEngine(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=4.0),
            cache_dir=tmp_path, max_groups=16,
        )
        cached = again.simulate_layers(traces)
        assert again.stats.cache_hits == len(traces)
        fresh = SimulationEngine(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=4.0),
            max_groups=16,
        ).simulate_layers(traces)
        assert_results_identical(cached, fresh)
        assert any(
            op.tensordash_stall_cycles > 0
            for result in cached
            for op in result.operations.values()
        )

    def test_reference_filled_cache_serves_vectorized(self, traces, tmp_path):
        """Entries the oracle filled serve the kernel: the key has no engine path."""
        with run_on_oracle():
            filled = SimulationEngine(
                cache_dir=tmp_path, max_groups=16
            ).simulate_layers(traces)
        vec = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        served = vec.simulate_layers(traces)
        assert vec.stats.hit_rate == 1.0
        assert vec.stats.cache_hits == len(traces)
        assert vec.stats.layers_simulated == 0
        assert_results_identical(served, filled)

    def test_trace_change_invalidates(self, tmp_path):
        rng = np.random.default_rng(9)
        trace_a = make_conv_trace(rng, "conv", sparsity=0.5)
        trace_b = make_conv_trace(rng, "conv", sparsity=0.5)  # new random masks
        engine = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        engine.simulate_layers([trace_a])
        engine.simulate_layers([trace_b])
        assert engine.stats.cache_misses == 2

    def test_corrupt_entry_is_a_miss(self, traces, tmp_path):
        """Unparseable files and valid JSON of the wrong shape both miss."""
        fresh = SimulationEngine(
            cache_dir=tmp_path, max_groups=16
        ).simulate_layers(traces)
        bodies = [
            "{not json",
            "[]",
            "null",
            '"x"',
            f'{{"version": {CACHE_SCHEMA_VERSION}, "operations": []}}',
        ]
        for body in bodies:
            paths = list(tmp_path.glob("*/*.json"))
            assert len(paths) == len(traces)
            for path in paths:
                path.write_text(body)
            again = SimulationEngine(cache_dir=tmp_path, max_groups=16)
            assert_results_identical(again.simulate_layers(traces), fresh)
            assert again.stats.cache_hits == 0, body
            assert again.stats.cache_misses == len(traces), body

    def test_fingerprints_are_stable_and_sensitive(self):
        rng = np.random.default_rng(5)
        trace = make_conv_trace(rng, "conv", sparsity=0.5)
        fp1 = compute_fingerprint(LayerSimulator(max_groups=16))
        fp2 = compute_fingerprint(LayerSimulator(max_groups=16))
        assert fp1 == fp2
        other = compute_fingerprint(LayerSimulator(max_groups=32))
        assert fp1 != other
        tfp = trace_fingerprint(trace)
        assert tfp == trace_fingerprint(trace)
        key = layer_key(fp1, tfp)
        assert key == layer_key(fp1, tfp)
        assert key != layer_key(other, tfp)

    def test_cache_len_counts_entries(self, traces, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        engine.simulate_layers(traces)
        assert len(ResultCache(tmp_path)) == len(traces)

    def test_cache_dir_shared_across_real_processes(self, traces, tmp_path):
        """Two processes on one cache dir: the second simulates nothing."""
        layers_file = tmp_path / "layers.pkl"
        layers_file.write_bytes(pickle.dumps(traces))
        worker = (
            "import json, pickle, sys\n"
            "from contextlib import nullcontext\n"
            "from repro.engine import SimulationEngine\n"
            "from tests.test_engine_backends import run_on_oracle\n"
            "layers = pickle.load(open(sys.argv[1], 'rb'))\n"
            "engine = SimulationEngine(cache_dir=sys.argv[2], max_groups=16)\n"
            "with run_on_oracle() if sys.argv[3] == 'reference' else nullcontext():\n"
            "    engine.simulate_layers(layers)\n"
            "print(json.dumps({'simulated': engine.stats.layers_simulated,"
            " 'disk_hits': engine.stats.disk_hits}))\n"
        )
        paths = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        env = dict(os.environ)
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        stats = []
        for path in ("reference", "kernel"):
            proc = subprocess.run(
                [sys.executable, "-c", worker, str(layers_file),
                 str(tmp_path / "cache"), path],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            stats.append(json.loads(proc.stdout))
        assert stats[0] == {"simulated": len(traces), "disk_hits": 0}
        assert stats[1] == {"simulated": 0, "disk_hits": len(traces)}


class TestRunnerIntegration:
    def test_experiment_runner_exposes_engine_stats(self, tmp_path):
        from repro.simulation.runner import ExperimentRunner
        from repro.training.tracing import EpochTrace

        rng = np.random.default_rng(21)
        epoch = EpochTrace(epoch=0,
                           layers=[make_conv_trace(rng, "c0"),
                                   make_conv_trace(rng, "c1")])
        runner = ExperimentRunner(max_groups=16, cache_dir=tmp_path)
        runner.run_epoch("toy", epoch)
        assert runner.engine_stats.cache_misses == 2
        rerun = ExperimentRunner(max_groups=16, cache_dir=tmp_path)
        rerun.run_epoch("toy", epoch)
        assert rerun.engine_stats.cache_hits == 2
        assert rerun.engine_stats.layers_simulated == 0

    def test_runner_backend_equivalence_on_trained_trace(self):
        """End-to-end: a real (briefly trained) model, kernel = oracle."""
        from repro.models import build_snli
        from repro.nn.optim import MomentumSGD
        from repro.simulation.runner import ExperimentRunner
        from repro.training import (
            SyntheticSequenceDataset,
            Trainer,
            TrainingConfig,
        )

        model = build_snli(seed=0)
        dataset = SyntheticSequenceDataset(vocab_size=512, sequence_length=20,
                                           num_classes=3, seed=0)
        trainer = Trainer(
            model, MomentumSGD(model.parameters(), lr=0.01),
            config=TrainingConfig(epochs=1, batches_per_epoch=1, batch_size=4),
        )
        trace = trainer.train(dataset, model_name="snli")
        with run_on_oracle():
            ref = ExperimentRunner(max_groups=8).run_final_epoch(trace)
        vec = ExperimentRunner(max_groups=8).run_final_epoch(trace)
        assert_results_identical(vec.layer_results, ref.layer_results)
        assert vec.speedup() == ref.speedup()
