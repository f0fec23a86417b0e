"""Tests for the experiment runner and model-level aggregation."""

import numpy as np
import pytest

from repro.core.config import AcceleratorConfig
from repro.models import build_alexnet, build_gcn
from repro.nn.optim import MomentumSGD
from repro.simulation.runner import ExperimentRunner, simulate_model_training
from repro.training import SyntheticImageDataset, SyntheticSequenceDataset, Trainer, TrainingConfig


@pytest.fixture(scope="module")
def alexnet_trace():
    model = build_alexnet(width_multiplier=0.5)
    dataset = SyntheticImageDataset(size=32, seed=0)
    trainer = Trainer(
        model,
        MomentumSGD(model.parameters(), lr=0.01),
        config=TrainingConfig(epochs=3, batches_per_epoch=2, batch_size=8),
    )
    return trainer.train(dataset, model_name="alexnet")


class TestExperimentRunner:
    def test_run_final_epoch_aggregates_layers(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=32)
        result = runner.run_final_epoch(alexnet_trace)
        assert result.model_name == "alexnet"
        assert len(result.layer_results) > 0

    def test_per_operation_speedups_contain_total(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=32)
        result = runner.run_final_epoch(alexnet_trace)
        speedups = result.per_operation_speedups()
        assert set(speedups) == {"AxW", "AxG", "WxG", "Total"}
        for value in speedups.values():
            assert 1.0 <= value <= 3.0 + 1e-9

    def test_potential_upper_bounds_actual(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=32)
        result = runner.run_final_epoch(alexnet_trace)
        potential = result.potential_speedups()
        actual = result.per_operation_speedups()
        # The restricted interconnect cannot beat ideal work reduction,
        # except where the 3x staging cap binds (then both are capped).
        assert actual["Total"] <= max(potential["Total"], 3.0) + 1e-9

    def test_cycles_accounting_consistency(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=32)
        result = runner.run_final_epoch(alexnet_trace)
        per_op_sum = sum(
            result.cycles(op)["baseline"] for op in ("AxW", "AxG", "WxG")
        )
        assert per_op_sum == result.cycles()["baseline"]

    def test_run_over_training_returns_series(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=16)
        series = runner.run_over_training(alexnet_trace)
        assert len(series) == len(alexnet_trace.epochs)
        series_sampled = runner.run_over_training(alexnet_trace, num_points=2)
        assert len(series_sampled) == 2

    def test_potential_speedups_from_trace(self, alexnet_trace):
        potentials = ExperimentRunner.potential_speedups_from_trace(
            alexnet_trace.final_epoch()
        )
        assert set(potentials) == {"AxW", "AxG", "WxG", "Total"}
        assert all(v >= 1.0 for v in potentials.values())

    def test_energy_report_structure(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=32)
        result = runner.run_final_epoch(alexnet_trace)
        report = runner.energy_report(result)
        assert report.core_efficiency >= 1.0
        assert report.overall_efficiency >= 1.0
        assert report.overall_efficiency <= report.core_efficiency
        fractions = report.baseline.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_power_gated_energy_report(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=16)
        result = runner.run_final_epoch(alexnet_trace)
        gated = runner.energy_report(result, power_gated=True)
        ungated = runner.energy_report(result)
        # Power gating removes the scheduler/mux power draw.
        assert gated.tensordash.core_pj <= ungated.tensordash.core_pj


class TestRunBatch:
    def test_batch_matches_per_epoch_runs(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=16)
        epoch = alexnet_trace.final_epoch()
        earlier = alexnet_trace.epochs[0]
        batched = runner.run_batch([("alexnet", epoch), ("alexnet-e0", earlier)])
        assert [r.model_name for r in batched] == ["alexnet", "alexnet-e0"]

        solo = ExperimentRunner(max_groups=16)
        expected = [solo.run_epoch("alexnet", epoch), solo.run_epoch("alexnet-e0", earlier)]
        for got, want in zip(batched, expected):
            assert got.epoch == want.epoch
            assert len(got.layer_results) == len(want.layer_results)
            assert got.cycles() == want.cycles()
            assert got.speedup() == pytest.approx(want.speedup())

    def test_batch_is_one_engine_pass(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=8)
        epoch = alexnet_trace.final_epoch()
        runner.run_batch([("a", epoch), ("b", epoch)])
        total_layers = sum(
            1 for layer in epoch.layers if layer.activation_mask is not None
        )
        assert runner.engine_stats.layers_simulated == 2 * total_layers

    def test_empty_batch(self):
        assert ExperimentRunner(max_groups=8).run_batch([]) == []

    def test_repeated_epoch_is_served_by_the_memo(self, alexnet_trace):
        runner = ExperimentRunner(max_groups=8)   # no cache dir
        first = runner.run_final_epoch(alexnet_trace)
        simulated = runner.engine_stats.layers_simulated
        again = runner.run_final_epoch(alexnet_trace)
        assert simulated > 0
        assert runner.engine_stats.layers_simulated == simulated
        assert runner.engine_stats.memo_hits == simulated
        assert again.cycles() == first.cycles()


class TestSimulateModelTraining:
    def test_end_to_end_convenience(self):
        model = build_alexnet(width_multiplier=0.5)
        dataset = SyntheticImageDataset(size=32, seed=1)
        result = simulate_model_training(
            model, dataset, "alexnet", epochs=1, batches_per_epoch=1,
            batch_size=4, max_groups=16,
        )
        assert result.speedup() >= 1.0

    def test_gcn_shows_virtually_no_speedup(self):
        model = build_gcn(vocab_size=64, sequence_length=10, num_classes=64)
        dataset = SyntheticSequenceDataset(vocab_size=64, sequence_length=10, num_classes=64)
        result = simulate_model_training(
            model, dataset, "gcn", epochs=1, batches_per_epoch=1,
            batch_size=8, max_groups=16,
        )
        assert result.speedup() == pytest.approx(1.0, abs=0.1)

    def test_custom_config_is_used(self):
        model = build_alexnet(width_multiplier=0.5)
        dataset = SyntheticImageDataset(size=32, seed=2)
        config = AcceleratorConfig(power_gated=True)
        result = simulate_model_training(
            model, dataset, "alexnet", config=config, epochs=1,
            batches_per_epoch=1, batch_size=4, max_groups=8,
        )
        assert result.speedup() == pytest.approx(1.0)
