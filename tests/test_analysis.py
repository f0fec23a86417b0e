"""Tests for metric aggregation and report formatting."""

import pytest

from repro.analysis import (
    ReportTable,
    format_engine_stats,
    format_series,
    format_table,
    geometric_mean,
)
from repro.engine import EngineStats


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([1.95]) == pytest.approx(1.95)
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestReporting:
    def test_table_rendering_alignment(self):
        table = ReportTable(title="Speedups", columns=["model", "speedup"])
        table.add_row("alexnet", 1.95)
        table.add_row("vgg16", 2.1)
        text = table.render()
        assert "Speedups" in text
        assert "alexnet" in text
        assert "1.950" in text

    def test_table_rejects_wrong_row_width(self):
        table = ReportTable(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_format_table_one_shot(self):
        text = format_table("T", ["x"], [[1.0], [2.0]])
        assert text.count("\n") >= 4

    def test_format_series(self):
        series = {
            "alexnet": {"AxW": 1.9, "AxG": 2.2},
            "vgg16": {"AxW": 1.7},
        }
        text = format_series("Fig13", series)
        assert "Fig13" in text
        assert "AxG" in text
        assert "nan" in text    # missing cell rendered as NaN

    def test_engine_stats_line_shows_memo_hits_without_a_cache_dir(self):
        stats = EngineStats(layers_simulated=48, cache_hits=48,
                            cache_misses=48, memo_hits=48)
        assert format_engine_stats(stats) == (
            "engine: layers simulated=48  "
            "cache hits=48 misses=48 (hit rate 50.0%)"
        )
