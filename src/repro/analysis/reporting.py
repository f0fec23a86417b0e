"""Plain-text table/series formatting for the benchmark harness output.

The benchmarks print the same rows and series the paper's figures plot;
these helpers keep that output readable and consistent without depending on
any plotting library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence


@dataclass
class ReportTable:
    """A simple column-aligned table builder."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row; the number of values must match the columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(values)

    def render(self) -> str:
        """Render the table as aligned plain text."""
        header = [str(c) for c in self.columns]
        body = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for row in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    title: str, columns: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """One-shot table formatting."""
    table = ReportTable(title=title, columns=list(columns))
    for row in rows:
        table.add_row(*row)
    return table.render()


def format_engine_stats(stats) -> str:
    """One-line simulation + cache summary for an ``EngineStats`` record.

    Shown after every simulate/sweep run so cache effectiveness is
    visible in the report.  Every engine memoizes, so the hit counts
    mean something with or without a cache dir.
    """
    return (
        f"engine: layers simulated={stats.layers_simulated}  "
        f"cache hits={stats.cache_hits} misses={stats.cache_misses} "
        f"(hit rate {stats.hit_rate:.1%})"
    )


def format_series(title: str, series: Mapping[str, Mapping[str, float]]) -> str:
    """Format a {row -> {column -> value}} mapping as a table.

    Useful for the per-model, per-operation speedup matrices of Figs. 1
    and 13.
    """
    columns: List[str] = []
    for values in series.values():
        for column in values:
            if column not in columns:
                columns.append(column)
    rows = []
    for name, values in series.items():
        rows.append([name] + [values.get(column, float("nan")) for column in columns])
    return format_table(title, ["model"] + columns, rows)
