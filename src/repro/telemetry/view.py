"""Span-tree rendering for recorded telemetry logs (``repro trace``).

Rebuilds the parent/child structure of every trace in a JSONL event log
(one segment file, or a telemetry directory of rotated segments) and
renders it as an indented tree with **total** wall time (the span's own
duration) and **self** time (total minus the children's totals) — the
same self/total decomposition ``docs/performance.md`` used to get from a
one-off cProfile script, now available for any recorded run.

Spans whose parent is missing from the log (rotated away, or emitted by
another process) are promoted to roots, so partial logs still render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.telemetry.schema import iter_records, validate_record

#: Attribute values longer than this are elided in tree lines.
_MAX_ATTR_CHARS = 40
#: Width of a tree line's label column (connector, name, attributes).
_NAME_WIDTH = 72


@dataclass
class SpanNode:
    """One span plus its resolved children, ready to render."""

    record: Dict
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def start_s(self) -> float:
        return float(self.record["start_s"])

    @property
    def total_s(self) -> float:
        return float(self.record["duration_s"])

    @property
    def self_s(self) -> float:
        return max(0.0, self.total_s - sum(c.total_s for c in self.children))

    def count(self) -> int:
        return 1 + sum(child.count() for child in self.children)


@dataclass
class TraceTree:
    """Every root span recorded under one ``trace_id``."""

    trace_id: str
    roots: List[SpanNode]

    @property
    def span_count(self) -> int:
        return sum(root.count() for root in self.roots)

    @property
    def total_s(self) -> float:
        return sum(root.total_s for root in self.roots)


def load_spans(path) -> List[Dict]:
    """Every valid span record under ``path`` (metrics records skipped)."""
    spans = []
    for _file, _number, record in iter_records(path):
        if validate_record(record) == "span":
            spans.append(record)
    return spans


def build_trees(spans: List[Dict]) -> List[TraceTree]:
    """Group spans by trace and resolve parents (orphans become roots)."""
    by_trace: "Dict[str, List[Dict]]" = {}
    for record in spans:
        by_trace.setdefault(record["trace_id"], []).append(record)
    trees = []
    for trace_id, records in by_trace.items():
        nodes = {record["span_id"]: SpanNode(record) for record in records}
        roots = []
        for node in nodes.values():
            parent = nodes.get(node.record.get("parent_id"))
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda child: child.start_s)
        roots.sort(key=lambda root: root.start_s)
        trees.append(TraceTree(trace_id=trace_id, roots=roots))
    trees.sort(key=lambda tree: tree.roots[0].start_s if tree.roots else 0.0)
    return trees


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1e3:8.3f}ms"


def _attribute_text(record: Dict) -> str:
    parts = []
    for key, value in sorted(record.get("attributes", {}).items()):
        text = str(value)
        if len(text) > _MAX_ATTR_CHARS:
            text = text[: _MAX_ATTR_CHARS - 1] + "…"
        parts.append(f"{key}={text}")
    return " ".join(parts)


def _render_node(
    node: SpanNode, prefix: str, is_last: bool, is_root: bool,
    min_s: float, lines: List[str],
) -> None:
    if node.total_s < min_s:
        return
    if is_root:
        connector, child_prefix = "", ""
    else:
        connector = prefix + ("└─ " if is_last else "├─ ")
        child_prefix = prefix + ("   " if is_last else "│  ")
    label = connector + node.name
    attributes = _attribute_text(node.record)
    if attributes:
        label += "  " + attributes
    if len(label) > _NAME_WIDTH:
        label = label[: _NAME_WIDTH - 1] + "…"
    lines.append(
        f"{label:<{_NAME_WIDTH}}  total {_format_seconds(node.total_s)}"
        f"  self {_format_seconds(node.self_s)}"
    )
    visible = [c for c in node.children if c.total_s >= min_s]
    hidden = len(node.children) - len(visible)
    for index, child in enumerate(visible):
        _render_node(
            child, child_prefix, index == len(visible) - 1, False, min_s, lines,
        )
    if hidden:
        lines.append(
            f"{child_prefix}   … {hidden} span(s) below --min-ms hidden"
        )


def render_trace_trees(
    path,
    trace_id: Optional[str] = None,
    min_ms: float = 0.0,
) -> str:
    """Render every trace under ``path`` as an indented span tree.

    ``trace_id`` keeps only traces whose id starts with the given prefix;
    ``min_ms`` hides spans shorter than the threshold (with a count of
    what was hidden, so the tree never silently truncates).
    """
    spans = load_spans(path)
    trees = build_trees(spans)
    if trace_id:
        trees = [tree for tree in trees if tree.trace_id.startswith(trace_id)]
    if not trees:
        matched = f" matching {trace_id!r}" if trace_id else ""
        raise ValueError(f"no span records{matched} found under {path}")
    blocks = []
    for tree in trees:
        lines = [
            f"Trace {tree.trace_id} — {tree.span_count} span(s), "
            f"{tree.total_s:.3f}s total"
        ]
        for index, root in enumerate(tree.roots):
            _render_node(
                root, "", index == len(tree.roots) - 1, True, min_ms / 1e3, lines,
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def summarize_by_name(path) -> List[Dict[str, Union[str, int, float]]]:
    """Aggregate self/total seconds per span name (flat profile view)."""
    spans = load_spans(path)
    trees = build_trees(spans)
    totals: Dict[str, Dict[str, float]] = {}

    def visit(node: SpanNode) -> None:
        entry = totals.setdefault(
            node.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += node.total_s
        entry["self_s"] += node.self_s
        for child in node.children:
            visit(child)

    for tree in trees:
        for root in tree.roots:
            visit(root)
    return [
        {"name": name, **values}
        for name, values in sorted(
            totals.items(), key=lambda item: -item[1]["self_s"]
        )
    ]
