"""The span rollup behind the benchmark's per-layer busy and self times."""

import pytest

from spans import SpanRecorder, merged, rollup, self_times


def test_self_time_subtracts_the_interval_direct_children_cover():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],       # overlaps a: the overlap counts once
        ["leaf", 2.0, 3.0, 1],    # a grandchild: only its parent loses it
        ["late", 9.0, 12.0, 0],   # reaches past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_rollup_sums_each_layer_over_merged_requests():
    first = {"spans": [["cli", 0.0, 5.0, None], ["engine", 1.0, 3.0, 0]],
             "counts": {"hits": 1}}
    second = {"spans": [["cli", 0.0, 4.0, None], ["engine", 0.5, 1.5, 0]],
              "counts": {"hits": 2}}
    spans, counts = merged([first, second])
    layers = rollup(spans)
    assert layers["cli"] == pytest.approx(
        {"calls": 2, "busy_s": 9.0, "self_s": 6.0})
    assert layers["engine"] == pytest.approx(
        {"calls": 2, "busy_s": 3.0, "self_s": 3.0})
    assert counts == {"hits": 3}


def test_recorder_links_nested_calls_to_their_parent():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    inner()
    assert [(name, parent) for name, _, _, parent in recorder.spans] == [
        ("outer", None), ("inner", 0), ("inner", None)]
    assert all(start <= end for _, start, end, _ in recorder.spans)
