"""Percentile helper and span self-time arithmetic."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import MIN_BEYOND, nearest_rank, summarize, tail_percentile  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402


def span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, name, start, end, 0, True, None)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(200) == 95
    assert tail_percentile(199) == 94
    assert tail_percentile(1000) == 95
    assert tail_percentile(32) == 68
    for count in range(20, 2000, 37):
        pct = tail_percentile(count)
        ordered = list(range(count))
        beyond = sum(1 for v in ordered if v > nearest_rank(ordered, pct))
        assert beyond >= MIN_BEYOND


def test_tail_falls_back_to_the_maximum_on_small_samples():
    assert tail_percentile(10) == 100
    assert tail_percentile(19) == 100  # p47 would be below the median
    summary = summarize([3.0, 1.0, 2.0])
    assert (summary.count, summary.median, summary.tail_pct, summary.tail) == (3, 2.0, 100, 3.0)


def test_summarize_reports_count_median_and_p95():
    samples = [float(v) for v in range(1, 201)]
    summary = summarize(samples[::-1])
    assert summary.count == 200
    assert summary.median == 100.5
    assert summary.tail_pct == 95
    assert summary.tail == 190.0
    assert summarize([]).count == 0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0
    assert covered([(2.0, 5.0), (3.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 5.0),  # overlaps its sibling, e.g. from a server thread
        span(4, 2, 1.5, 2.0),  # a grandchild does not count against the root
        span(5, 0, 20.0, 21.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.5, 3: 2.0, 4: 0.5, 5: 1.0}


def test_tracer_nests_spans_and_restores_the_original():
    class Owner:
        @staticmethod
        def leaf(x):
            return x + 1

    def outer(x):
        return Owner.leaf(x) * 2

    original = Owner.__dict__["leaf"]
    with Tracer() as tracer:
        tracer.wrap(Owner, "leaf", "leaf", lambda args, result: result)
        traced_outer = tracer.traced("outer", outer)
        assert traced_outer(1) == 4
        with pytest.raises(TypeError):
            Owner.leaf(None)
    assert Owner.__dict__["leaf"] is original
    by_name = {s.name: s for s in tracer.spans if s.ok}
    leaf, root = by_name["leaf"], by_name["outer"]
    assert root.parent == 0 and leaf.parent == root.span_id
    assert leaf.value == 2
    assert root.start <= leaf.start <= leaf.end <= root.end
    failed = [s for s in tracer.spans if not s.ok]
    assert len(failed) == 1 and failed[0].value is None
