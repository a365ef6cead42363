"""The benchmark's own arithmetic: span self time, percentile support, failure counts."""

import json
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import SpanRecorder, covered

ROOT = Path(__file__).resolve().parents[1]


class TestSelfTime:
    def test_children_overlap_is_counted_once_and_clipped_to_the_parent(self):
        rec = SpanRecorder()
        root = rec.add("request", 0.0, 10.0)
        rec.add("a", 1.0, 3.0, parent=root)
        rec.add("b", 2.0, 5.0, parent=root)  # overlaps a: [1, 5] covered once
        rec.add("c", 8.0, 12.0, parent=root)  # runs past the parent: only [8, 10] counts
        assert rec.self_time(root) == pytest.approx(10.0 - 4.0 - 2.0)

    def test_grandchildren_do_not_count_against_the_grandparent(self):
        rec = SpanRecorder()
        root = rec.add("request", 0.0, 10.0)
        child = rec.add("rtt", 2.0, 6.0, parent=root)
        rec.add("parse", 3.0, 4.0, parent=child)
        assert rec.self_time(root) == pytest.approx(6.0)
        assert rec.self_time(child) == pytest.approx(3.0)
        assert rec.self_times()["parse"] == [pytest.approx(1.0)]

    def test_context_manager_nests_and_disabled_recorder_records_nothing(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0])
        rec = SpanRecorder(clock=lambda: next(ticks))
        with rec.span("outer") as outer:
            with rec.span("inner", parent=outer):
                pass
        assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
            ("outer", 0.0, 4.0, None),
            ("inner", 1.0, 3.0, 0),
        ]
        off = SpanRecorder(enabled=False)
        with off.span("x") as sid:
            assert sid is None
        assert off.add("y", 0.0, 1.0) is None and off.spans == []

    def test_covered_with_no_parts_is_zero(self):
        assert covered((0.0, 5.0), []) == 0.0


class TestPercentileSupport:
    def test_p95_needs_two_hundred_samples(self):
        assert stats.samples_beyond(95, 200) == 10
        assert stats.samples_beyond(95, 199) == 9
        assert stats.min_samples_for(95) == 200
        assert stats.min_samples_for(99) == 1000

    def test_reports_a_supported_tail_and_refuses_an_unsupported_one(self):
        assert stats.percentile(list(range(1, 201)), 95) == 190
        with pytest.raises(stats.InsufficientSamples):
            stats.percentile(list(range(199)), 95)

    def test_median_needs_only_one_sample(self):
        assert stats.percentile([7.0], 50) == 7.0
        with pytest.raises(stats.InsufficientSamples):
            stats.percentile([], 50)

    def test_quartiles_of_one_value_repeat_it(self):
        assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


class TestFailureCounting:
    def test_tally_counts_each_failure_with_its_reason(self):
        tally = stats.Tally()
        assert tally.record(True)
        assert not tally.record(False, "http_503")
        tally.record(False, "wrong_class")
        tally.record(False, "wrong_class")
        assert (tally.attempted, tally.ok, tally.failed) == (4, 1, 3)
        assert tally.as_dict()["reasons"] == {"http_503": 1, "wrong_class": 2}

    def test_phases_sum_into_the_result_line(self):
        phases = stats.Phases()
        phases["http"].record(True)
        phases["http"].record(False, "timeout")
        phases["cycles"].record(True)
        assert (phases.attempted, phases.failed) == (3, 1)
        assert phases.as_dict()["http"] == {"sent": 2, "ok": 1, "failed": 1, "reasons": {"timeout": 1}}


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(m) for m in PER_LAYER]
    assert len({m["name"] for m in spec["end_to_end"] + spec["per_layer"]}) == len(END_TO_END) + len(PER_LAYER)
