"""Property-based tests (hypothesis) for the observability merge algebra.

Folding campaign workers' snapshots only works if merging is insensitive to
*how* the pieces arrive: worker counts, pipe arrival order and coordinator
batching all vary run to run, yet ``telemetry report`` must not.  So the merge primitives
need real algebraic properties:

* ``Histogram.merge`` is associative and commutative (fixed shared buckets
  make the bucket counts a plain vector sum);
* ``merge_snapshots`` is order-independent on counters, spans, histograms
  and tick totals (gauges are last-wins *by design* and excluded);
* the trace JSONL reader tolerates truncation at any byte — a worker killed
  mid-write yields a clean prefix of its events, never an exception.

Observed values are integer-valued floats so float sums are exact and the
properties can be asserted with ``==`` instead of tolerances.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, Telemetry, TraceBuffer, merge_snapshots
from repro.obs.tracing import read_trace_jsonl, write_trace_jsonl

HYP_SETTINGS = dict(max_examples=40, deadline=None)

# Integer-valued floats: exactly representable, so sums are associative.
exact_floats = st.integers(min_value=0, max_value=1_000_000).map(float)
value_lists = st.lists(exact_floats, max_size=20)


def _histogram(values) -> Histogram:
    hist = Histogram()
    for value in values:
        hist.observe(value)
    return hist


def _as_tuple(hist: Histogram):
    return (tuple(hist.counts), hist.count, hist.total, hist.min, hist.max)


def _merged(*hists) -> Histogram:
    out = Histogram()
    for hist in hists:
        out.merge(hist)
    return out


class TestHistogramMergeAlgebra:
    @settings(**HYP_SETTINGS)
    @given(a=value_lists, b=value_lists)
    def test_merge_commutative(self, a, b):
        ab = _merged(_histogram(a), _histogram(b))
        ba = _merged(_histogram(b), _histogram(a))
        assert _as_tuple(ab) == _as_tuple(ba)

    @settings(**HYP_SETTINGS)
    @given(a=value_lists, b=value_lists, c=value_lists)
    def test_merge_associative(self, a, b, c):
        left = _merged(_merged(_histogram(a), _histogram(b)), _histogram(c))
        right = _merged(_histogram(a), _merged(_histogram(b), _histogram(c)))
        assert _as_tuple(left) == _as_tuple(right)

    @settings(**HYP_SETTINGS)
    @given(a=value_lists)
    def test_merge_matches_direct_observation(self, a):
        half = len(a) // 2
        merged = _merged(_histogram(a[:half]), _histogram(a[half:]))
        assert _as_tuple(merged) == _as_tuple(_histogram(a))


# One process's worth of telemetry, as strategy-built snapshot dicts.
metric_names = st.sampled_from(
    ["engine.round", "engine.compute", "engine.deliver",
     "engine.query", "serve.ingest"]
)
snapshots = st.builds(
    lambda spans, counters, sizes: _snapshot_dict(spans, counters, sizes),
    spans=st.dictionaries(metric_names, value_lists, max_size=3),
    counters=st.dictionaries(metric_names, st.integers(0, 1000), max_size=3),
    sizes=value_lists,
)


def _snapshot_dict(spans, counters, sizes):
    telemetry = Telemetry(enabled=True)
    for name, durations in spans.items():
        for duration in durations:
            telemetry.record_span(name, duration)
    for name, value in counters.items():
        telemetry.count(name, value)
    for value in sizes:
        telemetry.observe("engine.active_set", value)
    snap = telemetry.snapshot(final=True)
    snap["ticks"] = len(sizes)
    return snap


def _comparable(merged):
    return (
        merged["counters"],
        merged["ticks"],
        {name: dict(stat) for name, stat in merged["spans"].items()},
        {name: _as_tuple(hist) for name, hist in merged["histograms"].items()},
    )


class TestMergeSnapshotsOrderIndependence:
    @settings(**HYP_SETTINGS)
    @given(
        snaps=st.lists(snapshots, min_size=1, max_size=4),
        data=st.data(),
    )
    def test_any_permutation_merges_identically(self, snaps, data):
        shuffled = data.draw(st.permutations(snaps))
        assert _comparable(merge_snapshots(shuffled)) == _comparable(
            merge_snapshots(snaps)
        )


class TestTraceTruncationTolerance:
    # tmp_path is function-scoped but every example rewrites the file from
    # scratch, so reuse across examples is safe.
    @settings(
        **HYP_SETTINGS,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        durations=st.lists(exact_floats, min_size=1, max_size=10),
        data=st.data(),
    )
    def test_truncation_yields_clean_event_prefix(self, durations, data, tmp_path):
        buffer = TraceBuffer(64, engine_mode="dense")
        buffer.wall0 = buffer.perf0 = 0.0
        for i, duration in enumerate(durations):
            buffer.add("engine.round", float(i * 10), float(i * 10) + duration,
                       round_index=i)
        path = tmp_path / "t.trace.jsonl"
        write_trace_jsonl(path, buffer)
        raw = path.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        path.write_bytes(raw[:cut])
        events = read_trace_jsonl(path)  # must not raise
        assert events == buffer.events()[: len(events)]
