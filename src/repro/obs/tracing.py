"""Structured trace events: bounded ring buffer + Chrome trace-event export.

The telemetry registry (:mod:`repro.obs.telemetry`) answers *how much* time
each stage took in aggregate; this module answers *when* — an event-level
timeline of (stage, round, engine mode) intervals that loads straight into
Perfetto / ``chrome://tracing``.

Design mirrors the telemetry discipline exactly:

* :class:`TraceBuffer` is a bounded ring of typed events.  Hot call sites
  guard with a single attribute check (``tracer = TELEMETRY.tracer`` then
  ``if tracer is not None:``), so tracing disabled costs one branch and
  tracing enabled is an append of one tuple — collection is read-only
  bookkeeping and never perturbs records, traces, metrics or fingerprints.
* Events store :func:`time.perf_counter` begin/end stamps plus one
  ``(wall0, perf0)`` anchor pair captured at buffer construction.
  ``perf_counter`` is process-local, so timelines written by different
  processes (campaign workers) are aligned by converting to wall-clock at
  export time: ``wall = perf + (wall0 - perf0)``.
* The JSONL interchange format is one event dict per line — torn trailing
  lines (a killed worker mid-write) are skipped by the reader, mirroring
  :func:`repro.obs.report.load_final_snapshot`.
* :func:`chrome_trace` renders merged events as Chrome trace-event JSON
  (``ph: "X"`` complete events, microsecond timestamps, one pid per source)
  which Perfetto loads directly.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "TRACE_SUFFIX",
    "TraceBuffer",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "load_trace_dir",
    "chrome_trace",
    "build_chrome_trace",
]

#: Default ring capacity.  At ~6 events/round this covers >15k rounds before
#: the ring starts dropping the oldest events (drops are counted, not silent).
DEFAULT_TRACE_CAPACITY = 100_000

#: Suffix for per-cell trace files under a result store's telemetry dir.
TRACE_SUFFIX = ".trace.jsonl"


class TraceBuffer:
    """A bounded ring buffer of timed trace events.

    Events are ``(name, begin, end, round, mode)`` tuples where
    ``begin``/``end`` are ``perf_counter`` stamps in *this* process (or
    pre-converted wall-clock stamps for buffers rebuilt via
    :meth:`from_dict`).  Appending past ``capacity`` evicts the oldest
    event and bumps :attr:`dropped` so exports can report truncation.
    """

    __slots__ = (
        "capacity",
        "run_id",
        "cell_id",
        "engine_mode",
        "wall0",
        "perf0",
        "dropped",
        "_events",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        *,
        run_id: Optional[str] = None,
        cell_id: Optional[str] = None,
        engine_mode: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = int(capacity)
        self.run_id = run_id
        self.cell_id = cell_id
        self.engine_mode = engine_mode
        # Wall-clock anchor: perf_counter stamps are process-local, so every
        # buffer remembers one simultaneous (wall, perf) pair for conversion.
        self.wall0 = time.time()
        self.perf0 = time.perf_counter()
        self.dropped = 0
        self._events: deque = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._events)

    def add(
        self,
        name: str,
        begin: float,
        end: float,
        round_index: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> None:
        """Append one completed interval (perf_counter ``begin``/``end``)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(
            (
                name,
                begin,
                end,
                round_index,
                mode if mode is not None else self.engine_mode,
            )
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def events(self) -> List[Dict[str, Any]]:
        """All buffered events as JSON-ready dicts with wall-clock ``ts``."""
        offset = self.wall0 - self.perf0
        out: List[Dict[str, Any]] = []
        for name, begin, end, round_index, mode in self._events:
            event: Dict[str, Any] = {
                "name": name,
                "ts": begin + offset,
                "dur_s": max(0.0, end - begin),
            }
            if round_index is not None:
                event["round"] = round_index
            if mode is not None:
                event["mode"] = mode
            out.append(event)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Ship-ready form (wall-clock events) for pipes / JSON."""
        return {
            "capacity": self.capacity,
            "run_id": self.run_id,
            "cell_id": self.cell_id,
            "dropped": self.dropped,
            "events": self.events(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceBuffer":
        """Rebuild a buffer from :meth:`to_dict` output.

        The rebuilt buffer stores wall-clock stamps directly (its anchor is
        the identity ``wall0 == perf0 == 0``), so it can be re-exported
        without double-converting.
        """
        buf = cls(
            int(data.get("capacity", DEFAULT_TRACE_CAPACITY)),
            run_id=data.get("run_id"),
            cell_id=data.get("cell_id"),
        )
        buf.wall0 = 0.0
        buf.perf0 = 0.0
        buf.dropped = int(data.get("dropped", 0))
        for event in data.get("events", ()):
            buf.add(
                event["name"],
                float(event["ts"]),
                float(event["ts"]) + float(event.get("dur_s", 0.0)),
                round_index=event.get("round"),
                mode=event.get("mode"),
            )
        return buf


# ---------------------------------------------------------------------- #
# JSONL interchange
# ---------------------------------------------------------------------- #
def write_trace_jsonl(path: Path, buffer: TraceBuffer) -> int:
    """Write one event dict per line; returns the number of events written.

    A leading ``{"meta": ...}`` line carries buffer identity (run/cell ids,
    drop count) so readers can report truncation; readers that only want
    events skip it by shape.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events = buffer.events()
    with path.open("w", encoding="utf-8") as fh:
        meta = {
            "meta": {
                "run_id": buffer.run_id,
                "cell_id": buffer.cell_id,
                "dropped": buffer.dropped,
                "events": len(events),
            }
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return len(events)


def read_trace_jsonl(path: Path) -> List[Dict[str, Any]]:
    """Read trace events back, skipping the meta line and any torn line.

    Mirrors the sink reader's torn-write tolerance: a process killed mid-
    append leaves a truncated final line, which is ignored rather than
    raising.
    """
    events: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed process
            if not isinstance(record, dict) or "meta" in record:
                continue
            if "name" in record and "ts" in record:
                events.append(record)
    return events


def load_trace_dir(root: Path) -> Dict[str, List[Dict[str, Any]]]:
    """All ``*.trace.jsonl`` files under ``root`` as ``{source: events}``.

    The source name is the file stem with the ``.trace`` suffix stripped
    (per-cell files are named ``<cell_id>.trace.jsonl``).
    """
    root = Path(root)
    sources: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(root.glob(f"*{TRACE_SUFFIX}")):
        name = path.name[: -len(TRACE_SUFFIX)]
        events = read_trace_jsonl(path)
        if events:
            sources[name] = events
    return sources


# ---------------------------------------------------------------------- #
# Chrome trace-event export
# ---------------------------------------------------------------------- #
def chrome_trace(sources: Mapping[str, Sequence[Mapping[str, Any]]]) -> Dict[str, Any]:
    """Render ``{source: events}`` as a Chrome trace-event JSON document.

    Each source (a cell, a serve run) becomes one ``pid`` with its events on
    ``tid 0``.  Timestamps are microseconds relative to the earliest event
    across all sources, which keeps the numbers small and lines every source
    up on one shared wall-clock axis.  Events from older files may carry a
    ``worker`` key; it is ignored.
    """
    t0: Optional[float] = None
    for events in sources.values():
        for event in events:
            ts = float(event["ts"])
            if t0 is None or ts < t0:
                t0 = ts
    t0 = t0 or 0.0

    trace_events: List[Dict[str, Any]] = []
    for pid, (source, events) in enumerate(sorted(sources.items()), start=1):
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": source},
            }
        )
        for event in events:
            name = str(event["name"])
            args: Dict[str, Any] = {}
            if event.get("round") is not None:
                args["round"] = event["round"]
            if event.get("mode") is not None:
                args["mode"] = event["mode"]
            trace_events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "pid": pid,
                    "tid": 0,
                    "ts": (float(event["ts"]) - t0) * 1e6,
                    "dur": float(event.get("dur_s", 0.0)) * 1e6,
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def build_chrome_trace(root: Path) -> Dict[str, Any]:
    """Load every trace JSONL under ``root`` and render one Chrome trace.

    Raises :class:`FileNotFoundError` if ``root`` does not exist and
    :class:`ValueError` if it holds no trace events — callers (the CLI)
    turn both into clean exit-2 diagnostics naming the path.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"no trace directory at {root}")
    sources = load_trace_dir(root)
    if not sources:
        raise ValueError(f"no trace events under {root} (*{TRACE_SUFFIX})")
    return chrome_trace(sources)
