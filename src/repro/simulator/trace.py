"""Recording and replaying topology-change traces.

Every experiment in the benchmark harness is driven by an adversary; for
reproducibility (and to compare two algorithms on *exactly* the same dynamic
graph) the simulator can record the realized schedule as a
:class:`TopologyTrace` and replay it later.  Traces serialise to plain JSON so
they can be stored next to benchmark results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .adversary import Adversary, AdversaryView
from .events import RoundChanges

__all__ = ["TopologyTrace", "TraceRecordingAdversary", "TraceReplayAdversary"]


@dataclass
class TopologyTrace:
    """A realized topology-change schedule.

    Attributes:
        n: number of nodes the trace was produced for.
        rounds: one entry per round, each a pair
            ``(inserted_edges, deleted_edges)``.
    """

    n: int
    rounds: List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]] = field(
        default_factory=list
    )

    def append(self, changes: RoundChanges) -> None:
        """Record one round's batch."""
        self.rounds.append(
            (
                [tuple(e) for e in changes.insertions],
                [tuple(e) for e in changes.deletions],
            )
        )

    @classmethod
    def from_batches(
        cls, n: int, batches: Iterable[RoundChanges], *, validate: bool = True
    ) -> "TopologyTrace":
        """Build a trace from an ordered sequence of per-round batches.

        This is the normalized-ingest path: external event feeds (see
        :mod:`repro.serve.ingest`) are converted into canonical
        :class:`RoundChanges` batches and then frozen into a trace here, so
        recorded real-world churn replays through the exact machinery every
        adversary uses.  With ``validate`` (default) the resulting trace is
        checked against ``range(n)`` immediately, so a feed referencing
        out-of-range nodes fails at conversion time instead of mid-replay.
        """
        trace = cls(n=n)
        for changes in batches:
            trace.append(changes)
        return trace.validate_nodes() if validate else trace

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_changes(self) -> int:
        return sum(len(ins) + len(dels) for ins, dels in self.rounds)

    def changes_for(self, index: int) -> RoundChanges:
        """The batch recorded for the ``index``-th round (0-based)."""
        ins, dels = self.rounds[index]
        return RoundChanges.of(insert=ins, delete=dels)

    def max_node_id(self) -> int:
        """The largest node id any recorded event references (``-1`` if none)."""
        return max(
            (x for ins, dels in self.rounds for edge in (*ins, *dels) for x in edge),
            default=-1,
        )

    def validate_nodes(self, n: Optional[int] = None) -> "TopologyTrace":
        """Reject schedules referencing nodes outside ``range(n)``.

        ``n`` defaults to the trace's own declared node count.  Raises
        ``ValueError`` naming the first offending round and edge; returns the
        trace itself so construction sites can chain the call.  Replay is
        strict on purpose: a trace touching nodes absent from the initial
        network was either recorded for a different network or corrupted,
        and the fuzz shrinker's node-renaming pass depends on such schedules
        failing loudly instead of half-applying.
        """
        limit = self.n if n is None else n
        for index, (ins, dels) in enumerate(self.rounds):
            for edge in (*ins, *dels):
                for x in edge:
                    if not 0 <= x < limit:
                        raise ValueError(
                            f"trace references node {x} (edge {tuple(edge)} in round "
                            f"{index + 1}) but the initial network only has nodes "
                            f"0..{limit - 1}"
                        )
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "n": self.n,
            "rounds": [
                {"insert": [list(e) for e in ins], "delete": [list(e) for e in dels]}
                for ins, dels in self.rounds
            ],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "TopologyTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        The shape is validated here, where traces enter the program: a
        mapping with an integer ``n`` and a ``rounds`` list whose entries
        are mappings with ``insert`` and ``delete`` lists of edges, each
        edge two distinct integers.  Anything else raises ``ValueError``
        naming the offending round.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a trace must be a JSON object, got {type(data).__name__}")
        n, rounds = data.get("n"), data.get("rounds")
        if not _is_int(n):
            raise ValueError(f"trace 'n' must be an integer, got {n!r}")
        if not isinstance(rounds, (list, tuple)):
            raise ValueError(f"trace 'rounds' must be a list, got {type(rounds).__name__}")
        trace = cls(n=n)
        for index, entry in enumerate(rounds, start=1):
            if not isinstance(entry, Mapping):
                raise ValueError(f"trace round {index} must be an object, got {entry!r}")
            trace.rounds.append(
                (_edges(entry, "insert", index), _edges(entry, "delete", index))
            )
        return trace

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "TopologyTrace":
        """Read a trace previously written by :meth:`save`."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _edges(entry: Mapping, key: str, index: int) -> List[Tuple[int, int]]:
    """The ``key`` edge list of round ``index``, validated."""
    if key not in entry:
        raise ValueError(f"trace round {index} has no {key!r} list")
    edges = entry[key]
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f"trace round {index}: {key!r} must be a list, got {edges!r}")
    for edge in edges:
        if not (
            isinstance(edge, (list, tuple))
            and len(edge) == 2
            and all(_is_int(x) for x in edge)
            and edge[0] != edge[1]
        ):
            raise ValueError(
                f"trace round {index}: {key!r} edge {edge!r} is not two distinct integers"
            )
    return [tuple(edge) for edge in edges]


class TraceRecordingAdversary(Adversary):
    """Wraps another adversary and records the schedule it actually produced."""

    def __init__(self, inner: Adversary, n: int) -> None:
        self.inner = inner
        self.trace = TopologyTrace(n=n)

    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        changes = self.inner.changes_for_round(view)
        if changes is not None:
            self.trace.append(changes)
        return changes

    @property
    def is_done(self) -> bool:
        return self.inner.is_done


class TraceReplayAdversary(Adversary):
    """Replays a previously recorded :class:`TopologyTrace` round by round.

    The trace is validated up front: a schedule referencing node ids outside
    the trace's declared ``range(n)`` is rejected with a clear error (see
    :meth:`TopologyTrace.validate_nodes`) rather than surfacing mid-run or
    silently relying on the host network being larger than recorded.
    """

    def __init__(self, trace: TopologyTrace) -> None:
        self.trace = trace.validate_nodes()
        self._cursor = 0

    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        if self._cursor >= self.trace.num_rounds:
            return None
        changes = self.trace.changes_for(self._cursor)
        self._cursor += 1
        return changes

    @property
    def is_done(self) -> bool:
        return self._cursor >= self.trace.num_rounds
