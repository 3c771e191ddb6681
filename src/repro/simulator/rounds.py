"""The synchronous round engine (Figure 1 of the paper).

One round of the highly dynamic model proceeds in four stages:

1. **Topology changes.**  The adversary's batch is applied to the ground-truth
   graph and every touched node receives a local indication of the changes it
   is part of.
2. **React & send.**  Every node updates its local data structure in reaction
   to the indications and hands the engine at most one envelope per incident
   link.
3. **Receive & update.**  Envelopes are delivered along the edges of the
   *current* graph ``G_i`` and every node updates its data structure with what
   it received.
4. **Query window.**  At the end of the round the data structures may be
   queried; the engine records which nodes declare themselves inconsistent,
   which is the quantity the amortized round complexity charges.

The engine is deterministic: given the same adversary schedule and algorithm,
every run produces identical state, which the test-suite and the trace
record/replay facility rely on.

Two schedulers implement the model:

* :class:`RoundEngine` -- the *dense* reference scheduler: every node's hooks
  run every round.
* :class:`SparseRoundEngine` -- the *activity-proportional* scheduler: it
  tracks the set of nodes that could possibly act this round (received an
  indication, have a non-empty inbox, sent a message last round, or declare
  themselves non-quiescent through the
  :class:`~repro.simulator.node.QuiescenceProtocol`) and runs the hooks only
  over that set.  For algorithms honouring the quiescence contract the two
  engines produce bit-identical :class:`~repro.simulator.metrics.RoundRecord`
  streams and final node state; nodes that never declare quiescence are simply
  always active, so unported algorithms keep their dense semantics.
"""

from __future__ import annotations

from time import perf_counter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set

from ..obs.telemetry import SIZE_BUCKETS, TELEMETRY
from .bandwidth import BandwidthPolicy
from .events import RoundChanges
from .messages import Envelope
from .metrics import MetricsCollector, RoundRecord
from .network import DynamicNetwork, NodeIndication
from .node import NodeAlgorithm

__all__ = ["RoundEngine", "SparseRoundEngine", "MessageTargetError", "ENGINE_MODES", "create_engine"]

#: The selectable scheduler implementations, keyed by CLI / spec name.
ENGINE_MODES = ("dense", "sparse", "columnar")

#: Shared empty inbox handed to nodes that received nothing this round, so
#: quiet nodes do not cost one dict allocation each per round.  Read-only so
#: a misbehaving algorithm mutating its ``received`` mapping fails loudly
#: instead of corrupting every later quiet node in the process.
_EMPTY_INBOX: Mapping[int, Envelope] = MappingProxyType({})


class MessageTargetError(RuntimeError):
    """A node attempted to send an envelope to a non-neighbor.

    In the model a node can only communicate over its currently incident
    edges; addressing anyone else indicates a bug in the algorithm, so the
    engine fails loudly rather than silently dropping the message.
    """


class RoundEngine:
    """Executes rounds of the highly dynamic model over a set of node algorithms.

    Args:
        network: the ground-truth dynamic graph.
        nodes: mapping from node id to its :class:`NodeAlgorithm` instance;
            must contain every node of the network.
        bandwidth: the per-link bandwidth policy.
        metrics: collector that accumulates the amortized-complexity measures.
    """

    def __init__(
        self,
        network: DynamicNetwork,
        nodes: Mapping[int, NodeAlgorithm],
        bandwidth: Optional[BandwidthPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        faults=None,
    ) -> None:
        # O(1)-ish cover check: n distinct keys within [0, n) are exactly
        # range(n), so lengths plus min/max bounds replace materializing two
        # n-element sets on every engine construction (each differential leg
        # builds an engine, so this used to cost O(n) per mode).
        n = network.n
        if len(nodes) != n or (nodes and (min(nodes) < 0 or max(nodes) >= n)):
            missing = sorted(set(network.nodes) - set(nodes))
            unexpected = sorted(k for k in nodes if not (0 <= k < n))
            raise ValueError(
                "nodes mapping must cover exactly the network's nodes: "
                f"missing ids {missing[:8]}, unexpected ids {unexpected[:8]}"
            )
        self.network = network
        self.nodes: Dict[int, NodeAlgorithm] = dict(nodes)
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthPolicy()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: Optional :class:`~repro.faults.models.FaultPlan`.  The engine
        #: consults it at exactly two points -- amnesia resets right after the
        #: topology stage, message drops right after send accounting -- so the
        #: realized fault schedule is identical across engine modes.
        self.faults = faults
        self._last_inconsistent: List[int] = []

    # ------------------------------------------------------------------ #
    # Round execution
    # ------------------------------------------------------------------ #
    def execute_round(self, changes: RoundChanges) -> RoundRecord:
        """Run one full round with the given topology-change batch.

        Returns the :class:`~repro.simulator.metrics.RoundRecord` of the round.
        """
        round_index = self.network.round_index + 1
        n = self.network.n
        # Telemetry is pure read-only bookkeeping on the monotonic clock;
        # caching the enabled flag keeps the disabled cost at one local bool
        # check per stage and per node.  Stage timings use manual
        # perf_counter checkpoints (not span()) because compute and route are
        # interleaved in the send loop below.
        tel = TELEMETRY
        tel_on = tel.enabled
        tracer = tel.tracer if tel_on else None
        if tel_on:
            t_round = t0 = perf_counter()

        # Stage 1: topology changes and local indications.
        indications = self.network.apply_changes(round_index, changes)
        faults = self.faults
        if faults is not None:
            # Amnesia recoveries: the node comes back blank and then receives
            # this round's (re-insertion) indications like everyone else.
            for v in faults.resets_for_round(round_index):
                self.nodes[v] = faults.fresh_node(v, n)
        drops = faults is not None and faults.affects_delivery
        if tel_on:
            t1 = perf_counter()
            tel.record_span("engine.indications", t1 - t0)

        # Stage 2: react & send.  Inboxes are created lazily: only nodes that
        # actually receive something get a dict of their own.
        inboxes: Dict[int, Dict[int, Envelope]] = {}
        num_envelopes = 0
        bits_sent = 0
        for v, algo in self.nodes.items():
            ind = indications.get(v, NodeIndication.empty())
            algo.on_topology_change(round_index, ind.inserted, ind.deleted)
        if tel_on:
            t2 = perf_counter()
            react_s = t2 - t1

        compose_s = 0.0
        for v, algo in self.nodes.items():
            if tel_on:
                c0 = perf_counter()
            outgoing = algo.compose_messages(round_index)
            if tel_on:
                compose_s += perf_counter() - c0
            for target, envelope in outgoing.items():
                if target == v:
                    raise MessageTargetError(f"node {v} attempted to message itself")
                if not self.network.has_edge(v, target):
                    raise MessageTargetError(
                        f"round {round_index}: node {v} addressed non-neighbor {target}"
                    )
                size = self.bandwidth.charge(round_index, v, target, envelope, n)
                if not envelope.is_silent:
                    num_envelopes += 1
                    bits_sent += size
                    # A dropped message is sent-but-lost: it was charged and
                    # counted above, it just never reaches the inbox, so the
                    # round records stay identical across engine modes.
                    if drops and faults.message_dropped(round_index, v, target):
                        continue
                    inboxes.setdefault(target, {})[v] = envelope
        if tel_on:
            t3 = perf_counter()
            # compute = every algorithm callback; route = validation, charging
            # and inbox construction around them.
            tel.record_span("engine.compute", react_s + compose_s)
            tel.record_span("engine.route", (t3 - t2) - compose_s)

        # Stage 3: receive & update.
        for v, algo in self.nodes.items():
            algo.on_messages(round_index, inboxes.get(v, _EMPTY_INBOX))
        if tel_on:
            t4 = perf_counter()
            tel.record_span("engine.deliver", t4 - t3)

        # Stage 4: query window -- record consistency.
        inconsistent = [v for v, algo in self.nodes.items() if not algo.is_consistent()]
        self._last_inconsistent = inconsistent
        record = self.metrics.record_round(
            round_index=round_index,
            num_changes=len(changes),
            inconsistent_nodes=inconsistent,
            num_envelopes=num_envelopes,
            bits_sent=bits_sent,
        )
        if tel_on:
            t5 = perf_counter()
            tel.record_span("engine.query", t5 - t4)
            tel.record_span("engine.round", t5 - t_round)
            if tracer is not None:
                # Timeline slices must be contiguous, so the interleaved
                # compute/route region exports as one "engine.send" slice.
                tracer.add("engine.indications", t0, t1, round_index=round_index, mode="dense")
                tracer.add("engine.react", t1, t2, round_index=round_index, mode="dense")
                tracer.add("engine.send", t2, t3, round_index=round_index, mode="dense")
                tracer.add("engine.deliver", t3, t4, round_index=round_index, mode="dense")
                tracer.add("engine.query", t4, t5, round_index=round_index, mode="dense")
                tracer.add("engine.round", t_round, t5, round_index=round_index, mode="dense")
            tel.count("engine.rounds")
            tel.count("engine.envelopes", num_envelopes)
            tel.observe("engine.active_set", n, SIZE_BUCKETS)
            for inbox in inboxes.values():
                tel.observe("engine.inbox_fanout", len(inbox), SIZE_BUCKETS)
            tel.tick()
        return record

    def execute_quiet_round(self) -> RoundRecord:
        """Run one round with no topology changes."""
        return self.execute_round(RoundChanges.empty())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def all_consistent(self) -> bool:
        """Whether every node declared itself consistent at the end of the last round."""
        return not self._last_inconsistent

    @property
    def inconsistent_nodes(self) -> List[int]:
        """Nodes inconsistent at the end of the last executed round."""
        return list(self._last_inconsistent)

    @property
    def last_active_nodes(self) -> Optional[Set[int]]:
        """Nodes whose hooks ran in the last round, or ``None`` for "all".

        The dense engine visits every node every round, so it reports
        ``None``; the sparse engine reports its touched set, which
        activity-proportional per-round validators (e.g. the incremental
        oracle checks) use to skip nodes whose local state cannot have
        changed.
        """
        return None

    @property
    def drain_fixpoint(self) -> bool:
        """Whether further quiet rounds provably cannot change any node.

        The dense engine runs every hook every round and therefore never
        proves a fixpoint; the sparse engine reports ``True`` once its
        active set is empty (no dirty nodes, nobody sent last round), at
        which point a quiet round is a no-op and the remaining drain rounds
        can be batched into their (already-known) outcome.
        """
        return False

    def run_until_quiet(self, max_rounds: int = 10_000) -> int:
        """Execute quiet rounds until all nodes are consistent.

        Returns the number of quiet rounds executed.  Raises ``RuntimeError``
        if consistency is not reached within ``max_rounds`` (which would
        indicate a livelock in the algorithm under test).

        Boundary contract (pinned by the test-suite): ``max_rounds`` is an
        inclusive budget.  A system needing exactly ``max_rounds`` quiet
        rounds gets them and the call returns ``max_rounds``; the error is
        raised only when the nodes are still inconsistent *after*
        ``max_rounds`` quiet rounds have run.
        """
        executed = 0
        # The consistency state refers to the end of the last executed round;
        # if no round ran yet, everything is vacuously consistent.
        if not self.metrics.rounds:
            return 0
        while not self.all_consistent:
            # Quiet-round fast-forward: once the engine proves a fixpoint
            # (empty active set with no pending changes), every remaining
            # drain round is a no-op -- batch them into the terminal verdict
            # instead of executing max_rounds trivial rounds one by one.
            if self.drain_fixpoint:
                raise RuntimeError(
                    f"nodes {self.inconsistent_nodes[:6]} can never become "
                    f"consistent: the engine reached a quiescent fixpoint after "
                    f"{executed} quiet rounds (no active nodes, no pending "
                    "changes), so the remaining drain rounds were fast-forwarded"
                )
            if executed >= max_rounds:
                raise RuntimeError(
                    f"nodes still inconsistent after {max_rounds} quiet rounds"
                )
            self.execute_quiet_round()
            executed += 1
        return executed


class SparseRoundEngine(RoundEngine):
    """A round engine that only touches nodes with something to do.

    Per round the engine visits the **active set**: nodes that received a
    topology indication, nodes holding a non-empty inbox, nodes that sent a
    message in the previous round, and nodes whose algorithm reports
    ``is_quiescent() == False`` (dirty local state, e.g. a non-empty update
    queue or a pending consistency flip).  Everybody else is skipped entirely
    -- no callbacks, no inbox allocation, no consistency re-query; their
    cached consistency verdict is carried forward, which is sound because the
    quiescence contract guarantees the skipped hooks would have been no-ops.

    With every registered algorithm ported to the
    :class:`~repro.simulator.node.QuiescenceProtocol`, wall-clock per round is
    proportional to actual activity instead of ``n``, while the produced
    :class:`~repro.simulator.metrics.RoundRecord` stream, traces, bandwidth
    accounting and final node state stay bit-identical to
    :class:`RoundEngine`.
    """

    def __init__(
        self,
        network: DynamicNetwork,
        nodes: Mapping[int, NodeAlgorithm],
        bandwidth: Optional[BandwidthPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        faults=None,
    ) -> None:
        super().__init__(network, nodes, bandwidth, metrics, faults)
        # Nodes whose algorithm self-reports dirty state.  Unported algorithms
        # (default is_quiescent() == False) live here permanently, which
        # degrades gracefully to the dense schedule for them.
        self._dirty: Set[int] = {
            v for v, algo in self.nodes.items() if not algo.is_quiescent()
        }
        # Nodes that emitted at least one non-silent envelope last round.
        self._sent_last_round: Set[int] = set()
        # Live inconsistent set, updated by delta as verdicts flip.
        self._inconsistent: Set[int] = set()
        # Nodes touched (hooks ran) in the most recent round.
        self._last_touched: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Round execution
    # ------------------------------------------------------------------ #
    def execute_round(self, changes: RoundChanges) -> RoundRecord:
        """Run one round over the active set only; mirrors the dense engine."""
        round_index = self.network.round_index + 1
        n = self.network.n
        nodes = self.nodes
        tel = TELEMETRY
        tel_on = tel.enabled
        tracer = tel.tracer if tel_on else None
        if tel_on:
            t_round = t0 = perf_counter()

        # Stage 1: topology changes and local indications.
        indications = self.network.apply_changes(round_index, changes)
        faults = self.faults
        resets = faults.resets_for_round(round_index) if faults is not None else ()
        if resets:
            for v in resets:
                nodes[v] = faults.fresh_node(v, n)
        drops = faults is not None and faults.affects_delivery

        # The nodes that may react or send this round.  Sorted iteration keeps
        # the relative order of the dense engine's 0..n-1 sweep, so any
        # order-sensitive failure (e.g. which bandwidth violation raises
        # first) is reproduced exactly.  Reset nodes join unconditionally:
        # their fresh instance must re-query consistency/quiescence even if
        # no indication reaches them this round.
        active = sorted(
            set(indications) | self._dirty | self._sent_last_round | set(resets)
        )
        if tel_on:
            t1 = perf_counter()
            tel.record_span("engine.indications", t1 - t0)

        # Stage 2: react & send, active nodes only.
        inboxes: Dict[int, Dict[int, Envelope]] = {}
        num_envelopes = 0
        bits_sent = 0
        sent_now: Set[int] = set()
        for v in active:
            ind = indications.get(v, NodeIndication.empty())
            nodes[v].on_topology_change(round_index, ind.inserted, ind.deleted)
        if tel_on:
            t2 = perf_counter()
            react_s = t2 - t1

        compose_s = 0.0
        for v in active:
            if tel_on:
                c0 = perf_counter()
            outgoing = nodes[v].compose_messages(round_index)
            if tel_on:
                compose_s += perf_counter() - c0
            for target, envelope in outgoing.items():
                if target == v:
                    raise MessageTargetError(f"node {v} attempted to message itself")
                if not self.network.has_edge(v, target):
                    raise MessageTargetError(
                        f"round {round_index}: node {v} addressed non-neighbor {target}"
                    )
                size = self.bandwidth.charge(round_index, v, target, envelope, n)
                if not envelope.is_silent:
                    num_envelopes += 1
                    bits_sent += size
                    # The sender stays scheduled next round even when its
                    # envelope is lost (it *sent*; the drop happens in
                    # flight), matching the dense engine's dense schedule.
                    sent_now.add(v)
                    if drops and faults.message_dropped(round_index, v, target):
                        continue
                    inboxes.setdefault(target, {})[v] = envelope
        if tel_on:
            t3 = perf_counter()
            tel.record_span("engine.compute", react_s + compose_s)
            tel.record_span("engine.route", (t3 - t2) - compose_s)

        # Stage 3: receive & update.  Message recipients join the active set
        # (a quiescent node can be woken only by an indication, handled above,
        # or by an incoming envelope, handled here).
        touched = sorted(set(active) | set(inboxes))
        for v in touched:
            nodes[v].on_messages(round_index, inboxes.get(v, _EMPTY_INBOX))
        if tel_on:
            t4 = perf_counter()
            tel.record_span("engine.deliver", t4 - t3)

        # Stage 4: query window.  Only touched nodes can have flipped their
        # verdict; everyone else's cached verdict stands.
        became_inconsistent: List[int] = []
        became_consistent: List[int] = []
        inconsistent = self._inconsistent
        dirty = self._dirty
        for v in touched:
            algo = nodes[v]
            if algo.is_consistent():
                if v in inconsistent:
                    inconsistent.discard(v)
                    became_consistent.append(v)
            elif v not in inconsistent:
                inconsistent.add(v)
                became_inconsistent.append(v)
            # Refresh the dirty set from the same sweep: a touched node stays
            # scheduled until it declares quiescence.
            if algo.is_quiescent():
                dirty.discard(v)
            else:
                dirty.add(v)

        self._sent_last_round = sent_now
        self._last_touched = set(touched)
        self._last_inconsistent = sorted(inconsistent)
        record = self.metrics.record_round_delta(
            round_index=round_index,
            num_changes=len(changes),
            became_inconsistent=became_inconsistent,
            became_consistent=became_consistent,
            num_envelopes=num_envelopes,
            bits_sent=bits_sent,
        )
        if tel_on:
            t5 = perf_counter()
            tel.record_span("engine.query", t5 - t4)
            tel.record_span("engine.round", t5 - t_round)
            if tracer is not None:
                tracer.add("engine.indications", t0, t1, round_index=round_index, mode="sparse")
                tracer.add("engine.react", t1, t2, round_index=round_index, mode="sparse")
                tracer.add("engine.send", t2, t3, round_index=round_index, mode="sparse")
                tracer.add("engine.deliver", t3, t4, round_index=round_index, mode="sparse")
                tracer.add("engine.query", t4, t5, round_index=round_index, mode="sparse")
                tracer.add("engine.round", t_round, t5, round_index=round_index, mode="sparse")
            tel.count("engine.rounds")
            tel.count("engine.envelopes", num_envelopes)
            tel.count("engine.quiescent_skips", n - len(touched))
            tel.observe("engine.active_set", len(active), SIZE_BUCKETS)
            tel.observe("engine.touched_set", len(touched), SIZE_BUCKETS)
            for inbox in inboxes.values():
                tel.observe("engine.inbox_fanout", len(inbox), SIZE_BUCKETS)
            tel.tick()
        return record

    @property
    def last_active_nodes(self) -> Optional[Set[int]]:
        """The touched set of the last round (see :class:`RoundEngine`)."""
        return self._last_touched

    @property
    def drain_fixpoint(self) -> bool:
        """Whether the next quiet round's active set is provably empty.

        A quiet round contributes no indications, so the active set is
        ``dirty | sent_last_round``; when both are empty no hook runs, no
        inbox fills, and no consistency verdict can flip -- the engine's
        state is a fixpoint under quiet rounds.  (An *inconsistent* node in
        this situation has violated the quiescence contract; the drain loops
        use this property to report that immediately instead of spinning.)
        """
        return not self._dirty and not self._sent_last_round


def create_engine(
    mode: str,
    network: DynamicNetwork,
    nodes: Mapping[int, NodeAlgorithm],
    bandwidth: Optional[BandwidthPolicy] = None,
    metrics: Optional[MetricsCollector] = None,
    faults=None,
) -> RoundEngine:
    """Build a round engine by mode name (``"dense"``, ``"sparse"`` or ``"columnar"``)."""
    if mode not in ENGINE_MODES:
        raise ValueError(f"engine mode must be one of {ENGINE_MODES}, got {mode!r}")
    if mode == "columnar":
        # Imported lazily: columnar.py imports from this module.
        from .columnar import ColumnarRoundEngine

        return ColumnarRoundEngine(network, nodes, bandwidth, metrics, faults)
    cls = SparseRoundEngine if mode == "sparse" else RoundEngine
    return cls(network, nodes, bandwidth, metrics, faults)
