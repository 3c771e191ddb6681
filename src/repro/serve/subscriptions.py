"""Standing queries over the serving monitor, evaluated incrementally.

A *subscription* is a registered query -- robust-2-hop edge membership, a
triangle / clique alert, a collective cycle alert -- that the service
re-answers after every ingested batch and that fires a typed
:class:`AnswerChanged` notification whenever its answer moves.

Re-evaluating every subscription every round would defeat the paper's whole
point (answers are maintained *incrementally* under churn), so the registry
piggybacks on the oracle's dirty-region versioning
(:meth:`repro.oracle.GroundTruthOracle.last_changed_ball`) and keeps two
structures that make a batch cost the touched subscriptions, not all of them:

* a **watcher index**, radius -> watched node -> the subscriptions watching
  that node at that radius.  After a batch the registry walks the r-hop ball
  of the batch's changes once per radius in use and marks the watchers it
  finds as touched (a cycle subscription sits in one bucket per member but
  is marked, and evaluated, at most once);
* a **dirty list** of the subscriptions still settling, keyed by
  registration sequence number.  Only it is evaluated, in registration
  order.  A dirty subscription stays on it until it has produced
  ``settle_streak`` consecutive *definite* answers -- covering both the
  propagation window of the distributed structures and the robustness
  window in which an untouched edge's robust-set membership can still
  change -- and then goes quiet until the next touch.

The dirty list is the one source of truth for "dirty":
:attr:`Subscription.dirty` reads membership in it.  A quiet round with a
settled registry therefore evaluates nothing and visits nothing, whatever
the number of subscribers.

Everything here is derived from engine-independent state (the ground-truth
graph via the oracle, node answers via the monitor), so the full
notification stream is bit-identical across the dense, sparse and columnar
engines; the serving CI gate asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Container, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..obs.telemetry import TELEMETRY
from .core import MonitorAnswer, ServingMonitor

__all__ = [
    "AnswerChanged",
    "Subscription",
    "SubscriptionRegistry",
    "SUBSCRIPTION_KINDS",
    "DEFAULT_SETTLE_STREAK",
]

#: The supported standing-query kinds.
SUBSCRIPTION_KINDS = ("edge", "triangle", "clique", "cycle")

#: How deep a topology change can reach each kind's answer.  Conservative
#: (within the oracle's tracked ``R_MAX``): edge subscriptions ask about the
#: robust 2/3-hop sets (edges within <= 2 hops of the asking node, 3 for
#: robust3hop), triangle/clique answers depend on the pattern sets built from
#: <= 2-hop information, and 4/5-cycle listing sees up to 3 hops.
_KIND_RADIUS = {"edge": 3, "triangle": 2, "clique": 2, "cycle": 3}

#: Consecutive definite answers after which a touched subscription stops
#: being re-evaluated.  Two rounds cover the robust-promotion window (an
#: edge untouched for 2 rounds enters the robust sets) and one more covers
#: the query-window boundary.
DEFAULT_SETTLE_STREAK = 3


@dataclass(frozen=True)
class AnswerChanged:
    """A standing query's answer moved.

    Attributes:
        subscription_id: the registered id.
        kind: the subscription kind (``edge``/``triangle``/``clique``/``cycle``).
        round_index: the served round after which the new answer was observed.
        old: the previous answer (``None`` for the registration-time answer).
        new: the current answer.
    """

    subscription_id: str
    kind: str
    round_index: int
    old: Optional[MonitorAnswer]
    new: MonitorAnswer

    def to_dict(self) -> dict:
        """JSON-ready, engine-comparable rendering (no wall-clock fields)."""
        return {
            "subscription_id": self.subscription_id,
            "kind": self.kind,
            "round_index": self.round_index,
            "old": None if self.old is None else [self.old.value, self.old.definite],
            "new": [self.new.value, self.new.definite],
        }


class Subscription:
    """One standing query: watched nodes, dirty-region radius, evaluator.

    ``seq`` is the registration sequence number the registry orders
    evaluation by; :attr:`dirty` is owned by the registry's dirty list.
    """

    __slots__ = (
        "subscription_id",
        "kind",
        "params",
        "watched",
        "radius",
        "_evaluate",
        "answer",
        "definite_streak",
        "evaluations",
        "seq",
        "_dirty_list",
    )

    def __init__(
        self,
        subscription_id: str,
        kind: str,
        params: dict,
        watched: FrozenSet[int],
        evaluate: Callable[[ServingMonitor], MonitorAnswer],
    ) -> None:
        self.subscription_id = subscription_id
        self.kind = kind
        self.params = params
        self.watched = watched
        self.radius = _KIND_RADIUS[kind]
        self._evaluate = evaluate
        self.answer: Optional[MonitorAnswer] = None
        self.definite_streak = 0
        self.evaluations = 0
        self.seq = 0
        self._dirty_list: Container[int] = frozenset()  # set on registration

    @property
    def dirty(self) -> bool:
        """Whether the next batch re-evaluates this subscription."""
        return self.seq in self._dirty_list

    def evaluate(self, monitor: ServingMonitor) -> MonitorAnswer:
        self.evaluations += 1
        return self._evaluate(monitor)

    def to_dict(self) -> dict:
        return {"id": self.subscription_id, "kind": self.kind, **self.params}


def _build_evaluator(
    monitor: ServingMonitor, kind: str, params: dict
) -> Tuple[dict, FrozenSet[int], Callable[[ServingMonitor], MonitorAnswer]]:
    """Validate one subscription's parameters and bind its query closure.

    Returns the canonicalized params (what :meth:`Subscription.to_dict`
    reports), the watched node set and the evaluator.
    """
    n = monitor.n

    def check_node(x, label="node"):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
            raise ValueError(f"{label} must be an integer in [0, {n}), got {x!r}")
        return x

    def required(field):
        if field not in params:
            raise ValueError(f"{kind} subscriptions need a {field!r} field")
        return params.pop(field)

    if kind == "edge":
        node = check_node(required("node"))
        u = check_node(required("u"), "u")
        w = check_node(required("w"), "w")
        if params:
            raise ValueError(f"unexpected edge-subscription params: {sorted(params)}")
        return (
            {"node": node, "u": u, "w": w},
            frozenset({node}),
            lambda m: m.knows_edge(node, u, w),
        )
    if kind in ("triangle", "clique", "cycle"):
        members = required("members")
        if not isinstance(members, (list, tuple)):
            raise ValueError(f"'members' must be a list of node ids, got {members!r}")
        members = tuple(check_node(x, "member") for x in members)
        member_set = frozenset(members)
        if kind == "triangle" and len(member_set) != 3:
            raise ValueError(f"a triangle subscription needs 3 distinct members, got {members}")
        if len(member_set) < 3:
            raise ValueError(f"a {kind} subscription needs >= 3 distinct members, got {members}")
        ask = params.pop("ask", None)
        if kind == "cycle":
            if ask is not None:
                raise ValueError("cycle subscriptions ask every member collectively")
            if params:
                raise ValueError(f"unexpected cycle-subscription params: {sorted(params)}")
            return (
                {"members": sorted(member_set)},
                member_set,
                lambda m: m.list_cycle(member_set),
            )
        ask = min(member_set) if ask is None else check_node(ask, "ask")
        if params:
            raise ValueError(f"unexpected {kind}-subscription params: {sorted(params)}")
        if kind == "triangle":
            a, b, c = sorted(member_set)
            return (
                {"members": [a, b, c], "ask": ask},
                frozenset({ask}),
                lambda m: m.is_triangle(a, b, c, ask=ask),
            )
        return (
            {"members": sorted(member_set), "ask": ask},
            frozenset({ask}),
            lambda m: m.is_clique(member_set, ask=ask),
        )
    raise ValueError(f"unknown subscription kind {kind!r}; choose from {SUBSCRIPTION_KINDS}")


class SubscriptionRegistry:
    """The standing queries of one serving monitor, keyed by id.

    Evaluation order is registration order, so the notification stream is
    deterministic.  The registry keeps plain always-on counters
    (:attr:`evaluated` / :attr:`skipped` / :attr:`fired`) for service
    reports; per-answer latency additionally lands in the
    ``serve.answer_latency_s`` telemetry histogram when telemetry is enabled.
    """

    def __init__(
        self, monitor: ServingMonitor, *, settle_streak: int = DEFAULT_SETTLE_STREAK
    ) -> None:
        if settle_streak < 1:
            raise ValueError("settle_streak must be >= 1")
        self.monitor = monitor
        self.settle_streak = settle_streak
        self._subscriptions: Dict[str, Subscription] = {}
        # radius -> watched node -> seq -> subscription; empty buckets are
        # dropped so a batch only asks for the balls of radii in use.
        self._watchers: Dict[int, Dict[int, Dict[int, Subscription]]] = {}
        # seq -> id of every subscription still settling.  Ids, not the
        # subscriptions, because each subscription refers back to this dict
        # (Subscription.dirty): no reference cycle keeps a dropped registry's
        # subscriptions alive for the cyclic collector.
        self._dirty: Dict[int, str] = {}
        self._seq = 0
        self._auto_id = 0
        self.evaluated = 0
        self.skipped = 0
        self.fired = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, kind: str, *, subscription_id: Optional[str] = None, **params) -> str:
        """Register one standing query; returns its id.

        The query is probed once immediately: incompatible structure/kind
        pairs (e.g. a ``triangle`` alert on the ``robust2hop`` structure)
        are rejected here with a clear error instead of failing on the first
        served batch.  The registration-time answer seeds the change
        detection -- the first notification fires only when the answer
        *moves* from it.  Auto ids (``sub-0001``, ...) skip ids already
        taken by explicitly named subscriptions.
        """
        return self._register(kind, subscription_id, params)

    def _register(self, kind: str, subscription_id: Optional[str], params: dict) -> str:
        """:meth:`register` with the params as one dict, which it consumes."""
        if subscription_id is not None:
            if not isinstance(subscription_id, str):
                raise ValueError(f"a subscription id must be a string, got {subscription_id!r}")
            if subscription_id in self._subscriptions:
                raise ValueError(f"subscription id {subscription_id!r} already registered")
        canonical, watched, evaluate = _build_evaluator(self.monitor, kind, params)
        subscription = Subscription("", kind, canonical, watched, evaluate)
        try:
            subscription.answer = subscription.evaluate(self.monitor)
        except TypeError as exc:
            raise ValueError(
                f"the {self.monitor.structure_name!r} structure cannot answer "
                f"{kind!r} subscriptions: {exc}"
            ) from exc
        while subscription_id is None or subscription_id in self._subscriptions:
            self._auto_id += 1
            subscription_id = f"sub-{self._auto_id:04d}"
        self._seq += 1
        subscription.subscription_id = subscription_id
        subscription.seq = self._seq
        subscription._dirty_list = self._dirty
        self._subscriptions[subscription_id] = subscription
        by_node = self._watchers.setdefault(subscription.radius, {})
        for node in watched:
            bucket = by_node.get(node)
            if bucket is None:
                bucket = by_node[node] = {}
            bucket[subscription.seq] = subscription
        self._dirty[subscription.seq] = subscription_id  # evaluated at the next batch
        return subscription_id

    def register_all(self, specs: Iterable[dict]) -> List[str]:
        """Register a batch of ``{"id": ..., "kind": ..., ...params}`` dicts.

        A malformed spec raises :class:`ValueError` naming its index in
        ``specs`` (and its id, when it has one) and the offending field.
        """
        ids = []
        for index, spec in enumerate(specs):
            subscription_id = None
            try:
                if not isinstance(spec, dict):
                    raise ValueError(f"must be a JSON object, got {spec!r}")
                spec = dict(spec)
                subscription_id = spec.pop("id", None)
                kind = spec.pop("kind", None)
                if kind is None:
                    raise ValueError(f"needs a 'kind' field: {spec}")
                ids.append(self._register(kind, subscription_id, spec))
            except ValueError as exc:
                where = f"subscriptions[{index}]"
                if subscription_id is not None:
                    where += f" (id {subscription_id!r})"
                raise ValueError(f"{where}: {exc}") from exc
        return ids

    def unregister(self, subscription_id: str) -> None:
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            raise KeyError(subscription_id)
        self._dirty.pop(subscription.seq, None)
        by_node = self._watchers[subscription.radius]
        for node in subscription.watched:
            bucket = by_node[node]
            del bucket[subscription.seq]
            if not bucket:
                del by_node[node]
        if not by_node:
            del self._watchers[subscription.radius]

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: str) -> bool:
        return subscription_id in self._subscriptions

    def get(self, subscription_id: str) -> Subscription:
        return self._subscriptions[subscription_id]

    def answers(self) -> Dict[str, Optional[MonitorAnswer]]:
        """The current answer of every subscription (id -> answer)."""
        return {sid: sub.answer for sid, sub in self._subscriptions.items()}

    # ------------------------------------------------------------------ #
    # Incremental evaluation
    # ------------------------------------------------------------------ #
    def evaluate_round(
        self, ball: Callable[[int], Set[int]], round_index: int
    ) -> List[AnswerChanged]:
        """Re-evaluate the subscriptions this round's changes could affect.

        Args:
            ball: ``ball(depth)`` -> nodes within ``depth`` hops of the
                round's topology changes (the oracle's dirty region; empty
                for a quiet round).
            round_index: the just-served round.

        Returns the notifications fired this round, in registration order.
        """
        notifications: List[AnswerChanged] = []
        telemetry_on = TELEMETRY.enabled
        tracer = TELEMETRY.tracer if telemetry_on else None
        subscriptions = self._subscriptions
        dirty = self._dirty
        for radius, by_node in self._watchers.items():
            for node in ball(radius):
                watchers = by_node.get(node)
                if watchers is not None:
                    for seq, subscription in watchers.items():
                        subscription.definite_streak = 0
                        dirty[seq] = subscription.subscription_id
        pending = sorted(dirty)
        for seq in pending:
            subscription = subscriptions[dirty[seq]]
            if telemetry_on:
                start = perf_counter()
                answer = subscription.evaluate(self.monitor)
                end = perf_counter()
                TELEMETRY.observe("serve.answer_latency_s", end - start)
                if tracer is not None:
                    tracer.add("serve.evaluate", start, end, round_index=round_index)
            else:
                answer = subscription.evaluate(self.monitor)
            if answer != subscription.answer:
                notifications.append(
                    AnswerChanged(
                        subscription_id=subscription.subscription_id,
                        kind=subscription.kind,
                        round_index=round_index,
                        old=subscription.answer,
                        new=answer,
                    )
                )
                subscription.answer = answer
            if answer.definite:
                subscription.definite_streak += 1
                if subscription.definite_streak >= self.settle_streak:
                    del dirty[seq]
            else:
                subscription.definite_streak = 0
        self.evaluated += len(pending)
        self.skipped += len(subscriptions) - len(pending)
        self.fired += len(notifications)
        if telemetry_on:
            # Only this round's evaluations: counting the running total here
            # would re-add every earlier round's work each round.
            TELEMETRY.count("serve.subscriptions_evaluated", len(pending))
            TELEMETRY.count("serve.notifications", len(notifications))
        return notifications
