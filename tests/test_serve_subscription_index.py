"""The subscription registry's watcher index and dirty list.

The registry evaluates only the subscriptions a batch touched or that are
still settling.  These tests hold it to the plain rule it replaces -- test
every subscription's watched set against the dirty ball on every batch --
and pin that a batch's work does not grow with the number of subscribers.
"""

import gc
import random
from itertools import combinations

import pytest

from repro import RoundChanges
from repro.experiments import build_adversary
from repro.serve import MonitorService
from repro.serve.core import ServingMonitor
from repro.serve.subscriptions import SubscriptionRegistry
from repro.simulator import AdversaryView, DynamicNetwork

#: Dirty-ball radius of each kind, restated here so the reference does not
#: borrow it from the code under test.
RADIUS = {"edge": 3, "triangle": 2, "clique": 2, "cycle": 3}


class FullSweepReference:
    """The full-sweep evaluation rule, kept as a test oracle.

    Every batch visits every subscription: one whose watched nodes meet the
    ball of its radius is marked dirty with its streak reset, and every dirty
    one is evaluated in registration order until it has given
    ``settle_streak`` definite answers in a row.
    """

    def __init__(self, monitor, settle_streak):
        self.monitor = monitor
        self.settle_streak = settle_streak
        self.subs = {}
        self.evaluated = 0
        self.skipped = 0

    def register(self, sid, spec):
        kind = spec["kind"]
        if kind == "edge":
            node, u, w = spec["node"], spec["u"], spec["w"]
            watched = {node}
            query = lambda m: m.knows_edge(node, u, w)  # noqa: E731
        elif kind == "triangle":
            a, b, c = sorted(spec["members"])
            watched = {a}
            query = lambda m: m.is_triangle(a, b, c, ask=a)  # noqa: E731
        elif kind == "clique":
            members = frozenset(spec["members"])
            watched = {min(members)}
            query = lambda m: m.is_clique(members, ask=min(members))  # noqa: E731
        else:
            members = frozenset(spec["members"])
            watched = set(members)
            query = lambda m: m.list_cycle(members)  # noqa: E731
        self.subs[sid] = {
            "kind": kind,
            "watched": watched,
            "query": query,
            "answer": query(self.monitor),
            "dirty": True,
            "streak": 0,
            "evaluations": 1,  # the registration-time probe
        }

    def unregister(self, sid):
        del self.subs[sid]

    def evaluate_round(self, ball, round_index):
        notes = []
        for sid, sub in self.subs.items():
            if not sub["watched"].isdisjoint(ball(RADIUS[sub["kind"]])):
                sub["dirty"] = True
                sub["streak"] = 0
            if not sub["dirty"]:
                self.skipped += 1
                continue
            answer = sub["query"](self.monitor)
            sub["evaluations"] += 1
            self.evaluated += 1
            if answer != sub["answer"]:
                notes.append((sid, round_index, sub["answer"], answer))
                sub["answer"] = answer
            if answer.definite:
                sub["streak"] += 1
                if sub["streak"] >= self.settle_streak:
                    sub["dirty"] = False
            else:
                sub["streak"] = 0
        return notes


def record(adversary, n, rounds, seed):
    """The adversary's batches and the graph after each, recorded up front."""
    source = build_adversary(adversary, n=n, rounds=rounds, seed=seed)
    network = DynamicNetwork(n)
    batches, graphs = [], []
    while len(batches) < rounds and not source.is_done:
        round_index = network.round_index + 1
        view = AdversaryView.from_network(network, round_index=round_index, all_consistent=True)
        changes = source.changes_for_round(view)
        if changes is None:
            break
        network.apply_changes(round_index, changes)
        batches.append(changes)
        graphs.append({v: set(network.neighbors(v)) for v in range(n)})
    return batches, graphs


def pick_subscriptions(rng, structure, n, graphs, count):
    """A seeded mix of subscriptions, most of them on patterns the schedule builds."""
    triangles, cycles = set(), set()
    for adj in graphs:
        for a, c in combinations(range(n), 2):
            common = sorted(adj[a] & adj[c])
            if c in adj[a]:
                triangles.update(frozenset({a, b, c}) for b in common)
            if len(common) >= 2 and c not in adj[a]:
                cycles.add(frozenset({a, c, *common[:2]}))
    triangles, cycles = sorted(map(sorted, triangles)), sorted(map(sorted, cycles))
    specs = []
    for i in range(count):
        node, other = rng.sample(range(n), 2)
        roll = rng.random()
        if roll < 0.3:
            specs.append({"kind": "edge", "node": node, "u": node, "w": other})
        elif structure == "cycles":
            members = rng.choice(cycles) if cycles and roll < 0.9 else rng.sample(range(n), 4)
            specs.append({"kind": "cycle", "members": members})
        elif roll < 0.75:
            members = rng.choice(triangles) if triangles and roll < 0.65 else rng.sample(range(n), 3)
            specs.append({"kind": "triangle", "members": members})
        else:
            specs.append({"kind": "clique", "members": rng.sample(range(n), 4)})
        if rng.random() < 0.3:
            specs[-1]["id"] = f"named-{i}"
    return specs


@pytest.mark.parametrize("settle_streak", [1, 3])
@pytest.mark.parametrize("structure", ["clique", "cycles"])
@pytest.mark.parametrize(
    "adversary, n, rounds, seed",
    [("p2p", 14, 40, 3), ("p2p", 18, 40, 11), ("flicker", 12, 60, 5)],
)
def test_matches_full_sweep(adversary, n, rounds, seed, structure, settle_streak):
    rng = random.Random(seed)
    batches, graphs = record(adversary, n, rounds, seed)
    batches += [RoundChanges.empty()] * 8
    specs = pick_subscriptions(rng, structure, n, graphs, count=40)

    indexed = MonitorService(n, structure, settle_streak=settle_streak)
    swept = MonitorService(n, structure, settle_streak=settle_streak)
    reference = swept.registry = FullSweepReference(swept.monitor, settle_streak)
    registry = indexed.registry

    def register(spec):
        sid = registry.register_all([spec])[0]
        reference.register(sid, spec)

    for spec in specs:
        register(spec)
    fired = visits = 0
    for index, batch in enumerate(batches):
        if index == len(batches) // 3:
            # Drop a few mid-stream, then hand a dropped id to a new query
            # (it must evaluate last, in its new registration slot) and add
            # one under an auto id.
            dropped = rng.sample(sorted(reference.subs), 8)
            for sid in dropped:
                registry.unregister(sid)
                reference.unregister(sid)
            register({**specs[1], "id": dropped[0]})
            register({key: value for key, value in specs[2].items() if key != "id"})
        notes = indexed.ingest(batch)
        expected = swept.ingest(batch)
        assert [(x.subscription_id, x.round_index, x.old, x.new) for x in notes] == expected
        visits += len(reference.subs)
        assert (registry.evaluated, registry.skipped) == (reference.evaluated, reference.skipped)
        assert registry.evaluated + registry.skipped == visits
        for sid, ref in reference.subs.items():
            sub = registry.get(sid)
            assert (sub.dirty, sub.definite_streak) == (ref["dirty"], ref["streak"]), sid
        fired += len(notes)
    assert list(registry.answers()) == list(reference.subs)
    for sid, ref in reference.subs.items():
        sub = registry.get(sid)
        assert (sub.evaluations, sub.answer) == (ref["evaluations"], ref["answer"]), sid
    assert fired > 0, "the schedule moved no answer; the comparison shows nothing"


def settled_registry(size):
    """``size`` edge and triangle subscriptions over n=500, all settled."""
    n = 500
    registry = SubscriptionRegistry(ServingMonitor(n, "triangle"))
    for i in range(size):
        a = i % (n - 2)
        if i % 4 == 0:
            registry.register("edge", node=a, u=a, w=a + 1)
        else:
            registry.register("triangle", members=[a, a + 1, a + 2], ask=a + i % 3)
    for round_index in range(1, registry.settle_streak + 1):
        registry.evaluate_round(lambda depth: set(), round_index)
    return registry


class CountingBall:
    """A fixed dirty ball that counts how often the registry asks for it."""

    def __init__(self, nodes):
        self.nodes = set(nodes)
        self.calls = 0

    def __call__(self, depth):
        self.calls += 1
        return self.nodes


@pytest.mark.parametrize("size", [10**3, 10**4])
class TestCostFollowsTheTouchedSubscriptions:
    def test_quiet_round_evaluates_nothing(self, size):
        registry = settled_registry(size)
        assert not any(registry.get(sid).dirty for sid in registry.answers())
        ball = CountingBall(())
        evaluated, skipped = registry.evaluated, registry.skipped
        assert registry.evaluate_round(ball, 10) == []
        assert registry.evaluated == evaluated
        assert registry.skipped == skipped + size
        assert ball.calls == 2  # once per radius in use, not once per subscriber

    def test_one_node_ball_evaluates_exactly_its_watchers(self, size):
        registry = settled_registry(size)
        node = 7
        watchers = {sid for sid in registry.answers() if node in registry.get(sid).watched}
        assert watchers
        before = {sid: registry.get(sid).evaluations for sid in registry.answers()}
        ball = CountingBall({node})
        evaluated = registry.evaluated
        registry.evaluate_round(ball, 10)
        assert registry.evaluated - evaluated == len(watchers)
        assert {
            sid for sid in registry.answers() if registry.get(sid).evaluations != before[sid]
        } == watchers
        assert {sid for sid in registry.answers() if registry.get(sid).dirty} == watchers
        assert ball.calls == 2


def test_cycle_watching_several_touched_nodes_is_evaluated_once():
    registry = SubscriptionRegistry(ServingMonitor(10, "cycles"))
    sid = registry.register("cycle", members=[0, 1, 2, 3])
    sub = registry.get(sid)
    for round_index in range(1, 4):
        registry.evaluate_round(lambda depth: set(), round_index)
    evaluations = sub.evaluations
    registry.evaluate_round(lambda depth: {0, 1, 2, 3}, 4)
    assert sub.evaluations == evaluations + 1
    assert registry.evaluated == 4


def test_unregistered_subscription_leaves_no_watcher_behind():
    registry = SubscriptionRegistry(ServingMonitor(10, "cycles"))
    gone = registry.register("cycle", members=[0, 1, 2, 3])
    kept = registry.register("edge", node=0, u=0, w=1)
    registry.unregister(gone)
    evaluated = registry.evaluated
    registry.evaluate_round(lambda depth: set(range(10)), 1)
    assert registry.evaluated - evaluated == 1
    assert registry.get(kept).evaluations == 2
    registry.unregister(kept)
    registry.evaluate_round(lambda depth: set(range(10)), 2)
    assert registry.evaluated - evaluated == 1


def test_dirty_is_read_from_the_dirty_list():
    registry = SubscriptionRegistry(ServingMonitor(6, "triangle"), settle_streak=1)
    sub = registry.get(registry.register("triangle", members=[0, 1, 2]))
    assert sub.dirty
    registry.evaluate_round(lambda depth: set(), 1)
    assert not sub.dirty
    registry.evaluate_round(lambda depth: {0}, 2)
    assert not sub.dirty  # settle_streak 1: touched, evaluated once, settled again
    with pytest.raises(AttributeError):
        sub.dirty = True


def test_dropped_registry_leaves_no_cyclic_garbage():
    # Subscriptions point at the registry's dirty list; the list must not
    # point back, or every dropped service would wait for the cyclic
    # collector with its dirty subscriptions.
    gc.collect()
    gc.disable()
    try:
        registry = SubscriptionRegistry(ServingMonitor(20, "triangle"))
        for a in range(10):
            registry.register("triangle", members=[a, a + 1, a + 2])
        assert all(registry.get(sid).dirty for sid in registry.answers())
        del registry
        assert gc.collect() == 0
    finally:
        gc.enable()
