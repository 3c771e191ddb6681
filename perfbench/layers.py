"""Per-layer timing of benchmark ops, installed from outside the program.

The traced run replaces public entry points of each layer's module with thin
wrappers for as long as :meth:`LayerTracer.installed` is active, and puts
the originals back afterwards; nothing under ``src/`` knows it is being
timed.  Each wrapper keeps a stack frame, so a layer's *self time* is its
wall time minus the time of the wrapped calls it made (``execute_round``
minus ``apply_changes`` and ``charge``, ``evaluate_round`` minus
``Subscription.evaluate``, ...).  Time inside an op that no wrapper claims
is reported as ``unattributed``.

Wrappers outside an op frame call straight through, so input recording,
correctness checks and subscription registration are never attributed to a
layer.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments import campaign
from repro.experiments.store import ResultStore
from repro.oracle.ground_truth import GroundTruthOracle
from repro.serve.core import ServingMonitor
from repro.serve.subscriptions import Subscription, SubscriptionRegistry
from repro.simulator.adversary import Adversary, AdversaryView
from repro.simulator.bandwidth import BandwidthPolicy
from repro.simulator.columnar import ColumnarRoundEngine
from repro.simulator.network import DynamicNetwork
from repro.simulator.node import NodeAlgorithm
from repro.simulator.rounds import RoundEngine, SparseRoundEngine
from repro.simulator.runner import SimulationRunner
from repro.simulator.trace import TopologyTrace, TraceRecordingAdversary
from repro.verification.checks import CheckSession

__all__ = ["LAYER_METRICS", "LayerTracer"]

#: Every per-layer metric: (name, unit, module, what it should move).  The
#: names and units are the ``per_layer`` list of BENCHMARK.json (the tests
#: pin that); "what it should move" is the prediction a change to that layer
#: is judged against.  Times are self time per op; counts are per op.
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("adversary.changes_s", "s/op", "adversary/",
     "cell_s on cell_p2p (~23%); flat on cell_flicker_100k"),
    ("adversary.events", "count/op", "adversary/", "work count behind adversary.changes_s"),
    ("trace.record_s", "s/op", "simulator/trace.py", "cell_s on cell_p2p"),
    ("network.apply_s", "s/op", "simulator/network.py",
     "cell_s on cell_p2p (~6%), batch_p50_ms on serve_p2p"),
    ("network.events", "count/op", "simulator/network.py", "work count behind network.apply_s"),
    ("engine.round_s", "s/op", "simulator/rounds.py, columnar.py",
     "cell_s on cell_p2p (~50%), batch_p50_ms on serve_p2p; ~0 on cell_flicker_100k"),
    ("engine.rounds", "count/op", "simulator/rounds.py", "work count behind engine.round_s"),
    ("engine.envelopes", "count/op", "simulator/rounds.py", "work count behind engine.round_s"),
    ("bandwidth.charge_s", "s/op", "simulator/bandwidth.py", "cell_s on cell_p2p (~9%)"),
    ("bandwidth.charges", "count/op", "simulator/bandwidth.py",
     "per-envelope charge calls; 0 under columnar's bulk path"),
    ("checks.round_s", "s/op", "verification/checks.py", "cell_s on cell_p2p (~6%)"),
    ("checks.final_s", "s/op", "verification/checks.py", "cell_s on both cell workloads"),
    ("cell.setup_s", "s/op", "simulator/runner.py",
     "cell_s (~18%) and peak_rss_mb on cell_flicker_100k"),
    ("cell.fingerprint_s", "s/op", "simulator/node.py", "cell_s on cell_flicker_100k (~80%)"),
    ("cell.fingerprint_nodes", "count/op", "simulator/node.py",
     "per-node fingerprints behind cell.fingerprint_s"),
    ("store.write_s", "s/op", "experiments/store.py", "under 1% everywhere; watched only"),
    ("store.bytes", "B/op", "experiments/store.py", "bytes behind store.write_s"),
    ("oracle.observe_s", "s/op", "oracle/ground_truth.py",
     "batch_p50_ms on serve_p2p (~4%), cell_s on cell_p2p through the round checks"),
    ("serve.ingest_engine_s", "s/op", "serve/core.py",
     "batch_p50_ms on serve_p2p (~43%); ~0 on serve_flicker. Inclusive: the engine "
     "round behind ServingMonitor.ingest, so it contains engine/network/bandwidth time"),
    ("serve.sweep_s", "s/op", "serve/subscriptions.py",
     "batch_p50_ms and batches_per_s on serve_flicker (~99%); flat on serve_p2p"),
    ("serve.visited", "count/op", "serve/subscriptions.py",
     "subscriptions visited by the sweep; what a subscription index removes"),
    ("serve.evaluate_s", "s/op", "serve/subscriptions.py", "batch_p50_ms on serve_p2p"),
    ("serve.evaluated", "count/op", "serve/subscriptions.py", "work count behind serve.evaluate_s"),
    ("serve.skip_ratio", "ratio", "serve/subscriptions.py",
     "skipped / visited: the share of the sweep an index could avoid"),
    ("serve.fired_per_evaluated", "ratio", "serve/subscriptions.py",
     "notifications / evaluations: useful outcomes per attempt"),
    ("serve.register_s", "s/setup", "serve/subscriptions.py", "setup_s on the serving workloads"),
    ("unattributed_s", "s/op", "-", "traced op wall not claimed by any layer above"),
    ("tracing_overhead_s", "s/op", "-", "traced minus untraced op wall"),
]

#: Layers reported by their self time per op (the ``s/op`` rows above,
#: minus the two whole-op figures).
TIMED_LAYERS = tuple(
    name[: -len("_s")]
    for name, unit, _, _ in LAYER_METRICS
    if unit == "s/op" and name not in ("unattributed_s", "tracing_overhead_s")
)


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_s = 0.0


class _Totals:
    __slots__ = ("self_s", "inclusive_s")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.inclusive_s = 0.0


def _subclasses(root: type) -> List[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class LayerTracer:
    """Self time and work counts per layer, accumulated over traced ops."""

    def __init__(self) -> None:
        self.totals: Dict[str, _Totals] = defaultdict(_Totals)
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_wall_s = 0.0
        self.ops = 0
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Frames
    # ------------------------------------------------------------------ #
    def op(self, fn: Callable[[], Any]) -> Any:
        """Run one op under a root frame; its self time is the unattributed part."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        frame = _Frame("unattributed")
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn()
        finally:
            wall = perf_counter() - start
            self._stack.pop()
            self.totals["unattributed"].self_s += wall - frame.child_s
            self.op_wall_s += wall
            self.ops += 1

    def traced(
        self,
        fn: Callable,
        layer: str,
        count: Optional[Callable[["LayerTracer", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``; ``count(tracer, args, result)`` tallies work.

        ``count`` runs only in a layer's outermost frame, so an override that
        calls its parent's implementation is counted once.
        """
        stack = self._stack
        totals = self.totals[layer]
        clock = perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = clock()
            parent = stack[-1]
            outermost = parent.layer != layer
            frame = _Frame(layer)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if count is not None and outermost:
                    count(self, args, result)
                return result
            finally:
                stack.pop()
                elapsed = clock() - start
                totals.self_s += elapsed - frame.child_s
                if outermost:
                    totals.inclusive_s += elapsed
                # Charge this bookkeeping to the layer too, not to its caller:
                # per-call wrappers (100k node fingerprints) would otherwise
                # pile their overhead into the caller's self time.
                done = clock() - start
                totals.self_s += done - elapsed
                parent.child_s += done

        return wrapper

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, attr: str, layer: str, count=None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) as ``layer``."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.traced(original.__func__, layer, count))
        else:
            replacement = self.traced(original, layer, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_validator(self) -> None:
        original = CheckSession.__dict__["validator"]
        tracer = self

        @wraps(original)
        def validator(session):
            hook = original(session)
            return None if hook is None else tracer.traced(hook, "checks.round")

        self._patches.append((CheckSession, "validator", original))
        CheckSession.validator = validator

    def _install(self) -> None:
        def bump(name: str, amount: Callable[[tuple, Any], int]):
            def count(tracer, args, result):
                tracer.counts[name] += amount(args, result)
            return count

        def one(args, result):
            return 1

        for cls in _subclasses(Adversary):
            if cls is TraceRecordingAdversary or "changes_for_round" not in cls.__dict__:
                continue
            self._patch(
                cls,
                "changes_for_round",
                "adversary.changes",
                bump("adversary.events", lambda a, r: 0 if r is None else len(r)),
            )
        # The per-round view handed to the adversary snapshots the edge set.
        self._patch(AdversaryView, "from_network", "adversary.changes")
        self._patch(TraceRecordingAdversary, "changes_for_round", "trace.record")
        self._patch(TopologyTrace, "to_dict", "trace.record")
        self._patch(
            DynamicNetwork, "apply_changes", "network.apply",
            bump("network.events", lambda a, r: len(a[2])),
        )

        def round_work(tracer, args, record):
            tracer.counts["engine.rounds"] += 1
            tracer.counts["engine.envelopes"] += record.num_envelopes

        for cls in (RoundEngine, SparseRoundEngine, ColumnarRoundEngine):
            if "execute_round" in cls.__dict__:
                self._patch(cls, "execute_round", "engine.round", round_work)
        self._patch(
            BandwidthPolicy, "charge", "bandwidth.charge", bump("bandwidth.charges", one)
        )
        self._patch_validator()
        self._patch(CheckSession, "finish", "checks.final")
        self._patch(SimulationRunner, "__init__", "cell.setup")
        self._patch(
            NodeAlgorithm, "state_fingerprint", "cell.fingerprint",
            bump("cell.fingerprint_nodes", one),
        )
        self._patch(ServingMonitor, "state_fingerprint", "cell.fingerprint")
        # The one private function wrapped: it folds the per-node digests of
        # a cell into the record's fingerprint, O(n) work of this layer.
        self._patch(campaign, "_combined_fingerprint", "cell.fingerprint")
        self._patch(
            ResultStore, "append", "store.write",
            bump("store.bytes", lambda a, r: len(json.dumps(dict(a[1]), sort_keys=True)) + 1),
        )
        self._patch(
            ResultStore, "save_trace", "store.write",
            bump("store.bytes", lambda a, r: os.path.getsize(r)),
        )
        self._patch(GroundTruthOracle, "observe", "oracle.observe")
        self._patch(ServingMonitor, "ingest", "serve.ingest_engine")
        def sweep_work(tracer, args, notifications):
            tracer.counts["serve.visited"] += len(args[0])
            tracer.counts["serve.fired"] += len(notifications)

        self._patch(SubscriptionRegistry, "evaluate_round", "serve.sweep", sweep_work)
        self._patch(Subscription, "evaluate", "serve.evaluate", bump("serve.evaluated", one))

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap the layer entry points for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def per_op(self) -> Dict[str, float]:
        """Every per-layer time and count divided by the number of traced ops."""
        ops = max(self.ops, 1)
        out = {f"{layer}_s": self.totals[layer].self_s / ops for layer in TIMED_LAYERS}
        # The serving core's layer is reported inclusive of the engine round
        # it drives (see LAYER_METRICS).
        out["serve.ingest_engine_s"] = self.totals["serve.ingest_engine"].inclusive_s / ops
        out["unattributed_s"] = self.totals["unattributed"].self_s / ops
        for name, unit, _, _ in LAYER_METRICS:
            if unit in ("count/op", "B/op"):
                out[name] = self.counts[name] / ops
        visited, evaluated = self.counts["serve.visited"], self.counts["serve.evaluated"]
        out["serve.skip_ratio"] = 1 - evaluated / visited if visited else 0.0
        out["serve.fired_per_evaluated"] = self.counts["serve.fired"] / evaluated if evaluated else 0.0
        return out
