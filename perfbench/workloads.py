"""The four benchmark workloads: their inputs, their ops and their correctness gate.

A workload runs in *passes* over inputs made from the seed.  A cell
workload's pass is one op: ``execute_cell`` followed by the
:class:`~repro.experiments.store.ResultStore` write of its record and trace.
A serving workload's pass replays a schedule recorded before timing starts
through a fresh :class:`~repro.serve.MonitorService`, one op per batch, in a
closed loop with one client.  Every pass returns the latency of each op, the
ops that failed the gate, and an outcome that must equal every other pass's
outcome (and, for the default seed and sizes, the values in ``pinned.json``).

No workload names an engine mode: each runs whatever ``ExperimentSpec`` and
``MonitorService`` use by default and reports that mode.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import build_adversary
from repro.experiments.campaign import execute_cell
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.serve import MonitorService
from repro.simulator import AdversaryView, DynamicNetwork, RoundChanges

__all__ = ["SIZES", "PINNED_STATS", "Pass", "gate", "make_workload"]

#: Input sizes of each workload as the benchmark runs it.
SIZES: Dict[str, Dict[str, int]] = {
    "cell_p2p": {"n": 1000, "rounds": 100},
    "cell_flicker_100k": {"n": 100_000, "settle_rounds": 300},
    "serve_flicker": {"n": 2000, "subscriptions": 20_000, "settle_rounds": 300, "ticks": 12},
    "serve_p2p": {"n": 300, "subscriptions": 1000, "rounds": 250, "ticks": 12},
}

#: Simulated statistics a cell op must reproduce exactly.
PINNED_STATS = (
    "amortized_round_complexity",
    "max_running_amortized_complexity",
    "rounds_executed",
    "total_envelopes",
    "total_bits",
)

#: An op runner: ``run(fn)`` calls ``fn()`` (directly, or inside a traced frame).
OpRunner = Callable[[Callable[[], Any]], Any]


def direct(fn: Callable[[], Any]) -> Any:
    return fn()


def _digest(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def flicker_params(n: int, seed: int, settle_rounds: int) -> Dict[str, Any]:
    """The Section 1.3 gadget on nine consecutive node ids placed by the seed."""
    o = random.Random(seed).randrange(n - 8)
    return {
        "v": o,
        "u": o + 1,
        "w": o + 2,
        "filler_u": [o + 3, o + 4],
        "filler_w": [o + 5, o + 6, o + 7, o + 8],
        "settle_rounds": settle_rounds,
    }


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    latencies: List[float]
    outcome: Dict[str, Any]
    #: A digest of what each op produced: the cell's record (timings aside)
    #: and trace, or the batch's firings.  Equal op by op across passes,
    #: traced or not.
    records: List[str]
    #: ``failures[i]`` lists why op ``i`` failed (empty when it passed).
    failures: List[List[str]]
    engine_mode: str
    register_s: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


class CellWorkload:
    """One campaign cell per op, stored like a campaign stores it."""

    def __init__(self, name: str, seed: int, size: Dict[str, int], out_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.store = ResultStore(out_dir)

    def setup(self) -> ExperimentSpec:
        """Build and validate the cell's spec."""
        n = self.size["n"]
        if self.name == "cell_p2p":
            return ExperimentSpec(
                algorithm="triangle",
                adversary="p2p",
                n=n,
                rounds=self.size["rounds"],
                seed=self.seed,
                checks=("triangle_oracle", "no_ghost_triangles"),
            )
        return ExperimentSpec(
            algorithm="triangle",
            adversary="flicker",
            n=n,
            seed=self.seed,
            adversary_params=flicker_params(n, self.seed, self.size["settle_rounds"]),
            checks=("flicker_ghost",),
        )

    def record_inputs(self) -> None:
        self.spec = self.setup()

    def run_pass(self, run_op: OpRunner = direct) -> Pass:
        spec = self.spec
        store = self.store

        def cell():
            record, trace = execute_cell(spec)
            store.append(record)
            if trace is not None:
                store.save_trace(record["cell_id"], trace)
            return record, trace

        start = perf_counter()
        record, trace = run_op(cell)
        wall = perf_counter() - start
        metrics = record["metrics"]
        problems = []
        if record["status"] != "ok":
            problems.append(f"status {record['status']}: {record['error']}")
        if metrics.get("check_failures", 0.0) != 0.0:
            problems.append(f"{metrics['check_failures']:.0f} check failures")
        outcome = {
            "state_fingerprint": record["state_fingerprint"],
            **{key: metrics.get(key) for key in PINNED_STATS},
        }
        comparable = {
            key: value
            for key, value in record.items()
            if key not in ("duration_s", "finished_at")
        }
        return Pass(
            latencies=[wall],
            outcome=outcome,
            records=[_digest([comparable, trace])],
            failures=[problems],
            engine_mode=spec.engine_mode,
        )


def record_schedule(
    adversary: str, n: int, rounds: Optional[int], seed: int, params: Dict[str, Any]
) -> List[RoundChanges]:
    """The adversary's batches against the graph they build, recorded up front."""
    source = build_adversary(adversary, n=n, rounds=rounds, seed=seed, params=params)
    network = DynamicNetwork(n)
    batches: List[RoundChanges] = []
    while (rounds is None or len(batches) < rounds) and not source.is_done:
        round_index = network.round_index + 1
        view = AdversaryView.from_network(network, round_index=round_index, all_consistent=True)
        changes = source.changes_for_round(view)
        if changes is None:
            break
        network.apply_changes(round_index, changes)
        batches.append(changes)
    return batches


def _truth(network: DynamicNetwork, kind: str, params: Dict[str, Any]) -> bool:
    """Ground truth of a subscription's answer on the current graph."""
    if kind == "triangle":
        a, b, c = params["members"]
        return network.has_edge(a, b) and network.has_edge(b, c) and network.has_edge(a, c)
    # The benchmark's edge subscriptions watch an edge incident to the asking
    # node, which is in its robust 2-hop set exactly while it exists.
    return network.has_edge(params["u"], params["w"])


class ServingWorkload:
    """Standing subscriptions over a recorded schedule, one op per batch."""

    def __init__(self, name: str, seed: int, size: Dict[str, int]) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        n = size["n"]
        count = size["subscriptions"]
        if name == "serve_flicker":
            self.structure = "triangle"
            self.subscriptions = [
                {"id": f"tri-{i:05d}", "kind": "triangle",
                 "members": [i % (n - 2), i % (n - 2) + 1, i % (n - 2) + 2]}
                for i in range(count)
            ]
        else:
            self.structure = "robust2hop"
            self.subscriptions = [
                {"id": f"edge-{i:05d}", "kind": "edge",
                 "node": i % n, "u": i % n, "w": (i + 1) % n}
                for i in range(count)
            ]

    def setup(self):
        """A fresh service with every subscription registered."""
        service = MonitorService(self.size["n"], self.structure)
        start = perf_counter()
        service.registry.register_all(self.subscriptions)
        return service, perf_counter() - start

    def record_inputs(self) -> None:
        n = self.size["n"]
        if self.name == "serve_flicker":
            params = flicker_params(n, self.seed, self.size["settle_rounds"])
            batches = record_schedule("flicker", n, None, self.seed, params)
        else:
            batches = record_schedule("p2p", n, self.size["rounds"], self.seed, {})
        self.schedule = batches + [RoundChanges.empty()] * self.size["ticks"]

    def run_pass(self, run_op: OpRunner = direct) -> Pass:
        service, register_s = self.setup()
        registry = service.registry
        network = service.monitor.network
        latencies: List[float] = []
        failures: List[List[str]] = []
        batch_digests: List[str] = []
        for batch in self.schedule:
            start = perf_counter()
            notes = run_op(lambda: service.ingest(batch))
            latencies.append(perf_counter() - start)
            firings = [note.to_dict() for note in notes]
            batch_digests.append(_digest(firings))
            problems = []
            for note in notes:
                sub = registry.get(note.subscription_id)
                if note.new.definite and note.new.value != _truth(network, sub.kind, sub.params):
                    problems.append(f"{note.subscription_id} answered {note.new.value}")
            failures.append(problems)
        for sid, answer in registry.answers().items():
            sub = registry.get(sid)
            if answer.definite and answer.value != _truth(network, sub.kind, sub.params):
                failures[-1].append(f"final answer of {sid} is {answer.value}")
        outcome = {
            "firings_digest": _digest(batch_digests),
            "state_fingerprint": service.monitor.state_fingerprint(),
        }
        return Pass(
            latencies=latencies,
            outcome=outcome,
            records=batch_digests,
            failures=failures,
            engine_mode=service.monitor.engine_mode,
            register_s=register_s,
        )


def make_workload(name: str, seed: int, size: Dict[str, int], out_dir: Path):
    if name.startswith("cell_"):
        return CellWorkload(name, seed, size, out_dir)
    return ServingWorkload(name, seed, size)


def gate(passes: List[Pass], pinned: Optional[Dict[str, Any]]) -> int:
    """Fail every op whose pass disagrees with ``pinned`` or with the first
    pass, or whose own product differs from the same op of the first pass.

    Returns the number of failed ops.
    """
    reference = passes[0]
    for run in passes:
        disagreements = []
        if pinned is not None and run.outcome != pinned:
            disagreements.append(f"outcome {run.outcome} differs from pinned {pinned}")
        if run.outcome != reference.outcome:
            disagreements.append(f"outcome {run.outcome} differs from {reference.outcome}")
        for i, problems in enumerate(run.failures):
            problems.extend(disagreements)
            if run.records[i] != reference.records[i]:
                problems.append("its product differs from the same op of the first pass")
    return sum(1 for run in passes for problems in run.failures if problems)
