"""Shared Hypothesis strategies: random schedules and random experiment specs.

Used by the property-based tests to generate

* legal churn schedules (per round: deletions of present edges, insertions of
  absent edges, at most one event per edge per round), and
* whole :class:`~repro.experiments.spec.ExperimentSpec` cells -- an algorithm
  drawn from the registry, a workload that is either an inline scripted trace
  (the generated schedule, replayed bit-for-bit by every engine) or a seeded
  random churn adversary, and small sizes/budgets that keep each example fast.

The spec strategy is what the engine differential property tests (dense vs
sparse vs columnar, optionally under fault models and telemetry)
feed to :func:`repro.verification.run_differential`.
"""

from typing import List, Tuple

from hypothesis import strategies as st

from repro.experiments import ExperimentSpec

__all__ = [
    "churn_schedules",
    "experiment_specs",
    "fault_configs",
    "schedule_to_trace",
]


@st.composite
def churn_schedules(draw, n: int = 8, max_rounds: int = 14, max_events_per_round: int = 3):
    """Generate a legal schedule: per round, deletions of present edges and
    insertions of absent edges (at most one event per edge per round)."""
    num_rounds = draw(st.integers(min_value=1, max_value=max_rounds))
    present: set = set()
    rounds: List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]] = []
    all_pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    for _ in range(num_rounds):
        num_events = draw(st.integers(min_value=0, max_value=max_events_per_round))
        inserts: List[Tuple[int, int]] = []
        deletes: List[Tuple[int, int]] = []
        touched: set = set()
        for _ in range(num_events):
            pair = draw(st.sampled_from(all_pairs))
            if pair in touched:
                continue
            touched.add(pair)
            if pair in present:
                deletes.append(pair)
                present.discard(pair)
            else:
                inserts.append(pair)
                present.add(pair)
        rounds.append((inserts, deletes))
    return rounds


def schedule_to_trace(n: int, rounds) -> dict:
    """An explicit schedule as the inline-trace dict the ``scripted`` adversary takes."""
    return {
        "n": n,
        "rounds": [
            {"insert": [list(e) for e in inserts], "delete": [list(e) for e in deletes]}
            for inserts, deletes in rounds
        ],
    }


#: Algorithms the random-spec strategy draws from: every paper structure that
#: is cheap enough to run dozens of times per test session.
SPEC_ALGORITHMS = ("robust2hop", "triangle", "clique", "robust3hop", "twohop", "cycles")


#: Fault models the random-spec strategy draws from, with legal parameter
#: draws for each (the registry's remaining models are covered by the
#: explicit fault grid in test_faults / test_columnar_engine).
_FAULT_AXES = (
    ("uniform_loss", lambda draw: {"p": draw(st.sampled_from((0.2, 0.5)))}),
    (
        "crash",
        lambda draw: {
            "crash_p": draw(st.sampled_from((0.3, 0.6))),
            "cycle": 5,
            "downtime": 2,
        },
    ),
    ("partition", lambda draw: {"period": 5, "split": 2}),
)


@st.composite
def fault_configs(draw):
    """Draw a ``(faults, fault_params)`` pair legal for any spec size."""
    name, params_for = draw(st.sampled_from(_FAULT_AXES))
    return name, params_for(draw)


@st.composite
def experiment_specs(draw, max_n: int = 9, with_faults: bool = False):
    """Generate a small random :class:`ExperimentSpec` cell.

    The workload is either the exact schedule of :func:`churn_schedules`
    (as an inline scripted trace) or a seeded random churn adversary; both
    are deterministic given the spec, so the same cell replays identically
    under every engine.  With ``with_faults`` the cell also draws a fault
    model from :data:`_FAULT_AXES` (or none), exercising the engines'
    fault-overlay paths.
    """
    algorithm = draw(st.sampled_from(SPEC_ALGORITHMS))
    n = draw(st.integers(min_value=5, max_value=max_n))
    fault_kwargs = {}
    if with_faults and draw(st.booleans()):
        faults, fault_params = draw(fault_configs())
        fault_kwargs = {"faults": faults, "fault_params": fault_params}
    use_scripted = draw(st.booleans())
    if use_scripted:
        rounds = draw(churn_schedules(n=n, max_rounds=10, max_events_per_round=3))
        return ExperimentSpec(
            algorithm=algorithm,
            adversary="scripted",
            n=n,
            adversary_params={"trace": schedule_to_trace(n, rounds)},
            **fault_kwargs,
        )
    adversary = draw(st.sampled_from(("churn", "p2p")))
    params = {}
    if adversary == "churn" and draw(st.booleans()):
        params = {
            "inserts_per_round": draw(st.integers(min_value=1, max_value=3)),
            "deletes_per_round": draw(st.integers(min_value=0, max_value=2)),
        }
    return ExperimentSpec(
        algorithm=algorithm,
        adversary=adversary,
        n=n,
        rounds=draw(st.integers(min_value=1, max_value=25)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        adversary_params=params,
        **fault_kwargs,
    )
