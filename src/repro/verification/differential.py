"""Cross-engine differential verification of experiment cells.

The repo ships three round schedulers -- the dense reference engine, the
activity-proportional sparse engine and the vectorized columnar engine --
that are required to be **bit-identical**: same
:class:`~repro.simulator.metrics.RoundRecord` stream, same realized topology
trace, same summary metrics, and same final per-node state.  This module
turns that requirement into an executable check:

* :func:`run_differential` executes one
  :class:`~repro.experiments.spec.ExperimentSpec` under two or more engine
  modes and compares everything, producing structured
  :class:`Divergence` records (first divergent round, node, field) instead of
  a bare assertion.  The spec's checks (plus, optionally, every applicable
  registered check) run on the serial reference and their structured
  failures are folded into the report.
* :func:`verify_campaign` applies the differential harness to every unique
  cell of a :class:`~repro.experiments.spec.CampaignSpec` (engine axes are
  normalized away first -- verifying the same cell once per engine mode would
  be redundant) and then runs **coverage cells** for any registered check the
  campaign grid did not exercise, so a verify run always executes the whole
  checks registry.

Final-state identity uses per-node
:meth:`~repro.simulator.node.NodeAlgorithm.state_fingerprint` digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..experiments.registry import ALGORITHMS, build_adversary
from ..experiments.spec import CampaignSpec, ExperimentSpec
from ..faults.models import FAULT_NONE, build_fault_plan
from ..obs.telemetry import TELEMETRY
from ..simulator.metrics import RoundRecord
from ..simulator.rounds import ENGINE_MODES
from ..simulator.runner import SimulationRunner
from ..simulator.trace import TopologyTrace
from .checks import (
    CHECKS,
    CheckFailure,
    CheckOutcome,
    CheckSession,
    applicable_checks,
    first_divergent_round,
)

__all__ = [
    "DEFAULT_MODES",
    "Divergence",
    "DifferentialReport",
    "ModeRun",
    "CellVerification",
    "VerificationSummary",
    "normalize_cell",
    "run_differential",
    "run_reference",
    "verify_campaign",
]

#: The engine modes a differential run compares by default.
DEFAULT_MODES: Tuple[str, ...] = ENGINE_MODES

#: RoundRecord fields compared per round, in report order.
_RECORD_FIELDS = (
    "round_index",
    "num_changes",
    "num_inconsistent_nodes",
    "num_envelopes",
    "bits_sent",
)

#: Cap on reported divergences per comparison kind.
_MAX_DIVERGENCES = 8


@dataclass(frozen=True)
class Divergence:
    """One structured difference between two engine runs of the same spec."""

    kind: str  # "rounds" | "round_record" | "trace" | "final_state" | "network" | "summary"
    mode_a: str
    mode_b: str
    field: str
    round_index: Optional[int] = None
    node: Optional[int] = None
    expected: str = ""
    actual: str = ""

    def describe(self) -> str:
        where = []
        if self.round_index is not None:
            where.append(f"round {self.round_index}")
        if self.node is not None:
            where.append(f"node {self.node}")
        location = f" at {', '.join(where)}" if where else ""
        return (
            f"{self.kind}:{self.field}{location}: "
            f"{self.mode_a}={self.expected} vs {self.mode_b}={self.actual}"
        )


@dataclass
class ModeRun:
    """Everything one engine run exposes for comparison."""

    mode: str
    records: List[RoundRecord]
    trace: Optional[TopologyTrace]
    fingerprints: Dict[int, str]
    edges: frozenset
    summary: Dict[str, float]


@dataclass
class DifferentialReport:
    """The outcome of one differential run of a spec across engine modes."""

    spec: ExperimentSpec
    modes: Tuple[str, ...]
    divergences: List[Divergence] = field(default_factory=list)
    check_outcomes: Dict[str, CheckOutcome] = field(default_factory=dict)
    summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def check_failures(self) -> List[CheckFailure]:
        return [f for outcome in self.check_outcomes.values() for f in outcome.failures]

    @property
    def executed_checks(self) -> Tuple[str, ...]:
        return tuple(sorted(self.check_outcomes))

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.check_failures

    @property
    def first_divergence(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    def describe(self) -> str:
        lines = [f"cell {self.spec.cell_id} across {'/'.join(self.modes)}:"]
        if self.ok:
            lines.append(f"  ok ({len(self.check_outcomes)} checks, no divergence)")
        for div in self.divergences:
            lines.append(f"  DIVERGENCE {div.describe()}")
        for failure in self.check_failures:
            lines.append(f"  CHECK FAILURE {failure.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell_id": self.spec.cell_id,
            "spec": self.spec.to_dict(),
            "modes": list(self.modes),
            "ok": self.ok,
            "divergences": [vars(d) for d in self.divergences],
            "checks": {
                name: {
                    "metrics": outcome.metrics,
                    "failures": [vars(f) for f in outcome.failures],
                }
                for name, outcome in self.check_outcomes.items()
            },
            "summaries": self.summaries,
        }


# --------------------------------------------------------------------- #
# Executing one spec under one engine mode
# --------------------------------------------------------------------- #
def _build_cell_adversary(spec: ExperimentSpec):
    return build_adversary(
        spec.adversary,
        n=spec.n,
        rounds=spec.rounds,
        seed=spec.seed,
        params=spec.adversary_params,
    )


def run_reference(
    spec: ExperimentSpec,
    *,
    engine_mode: str = "sparse",
    checks: Sequence[str] = (),
    record_trace: bool = True,
    adversary=None,
):
    """Run one cell in-process with full introspection.

    Returns ``(result, outcomes)`` where ``result`` is the
    :class:`~repro.simulator.runner.SimulationResult` (with a recorded trace
    unless ``record_trace`` is disabled) and ``outcomes`` maps check names to
    their :class:`CheckOutcome`, including per-round hook failures.  This is
    the reference leg of the differential harness and the canonical way for
    tests to obtain a result plus structured check verdicts.  ``adversary``
    accepts a prebuilt (unconsumed) instance for callers that already built
    one -- e.g. to validate parameters up front -- so the schedule is not
    constructed twice.
    """
    sessions = [CheckSession(CHECKS[name], spec) for name in checks]
    validators = [v for v in (s.validator() for s in sessions) if v is not None]
    runner = SimulationRunner(
        n=spec.n,
        algorithm_factory=ALGORITHMS[spec.algorithm],
        adversary=adversary if adversary is not None else _build_cell_adversary(spec),
        bandwidth_factor=spec.bandwidth_factor,
        strict_bandwidth=spec.strict_bandwidth,
        record_trace=record_trace,
        validators=validators,
        engine_mode=engine_mode,
        faults=build_fault_plan(
            spec.faults, n=spec.n, seed=spec.seed, params=spec.fault_params
        ),
    )
    result = runner.run(num_rounds=spec.rounds, drain=spec.drain)
    outcomes = {s.name: s.finish(result) for s in sessions}
    return result, outcomes


def _summary_of(metrics, bandwidth, n: int, num_edges: int) -> Dict[str, float]:
    out = dict(metrics.summary())
    for key, value in bandwidth.summary(n).items():
        out[f"bandwidth_{key}"] = float(value)
    out["final_edges"] = float(num_edges)
    return out


def _run_mode(
    spec: ExperimentSpec, mode: str, checks: Sequence[str]
) -> Tuple[ModeRun, Dict[str, CheckOutcome]]:
    result, outcomes = run_reference(spec, engine_mode=mode, checks=checks)
    fingerprints = {v: algo.state_fingerprint() for v, algo in result.nodes.items()}
    summary = _summary_of(result.metrics, result.bandwidth, spec.n, result.network.num_edges)
    if result.faults is not None:
        # Fault statistics (drops, resets, masked edges) join the gated
        # summary: every engine mode must realize the identical fault
        # schedule, not just identical records.
        summary.update({key: float(v) for key, v in result.faults.stats.items()})
    run = ModeRun(
        mode=mode,
        records=list(result.metrics.rounds),
        trace=result.trace,
        fingerprints=fingerprints,
        edges=result.network.edges,
        summary=summary,
    )
    return run, outcomes


# --------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------- #
def _compare(reference: ModeRun, other: ModeRun) -> List[Divergence]:
    divergences: List[Divergence] = []

    def add(kind: str, field_name: str, **kwargs: Any) -> None:
        if len(divergences) < _MAX_DIVERGENCES * 4:
            divergences.append(
                Divergence(
                    kind=kind,
                    mode_a=reference.mode,
                    mode_b=other.mode,
                    field=field_name,
                    **kwargs,
                )
            )

    if len(reference.records) != len(other.records):
        add(
            "rounds",
            "rounds_executed",
            expected=str(len(reference.records)),
            actual=str(len(other.records)),
        )
    reported = 0
    for ref_rec, other_rec in zip(reference.records, other.records):
        if ref_rec == other_rec:
            continue
        for field_name in _RECORD_FIELDS:
            a, b = getattr(ref_rec, field_name), getattr(other_rec, field_name)
            if a != b:
                add(
                    "round_record",
                    field_name,
                    round_index=ref_rec.round_index,
                    expected=str(a),
                    actual=str(b),
                )
        reported += 1
        if reported >= _MAX_DIVERGENCES:
            break

    if reference.trace is not None and other.trace is not None:
        if reference.trace.rounds != other.trace.rounds:
            add(
                "trace",
                "realized_schedule",
                round_index=first_divergent_round(
                    reference.trace.rounds, other.trace.rounds
                ),
                expected=f"{reference.trace.num_rounds} recorded rounds",
                actual=f"{other.trace.num_rounds} recorded rounds",
            )

    if reference.edges != other.edges:
        missing = reference.edges - other.edges
        extra = other.edges - reference.edges
        add(
            "network",
            "edges",
            expected=f"{len(reference.edges)} edges",
            actual=f"missing {sorted(missing)[:4]}, extra {sorted(extra)[:4]}",
        )

    mismatched = [
        v
        for v in sorted(reference.fingerprints)
        if other.fingerprints.get(v) != reference.fingerprints[v]
    ]
    for v in mismatched[:_MAX_DIVERGENCES]:
        add(
            "final_state",
            "state_fingerprint",
            node=v,
            expected=reference.fingerprints[v][:12],
            actual=str(other.fingerprints.get(v, "<missing>"))[:12],
        )

    for key in sorted(set(reference.summary) | set(other.summary)):
        a, b = reference.summary.get(key), other.summary.get(key)
        if a != b:
            add("summary", key, expected=str(a), actual=str(b))
    return divergences


def run_differential(
    spec: ExperimentSpec,
    *,
    modes: Sequence[str] = DEFAULT_MODES,
    checks: Optional[Sequence[str]] = None,
    auto_checks: bool = False,
) -> DifferentialReport:
    """Run ``spec`` under every mode in ``modes`` and compare the runs.

    Args:
        spec: the cell to verify; its ``engine_mode`` field is ignored (the
            modes argument decides what runs).
        modes: two or more of ``"dense"``, ``"sparse"``, ``"columnar"``.
            The first mode acts as the reference leg and is the one the
            checks run on.
        checks: check names to run; defaults to ``spec.checks``.
        auto_checks: select every applicable registered check instead.

    Returns:
        The :class:`DifferentialReport` with structured divergences, check
        outcomes and per-mode summaries.
    """
    modes = tuple(modes)
    if len(modes) < 2:
        raise ValueError("differential verification needs at least two modes")
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    unknown = [mode for mode in modes if mode not in ENGINE_MODES]
    if unknown:
        raise ValueError(f"unknown differential modes {unknown}; choose from {ENGINE_MODES}")
    if auto_checks:
        # Result checks grade against fault-free semantics (reliable
        # delivery, no state loss), so auto-selection skips fault cells --
        # bit-identity across engines remains fully gated, and explicitly
        # requested checks are still honored.
        check_names: Sequence[str] = (
            () if spec.faults != FAULT_NONE else applicable_checks(spec)
        )
    else:
        check_names = tuple(spec.checks if checks is None else checks)
    runs: Dict[str, ModeRun] = {}
    outcomes: Dict[str, CheckOutcome] = {}
    for mode in modes:
        with TELEMETRY.span(f"differential.run.{mode}"):
            run, mode_outcomes = _run_mode(
                spec, mode, check_names if mode == modes[0] else ()
            )
        runs[mode] = run
        outcomes.update(mode_outcomes)

    reference = runs[modes[0]]
    divergences: List[Divergence] = []
    with TELEMETRY.span("differential.compare"):
        for mode in modes[1:]:
            divergences.extend(_compare(reference, runs[mode]))
    if TELEMETRY.enabled:
        TELEMETRY.count("differential.cells")
        if divergences:
            TELEMETRY.count("differential.divergent_cells")
    return DifferentialReport(
        spec=spec,
        modes=modes,
        divergences=divergences,
        check_outcomes=outcomes,
        summaries={mode: run.summary for mode, run in runs.items()},
    )


# --------------------------------------------------------------------- #
# Campaign-level verification
# --------------------------------------------------------------------- #
def normalize_cell(spec: ExperimentSpec) -> ExperimentSpec:
    """Strip engine-selection axes from a cell for differential verification.

    The harness decides which engines run, so two campaign cells differing
    only in ``engine_mode`` / ``record_trace`` verify as one.
    The ``checks`` field is cleared too: the verifier auto-selects every
    applicable registered check.
    """
    data = spec.to_dict()
    data.update(engine_mode="sparse", record_trace=True, checks=[])
    return ExperimentSpec.from_dict(data)


@dataclass
class CellVerification:
    """One verified cell within a campaign verification run."""

    spec: ExperimentSpec
    report: DifferentialReport
    coverage: bool = False  # True for cells synthesized to cover a check

    @property
    def ok(self) -> bool:
        return self.report.ok


@dataclass
class VerificationSummary:
    """The outcome of verifying a whole campaign spec."""

    campaign: str
    modes: Tuple[str, ...]
    cells: List[CellVerification] = field(default_factory=list)

    @property
    def executed_checks(self) -> List[str]:
        executed: Set[str] = set()
        for cell in self.cells:
            executed.update(cell.report.executed_checks)
        return sorted(executed)

    @property
    def skipped_checks(self) -> List[str]:
        return sorted(set(CHECKS) - set(self.executed_checks))

    @property
    def failed_cells(self) -> List[CellVerification]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def num_divergences(self) -> int:
        return sum(len(cell.report.divergences) for cell in self.cells)

    @property
    def num_check_failures(self) -> int:
        return sum(len(cell.report.check_failures) for cell in self.cells)

    @property
    def ok(self) -> bool:
        return not self.failed_cells

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "modes": list(self.modes),
            "ok": self.ok,
            "executed_checks": self.executed_checks,
            "skipped_checks": self.skipped_checks,
            "cells": [
                {"coverage": cell.coverage, **cell.report.to_dict()} for cell in self.cells
            ],
        }


def verify_campaign(
    campaign: CampaignSpec,
    *,
    modes: Sequence[str] = DEFAULT_MODES,
    include_coverage: bool = True,
    limit: Optional[int] = None,
    progress: Optional[Callable[[CellVerification, int, int], None]] = None,
) -> VerificationSummary:
    """Differentially verify every unique cell of a campaign spec.

    Cells are normalized (engine axes stripped) and deduplicated first; each
    unique cell runs under every requested mode with every applicable check.
    With ``include_coverage`` (the default), registered checks that no
    campaign cell exercises are afterwards executed on their own coverage
    cells, so the whole checks registry runs on every verify invocation.
    """
    summary = VerificationSummary(campaign=campaign.name, modes=tuple(modes))
    unique: Dict[str, ExperimentSpec] = {}
    for cell in campaign.expand():
        normalized = normalize_cell(cell)
        unique.setdefault(normalized.cell_id, normalized)
    cells = list(unique.values())
    if limit is not None:
        cells = cells[:limit]

    coverage_cells: List[ExperimentSpec] = []
    if include_coverage:
        planned_executed: Set[str] = set()
        for cell in cells:
            planned_executed.update(applicable_checks(cell))
        planned_ids = {cell.cell_id for cell in cells}
        for name in sorted(CHECKS):
            # Every appended coverage cell runs all its applicable checks, so
            # re-test coverage after each one: a single triangle cell can
            # cover several registry entries with one differential run.
            if name in planned_executed:
                continue
            base = CHECKS[name].coverage_cell()
            if base is None:
                continue
            cov = normalize_cell(ExperimentSpec.from_dict(base))
            if cov.cell_id in planned_ids:
                continue
            planned_ids.add(cov.cell_id)
            planned_executed.update(applicable_checks(cov))
            coverage_cells.append(cov)

    total = len(cells) + len(coverage_cells)
    done = 0
    for spec, is_coverage in [(c, False) for c in cells] + [
        (c, True) for c in coverage_cells
    ]:
        report = run_differential(spec, modes=modes, auto_checks=True)
        cell = CellVerification(spec=spec, report=report, coverage=is_coverage)
        summary.cells.append(cell)
        done += 1
        if progress is not None:
            progress(cell, done, total)
    return summary
