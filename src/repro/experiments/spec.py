"""Declarative experiment and campaign specifications.

An :class:`ExperimentSpec` describes one simulation cell -- algorithm,
adversary (with parameters), network size, round budget, seed, bandwidth
policy, engine mode and end-of-run checks -- as plain data that round-trips
through ``dict``/JSON.  A :class:`CampaignSpec` describes a whole sweep: a
``base`` cell plus a ``grid`` of axes whose cartesian product (times the
``seeds`` list) expands into the concrete cells.

Grid axes come in two flavours::

    {"grid": {"n": [16, 32, 64],                      # a spec field
              "adversary_params.inserts_per_round": [1, 3],   # dotted path
              "workload": [                            # a named patch axis
                  {"adversary": "churn",
                   "adversary_params": {"inserts_per_round": 3}},
                  {"adversary": "p2p"}]}}

A dotted key writes into a nested dict field; an axis whose values are dicts
(and whose name is not a spec field) applies each dict as a patch, letting one
axis vary several coupled fields at once (e.g. adversary *and* its params).

Every cell has a deterministic :attr:`~ExperimentSpec.cell_id` derived from
its canonical JSON form, which the result store uses for resume: re-running a
campaign skips cells whose id already has a stored result.
"""

from __future__ import annotations

import hashlib
import json
from copy import deepcopy
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..faults.models import FAULT_NONE, build_fault_plan
from ..simulator.rounds import ENGINE_MODES
from .registry import ADVERSARIES, ALGORITHMS, CHECKS

__all__ = ["ExperimentSpec", "CampaignSpec"]

#: Fields an older schema had, with the only values every surviving spec
#: implies.  The canonical form keeps them so ``spec_hash`` and ``cell_id``
#: of stored results are unchanged; :meth:`ExperimentSpec.from_dict` accepts
#: them on input.
_LEGACY_FIELDS: Dict[str, Any] = {"engine": "serial", "num_workers": 2}


@dataclass
class ExperimentSpec:
    """One simulation cell, as plain declarative data.

    Attributes:
        algorithm: registry name of the node algorithm (see
            :data:`~repro.experiments.registry.ALGORITHMS`).
        adversary: registry name of the adversary / workload generator.
        n: number of nodes.
        rounds: adversary-round budget; ``None`` runs until the adversary's
            finite schedule is exhausted.
        seed: RNG seed handed to the adversary builder.
        adversary_params: extra keyword arguments for the adversary builder.
        bandwidth_factor: hidden constant of the ``O(log n)`` per-link budget.
        strict_bandwidth: whether exceeding the budget raises.
        drain: whether to run quiet rounds until all nodes are consistent
            after the adversary finishes.
        engine_mode: round-scheduling mode, ``"sparse"`` (default;
            activity-proportional, only active nodes are visited),
            ``"dense"`` (every node every round) or ``"columnar"``
            (activity-proportional plus batched struct-of-arrays message
            routing).  All modes produce bit-identical metrics and traces,
            so this axis is safe to sweep for performance studies.
        record_trace: record the realized schedule for exact replay.
        checks: names of end-of-run checks (see
            :data:`~repro.experiments.registry.CHECKS`).
        faults: fault-model name (see :data:`~repro.faults.models.FAULTS`) or
            ``"none"``.  A sweepable axis like any other: the model's
            schedule is a pure function of this spec's seed, so every engine
            mode realizes identical faults.
        fault_params: keyword arguments for the fault-model builder, plus the
            plan-level ``during_drain`` knob.
    """

    algorithm: str = "triangle"
    adversary: str = "churn"
    n: int = 16
    rounds: Optional[int] = None
    seed: int = 0
    adversary_params: Dict[str, Any] = field(default_factory=dict)
    bandwidth_factor: int = 8
    strict_bandwidth: bool = True
    drain: bool = True
    engine_mode: str = "sparse"
    record_trace: bool = True
    checks: Tuple[str, ...] = ()
    faults: str = FAULT_NONE
    fault_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.checks = tuple(self.checks)
        self.adversary_params = dict(self.adversary_params)
        self.fault_params = dict(self.fault_params)
        if self.faults == FAULT_NONE and self.fault_params:
            raise ValueError(
                "fault_params given but faults is 'none'; set a fault model"
            )
        # Validate the fault axis eagerly (name and params) by building a
        # throwaway plan, so a typo'd model or parameter fails at spec time
        # with a usage error instead of mid-campaign.
        build_fault_plan(
            self.faults, n=max(self.n, 2), seed=self.seed, params=self.fault_params
        )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        if self.adversary not in ADVERSARIES:
            raise ValueError(
                f"unknown adversary {self.adversary!r}; choose from {sorted(ADVERSARIES)}"
            )
        if self.engine_mode not in ENGINE_MODES:
            raise ValueError(
                f"engine_mode must be one of {ENGINE_MODES}, got {self.engine_mode!r}"
            )
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.rounds is not None and self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        unknown_checks = [c for c in self.checks if c not in CHECKS]
        if unknown_checks:
            raise ValueError(
                f"unknown checks {unknown_checks}; choose from {sorted(CHECKS)}"
            )
        # Reject inapplicable checks at spec-validation time rather than
        # mid-campaign: a check that only understands certain algorithms or
        # adversaries (or needs a drained final state) should fail here, with
        # a message naming the constraint.
        for name in self.checks:
            check = CHECKS[name]
            algorithms = getattr(check, "algorithms", None)
            if algorithms is not None and self.algorithm not in algorithms:
                raise ValueError(
                    f"check {name!r} does not apply to algorithm {self.algorithm!r} "
                    f"(supported: {sorted(algorithms)})"
                )
            adversaries = getattr(check, "adversaries", None)
            if adversaries is not None and self.adversary not in adversaries:
                raise ValueError(
                    f"check {name!r} does not apply to adversary {self.adversary!r} "
                    f"(supported: {sorted(adversaries)})"
                )
            if getattr(check, "requires_drain", False) and not self.drain:
                raise ValueError(
                    f"check {name!r} grades the drained final state; it cannot run "
                    "with drain=False"
                )
            # The attribute checks above exist for their specific messages; a
            # check may further narrow applicability by overriding
            # applies_to, which stays authoritative.
            applies_to = getattr(check, "applies_to", None)
            if applies_to is not None and not applies_to(self):
                raise ValueError(
                    f"check {name!r} does not apply to this spec "
                    f"(algorithm {self.algorithm!r}, adversary {self.adversary!r})"
                )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-ready; tuples become lists).

        The fault fields are emitted only when a fault model is set: the
        canonical form (and therefore :attr:`spec_hash` and
        :attr:`cell_id`) of every pre-existing faultless spec is unchanged,
        so stored results keep resuming.
        """
        out = asdict(self)
        out["checks"] = list(self.checks)
        if self.faults == FAULT_NONE:
            del out["faults"]
            del out["fault_params"]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a dict, rejecting unknown keys.

        The legacy ``engine`` and ``num_workers`` keys are accepted and
        dropped, as long as ``engine`` is ``"serial"``: the process-parallel
        ``"sharded"`` engine was removed, and a spec asking for it is an
        error rather than silently running in-process.
        """
        data = dict(data)
        engine = data.pop("engine", "serial")
        if engine != "serial":
            raise ValueError(
                f"engine {engine!r} is no longer supported: the sharded engine "
                "was removed and every cell runs in-process; drop the 'engine' "
                f"field and pick a round scheduler with engine_mode {ENGINE_MODES}"
            )
        data.pop("num_workers", None)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ExperimentSpec fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**deepcopy(data))

    @property
    def spec_hash(self) -> str:
        """The full SHA-1 digest of the canonical JSON form of this cell.

        :attr:`cell_id` embeds a 10-hex-digit truncation of this digest for
        readability; result records store the full hash so campaign resume
        can prove a stored result really belongs to the cell it is about to
        skip (truncated ids can collide across very large or long-lived
        stores, and hand-edited stores can lie).  The hashed form adds the
        legacy ``engine``/``num_workers`` fields at their old defaults, so
        ids of results stored under the older schema still match.
        """
        canonical = json.dumps({**self.to_dict(), **_LEGACY_FIELDS}, sort_keys=True)
        return hashlib.sha1(canonical.encode()).hexdigest()

    @property
    def cell_id(self) -> str:
        """A deterministic, human-scannable id for this cell.

        The readable prefix names the headline axes; the hash suffix covers
        every field, so two specs differing anywhere get different ids.
        """
        fault = "" if self.faults == FAULT_NONE else f"-{self.faults}"
        return (
            f"{self.algorithm}-{self.adversary}{fault}-n{self.n}-s{self.seed}-"
            f"{self.spec_hash[:10]}"
        )


def _apply_path(cell: Dict[str, Any], dotted: str, value: Any) -> None:
    """Set ``cell[a][b]... = value`` for a dotted key ``a.b...``."""
    head, _, rest = dotted.partition(".")
    if not rest:
        cell[head] = deepcopy(value)
        return
    sub = cell.setdefault(head, {})
    if not isinstance(sub, dict):
        raise ValueError(f"grid key {dotted!r} indexes into non-dict field {head!r}")
    _apply_path(sub, rest, value)


@dataclass
class CampaignSpec:
    """A named sweep: base cell + grid axes + seeds.

    Attributes:
        name: campaign name (used for the default results directory).
        base: default :class:`ExperimentSpec` fields shared by every cell.
        grid: axis name -> list of values (see module docstring for the three
            axis flavours).  Axes expand as a cartesian product in insertion
            order.
        seeds: seeds to replicate every grid point with; ignored when the
            grid itself has a ``"seed"`` axis.
        description: free-text note stored alongside the spec.
        telemetry: observability defaults for campaign runs of this spec:
            ``{"enabled": true}`` collects per-cell telemetry snapshots into
            the result store's ``telemetry/`` directory; ``"interval_s"``
            tunes the snapshot cadence.  Campaign-level configuration only --
            it deliberately lives here and not on :class:`ExperimentSpec`,
            whose hash defines cell identity: telemetry must never change
            which cells exist or resume from stored results.
    """

    name: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=lambda: [0])
    description: str = ""
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        for axis, values in self.grid.items():
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
                raise ValueError(f"grid axis {axis!r} must map to a list of values")
            if not values:
                raise ValueError(f"grid axis {axis!r} has no values")
        if not self.seeds:
            raise ValueError("seeds must be non-empty (use [0] for a single run)")
        if not isinstance(self.telemetry, Mapping):
            raise ValueError("telemetry must be a mapping (e.g. {\"enabled\": true})")
        self.telemetry = dict(self.telemetry)
        unknown = set(self.telemetry) - {"enabled", "interval_s", "trace", "trace_capacity"}
        if unknown:
            raise ValueError(
                f"unknown telemetry keys {sorted(unknown)}; "
                "known: enabled, interval_s, trace, trace_capacity"
            )
        if "interval_s" in self.telemetry and float(self.telemetry["interval_s"]) < 0:
            raise ValueError("telemetry interval_s must be non-negative")
        if "trace_capacity" in self.telemetry and int(self.telemetry["trace_capacity"]) < 1:
            raise ValueError("telemetry trace_capacity must be a positive integer")

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def expand(self) -> List[ExperimentSpec]:
        """Expand the grid (times seeds) into concrete cells.

        Returns the cells in deterministic order: the cartesian product walks
        the axes in insertion order, with the seed axis last.
        """
        # Legacy field names stay plain axes so from_dict can judge them.
        spec_fields = {f.name for f in fields(ExperimentSpec)} | set(_LEGACY_FIELDS)
        axes = list(self.grid.items())
        implicit_seed = "seed" not in self.grid
        if implicit_seed:
            axes.append(("seed", list(self.seeds)))
        cells: List[ExperimentSpec] = []
        seen: Dict[str, int] = {}
        for combo in product(*(values for _, values in axes)):
            assignments = list(zip(axes, combo))
            if implicit_seed:
                # The implicit seed applies first so a patch axis can pin its
                # own seed (e.g. one RNG stream per named workload).
                assignments = [assignments[-1]] + assignments[:-1]
            cell = deepcopy(self.base)
            for (axis, _), value in assignments:
                if axis in spec_fields or "." in axis:
                    _apply_path(cell, axis, value)
                elif isinstance(value, Mapping):
                    for key, sub_value in value.items():
                        _apply_path(cell, key, sub_value)
                else:
                    raise ValueError(
                        f"grid axis {axis!r} is not an ExperimentSpec field, so its "
                        f"values must be dict patches; got {value!r}"
                    )
            spec = ExperimentSpec.from_dict(cell)
            if spec.cell_id in seen:
                raise ValueError(
                    f"grid expansion produced duplicate cell {spec.cell_id} "
                    f"(combination #{seen[spec.cell_id]} and #{len(cells)})"
                )
            seen[spec.cell_id] = len(cells)
            cells.append(spec)
        return cells

    @property
    def num_cells(self) -> int:
        """Number of cells the grid expands to (without materialising specs)."""
        size = 1
        for values in self.grid.values():
            size *= len(values)
        if "seed" not in self.grid:
            size *= len(self.seeds)
        return size

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "description": self.description,
            "base": deepcopy(self.base),
            "grid": deepcopy(self.grid),
            "seeds": list(self.seeds),
        }
        if self.telemetry:
            out["telemetry"] = deepcopy(self.telemetry)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown CampaignSpec fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**deepcopy(dict(data)))

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Load a campaign spec from a JSON file."""
        try:
            return cls.from_json(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
