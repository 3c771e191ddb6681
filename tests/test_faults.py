"""Tests for the fault-injection subsystem: models, plan, overlay, engines.

The acceptance gate of the fault work lives here too: a grid of fault models
must run bit-identically across the dense, sparse and columnar engines, with
the fault statistics part of the gated summary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, run_cell
from repro.faults.models import (
    FAULT_NONE,
    FAULTS,
    CrashRecover,
    FaultPlan,
    GilbertElliottLoss,
    PartitionCycle,
    RegionalOutage,
    UniformLoss,
    build_fault_plan,
    register_fault,
)
from repro.faults.overlay import FaultOverlayAdversary
from repro.verification import run_differential

ALL_MODES = ("dense", "sparse", "columnar")


class TestRegistry:
    def test_all_five_models_registered(self):
        assert {"uniform_loss", "burst_loss", "crash", "regional", "partition"} <= set(
            FAULTS
        )

    def test_none_builds_no_plan(self):
        assert build_fault_plan(FAULT_NONE, n=8, seed=0) is None

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            build_fault_plan("solar_flare", n=8, seed=0)

    def test_bad_params_surface_as_value_error(self):
        with pytest.raises(ValueError, match="bad fault_params"):
            build_fault_plan("uniform_loss", n=8, seed=0, params={"probability": 0.5})

    def test_none_name_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_fault(FAULT_NONE, UniformLoss)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_fault("uniform_loss", UniformLoss)

    def test_during_drain_is_a_plan_knob_not_a_model_param(self):
        plan = build_fault_plan(
            "uniform_loss", n=8, seed=0, params={"p": 0.5, "during_drain": True}
        )
        assert plan.during_drain
        assert plan.model.p == 0.5


class TestModelDeterminism:
    """Every decision is a pure function of (seed, round, ids) -- no RNG state."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(6, 12))
    def test_loss_schedules_replay_bit_identically(self, seed, n):
        for name in ("uniform_loss", "burst_loss"):
            a = FAULTS[name](n, seed)
            b = FAULTS[name](n, seed)
            schedule_a = [
                a.drops_message(r, u, v)
                for r in range(1, 15)
                for u in range(n)
                for v in range(n)
                if u != v
            ]
            schedule_b = [
                b.drops_message(r, u, v)
                for r in range(1, 15)
                for u in range(n)
                for v in range(n)
                if u != v
            ]
            assert schedule_a == schedule_b, name

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(6, 12))
    def test_topology_schedules_replay_bit_identically(self, seed, n):
        for name in ("crash", "regional"):
            a = FAULTS[name](n, seed)
            b = FAULTS[name](n, seed)
            assert [a.down_nodes(r) for r in range(1, 25)] == [
                b.down_nodes(r) for r in range(1, 25)
            ], name
        a = PartitionCycle(n, seed)
        b = PartitionCycle(n, seed)
        cuts_a = [a.cuts_edge(r, 0, n - 1) for r in range(1, 25)]
        cuts_b = [b.cuts_edge(r, 0, n - 1) for r in range(1, 25)]
        assert cuts_a == cuts_b

    def test_burst_loss_is_call_order_independent(self):
        # The Gilbert-Elliott chain advances with a lazy cursor, but the state
        # at any round must not depend on the query pattern: the engines ask
        # in different orders (dense asks every node, sparse only active ones).
        forward = GilbertElliottLoss(8, seed=3, p_enter=0.3, p_exit=0.3)
        scattered = GilbertElliottLoss(8, seed=3, p_enter=0.3, p_exit=0.3)
        rounds = list(range(1, 20))
        answers_forward = {r: forward.drops_message(r, 1, 2) for r in rounds}
        answers_scattered = {
            r: scattered.drops_message(r, 1, 2) for r in [10, 3, 19, 1, 7, 15]
        }
        for r, answer in answers_scattered.items():
            assert answer == answers_forward[r]

    def test_different_seeds_draw_different_schedules(self):
        a = UniformLoss(8, seed=1, p=0.5)
        b = UniformLoss(8, seed=2, p=0.5)
        schedule = lambda m: [
            m.drops_message(r, u, v) for r in range(1, 20) for u in range(8) for v in range(8)
        ]
        assert schedule(a) != schedule(b)


class TestModelBehavior:
    def test_uniform_loss_extremes(self):
        never = UniformLoss(8, seed=0, p=0.0)
        always = UniformLoss(8, seed=0, p=1.0)
        assert not any(never.drops_message(r, 0, 1) for r in range(1, 50))
        assert all(always.drops_message(r, 0, 1) for r in range(1, 50))

    def test_crash_downtime_is_contiguous_and_bounded(self):
        model = CrashRecover(10, seed=5, crash_p=0.9, cycle=8, downtime=3)
        for v in range(10):
            for epoch in range(4):
                down_rounds = [
                    offset
                    for offset in range(model.cycle)
                    if v in model.down_nodes(epoch * model.cycle + offset + 1)
                ]
                assert len(down_rounds) in (0, model.downtime)
                if down_rounds:
                    lo, hi = min(down_rounds), max(down_rounds)
                    assert hi - lo + 1 == model.downtime  # one contiguous block

    def test_regional_outage_takes_whole_regions_down(self):
        model = RegionalOutage(12, seed=2, regions=3, outage_p=0.9)
        regions = {}
        for v in range(12):
            regions.setdefault(model._region_of(v), set()).add(v)
        assert len(regions) == 3
        for r in range(1, 40):
            down = model.down_nodes(r)
            for members in regions.values():
                # all-or-nothing per region: a rack fails as a unit
                assert members <= down or not (members & down)

    def test_partition_cuts_only_crossing_edges_only_during_split(self):
        model = PartitionCycle(10, seed=4, period=8, split=3)
        for r in range(1, 25):
            offset = (r - 1) % model.period
            cycle = (r - 1) // model.period
            for u in range(10):
                for v in range(u + 1, 10):
                    cut = model.cuts_edge(r, u, v)
                    if offset >= model.split:
                        assert not cut  # healed window
                    elif cut:
                        assert model._side(cycle, u) != model._side(cycle, v)

    def test_amnesia_flag_rides_the_params(self):
        assert not CrashRecover(8, seed=0).amnesia
        assert CrashRecover(8, seed=0, amnesia=True).amnesia


class TestFaultPlan:
    def test_drop_accounting(self):
        plan = FaultPlan(UniformLoss(8, seed=0, p=1.0))
        assert plan.message_dropped(1, 0, 1)
        assert plan.message_dropped(1, 2, 3)
        assert plan.stats["fault_messages_dropped"] == 2

    def test_drain_freezes_loss_by_default(self):
        plan = FaultPlan(UniformLoss(8, seed=0, p=1.0))
        plan.enter_drain()
        assert not plan.message_dropped(5, 0, 1)
        assert plan.stats["fault_messages_dropped"] == 0

    def test_during_drain_keeps_loss_on(self):
        plan = FaultPlan(UniformLoss(8, seed=0, p=1.0), during_drain=True)
        plan.enter_drain()
        assert plan.message_dropped(5, 0, 1)

    def test_reset_schedule_round_trip(self):
        plan = FaultPlan(CrashRecover(8, seed=0, amnesia=True))
        plan.record_resets(4, [2, 5])
        assert plan.resets_for_round(4) == (2, 5)
        assert plan.resets_for_round(5) == ()
        assert plan.stats["fault_node_resets"] == 2

    def test_fresh_node_requires_wiring(self):
        plan = FaultPlan(CrashRecover(8, seed=0, amnesia=True))
        with pytest.raises(RuntimeError, match="algorithm_factory"):
            plan.fresh_node(3, 8)


class TestOverlay:
    def test_rejects_delivery_only_models(self):
        from repro.experiments import build_adversary

        inner = build_adversary("churn", n=8, rounds=10, seed=0, params={})
        plan = FaultPlan(UniformLoss(8, seed=0))
        with pytest.raises(ValueError, match="does not affect topology"):
            FaultOverlayAdversary(inner, 8, plan)

    def test_physical_graph_never_touches_down_nodes(self):
        # Drive a real faulted cell and audit every recorded (physical) round:
        # no surviving edge may be incident to a node the model says is down.
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="churn",
            n=10,
            rounds=20,
            seed=3,
            adversary_params={"inserts_per_round": 3, "deletes_per_round": 1},
            faults="crash",
            fault_params={"crash_p": 0.6, "cycle": 6, "downtime": 2},
        )
        _, trace = run_cell(spec)
        model = CrashRecover(10, seed=3, crash_p=0.6, cycle=6, downtime=2)
        from repro.simulator.network import DynamicNetwork

        network = DynamicNetwork(10)
        for i in range(trace.num_rounds):
            network.apply_changes(i + 1, trace.changes_for(i))
            down = model.down_nodes(i + 1)
            assert not network.edges_incident(down), f"round {i + 1}"

    def test_logical_schedule_is_fault_independent(self):
        # Same seed with faults on/off: the *logical* adversary stream must
        # not shift (the overlay feeds it a private logical view).  The
        # physical trace differs, but re-running the faulted spec reproduces
        # it bit-identically.
        base = dict(
            algorithm="triangle",
            adversary="churn",
            n=10,
            rounds=15,
            seed=7,
            adversary_params={"inserts_per_round": 3, "deletes_per_round": 1},
        )
        faulted = ExperimentSpec(
            **base, faults="partition", fault_params={"period": 6, "split": 2}
        )
        _, trace_a = run_cell(faulted)
        _, trace_b = run_cell(faulted)
        assert trace_a.to_dict() == trace_b.to_dict()
        _, clean_trace = run_cell(ExperimentSpec(**base))
        assert clean_trace.to_dict() != trace_a.to_dict()


class TestEdgesIncident:
    def test_edges_incident_matches_bruteforce(self):
        from repro.simulator.network import DynamicNetwork
        from repro.simulator.events import RoundChanges

        network = DynamicNetwork(8)
        network.apply_changes(
            1, RoundChanges.of(insert=((0, 1), (1, 2), (2, 3), (4, 5), (6, 7)))
        )
        assert network.edges_incident({1}) == {(0, 1), (1, 2)}
        assert network.edges_incident({1, 4}) == {(0, 1), (1, 2), (4, 5)}
        assert network.edges_incident(()) == frozenset()

    def test_edges_incident_validates_nodes(self):
        from repro.simulator.network import DynamicNetwork, TopologyError

        with pytest.raises(TopologyError):
            DynamicNetwork(4).edges_incident({9})


class TestSpecFaultAxis:
    def test_fault_free_cell_id_unchanged(self):
        with_field = ExperimentSpec(n=8, rounds=5, faults="none")
        without = ExperimentSpec(n=8, rounds=5)
        assert with_field.cell_id == without.cell_id
        assert "faults" not in with_field.to_dict()

    def test_faulted_cell_id_embeds_the_model(self):
        clean = ExperimentSpec(n=8, rounds=5)
        faulted = ExperimentSpec(n=8, rounds=5, faults="uniform_loss")
        assert clean.cell_id != faulted.cell_id
        assert "uniform_loss" in faulted.cell_id

    def test_faulted_spec_round_trips(self):
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="churn",
            n=8,
            rounds=10,
            faults="crash",
            fault_params={"crash_p": 0.5, "amnesia": True},
        )
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.cell_id == spec.cell_id
        assert clone.faults == "crash" and clone.fault_params == spec.fault_params

    def test_invalid_fault_model_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            ExperimentSpec(n=8, rounds=5, faults="gremlins")


class TestDifferentialAcceptance:
    """The PR's acceptance gate: faulted cells stay bit-identical across all
    three engines, with the fault statistics part of the gated summary."""

    GRID = {
        "uniform_loss": {"p": 0.2},
        "crash": {"crash_p": 0.3, "cycle": 6, "downtime": 2, "amnesia": True},
        "partition": {"period": 6, "split": 2},
    }

    @pytest.mark.parametrize("faults", sorted(GRID))
    def test_three_models_by_three_engines(self, faults):
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="churn",
            n=10,
            rounds=20,
            seed=1,
            adversary_params={"inserts_per_round": 3, "deletes_per_round": 1},
            faults=faults,
            fault_params=dict(self.GRID[faults]),
        )
        report = run_differential(spec, modes=ALL_MODES)
        assert report.ok, report.describe()
        summary = report.summaries["dense"]
        assert {k for k in summary if k.startswith("fault_")} == {
            "fault_messages_dropped",
            "fault_node_resets",
            "fault_masked_edges",
            "fault_down_node_rounds",
        }
        # every mode reports the identical fault accounting
        for mode in ALL_MODES[1:]:
            assert report.summaries[mode] == summary

    def test_fault_machinery_actually_fires(self):
        totals = {}
        for faults, params in self.GRID.items():
            spec = ExperimentSpec(
                algorithm="triangle",
                adversary="churn",
                n=10,
                rounds=20,
                seed=1,
                adversary_params={"inserts_per_round": 3, "deletes_per_round": 1},
                faults=faults,
                fault_params=dict(params),
            )
            metrics, _ = run_cell(spec)
            totals[faults] = sum(v for k, v in metrics.items() if k.startswith("fault_"))
        assert all(total > 0 for total in totals.values()), totals

    def test_amnesia_resets_are_engine_independent(self):
        spec = ExperimentSpec(
            algorithm="robust2hop",
            adversary="churn",
            n=9,
            rounds=18,
            seed=6,
            adversary_params={"inserts_per_round": 3, "deletes_per_round": 1},
            faults="crash",
            fault_params={"crash_p": 0.7, "cycle": 5, "downtime": 2, "amnesia": True},
        )
        report = run_differential(spec, modes=ALL_MODES)
        assert report.ok, report.describe()
        assert report.summaries["dense"]["fault_node_resets"] > 0

    def test_auto_checks_are_disabled_under_faults(self):
        # The registered checks grade fault-free semantics; a faulted cell
        # must not auto-select them (it would fail for the wrong reason).
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="churn",
            n=8,
            rounds=10,
            seed=0,
            adversary_params={"inserts_per_round": 2, "deletes_per_round": 1},
            faults="uniform_loss",
            fault_params={"p": 0.5},
        )
        report = run_differential(spec, modes=("dense", "sparse"), auto_checks=True)
        assert report.ok, report.describe()
        assert not report.executed_checks
