"""Tests for the columnar (vectorized) round engine and its substrate.

The contract under test mirrors the sparse engine's: for every registered
algorithm -- ported through :class:`ColumnarProtocol` or running on the
per-node fallback -- the columnar engine's RoundRecord stream, trace,
bandwidth accounting, fault statistics and final node state are bit-identical
to the dense and sparse engines, with and without fault models and with
telemetry on and off.  The adjacency mirror and send buffer underneath are
covered directly.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import FlickerTriangleAdversary
from repro.core import RobustTwoHopNode, TriangleMembershipNode
from repro.experiments import ALGORITHMS, ExperimentSpec, build_adversary
from repro.obs import TELEMETRY
from repro.simulator import (
    AdjacencyMirror,
    ColumnarRoundEngine,
    DynamicNetwork,
    RoundChanges,
    SendBuffer,
    SimulationRunner,
    create_engine,
)
from repro.simulator.columnar import _columnar_port
from repro.simulator.node import NodeAlgorithm
from repro.verification import run_differential


def _fingerprint(result):
    """Everything that must match between engines, as plain data."""
    state = {}
    for v, node in result.nodes.items():
        entry = {"consistent": node.is_consistent(), "size": node.local_state_size()}
        if hasattr(node, "known_edges"):
            entry["known"] = node.known_edges()
        state[v] = entry
    return {
        "rounds": result.metrics.rounds,
        "summary": result.summary(),
        "per_node": result.metrics.per_node_inconsistent_rounds,
        "trace": result.trace.to_dict() if result.trace else None,
        "edges": result.network.edges,
        "bandwidth": (
            result.bandwidth.total_envelopes,
            result.bandwidth.total_bits,
            result.bandwidth.max_observed_bits,
            result.bandwidth.violations,
        ),
        "state": state,
    }


def _run(algorithm, adversary_name, n, rounds, seed, params, mode, **runner_kwargs):
    adversary = build_adversary(
        adversary_name, n=n, rounds=rounds, seed=seed, params=params
    )
    runner = SimulationRunner(
        n=n,
        algorithm_factory=ALGORITHMS[algorithm],
        adversary=adversary,
        strict_bandwidth=algorithm != "broadcast",
        record_trace=True,
        engine_mode=mode,
        **runner_kwargs,
    )
    return runner.run(num_rounds=rounds)


CHURN = {"inserts_per_round": 2, "deletes_per_round": 2}


class TestColumnarIdentity:
    """Columnar vs dense vs sparse on ported and fallback algorithms."""

    @pytest.mark.parametrize(
        "algorithm",
        # triangle/clique/robust2hop take the batched path; the rest exercise
        # the per-node fallback inside the same engine.
        ["triangle", "clique", "robust2hop", "robust3hop", "twohop", "naive", "cycles"],
    )
    def test_random_churn_identical(self, algorithm):
        runs = {
            mode: _fingerprint(_run(algorithm, "churn", 24, 80, 11, dict(CHURN), mode))
            for mode in ("dense", "sparse", "columnar")
        }
        assert runs["dense"] == runs["columnar"], algorithm
        assert runs["sparse"] == runs["columnar"], algorithm

    def test_flicker_schedule_identical(self):
        for algorithm in ("naive", "triangle", "robust2hop"):
            results = {}
            for mode in ("dense", "columnar"):
                runner = SimulationRunner(
                    n=16,
                    algorithm_factory=ALGORITHMS[algorithm],
                    adversary=FlickerTriangleAdversary(),
                    record_trace=True,
                    engine_mode=mode,
                )
                results[mode] = _fingerprint(runner.run())
            assert results["dense"] == results["columnar"], algorithm

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_schedules_property(self, seed):
        rng = random.Random(seed)
        n = rng.choice([12, 20, 33])
        rounds = rng.choice([40, 70])
        adversary_name = rng.choice(["churn", "p2p", "growing"])
        params = (
            {
                "inserts_per_round": rng.randint(1, 4),
                "deletes_per_round": rng.randint(0, 3),
            }
            if adversary_name == "churn"
            else {}
        )
        algorithm = rng.choice(["triangle", "robust2hop", "clique"])
        dense = _fingerprint(
            _run(algorithm, adversary_name, n, rounds, seed, dict(params), "dense")
        )
        columnar = _fingerprint(
            _run(algorithm, adversary_name, n, rounds, seed, dict(params), "columnar")
        )
        assert dense == columnar

    def test_differential_harness_all_four_modes(self):
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="churn",
            n=12,
            rounds=30,
            seed=5,
            adversary_params=dict(CHURN),
        )
        report = run_differential(
            spec, modes=("dense", "sparse", "columnar"), auto_checks=True
        )
        assert report.ok, report.describe()


class TestColumnarFaultIdentity:
    """Fault statistics and drop realizations match the per-envelope engines."""

    @pytest.mark.parametrize(
        "faults,fault_params",
        [
            ("uniform_loss", {"p": 0.3}),
            ("crash", {"crash_p": 0.5, "cycle": 6, "downtime": 2}),
            ("partition", {"period": 6, "split": 2}),
            ("burst_loss", {}),
            ("regional", {}),
        ],
    )
    @pytest.mark.parametrize("algorithm", ["triangle", "robust2hop"])
    def test_fault_models_identical(self, algorithm, faults, fault_params):
        spec = ExperimentSpec(
            algorithm=algorithm,
            adversary="churn",
            n=12,
            rounds=30,
            seed=7,
            adversary_params=dict(CHURN),
            faults=faults,
            fault_params=fault_params,
        )
        report = run_differential(spec, modes=("dense", "sparse", "columnar"))
        assert report.ok, report.describe()


class TestColumnarTelemetry:
    """Telemetry must not perturb results, and spans must stay faithful."""

    def _run_with_telemetry(self, mode):
        TELEMETRY.enable()
        try:
            result = _run("triangle", "churn", 16, 40, 3, dict(CHURN), mode)
            fp = _fingerprint(result)
        finally:
            TELEMETRY.disable()
        return fp

    def test_telemetry_does_not_perturb(self):
        plain = _fingerprint(_run("triangle", "churn", 16, 40, 3, dict(CHURN), "columnar"))
        instrumented = self._run_with_telemetry("columnar")
        assert instrumented == plain
        assert not TELEMETRY.enabled

    def test_telemetry_identical_across_engines(self):
        assert self._run_with_telemetry("dense") == self._run_with_telemetry("columnar")


class TestColumnarFallbackDetection:
    def test_unported_subclass_falls_back(self):
        """Overriding on_messages below the port owner disables the batched path."""

        class ShadowTriangle(TriangleMembershipNode):
            def on_messages(self, round_index, inbox):
                super().on_messages(round_index, inbox)

        assert _columnar_port(TriangleMembershipNode)
        assert _columnar_port(RobustTwoHopNode)
        assert not _columnar_port(ShadowTriangle)
        assert not _columnar_port(NodeAlgorithm)

        network = DynamicNetwork(6)
        nodes = {v: ShadowTriangle(v, 6) for v in range(6)}
        engine = ColumnarRoundEngine(network, nodes)
        assert engine._port_cls is None

    def test_unported_compose_override_falls_back(self):
        class ShadowCompose(TriangleMembershipNode):
            def compose_messages(self, round_index):
                return super().compose_messages(round_index)

        assert not _columnar_port(ShadowCompose)

    def test_heterogeneous_population_falls_back(self):
        network = DynamicNetwork(6)
        nodes = {
            v: (TriangleMembershipNode if v % 2 else RobustTwoHopNode)(v, 6)
            for v in range(6)
        }
        engine = ColumnarRoundEngine(network, nodes)
        assert engine._port_cls is None

    def test_ported_population_detected(self):
        network = DynamicNetwork(6)
        nodes = {v: TriangleMembershipNode(v, 6) for v in range(6)}
        engine = create_engine("columnar", network, nodes)
        assert isinstance(engine, ColumnarRoundEngine)
        assert engine._port_cls is TriangleMembershipNode


class TestEngineConstructionValidation:
    """Satellite 3: O(1)-ish validation that still names the offending ids."""

    def test_missing_node_named(self):
        network = DynamicNetwork(5)
        nodes = {v: TriangleMembershipNode(v, 5) for v in range(4)}
        with pytest.raises(ValueError, match=r"missing ids \[4\]"):
            ColumnarRoundEngine(network, nodes)

    def test_unexpected_node_named(self):
        network = DynamicNetwork(4)
        nodes = {v: TriangleMembershipNode(v, 4) for v in range(4)}
        nodes[9] = TriangleMembershipNode(3, 4)
        with pytest.raises(ValueError, match=r"unexpected ids \[9\]"):
            create_engine("dense", network, nodes)

    def test_negative_id_named(self):
        network = DynamicNetwork(4)
        nodes = {v: TriangleMembershipNode(v, 4) for v in range(4)}
        nodes[-1] = nodes.pop(3)
        with pytest.raises(ValueError, match=r"unexpected ids \[-1\]"):
            create_engine("sparse", network, nodes)


class TestSpecRejectsShardedColumnar:
    def test_sharded_engine_columnar_mode_rejected(self):
        with pytest.raises(ValueError, match="sharded engine was removed"):
            ExperimentSpec.from_dict(
                {
                    "algorithm": "triangle",
                    "adversary": "churn",
                    "n": 8,
                    "engine": "sharded",
                    "engine_mode": "columnar",
                }
            )


class TestAdjacencyMirror:
    def _apply(self, network, round_index, inserts=(), deletes=()):
        changes = RoundChanges.of(insert=inserts, delete=deletes)
        network.apply_changes(round_index, changes)

    def test_incremental_sync_tracks_network(self):
        rng = random.Random(42)
        n = 20
        network = DynamicNetwork(n)
        mirror = AdjacencyMirror(network)
        present = set()
        for r in range(1, 60):
            inserts, deletes = [], []
            for _ in range(rng.randint(0, 4)):
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) in present:
                    deletes.append((u, v))
                    present.discard((u, v))
                else:
                    inserts.append((u, v))
                    present.add((u, v))
            self._apply(network, r, inserts, deletes)
            mirror.sync()
            for u in range(n):
                for v in range(u + 1, n):
                    assert mirror.has_edge(u, v) == network.has_edge(u, v)
            assert all(
                mirror.degree(v) == len(network.neighbors(v)) for v in range(n)
            )

    def test_rebuild_after_missed_rounds(self):
        """A mirror that skipped rounds falls back to a full rebuild."""
        n = 10
        network = DynamicNetwork(n)
        mirror = AdjacencyMirror(network)
        self._apply(network, 1, inserts=[(0, 1), (2, 3)])
        self._apply(network, 2, inserts=[(4, 5)], deletes=[(0, 1)])
        mirror.sync()  # two batches behind -> rebuild path
        assert mirror.has_edge(4, 5) and mirror.has_edge(2, 3)
        assert not mirror.has_edge(0, 1)

    def test_pairs_all_exist_both_paths(self):
        n = 50
        network = DynamicNetwork(n)
        edges = [(u, u + 1) for u in range(0, n - 1)]
        self._apply(network, 1, inserts=edges)
        mirror = AdjacencyMirror(network)
        mirror.sync()
        senders = [u for u, _ in edges]
        targets = [v for _, v in edges]
        # Large batch takes the vectorized bitset path (>= VECTOR_MIN_ROWS).
        assert mirror.pairs_all_exist(senders, targets)
        assert not mirror.pairs_all_exist(senders + [0], targets + [49])
        # Small batch takes the packed-key sweep.
        assert mirror.pairs_all_exist(senders[:3], targets[:3])
        assert not mirror.pairs_all_exist([0], [49])


class TestSendBuffer:
    def test_row_size_bits(self):
        buf = SendBuffer()
        buf.senders += [0, 1, 2]
        buf.targets += [1, 2, 0]
        buf.edges += [(0, 1), None, (1, 2)]
        buf.ops += [None, None, None]
        buf.patterns += [None, None, None]
        buf.empty_flags += [True, False, False]
        payload_bits = 10
        assert buf.row_size_bits(0, payload_bits) == 10  # payload, empty
        assert buf.row_size_bits(1, payload_bits) == 1  # no payload, flag
        assert buf.row_size_bits(2, payload_bits) == 11  # payload + flag
        assert len(buf) == 3
        buf.clear()
        assert len(buf) == 0 and buf.payload_rows == 0


class TestQuietRoundFastPath:
    def test_drain_rounds_identical_to_sparse(self):
        """Settle-heavy schedule: one burst then many empty rounds."""
        results = {}
        for mode in ("sparse", "columnar"):
            runner = SimulationRunner(
                n=16,
                algorithm_factory=ALGORITHMS["triangle"],
                adversary=build_adversary(
                    "batch", n=16, rounds=60, seed=2, params={}
                ),
                record_trace=True,
                engine_mode=mode,
            )
            results[mode] = _fingerprint(runner.run(num_rounds=60))
        assert results["sparse"] == results["columnar"]


class TestFuzzCorpusAcrossAllModes:
    """Every committed fuzz reproducer passes the three-way differential."""

    def test_corpus_entries_identical_across_modes(self):
        from pathlib import Path

        from repro.fuzz.corpus import CorpusStore

        store = CorpusStore(Path(__file__).parent / "data" / "fuzz_corpus")
        entries = [e for e in store.entries() if e.expect == "pass"]
        assert entries, "committed corpus unexpectedly empty"
        for entry in entries:
            report = run_differential(
                entry.spec(), modes=("dense", "sparse", "columnar")
            )
            assert report.ok, (entry.entry_id, report.describe())
