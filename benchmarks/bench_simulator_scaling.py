"""E12 -- Figure 1 substrate: simulator throughput across network sizes.

Not a paper experiment, but the substrate every other experiment stands on:
this bench measures wall-clock throughput (simulated rounds per second) of the
default round engine across network sizes.  Every configuration is one
campaign cell, so the size sweep is just a grid axis.
"""

from __future__ import annotations

import pytest

from repro.experiments import CampaignRunner, CampaignSpec, ExperimentSpec, ResultStore, run_cell

from benchmarks.harness import RESULTS_DIR, emit_table

ROUNDS = 60

_BASE = {
    "algorithm": "triangle",
    "adversary": "churn",
    "rounds": ROUNDS,
    "drain": False,
    "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
}

SIZES = [32, 64, 128]

CAMPAIGN = CampaignSpec(
    name="E12_simulator_scaling",
    base=_BASE,
    grid={"n": SIZES},
)


@pytest.mark.parametrize("n", SIZES)
def test_serial_engine_throughput(benchmark, n):
    spec = ExperimentSpec.from_dict({**_BASE, "n": n})
    metrics, _ = benchmark.pedantic(run_cell, args=(spec,), rounds=1, iterations=1)
    benchmark.extra_info["rounds_simulated"] = metrics["rounds_executed"]
    benchmark.extra_info["envelopes"] = metrics["total_envelopes"]
    assert metrics["rounds_executed"] == ROUNDS


def _emit_table_impl():
    store = ResultStore(RESULTS_DIR / "campaign_E12_scaling")
    report = CampaignRunner(CAMPAIGN, store).run(resume=False)
    assert not report.failed, report.failed
    by_id = {record["cell_id"]: record for record in report.records}

    rows = []
    for cell in CAMPAIGN.expand():
        record = by_id[cell.cell_id]
        metrics = record["metrics"]
        elapsed = record["duration_s"]
        rows.append(
            [
                f"{cell.engine_mode} n={cell.n}",
                int(metrics["rounds_executed"]),
                int(metrics["total_envelopes"]),
                round(elapsed, 3),
                round(metrics["rounds_executed"] / elapsed, 1),
            ]
        )
        assert metrics["rounds_executed"] == ROUNDS
    emit_table(
        "E12_simulator_scaling",
        ["configuration", "rounds", "envelopes", "wall-clock s", "rounds / s"],
        rows,
        claim="substrate only: throughput of the Figure 1 round engine",
    )


def test_emit_table(benchmark, results_dir):
    """Regenerate and persist this experiment's table (runs under --benchmark-only)."""
    benchmark.pedantic(_emit_table_impl, rounds=1, iterations=1)
