"""Tests of the benchmark itself, on tiny inputs.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from repro.experiments import campaign  # noqa: E402
from repro.serve.core import ServingMonitor  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cell_p2p": {"n": 60, "rounds": 15},
    "cell_flicker_100k": {"n": 60, "settle_rounds": 20},
    "serve_flicker": {"n": 60, "subscriptions": 200, "settle_rounds": 20, "ticks": 3},
    "serve_p2p": {"n": 40, "subscriptions": 80, "rounds": 20, "ticks": 3},
}


def tiny_run(capsys, monkeypatch, workload, trace=0):
    monkeypatch.chdir(ROOT)
    code = run.main(
        ["--workload", workload, "--seconds", "0", "--trace", str(trace)], sizes=TINY
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(capsys, monkeypatch, workload, trace):
    code, result = tiny_run(capsys, monkeypatch, workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    assert result["attempted"] >= 2 and result["failed"] == 0
    if not trace:
        # Tiny traced ops are dominated by fixed costs no layer claims, so
        # only the untraced runs must pass every gate at this size.
        assert code == 0 and result["correct"]
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_corrupted_cell_fingerprint_fails_the_op(capsys, monkeypatch):
    real = campaign._combined_fingerprint
    calls = []

    def corrupt_second(fingerprints):
        calls.append(None)
        return real(fingerprints) if len(calls) == 1 else "0" * 40

    monkeypatch.setattr(campaign, "_combined_fingerprint", corrupt_second)
    code, result = tiny_run(capsys, monkeypatch, "cell_p2p")
    assert code == 1
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_corrupted_serving_fingerprint_fails_the_pass(capsys, monkeypatch):
    real = ServingMonitor.state_fingerprint
    calls = []

    def corrupt_second(monitor):
        calls.append(None)
        return real(monitor) if len(calls) == 1 else "0" * 40

    monkeypatch.setattr(ServingMonitor, "state_fingerprint", corrupt_second)
    code, result = tiny_run(capsys, monkeypatch, "serve_p2p")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2
