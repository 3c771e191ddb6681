"""Tests for campaign execution: determinism, resume, parallelism, replay."""

from __future__ import annotations

import sys

import pytest

from repro.experiments import (
    CampaignRunner,
    CampaignSpec,
    ExperimentSpec,
    ResultStore,
    execute_cell,
    run_cell,
)

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)

CHURN = {"inserts_per_round": 3, "deletes_per_round": 2}


def _campaign(name="sweep", rounds=30, sizes=(10, 14)):
    return CampaignSpec(
        name=name,
        base={
            "algorithm": "triangle",
            "adversary": "churn",
            "rounds": rounds,
            "adversary_params": dict(CHURN),
            "checks": ["triangle_oracle"],
        },
        grid={"n": list(sizes)},
        seeds=[0, 1],
    )


class TestRunCell:
    def test_deterministic(self):
        spec = ExperimentSpec(
            algorithm="triangle", adversary="churn", n=12, rounds=30, seed=4,
            adversary_params=dict(CHURN),
        )
        metrics_a, trace_a = run_cell(spec)
        metrics_b, trace_b = run_cell(spec)
        assert metrics_a == metrics_b
        assert trace_a.to_dict() == trace_b.to_dict()

    def test_checks_merge_into_metrics(self):
        spec = ExperimentSpec(
            algorithm="triangle", adversary="churn", n=12, rounds=30,
            adversary_params=dict(CHURN), checks=("triangle_oracle", "consistent"),
        )
        metrics, _ = run_cell(spec)
        assert metrics["triangle_matches_oracle"] == 1.0
        assert metrics["all_consistent"] == 1.0

    def test_no_trace_when_disabled(self):
        spec = ExperimentSpec(n=10, rounds=10, record_trace=False)
        _, trace = run_cell(spec)
        assert trace is None

    def test_execute_cell_captures_errors(self):
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="scripted",
            n=12,
            adversary_params={"trace_path": "/nonexistent/trace.json"},
        )
        record, trace_dict = execute_cell(spec)
        assert record["status"] == "error"
        assert "FileNotFoundError" in record["error"]
        assert record["metrics"] == {}
        assert trace_dict is None


class TestCampaignRunner:
    def test_inline_run_persists_all_cells(self, tmp_path):
        campaign = _campaign()
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(campaign, store, jobs=1).run()
        assert report.num_run == 4
        assert not report.failed
        assert store.completed_ids() == {c.cell_id for c in campaign.expand()}
        for cell in campaign.expand():
            assert store.load_trace(cell.cell_id).num_rounds > 0

    def test_parallel_matches_inline(self, tmp_path):
        campaign = _campaign()
        inline_store = ResultStore(tmp_path / "inline")
        parallel_store = ResultStore(tmp_path / "parallel")
        CampaignRunner(campaign, inline_store, jobs=1).run()
        CampaignRunner(campaign, parallel_store, jobs=3).run()
        inline = {cid: r["metrics"] for cid, r in inline_store.latest().items()}
        parallel = {cid: r["metrics"] for cid, r in parallel_store.latest().items()}
        assert inline == parallel

    def test_same_seed_same_stored_metrics(self, tmp_path):
        campaign = _campaign()
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        CampaignRunner(campaign, store_a, jobs=2).run()
        CampaignRunner(campaign, store_b, jobs=2).run()
        metrics_a = {cid: r["metrics"] for cid, r in store_a.latest().items()}
        metrics_b = {cid: r["metrics"] for cid, r in store_b.latest().items()}
        assert metrics_a == metrics_b

    def test_rerun_skips_completed_cells(self, tmp_path):
        campaign = _campaign()
        store = ResultStore(tmp_path / "store")
        first = CampaignRunner(campaign, store, jobs=2).run()
        second = CampaignRunner(campaign, store, jobs=2).run()
        assert first.num_run == 4 and first.num_skipped == 0
        assert second.num_run == 0 and second.num_skipped == 4
        assert len(store.records()) == 4

    def test_partial_store_resumes_remaining(self, tmp_path):
        campaign = _campaign()
        cells = campaign.expand()
        store = ResultStore(tmp_path / "store")
        # simulate an interrupted campaign: only the first two cells finished
        for spec in cells[:2]:
            record, trace_dict = execute_cell(spec)
            store.save_trace(spec.cell_id, trace_dict)
            store.append(record)
        report = CampaignRunner(campaign, store, jobs=2).run()
        assert report.num_skipped == 2
        assert {r["cell_id"] for r in report.records} == {c.cell_id for c in cells[2:]}
        assert store.completed_ids() == {c.cell_id for c in cells}

    def test_no_resume_reruns_everything(self, tmp_path):
        campaign = _campaign()
        store = ResultStore(tmp_path / "store")
        CampaignRunner(campaign, store, jobs=1).run()
        report = CampaignRunner(campaign, store, jobs=1).run(resume=False)
        assert report.num_run == 4 and report.num_skipped == 0
        assert len(store.records()) == 8  # append-only; latest() dedupes

    def test_failed_cells_recorded_and_retried(self, tmp_path):
        campaign = CampaignSpec(
            name="fails",
            base={
                "algorithm": "triangle",
                "adversary": "scripted",
                "adversary_params": {"trace_path": "/nonexistent/trace.json"},
            },
            grid={"n": [12]},
        )
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(campaign, store, jobs=1).run()
        assert len(report.failed) == 1
        assert store.completed_ids() == set()
        retry = CampaignRunner(campaign, store, jobs=1).run()
        assert retry.num_run == 1  # error cells are retried, not skipped

    def test_dead_worker_surfaces_missing_cells(self, tmp_path, monkeypatch):
        """A worker killed mid-shard must not silently drop its cells."""
        import os

        from repro.experiments import ADVERSARIES

        def _killer(n, rounds, seed, params):
            os._exit(13)  # simulate an OOM-kill: no exception, no cleanup

        monkeypatch.setitem(ADVERSARIES, "killer", _killer)
        campaign = CampaignSpec(
            name="deaths",
            base={"algorithm": "triangle", "rounds": 5},
            grid={
                "n": [8, 10],
                "workload": [
                    {"adversary": "churn", "adversary_params": dict(CHURN)},
                    {"adversary": "killer"},
                ],
            },
        )
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(campaign, store, jobs=2).run()
        # every cell is accounted for: the churn cells succeed, the cells the
        # dead workers never reached come back as errors (and will be retried)
        assert report.num_run == 4
        died = [r for r in report.failed if "worker process died" in r["error"]]
        assert len(died) == 2
        assert len(store.completed_ids()) == 2

    def test_unknown_start_method_resolves_to_spawn(self, tmp_path):
        # An unavailable start method falls back to 'spawn', not to inline.
        runner = CampaignRunner(
            _campaign(), tmp_path / "store", jobs=4, start_method="no-such-method"
        )
        assert runner.resolved_start_method() == "spawn"

    def test_fork_unavailable_falls_back_to_spawn(self, tmp_path, monkeypatch):
        """Without fork the pool must still run in parallel, under spawn.

        The worker target is a module-level function fed plain spec dicts, so
        it is importable and picklable from a spawned interpreter; this test
        runs a real spawn pool to prove it.
        """
        from repro.experiments import campaign as campaign_module

        real_get_context = campaign_module.mp.get_context
        requested = []

        def recording_get_context(method):
            requested.append(method)
            return real_get_context(method)

        monkeypatch.setattr(
            campaign_module.mp, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(campaign_module.mp, "get_context", recording_get_context)
        campaign = CampaignSpec(
            name="spawned",
            base={
                "algorithm": "triangle",
                "adversary": "churn",
                "rounds": 5,
                "adversary_params": dict(CHURN),
                "record_trace": False,
            },
            grid={"n": [8, 10]},
        )
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(campaign, store, jobs=2, start_method="fork").run()
        assert requested == ["spawn"]
        assert report.num_run == 2 and not report.failed
        assert len(store.completed_ids()) == 2

    def test_no_start_method_available_falls_back_inline(self, tmp_path, monkeypatch):
        from repro.experiments import campaign as campaign_module

        monkeypatch.setattr(campaign_module.mp, "get_all_start_methods", lambda: [])
        monkeypatch.setattr(
            campaign_module.mp,
            "get_context",
            lambda method: pytest.fail("inline fallback must not build a context"),
        )
        campaign = _campaign()
        report = CampaignRunner(
            campaign, tmp_path / "store", jobs=4, start_method="fork"
        ).run()
        assert report.num_run == 4 and not report.failed

    def test_progress_callback_sees_every_cell(self, tmp_path):
        campaign = _campaign()
        seen = []
        CampaignRunner(campaign, tmp_path / "store", jobs=2).run(
            progress=lambda record, done, total: seen.append((record["cell_id"], total))
        )
        assert len(seen) == 4
        assert all(total == 4 for _, total in seen)

    def test_rejects_bad_jobs(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignRunner(_campaign(), tmp_path / "store", jobs=0)


class TestTraceReplay:
    def test_recorded_trace_replays_to_identical_metrics(self, tmp_path):
        spec = ExperimentSpec(
            algorithm="triangle", adversary="churn", n=12, rounds=40, seed=5,
            adversary_params=dict(CHURN), checks=("triangle_oracle",),
        )
        store = ResultStore(tmp_path / "store")
        record, trace_dict = execute_cell(spec)
        trace_path = store.save_trace(spec.cell_id, trace_dict)

        replay_spec = ExperimentSpec(
            algorithm="triangle",
            adversary="scripted",
            n=12,
            adversary_params={"trace_path": str(trace_path)},
            checks=("triangle_oracle",),
        )
        replay_metrics, replay_trace = run_cell(replay_spec)
        original = record["metrics"]
        for key in (
            "rounds_executed",
            "total_changes",
            "inconsistent_rounds",
            "amortized_round_complexity",
            "total_envelopes",
            "total_bits",
            "final_edges",
            "triangle_matches_oracle",
        ):
            assert replay_metrics[key] == original[key], key
        # replaying a trace re-records the identical schedule
        assert replay_trace.to_dict() == trace_dict

    def test_replay_under_different_algorithm(self, tmp_path):
        """The same realized schedule can be fed to a different structure."""
        spec = ExperimentSpec(
            algorithm="triangle", adversary="p2p", n=12, rounds=30, seed=2,
        )
        _, trace = run_cell(spec)
        path = tmp_path / "trace.json"
        trace.save(path)
        replay = ExperimentSpec(
            algorithm="robust2hop",
            adversary="scripted",
            n=12,
            adversary_params={"trace_path": str(path)},
        )
        metrics, _ = run_cell(replay)
        assert metrics["total_changes"] == float(trace.total_changes)


class TestFlickerGhostCheck:
    def test_default_geometry_verdicts(self):
        spec = ExperimentSpec(
            algorithm="naive", adversary="flicker", n=9, checks=("flicker_ghost",),
            record_trace=False,
        )
        metrics, _ = run_cell(spec)
        # The Section 1.3 strawman: consistent but believing the deleted edge.
        assert metrics["node_v_consistent"] == 1.0
        assert metrics["believes_deleted_edge"] == 1.0

    def test_relocated_geometry_supported(self):
        # Regression: relocated v/u/w used to crash the check mid-campaign
        # ("default flicker geometry"); the promoted check reads the gadget
        # position from the spec and grades the actual node v.
        spec = ExperimentSpec(
            algorithm="naive", adversary="flicker", n=16, checks=("flicker_ghost",),
            adversary_params={"v": 9, "u": 10, "w": 11}, record_trace=False,
        )
        metrics, _ = run_cell(spec)
        assert metrics["node_v_consistent"] == 1.0
        assert metrics["believes_deleted_edge"] == 1.0

    def test_relocated_geometry_correct_structure(self):
        # The robust structure at the same relocated gadget must NOT believe
        # the deleted far edge.
        spec = ExperimentSpec(
            algorithm="robust2hop", adversary="flicker", n=16,
            checks=("flicker_ghost",),
            adversary_params={"v": 9, "u": 10, "w": 11}, record_trace=False,
        )
        metrics, _ = run_cell(spec)
        assert metrics["node_v_consistent"] == 1.0
        assert metrics["believes_deleted_edge"] == 0.0


class TestResumeValidation:
    """Fingerprint-based resume: skip only cells whose spec hash matches."""

    def test_records_carry_spec_hash_and_state_fingerprint(self):
        spec = ExperimentSpec(
            algorithm="triangle", adversary="churn", n=10, rounds=15,
            adversary_params=dict(CHURN),
        )
        record, _ = execute_cell(spec)
        assert record["spec_hash"] == spec.spec_hash
        assert len(record["spec_hash"]) == 40  # the full sha1, not the cell_id prefix
        assert record["spec_hash"].startswith(spec.cell_id.rsplit("-", 1)[-1])
        assert isinstance(record["state_fingerprint"], str)
        # deterministic: re-running the cell reproduces the same final state
        again, _ = execute_cell(spec)
        assert again["state_fingerprint"] == record["state_fingerprint"]

    def test_error_records_have_no_fingerprint(self):
        spec = ExperimentSpec(
            algorithm="triangle", adversary="scripted", n=12,
            adversary_params={"trace_path": "/nonexistent/trace.json"},
        )
        record, _ = execute_cell(spec)
        assert record["status"] == "error"
        assert record["state_fingerprint"] is None

    def test_resume_skips_only_matching_spec_hashes(self, tmp_path):
        campaign = _campaign()
        store = ResultStore(tmp_path / "store")
        CampaignRunner(campaign, store, jobs=1).run()
        # tamper with one stored record's spec hash (a store from a different
        # spec revision, a truncated-id collision, or a hand-edited file)
        records = store.records()
        victim = records[0]["cell_id"]
        tampered_path = tmp_path / "tampered"
        tampered = ResultStore(tampered_path)
        for record in records:
            if record["cell_id"] == victim:
                record = {**record, "spec_hash": "0" * 40}
            tampered.append(record)

        with pytest.warns(RuntimeWarning, match="NOT resuming"):
            report = CampaignRunner(campaign, tampered, jobs=1).run()
        assert report.num_skipped == 3
        assert {r["cell_id"] for r in report.records} == {victim}

    def test_resume_warns_loudly_via_logging(self, tmp_path, caplog):
        campaign = _campaign()
        store = ResultStore(tmp_path / "store")
        CampaignRunner(campaign, store, jobs=1).run()
        victim = campaign.expand()[0]
        legacy = ResultStore(tmp_path / "legacy")
        for record in store.records():
            record = dict(record)
            if record["cell_id"] == victim.cell_id:
                record.pop("spec_hash")  # a record predating hash stamping
            legacy.append(record)
        with pytest.warns(RuntimeWarning):
            with caplog.at_level("WARNING", logger="repro.experiments.campaign"):
                report = CampaignRunner(campaign, legacy, jobs=1).run()
        logged = "\n".join(r.getMessage() for r in caplog.records)
        assert victim.cell_id in logged and "re-run" in logged
        assert report.num_skipped == 3 and report.num_run == 1

    def test_matching_hashes_resume_silently(self, tmp_path, recwarn):
        campaign = _campaign()
        store = ResultStore(tmp_path / "store")
        CampaignRunner(campaign, store, jobs=1).run()
        report = CampaignRunner(campaign, store, jobs=1).run()
        assert report.num_run == 0 and report.num_skipped == 4
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
