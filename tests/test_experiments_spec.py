"""Tests for the declarative experiment/campaign spec layer."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments import CampaignSpec, ExperimentSpec

FIXTURE_RESULTS = Path(__file__).parent / "data" / "campaign_store" / "results.jsonl"


class TestExperimentSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="churn",
            n=20,
            rounds=100,
            seed=3,
            adversary_params={"inserts_per_round": 4},
            checks=("triangle_oracle",),
        )
        data = spec.to_dict()
        rebuilt = ExperimentSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.to_dict() == data

    def test_json_ready(self):
        import json

        spec = ExperimentSpec(checks=("consistent",))
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec fields"):
            ExperimentSpec.from_dict({"algorithm": "triangle", "bogus": 1})

    def test_from_dict_does_not_alias_nested_dicts(self):
        data = {"adversary_params": {"inserts_per_round": 4}}
        spec = ExperimentSpec.from_dict(data)
        spec.adversary_params["inserts_per_round"] = 9
        assert data["adversary_params"]["inserts_per_round"] == 4


class TestExperimentSpecValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentSpec(algorithm="magic")

    def test_unknown_adversary(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            ExperimentSpec(adversary="magic")

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown checks"):
            ExperimentSpec(checks=("magic",))

    def test_bad_engine(self):
        with pytest.raises(ValueError, match="engine 'quantum' is no longer supported"):
            ExperimentSpec.from_dict({"engine": "quantum"})

    def test_checks_require_serial_engine(self):
        with pytest.raises(ValueError, match="sharded engine was removed"):
            ExperimentSpec.from_dict({"engine": "sharded", "checks": ["consistent"]})

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            ExperimentSpec(n=1)


class TestCellId:
    def test_deterministic(self):
        a = ExperimentSpec(n=16, seed=2)
        b = ExperimentSpec(n=16, seed=2)
        assert a.cell_id == b.cell_id

    def test_sensitive_to_every_field(self):
        base = ExperimentSpec(n=16)
        assert base.cell_id != ExperimentSpec(n=16, bandwidth_factor=9).cell_id
        assert base.cell_id != ExperimentSpec(n=16, adversary_params={"inserts_per_round": 1}).cell_id

    def test_readable_prefix(self):
        spec = ExperimentSpec(algorithm="clique", adversary="p2p", n=33, seed=7)
        assert spec.cell_id.startswith("clique-p2p-n33-s7-")


class TestLegacyEngineFields:
    """The ``engine``/``num_workers`` fields left the schema; ids did not move."""

    def test_schema_has_fourteen_fields(self):
        names = {f.name for f in fields(ExperimentSpec)}
        assert len(names) == 14
        assert not names & {"engine", "num_workers"}
        assert not set(ExperimentSpec().to_dict()) & {"engine", "num_workers"}

    def test_ids_pinned_to_the_old_canonical_form(self):
        # Values computed before the two fields were removed.
        assert ExperimentSpec().cell_id == "triangle-churn-n16-s0-b01ee9e158"
        spec = ExperimentSpec(
            algorithm="robust2hop", adversary="p2p", n=40, seed=3,
            engine_mode="columnar", checks=("consistent",),
        )
        assert spec.spec_hash == "903696db50ab0cc8273e1b730b4b1cb065bc7998"

    def test_stored_records_rebuild_their_cell_ids(self):
        records = [json.loads(line) for line in FIXTURE_RESULTS.read_text().splitlines()]
        assert records
        for record in records:
            assert record["spec"]["engine"] == "serial"
            spec = ExperimentSpec.from_dict(record["spec"])
            assert spec.cell_id == record["cell_id"]

    def test_legacy_serial_fields_are_accepted_and_dropped(self):
        spec = ExperimentSpec.from_dict({"n": 12, "engine": "serial", "num_workers": 2})
        assert spec == ExperimentSpec(n=12)
        assert ExperimentSpec.from_dict({"n": 12, "num_workers": 4}) == spec

    def test_sharded_grid_axis_names_the_removal(self):
        campaign = CampaignSpec(name="t", base={"rounds": 5}, grid={"engine": ["serial", "sharded"]})
        with pytest.raises(ValueError, match="sharded engine was removed"):
            campaign.expand()


class TestGridExpansion:
    def test_counts_axes_times_seeds(self):
        campaign = CampaignSpec(
            name="t",
            base={"algorithm": "triangle", "adversary": "churn", "rounds": 10},
            grid={"n": [8, 16, 32], "bandwidth_factor": [8, 16]},
            seeds=[0, 1],
        )
        cells = campaign.expand()
        assert len(cells) == 3 * 2 * 2
        assert campaign.num_cells == len(cells)
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_seed_axis_in_grid_overrides_seeds(self):
        campaign = CampaignSpec(
            name="t",
            base={"rounds": 10},
            grid={"seed": [5, 6]},
            seeds=[0, 1, 2],
        )
        cells = campaign.expand()
        assert [c.seed for c in cells] == [5, 6]
        assert campaign.num_cells == 2

    def test_dotted_keys_reach_adversary_params(self):
        campaign = CampaignSpec(
            name="t",
            base={"adversary": "churn", "rounds": 10},
            grid={"adversary_params.inserts_per_round": [1, 5]},
        )
        cells = campaign.expand()
        assert [c.adversary_params["inserts_per_round"] for c in cells] == [1, 5]

    def test_patch_axis_varies_coupled_fields(self):
        campaign = CampaignSpec(
            name="t",
            base={"rounds": 10},
            grid={
                "workload": [
                    {"adversary": "churn", "adversary_params": {"inserts_per_round": 3}},
                    {"adversary": "p2p", "adversary_params": {}},
                ]
            },
        )
        cells = campaign.expand()
        assert [c.adversary for c in cells] == ["churn", "p2p"]
        assert cells[0].adversary_params == {"inserts_per_round": 3}
        assert cells[1].adversary_params == {}

    def test_patch_axis_may_pin_seed(self):
        campaign = CampaignSpec(
            name="t",
            base={"rounds": 10},
            grid={"workload": [{"adversary": "churn", "seed": 1}, {"adversary": "p2p", "seed": 2}]},
        )
        assert [c.seed for c in campaign.expand()] == [1, 2]

    def test_cells_do_not_share_base_dicts(self):
        campaign = CampaignSpec(
            name="t",
            base={"adversary": "churn", "adversary_params": {"inserts_per_round": 3}, "rounds": 10},
            grid={"n": [8, 16]},
        )
        cells = campaign.expand()
        cells[0].adversary_params["inserts_per_round"] = 99
        assert cells[1].adversary_params["inserts_per_round"] == 3
        assert campaign.base["adversary_params"]["inserts_per_round"] == 3

    def test_scalar_value_on_non_field_axis_rejected(self):
        campaign = CampaignSpec(name="t", base={"rounds": 10}, grid={"workload": [1, 2]})
        with pytest.raises(ValueError, match="dict patches"):
            campaign.expand()

    def test_duplicate_cells_rejected(self):
        campaign = CampaignSpec(
            name="t",
            base={"rounds": 10},
            grid={"workload": [{"n": 8}, {"n": 8}]},
        )
        with pytest.raises(ValueError, match="duplicate cell"):
            campaign.expand()


class TestCampaignSpecSerialisation:
    def test_round_trip(self):
        campaign = CampaignSpec(
            name="sweep",
            description="a test sweep",
            base={"algorithm": "triangle", "adversary": "churn", "rounds": 20},
            grid={"n": [8, 16]},
            seeds=[0, 1],
        )
        rebuilt = CampaignSpec.from_dict(campaign.to_dict())
        assert rebuilt == campaign
        assert CampaignSpec.from_json(campaign.to_json()) == campaign

    def test_save_load(self, tmp_path):
        campaign = CampaignSpec(name="s", base={"rounds": 5}, grid={"n": [8]})
        path = tmp_path / "spec.json"
        campaign.save(path)
        assert CampaignSpec.load(path) == campaign

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            CampaignSpec.load(path)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec fields"):
            CampaignSpec.from_dict({"name": "x", "cells": []})

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec(name="x", grid={"n": []})

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            CampaignSpec(name="x", seeds=[])


class TestEngineMode:
    def test_default_is_sparse(self):
        assert ExperimentSpec().engine_mode == "sparse"

    def test_bad_engine_mode(self):
        with pytest.raises(ValueError, match="engine_mode"):
            ExperimentSpec(engine_mode="turbo")

    def test_engine_mode_round_trips(self):
        spec = ExperimentSpec(engine_mode="dense")
        assert ExperimentSpec.from_dict(spec.to_dict()).engine_mode == "dense"

    def test_engine_mode_grid_axis(self):
        campaign = CampaignSpec(
            name="mode-sweep",
            base={"algorithm": "triangle", "adversary": "churn", "rounds": 10},
            grid={"n": [8, 16], "engine_mode": ["dense", "sparse"]},
        )
        cells = campaign.expand()
        assert len(cells) == 4
        assert sorted({c.engine_mode for c in cells}) == ["dense", "sparse"]
        # Mode participates in the cell id, so dense/sparse results are
        # stored as distinct cells.
        ids = {c.cell_id for c in cells}
        assert len(ids) == 4
