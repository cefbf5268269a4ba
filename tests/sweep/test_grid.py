"""SweepGrid semantics: expansion, validation, hashing, parsing."""

import pytest

from repro.scenarios import SweepGrid, expand_grid, parse_grid


class TestExpansion:
    def test_cell_count_is_axis_product(self):
        grid = SweepGrid(
            scenarios=("smoke", "paper"),
            seeds=(0, 1, 2),
            strategies=(None, "split"),
        )
        cells = expand_grid(grid)
        assert len(cells) == grid.n_cells() == 12

    def test_cell_ids_encode_coordinates(self):
        grid = SweepGrid(scenarios=("smoke",), seeds=(7,),
                         strategies=("split",))
        (cell,) = expand_grid(grid)
        assert cell.cell_id == "smoke+s7+split"
        assert cell.scenario == "smoke" and cell.seed == 7
        assert cell.strategy == "split" and cell.policy is None

    def test_default_seed_streams_share_collect(self):
        cells = expand_grid(SweepGrid(scenarios=("smoke",), seeds=(0, 5)))
        collect_seeds = {c.spec.seeds.collect for c in cells}
        assert collect_seeds == {0}  # one dataset for all replicates
        assert [c.spec.seeds.split for c in cells] == [0, 5]
        assert [c.spec.seeds.train for c in cells] == [0, 5]

    def test_collect_stream_optionally_reseeded(self):
        cells = expand_grid(
            SweepGrid(scenarios=("smoke",), seeds=(0, 5),
                      seed_streams=("collect",))
        )
        assert [c.spec.seeds.collect for c in cells] == [0, 5]

    def test_strategy_axis_derives_conformal_spec(self):
        grid = SweepGrid(scenarios=("smoke",), strategies=(None, "split"))
        default, split = expand_grid(grid)
        assert default.spec.conformal.strategy is None
        assert split.spec.conformal.strategy == "split"

    def test_overrides_apply_to_every_cell(self):
        grid = SweepGrid(scenarios=("smoke",), overrides=(("steps", 12),))
        (cell,) = expand_grid(grid)
        assert cell.spec.trainer.steps == 12

    def test_policy_axis_requires_scheduling_scenario(self):
        grid = SweepGrid(scenarios=("smoke",), policies=("greedy",),
                         stop_after="simulate")
        with pytest.raises(ValueError, match="no scheduling"):
            expand_grid(grid)

    def test_margin_axis_derives_conformal_spec(self):
        grid = SweepGrid(scenarios=("smoke",),
                         margins=(None, "weighted", "mnar"))
        default, weighted, mnar = expand_grid(grid)
        assert default.margin is None
        assert default.spec.conformal.margin == "naive"
        assert weighted.cell_id == "smoke+s0+weighted"
        assert weighted.spec.conformal.margin == "weighted"
        assert mnar.spec.conformal.margin == "mnar"

    def test_margin_axis_orthogonal_to_strategies(self):
        grid = SweepGrid(scenarios=("smoke",), strategies=("pitot", "split"),
                         margins=("naive", "weighted"))
        cells = expand_grid(grid)
        assert len(cells) == grid.n_cells() == 4
        assert [(c.strategy, c.margin) for c in cells] == [
            ("pitot", "naive"), ("pitot", "weighted"),
            ("split", "naive"), ("split", "weighted"),
        ]

    def test_margin_cells_share_training_ancestry(self):
        # A margin changes only the conformal component, so every
        # margin cell reuses the same collect/scale/train artifacts.
        naive, weighted = expand_grid(
            SweepGrid(scenarios=("smoke",), margins=("naive", "weighted"))
        )
        assert naive.spec.spec_hash() != weighted.spec.spec_hash()
        assert naive.spec.fleet == weighted.spec.fleet
        assert naive.spec.trainer == weighted.spec.trainer

    def test_policy_axis_on_schedule_scenario(self):
        grid = SweepGrid(scenarios=("schedule",),
                         policies=("greedy", "random"),
                         stop_after="simulate")
        cells = expand_grid(grid)
        assert [c.spec.scheduling.policy for c in cells] == [
            "greedy", "random"
        ]


class TestValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepGrid(scenarios=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            SweepGrid(scenarios=("smoke",), seeds=(1, 1))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            SweepGrid(scenarios=("smoke",), strategies=("jackknife",))

    def test_unknown_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            SweepGrid(scenarios=("smoke",), margins=("jackknife",))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            SweepGrid(scenarios=("smoke",), policies=("fifo",),
                      stop_after="simulate")

    def test_unknown_seed_stream_rejected(self):
        with pytest.raises(ValueError, match="seed stream"):
            SweepGrid(scenarios=("smoke",), seed_streams=("torch",))

    def test_policies_need_simulate_stop(self):
        with pytest.raises(ValueError, match="simulate"):
            SweepGrid(scenarios=("schedule",), policies=("greedy",))


class TestHash:
    def test_deterministic(self):
        a = SweepGrid(scenarios=("smoke",), seeds=(0, 1))
        b = SweepGrid(scenarios=("smoke",), seeds=(0, 1))
        assert a.grid_hash() == b.grid_hash()

    def test_sensitive_to_every_axis(self):
        base = SweepGrid(scenarios=("smoke",), seeds=(0, 1)).grid_hash()
        assert SweepGrid(scenarios=("paper",),
                         seeds=(0, 1)).grid_hash() != base
        assert SweepGrid(scenarios=("smoke",), seeds=(0,)).grid_hash() != base
        assert SweepGrid(scenarios=("smoke",), seeds=(0, 1),
                         strategies=("split",)).grid_hash() != base
        assert SweepGrid(scenarios=("smoke",), seeds=(0, 1),
                         margins=("weighted",)).grid_hash() != base
        assert SweepGrid(scenarios=("smoke",), seeds=(0, 1),
                         overrides=(("steps", 8),)).grid_hash() != base


class TestParse:
    def test_round_trip_lists_to_tuples(self):
        grid = parse_grid({
            "scenarios": ["smoke"],
            "seeds": [0, 1],
            "strategies": ["split"],
            "margins": ["weighted"],
            "stop_after": "calibrate",
        })
        assert grid.scenarios == ("smoke",)
        assert grid.seeds == (0, 1)
        assert grid.strategies == ("split",)
        assert grid.margins == ("weighted",)
        assert grid.stop_after == "calibrate"

    def test_dict_overrides_sorted_into_tuples(self):
        grid = parse_grid({
            "scenarios": ["smoke"],
            "overrides": {"steps": 12, "sets_per_degree": 4},
        })
        assert grid.overrides == (("sets_per_degree", 4), ("steps", 12))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid key"):
            parse_grid({"scenarios": ["smoke"], "scenario": ["typo"]})

    def test_missing_scenarios_rejected(self):
        with pytest.raises(ValueError, match="scenarios"):
            parse_grid({"seeds": [0]})
