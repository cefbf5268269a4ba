"""PitotConfig / TrainerConfig validation."""

import pytest

from repro.core import PAPER_QUANTILES, PitotConfig, TrainerConfig
from repro.scenarios import get_scenario


class TestPitotConfig:
    def test_paper_defaults(self):
        cfg = PitotConfig()
        assert cfg.embedding_dim == 32        # r (App D.2)
        assert cfg.learned_features == 1      # q
        assert cfg.interference_types == 2    # s
        assert cfg.hidden == (128, 128)
        assert cfg.interference_weight == 0.5  # β
        assert cfg.leaky_slope == 0.1

    def test_n_heads(self):
        assert PitotConfig().n_heads == 1
        assert PitotConfig(quantiles=PAPER_QUANTILES).n_heads == 8

    def test_paper_quantile_spread(self):
        # Denser near 1 (App B.2).
        assert PAPER_QUANTILES == (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99)

    def test_models_interference(self):
        assert PitotConfig().models_interference
        assert not PitotConfig(interference_mode="discard").models_interference
        assert not PitotConfig(interference_types=0).models_interference
        # "ignore" treats every observation as interference-free, so the
        # interference heads are never built.
        assert not PitotConfig(interference_mode="ignore").models_interference

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            PitotConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            PitotConfig(learned_features=-1)
        with pytest.raises(ValueError):
            PitotConfig(objective="mse")
        with pytest.raises(ValueError):
            PitotConfig(interference_mode="sometimes")
        with pytest.raises(ValueError):
            PitotConfig(interference_activation="swish")
        with pytest.raises(ValueError):
            PitotConfig(quantiles=(0.5, 1.0))
        for hidden in (8, (0,), (-4, 8), (True, 8), [64, 32], (8.0,)):
            with pytest.raises(ValueError, match="hidden"):
                PitotConfig(hidden=hidden)
        with pytest.raises(ValueError, match="hidden"):
            get_scenario("smoke").scaled(hidden=8)
        # Linear towers stay legal.
        assert PitotConfig(hidden=()).hidden == ()

    def test_frozen(self):
        with pytest.raises(Exception):
            PitotConfig().embedding_dim = 64


class TestTrainerConfig:
    def test_paper_training_constants(self):
        cfg = TrainerConfig()
        assert cfg.batch_per_degree == 512   # 2048 across 4 degrees
        assert cfg.learning_rate == 1e-3
        assert cfg.eval_every == 200

    @pytest.mark.parametrize("field", ["eval_every", "batch_per_degree"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_step_sizes_raise(self, field, value):
        # Both divide inside fit(); a zero used to pass construction and
        # die mid-fit with ZeroDivisionError.
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})

    @pytest.mark.parametrize("field", ["eval_every", "batch_per_degree"])
    def test_scaled_spec_rejects_non_positive_step_sizes(self, field):
        from repro.scenarios import get_scenario

        with pytest.raises(ValueError, match=field):
            get_scenario("smoke").scaled(**{field: 0})

    @pytest.mark.parametrize(
        "field, value", [("max_eval_rows", 0), ("max_eval_rows", -1),
                         ("steps", -1)]
    )
    def test_out_of_range_counts_raise(self, field, value):
        # max_eval_rows=0 used to make every validation loss NaN, so
        # fit() never checkpointed and silently restored the init.
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("max_eval_rows", 0),
                                              ("steps", -1)])
    def test_scaled_spec_rejects_out_of_range_counts(self, field, value):
        from repro.scenarios import get_scenario

        with pytest.raises(ValueError, match=field):
            get_scenario("smoke").scaled(**{field: value})

    def test_zero_steps_is_legal(self):
        # The training bench times fit(0) to subtract per-fit fixed cost.
        assert TrainerConfig(steps=0).steps == 0
