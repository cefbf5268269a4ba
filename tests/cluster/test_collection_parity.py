"""The interference campaign against its per-set ``rng.choice`` oracle.

``ClusterCollector`` draws each (platform, degree) block of co-running
sets in one pass and computes each slot's ground truth once;
``reference_paths.ChoiceLoopCollector`` is the loop it replaced. Every
collected dataset must be byte-identical, dtypes included, and the
generator must end in the same state.
"""

import numpy as np
import pytest

from repro.cluster import ClusterCollector, make_cluster
from repro.pipeline.stages import collect_stage
from repro.scenarios import get_scenario, scenario_names

from reference_paths import ChoiceLoopCollector

COLLECTED = [
    name for name in scenario_names() if not get_scenario(name).fleet.synthetic
]
FIELDS = ("w_idx", "p_idx", "interferers", "runtime")


def _assert_campaign_matches_oracle(spec):
    dataset = collect_stage(spec)
    model = make_cluster(
        seed=spec.seeds.collect,
        n_workloads=spec.fleet.n_workloads,
        n_devices=spec.fleet.n_devices,
        n_runtimes=spec.fleet.n_runtimes,
        performance_config=spec.performance,
    )
    oracle_rng = np.random.default_rng(spec.seeds.collect + 1)
    oracle = ChoiceLoopCollector(model, spec.collection).collect(oracle_rng)
    assert dataset.degree_counts()[max(spec.collection.degrees)] > 0
    for field in FIELDS:
        got, expected = getattr(dataset, field), getattr(oracle, field)
        assert got.dtype == expected.dtype, field
        assert got.shape == expected.shape, field
        assert got.tobytes() == expected.tobytes(), field

    rng = np.random.default_rng(spec.seeds.collect + 1)
    ClusterCollector(model, spec.collection).collect(rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("collect_seed", [0, 1, 7])
@pytest.mark.parametrize("name", COLLECTED)
def test_reduced_campaign_matches_choice_loop(name, collect_seed):
    spec = get_scenario(name)
    fleet = spec.fleet
    spec = spec.scaled(
        n_workloads=min(fleet.n_workloads or 40, 40),
        n_devices=min(fleet.n_devices or 6, 6),
        n_runtimes=min(fleet.n_runtimes or 4, 4),
        sets_per_degree=min(spec.collection.sets_per_degree, 30),
    ).with_seeds(collect=collect_seed)
    _assert_campaign_matches_oracle(spec)


def test_paper_campaign_matches_choice_loop():
    _assert_campaign_matches_oracle(get_scenario("paper"))


def test_every_collected_scenario_is_covered():
    assert len(COLLECTED) >= 8
    assert "paper" in COLLECTED
