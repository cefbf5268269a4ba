"""Named-scenario registry.

Scenarios are registered by decorating a zero-argument builder with
:func:`scenario`; the builder's name (underscores → dashes) is the
registry key. Builders are invoked lazily on :func:`get_scenario`, so
importing the registry stays cheap and every lookup returns a fresh
(immutable) spec.

The built-in registry covers the regimes the related work says matter:
the paper's own fixed campaign (``paper``), population scale
(``fleet-large``), fleet composition (``heterogeneous-runtimes``),
co-location pressure (``interference-heavy``), entity-level distribution
shift (``cold-start-workloads``), and collection density
(``sparse-observations``), plus a ``smoke`` scenario small enough for CI
to push through the full pipeline in seconds.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..core.config import PAPER_QUANTILES, PitotConfig, TrainerConfig
from ..cluster.collection import CollectionConfig
from ..cluster.performance import PerformanceModelConfig
from .spec import (
    ConformalSpec,
    DriftSpec,
    FleetSpec,
    ScenarioSpec,
    SchedulingSpec,
    SplitSpec,
)

__all__ = [
    "scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
]

_BUILDERS: dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(
    name: str, builder: Callable[[], ScenarioSpec]
) -> None:
    """Register ``builder`` under ``name``; duplicate names raise."""
    if name in _BUILDERS:
        raise ValueError(f"scenario {name!r} is already registered")
    _BUILDERS[name] = builder


def scenario(builder: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
    """Decorator: register a spec builder under its function name.

    Underscores become dashes (``cold_start_workloads`` →
    ``cold-start-workloads``) so registry names match CLI spelling.
    """
    register_scenario(builder.__name__.replace("_", "-"), builder)
    return builder


def get_scenario(name: str) -> ScenarioSpec:
    """Build the registered scenario ``name`` (fresh spec each call)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None
    spec = builder()
    if spec.name != name:
        raise RuntimeError(
            f"scenario builder {name!r} returned spec named {spec.name!r}"
        )
    return spec


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_BUILDERS)


def iter_scenarios() -> Iterator[ScenarioSpec]:
    """Yield every registered scenario spec in name order."""
    for name in scenario_names():
        yield get_scenario(name)


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------

@scenario
def paper() -> ScenarioSpec:
    """The Sec 5.1 campaign at the paper's scale and architecture."""
    return ScenarioSpec(
        name="paper",
        description=(
            "Sec 5.1 protocol: full 249x220 grid, 250 sets/degree, 80% "
            "train, squared-loss Pitot at the paper architecture"
        ),
    )


@scenario
def fleet_large() -> ScenarioSpec:
    """Sparse-training fleet scale: 32768 workloads x 4096 platforms."""
    return ScenarioSpec(
        name="fleet-large",
        description=(
            "synthetic 32768x4096 sparse fleet exercising the batch-sparse "
            "tower path; schema-compatible with the trace collector"
        ),
        fleet=FleetSpec(
            synthetic=True,
            n_workloads=32768,
            n_platforms=4096,
            n_observations=400_000,
        ),
        trainer=TrainerConfig(steps=2000),
    )


@scenario
def heterogeneous_runtimes() -> ScenarioSpec:
    """Runtime-axis diversity: every runtime, few device classes."""
    return ScenarioSpec(
        name="heterogeneous-runtimes",
        description=(
            "all 10 WebAssembly runtimes over a small device slice, so "
            "platform variation is runtime-dominated (Table 3 axis)"
        ),
        fleet=FleetSpec(n_devices=8, n_runtimes=None),
    )


@scenario
def interference_heavy() -> ScenarioSpec:
    """High-degree co-location pressure with amplified contention."""
    return ScenarioSpec(
        name="interference-heavy",
        description=(
            "3/4-way co-location only, 500 sets/degree, 1.5x interference "
            "strength — the regime where calibration pools must re-earn "
            "coverage"
        ),
        collection=CollectionConfig(sets_per_degree=500, degrees=(3, 4)),
        performance=PerformanceModelConfig(interference_strength=1.5),
        model=PitotConfig(quantiles=PAPER_QUANTILES),
    )


@scenario
def cold_start_workloads() -> ScenarioSpec:
    """Unseen-workload holdout: 20% of workloads never reach training."""
    return ScenarioSpec(
        name="cold-start-workloads",
        description=(
            "cold-workload split: every observation touching a held-out "
            "20% of workloads is test-only, probing feature-driven "
            "generalization to unseen rows"
        ),
        split=SplitSpec(
            train_fraction=0.8, holdout="cold-workload", holdout_fraction=0.2
        ),
    )


@scenario
def sparse_observations() -> ScenarioSpec:
    """Low collection density and a small training fraction."""
    return ScenarioSpec(
        name="sparse-observations",
        description=(
            "60 sets/degree and a 30% training fraction — the left edge of "
            "Fig 4, where matrix completion must work from few entries"
        ),
        collection=CollectionConfig(sets_per_degree=60),
        split=SplitSpec(train_fraction=0.3),
    )


@scenario
def drifting_fleet() -> ScenarioSpec:
    """Post-deployment runtime drift: the continual-learning regime."""
    return ScenarioSpec(
        name="drifting-fleet",
        description=(
            "fleet whose runtimes drift 1.0x -> 1.35x -> 1.8x after "
            "calibration; exercises streaming ingest, warm-start updates, "
            "and rolling recalibration with atomic snapshot swaps"
        ),
        fleet=FleetSpec(n_workloads=60, n_devices=8, n_runtimes=5),
        collection=CollectionConfig(sets_per_degree=40),
        model=PitotConfig(
            quantiles=PAPER_QUANTILES, hidden=(64, 64), embedding_dim=32
        ),
        trainer=TrainerConfig(steps=800, eval_every=200, batch_per_degree=256),
        conformal=ConformalSpec(epsilons=(0.1,)),
        drift=DriftSpec(
            enabled=True,
            phases=(1.0, 1.35, 1.8),
            events_per_phase=3000,
            chunk=500,
            window=3000,
            update_steps=150,
        ),
    )


@scenario
def schedule() -> ScenarioSpec:
    """Fleet scheduling under drift: the event-driven orchestration regime."""
    return ScenarioSpec(
        name="schedule",
        description=(
            "drifting fleet scheduled end to end: greedy placement on "
            "batched conformal budgets, online lifecycle recalibration "
            "vs a never-recalibrated scheduler"
        ),
        fleet=FleetSpec(n_workloads=60, n_devices=8, n_runtimes=5),
        collection=CollectionConfig(sets_per_degree=40),
        model=PitotConfig(
            quantiles=PAPER_QUANTILES, hidden=(64, 64), embedding_dim=32
        ),
        trainer=TrainerConfig(steps=800, eval_every=200, batch_per_degree=256),
        # Fixed-head calibration (offsets only): the pitot head *search*
        # re-uses the calibration set for model selection, which
        # overfits the small post-reset windows online recalibration
        # works from and costs several points of coverage right when
        # drift makes them precious.
        conformal=ConformalSpec(epsilons=(0.1,), strategy="naive_cqr"),
        drift=DriftSpec(
            enabled=True,
            phases=(1.0, 2.0),
            events_per_phase=3000,
            chunk=500,
            window=3000,
            update_steps=150,
        ),
        scheduling=SchedulingSpec(
            enabled=True,
            policy="greedy",
            epochs=16,
            jobs_per_epoch=192,
            warmup_events=2000,
            probes_per_epoch=192,
        ),
    )


@scenario
def smoke() -> ScenarioSpec:
    """Minutes-to-seconds pipeline exercise for CI and quick local runs."""
    return ScenarioSpec(
        name="smoke",
        description=(
            "tiny end-to-end configuration (16 workloads, 12 platforms, "
            "40 steps) for CI cache validation"
        ),
        fleet=FleetSpec(n_workloads=16, n_devices=4, n_runtimes=3),
        collection=CollectionConfig(sets_per_degree=6),
        model=PitotConfig(hidden=(8,), embedding_dim=4, learned_features=1),
        trainer=TrainerConfig(steps=40, eval_every=20, batch_per_degree=64),
        conformal=ConformalSpec(epsilons=(0.1,)),
    )
