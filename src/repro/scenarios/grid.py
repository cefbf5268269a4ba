"""Declarative sweep grids: scenario × seed × conformal mode × margin × policy.

The paper's headline claims are all *grid* results — coverage vs ε
across fleets, tightness vs baselines, policy comparisons under the
same trained predictor — so the sweep layer starts from one frozen,
content-hashable value describing the whole campaign.

:class:`SweepGrid` is the cartesian product of four axes over a shared
base derivation (``overrides`` routed through
:meth:`ScenarioSpec.scaled`). :func:`expand_grid` materializes it into
:class:`SweepCell` values, one per grid point, each holding a fully
derived :class:`ScenarioSpec`:

* ``scenarios`` — registry names; each cell derives from its entry.
* ``seeds`` — replicate axis, applied via
  :meth:`ScenarioSpec.with_seeds` to ``seed_streams`` only. The default
  streams (``split``/``train``/``model_init``) deliberately exclude
  ``collect``, so every replicate of a scenario shares one collected
  dataset — the sweep planner then schedules that ``collect`` stage
  exactly once for all of them.
* ``strategies`` — conformal mode axis (``None`` keeps the scenario's
  own mode, i.e. auto-select).
* ``margins`` — conformal margin-estimator axis
  (``naive``/``weighted``/``mnar``; ``None`` keeps the
  scenario's own margin). Orthogonal to ``strategies``: the strategy
  picks *which head* is calibrated, the margin picks *how* its offset
  is estimated, so the two compose freely in one grid.
* ``policies`` — scheduler-policy axis; only meaningful when the run
  reaches the ``simulate`` stage, enforced at expansion time.

Cells are cheap frozen values; nothing here touches the filesystem or
runs a pipeline — planning and execution live in :mod:`repro.sweep`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .registry import get_scenario
from .spec import (
    MARGIN_MODES,
    SCHEDULER_POLICIES,
    ScenarioSpec,
    _stable_hash,
)

__all__ = [
    "GRID_SCHEMA_VERSION",
    "CONFORMAL_STRATEGIES",
    "SEED_STREAMS",
    "SweepGrid",
    "SweepCell",
    "expand_grid",
    "parse_grid",
]

#: Bump when the grid schema changes shape; folded into every grid hash.
#: v2: ``margins`` axis (conformal margin-estimator modes).
GRID_SCHEMA_VERSION = 2

#: Conformal calibration modes a grid axis may request
#: (:class:`repro.conformal.ConformalPredictor` strategies).
CONFORMAL_STRATEGIES = ("pitot", "naive_cqr", "split")

#: Seed streams the replicate axis may reseed (:class:`SeedSpec` fields).
SEED_STREAMS = ("collect", "split", "train", "model_init", "drift", "schedule")


@dataclass(frozen=True)
class SweepGrid:
    """One frozen description of a whole sweep campaign."""

    #: Scenario registry names, one sub-grid per entry.
    scenarios: tuple[str, ...]
    #: Replicate seeds, applied to ``seed_streams``.
    seeds: tuple[int, ...] = (0,)
    #: Conformal modes (``None`` = the scenario's own strategy).
    strategies: tuple[str | None, ...] = (None,)
    #: Margin-estimator modes (``None`` = the scenario's own margin).
    margins: tuple[str | None, ...] = (None,)
    #: Scheduler policies (``None`` = the scenario's own policy).
    policies: tuple[str | None, ...] = (None,)
    #: Last pipeline stage every cell runs (ancestor closure only).
    stop_after: str = "evaluate"
    #: Which random streams the seed axis reseeds. Excluding ``collect``
    #: (the default) shares one dataset across replicates.
    seed_streams: tuple[str, ...] = ("split", "train", "model_init")
    #: Leaf-knob overrides applied to every cell via
    #: :meth:`ScenarioSpec.scaled` — ``(("steps", 40), ...)``.
    overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        axes = ("scenarios", "seeds", "strategies", "margins", "policies")
        for axis_name in axes:
            if not getattr(self, axis_name):
                raise ValueError(f"grid axis {axis_name!r} must be non-empty")
        for axis_name in axes:
            axis = getattr(self, axis_name)
            if len(set(axis)) != len(axis):
                raise ValueError(f"grid axis {axis_name!r} has duplicates")
        for strategy in self.strategies:
            if strategy is not None and strategy not in CONFORMAL_STRATEGIES:
                raise ValueError(
                    f"unknown conformal strategy {strategy!r}; "
                    f"expected one of {CONFORMAL_STRATEGIES}"
                )
        for margin in self.margins:
            if margin is not None and margin not in MARGIN_MODES:
                raise ValueError(
                    f"unknown margin mode {margin!r}; "
                    f"expected one of {MARGIN_MODES}"
                )
        for policy in self.policies:
            if policy is not None and policy not in SCHEDULER_POLICIES:
                raise ValueError(
                    f"unknown policy {policy!r}; "
                    f"expected one of {SCHEDULER_POLICIES}"
                )
        if not self.seed_streams:
            raise ValueError("seed_streams must be non-empty")
        for stream in self.seed_streams:
            if stream not in SEED_STREAMS:
                raise ValueError(
                    f"unknown seed stream {stream!r}; "
                    f"expected one of {SEED_STREAMS}"
                )
        if any(p is not None for p in self.policies) and (
            self.stop_after != "simulate"
        ):
            raise ValueError(
                "a policies axis needs stop_after='simulate' — earlier "
                "stages never read the scheduling policy, so the cells "
                "would collapse to identical artifacts"
            )

    # ------------------------------------------------------------------
    def n_cells(self) -> int:
        """Grid cardinality (product of the five axes)."""
        return (
            len(self.scenarios)
            * len(self.seeds)
            * len(self.strategies)
            * len(self.margins)
            * len(self.policies)
        )

    def grid_hash(self) -> str:
        """Stable content hash of the grid (hex sha256)."""
        payload = {"schema": GRID_SCHEMA_VERSION, "grid": asdict(self)}
        return _stable_hash(payload)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a fully derived spec plus its axis coordinates."""

    #: Filesystem/report-friendly identity, e.g. ``paper+s1+naive_cqr``.
    cell_id: str
    #: Axis coordinates (``None`` = the scenario default on that axis).
    scenario: str
    seed: int
    strategy: str | None
    margin: str | None
    policy: str | None
    #: Last stage this cell runs.
    stop_after: str
    #: The derived spec (registry entry + overrides + axes applied).
    spec: ScenarioSpec


def _cell_id(
    scenario: str,
    seed: int,
    strategy: str | None,
    margin: str | None,
    policy: str | None,
) -> str:
    parts = [scenario, f"s{seed}"]
    if strategy is not None:
        parts.append(strategy)
    if margin is not None:
        parts.append(margin)
    if policy is not None:
        parts.append(policy)
    return "+".join(parts)


def expand_grid(grid: SweepGrid) -> tuple[SweepCell, ...]:
    """Materialize every grid point into a :class:`SweepCell`.

    Axis order is scenarios → strategies → margins → policies → seeds,
    so cells sharing expensive ancestors (same scenario, different seed
    only on post-collect streams) sit adjacent in the expansion.
    """
    cells: list[SweepCell] = []
    for scenario_name in grid.scenarios:
        base = get_scenario(scenario_name)
        if grid.overrides:
            base = base.scaled(**dict(grid.overrides))
        for strategy in grid.strategies:
            with_strategy = (
                base if strategy is None else base.scaled(strategy=strategy)
            )
            for margin in grid.margins:
                with_margin = (
                    with_strategy
                    if margin is None
                    else with_strategy.scaled(margin=margin)
                )
                for policy in grid.policies:
                    if policy is not None and not base.scheduling.enabled:
                        raise ValueError(
                            f"scenario {scenario_name!r} has no scheduling "
                            "simulation; a policies axis needs scheduling-"
                            "enabled scenarios"
                        )
                    with_policy = (
                        with_margin
                        if policy is None
                        else with_margin.scaled(policy=policy)
                    )
                    for seed in grid.seeds:
                        spec = with_policy.with_seeds(
                            **{stream: seed for stream in grid.seed_streams}
                        )
                        cells.append(
                            SweepCell(
                                cell_id=_cell_id(
                                    scenario_name, seed, strategy, margin,
                                    policy,
                                ),
                                scenario=scenario_name,
                                seed=seed,
                                strategy=strategy,
                                margin=margin,
                                policy=policy,
                                stop_after=grid.stop_after,
                                spec=spec,
                            )
                        )
    return tuple(cells)


def parse_grid(payload: dict) -> SweepGrid:
    """Build a :class:`SweepGrid` from a JSON-shaped dict (CLI input).

    Lists coerce to tuples; unknown keys are rejected so a typo'd axis
    name fails loudly instead of silently sweeping the default.
    """
    known = {
        "scenarios",
        "seeds",
        "strategies",
        "margins",
        "policies",
        "stop_after",
        "seed_streams",
        "overrides",
    }
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"unknown grid key(s) {sorted(unknown)}; expected {sorted(known)}"
        )
    if "scenarios" not in payload:
        raise ValueError("grid needs a 'scenarios' axis")
    kwargs: dict[str, object] = {"scenarios": tuple(payload["scenarios"])}
    for axis in ("seeds", "strategies", "margins", "policies",
                 "seed_streams"):
        if axis in payload:
            kwargs[axis] = tuple(payload[axis])
    if "stop_after" in payload:
        kwargs["stop_after"] = str(payload["stop_after"])
    if "overrides" in payload:
        overrides = payload["overrides"]
        if isinstance(overrides, dict):
            items = sorted(overrides.items())
        else:
            items = [tuple(pair) for pair in overrides]
        kwargs["overrides"] = tuple((str(k), v) for k, v in items)
    return SweepGrid(**kwargs)  # type: ignore[arg-type]
