"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single frozen value describing one complete
campaign: which fleet to build, how densely to collect it, how to split,
which architecture to train, and how to calibrate. Every knob that used
to be plumbed by hand through ``cli.py``, the benchmarks, and the
integration tests lives here, so one spec drives the whole
``collect → scale → train → calibrate → evaluate → snapshot`` pipeline
(:mod:`repro.pipeline`) and two equal specs are guaranteed to reproduce
bit-identical artifacts (everything downstream is seeded NumPy).

Specs are content-hashable (:meth:`ScenarioSpec.spec_hash`), which is what
the pipeline's artifact store keys on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from ..cluster.collection import CollectionConfig
from ..cluster.performance import PerformanceModelConfig
from ..core.config import PitotConfig, TrainerConfig

__all__ = [
    "FleetSpec",
    "SplitSpec",
    "ConformalSpec",
    "DriftSpec",
    "SchedulingSpec",
    "SeedSpec",
    "ScenarioSpec",
    "SCHEDULER_POLICIES",
    "MARGIN_MODES",
]

#: Bump when the spec schema changes shape; part of every spec hash so
#: stale cached artifacts keyed under an old schema can never be loaded.
#: v2: DriftSpec component + seeds.drift (the continual-learning axis).
#: v3: SchedulingSpec component + seeds.schedule (the fleet-scheduler axis).
#: v4: trainer engine knobs (dtype, fused kernels, tape caching,
#: gradient workers) join TrainerConfig and therefore the spec hash.
#: v5: margin-engine knobs (margin / margin_tau / margin_bootstrap /
#: margin_clip) join ConformalSpec and therefore the spec hash.
#: v6: the fused-kernel, tape-caching and gradient-worker switches are
#: retired; each training operation has one production path.
#: v7: the forced dense/sparse switch is retired; every step chooses its
#: tower plan from the batch.
#: v8: the ``bootstrap`` margin mode and its ``margin_bootstrap`` knob are
#: retired; margins are ``naive``, ``weighted`` or ``mnar``.
SPEC_SCHEMA_VERSION = 8

#: Margin-estimator modes of the conformal engine. Deliberately a local
#: copy of :data:`repro.conformal.margins.MARGIN_MODES` — the scenarios
#: layer must not import the conformal layer; a cross-check test pins
#: the two tuples equal.
MARGIN_MODES = ("naive", "weighted", "mnar")

#: Placement policies the cluster simulator implements
#: (:mod:`repro.orchestration.simulator`).
SCHEDULER_POLICIES = ("greedy", "flow", "admission", "random", "utilization")

#: Split holdout strategies understood by
#: :func:`repro.pipeline.stages.make_scenario_split`.
HOLDOUT_STRATEGIES = ("random", "cold-workload")


@dataclass(frozen=True)
class FleetSpec:
    """Population composition: which cluster the campaign runs against.

    ``None`` limits keep the paper's full inventory (249 workloads, 24
    devices × 10 runtimes → 220 platforms); integers subsample with
    stride so every suite and device class stays represented.

    ``synthetic=True`` switches to a schema-compatible synthetic fleet at
    arbitrary scale (``n_workloads × n_platforms`` with ``n_observations``
    rows) — the population regime the batch-sparse training path targets,
    far beyond what the trace collector can enumerate.
    """

    n_workloads: int | None = None
    n_devices: int | None = None
    n_runtimes: int | None = None
    #: Synthetic fleet switch (see :func:`repro.cluster.collection.
    #: synthetic_fleet_dataset`).
    synthetic: bool = False
    #: Synthetic-only: direct platform count (real fleets derive platforms
    #: from devices × runtimes).
    n_platforms: int | None = None
    #: Synthetic-only: observation rows to draw.
    n_observations: int | None = None

    def __post_init__(self) -> None:
        if self.synthetic:
            if self.n_workloads is None or self.n_platforms is None:
                raise ValueError(
                    "synthetic fleets need explicit n_workloads and n_platforms"
                )
            if self.n_devices is not None or self.n_runtimes is not None:
                raise ValueError(
                    "synthetic fleets have no device/runtime axis; set "
                    "n_platforms directly"
                )
        elif self.n_platforms is not None or self.n_observations is not None:
            raise ValueError(
                "n_platforms / n_observations apply only to synthetic fleets"
            )


@dataclass(frozen=True)
class SplitSpec:
    """Train/calibration/test partition policy (Sec 5.1 + holdout knobs)."""

    #: Fraction of observations available for training + calibration.
    train_fraction: float = 0.8
    #: Portion of the training fraction held out for validation and
    #: conformal calibration (paper: 20%).
    calibration_fraction: float = 0.2
    #: ``"random"`` (paper protocol) or ``"cold-workload"`` (all rows
    #: touching a held-out workload subset go to test — the unseen-entity
    #: regime).
    holdout: str = "random"
    #: Fraction of workloads held out under ``"cold-workload"``.
    holdout_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0,1), got {self.train_fraction}"
            )
        if self.holdout not in HOLDOUT_STRATEGIES:
            raise ValueError(
                f"unknown holdout {self.holdout!r}; "
                f"expected one of {HOLDOUT_STRATEGIES}"
            )
        if self.holdout == "cold-workload" and not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(
                "cold-workload holdout needs holdout_fraction in (0,1)"
            )


@dataclass(frozen=True)
class ConformalSpec:
    """Calibration policy for the conformal wrapper."""

    #: Miscoverage rates to calibrate.
    epsilons: tuple[float, ...] = (0.1, 0.05, 0.01)
    #: ``None`` auto-selects: "pitot" for quantile models, "split" for
    #: point predictors (how the paper calibrates each).
    strategy: str | None = None
    #: Per-interference-degree calibration pools (paper) vs global.
    use_pools: bool = True
    #: Margin-estimator mode (see :data:`MARGIN_MODES`); ``naive`` is
    #: the plain split-conformal order statistic.
    margin: str = "naive"
    #: Recency time-scale τ for ``weighted`` margins (``w_i = exp(i/τ)``),
    #: in *stream-event* units: arrival tags, not calibration-row index,
    #: drive the decay wherever the hold-out subsamples a wider window.
    margin_tau: float = 500.0
    #: Inverse-propensity weight cap for ``mnar`` margins.
    margin_clip: float = 20.0

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise ValueError("at least one epsilon is required")
        if not all(0.0 < eps < 1.0 for eps in self.epsilons):
            raise ValueError(f"epsilons must lie in (0, 1), got {self.epsilons}")
        if self.margin not in MARGIN_MODES:
            raise ValueError(
                f"unknown margin mode {self.margin!r}; "
                f"expected one of {MARGIN_MODES}"
            )
        if not self.margin_tau > 0:
            raise ValueError(
                f"margin_tau must be positive, got {self.margin_tau}"
            )
        if not self.margin_clip >= 1.0:
            raise ValueError(
                f"margin_clip must be >= 1, got {self.margin_clip}"
            )


@dataclass(frozen=True)
class DriftSpec:
    """Post-deployment drift-trace policy (the continual-learning axis).

    Describes the observation stream a deployed predictor faces after
    calibration: consecutive *phases*, each a multiplicative runtime
    drift over the collected distribution, replayed by the lifecycle
    loop (:mod:`repro.lifecycle`) in fixed-size chunks with warm-start
    updates and rolling recalibration in between. ``enabled=False``
    (the default for every batch scenario) keeps the lifecycle stages
    inert; they raise if run on a drift-free spec.
    """

    #: Whether the scenario defines a post-deployment stream at all.
    enabled: bool = False
    #: Runtime multiplier per phase, in replay order (1.0 = no drift).
    phases: tuple[float, ...] = (1.0,)
    #: Observations streamed per phase.
    events_per_phase: int = 2000
    #: Events per lifecycle tick (serve → ingest → maybe update/swap).
    chunk: int = 500
    #: Per-pool rolling-window capacity of the observation buffer.
    window: int = 2000
    #: Warm-start gradient steps per update burst.
    update_steps: int = 100
    #: Ticks between update + recalibrate + swap rounds.
    update_every: int = 1
    #: Change-point reset trigger: when a chunk's observed miscoverage
    #: exceeds ``reset_miscoverage × ε`` the rolling window is cleared
    #: before ingesting it, so recalibration keys on the new regime
    #: instead of waiting for the window to turn over. Large values
    #: effectively disable the reset.
    reset_miscoverage: float = 3.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("at least one drift phase is required")
        if not all(m > 0.0 for m in self.phases):
            raise ValueError(f"phase multipliers must be > 0, got {self.phases}")
        if self.reset_miscoverage <= 0.0:
            raise ValueError("reset_miscoverage must be > 0")
        for name in ("events_per_phase", "chunk", "window", "update_steps",
                     "update_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.chunk > self.events_per_phase:
            raise ValueError(
                "chunk must not exceed events_per_phase "
                f"({self.chunk} > {self.events_per_phase})"
            )


@dataclass(frozen=True)
class SchedulingSpec:
    """Fleet-scheduler simulation policy (the orchestration axis).

    Describes the workload stream the event-driven cluster simulator
    (:mod:`repro.orchestration.simulator`) plays against a calibrated
    scheduler: how many scheduling epochs, how many arrivals each, which
    placement policy decides, and how tight the deadlines run.
    ``enabled=False`` (the default for every non-scheduling scenario)
    keeps the ``simulate`` pipeline stage inert; it raises if run on a
    scheduling-free spec.
    """

    #: Whether the scenario defines a scheduling simulation at all.
    enabled: bool = False
    #: Placement policy (see :data:`SCHEDULER_POLICIES`).
    policy: str = "greedy"
    #: Scheduling epochs (metric rows; also the lifecycle tick cadence).
    epochs: int = 12
    #: Job arrivals per epoch (0 = an idle horizon).
    jobs_per_epoch: int = 64
    #: Co-location cap per platform (≤ 4; interference model limit).
    max_residents: int = 3
    #: Target slot utilization the epoch length is sized for (leave
    #: headroom: drift multiplies service times into this budget too).
    load: float = 0.5
    #: Deadline slack range: deadline = slack × reference runtime, with
    #: slack drawn uniformly from this interval per job.
    deadline_slack: tuple[float, float] = (1.5, 4.0)
    #: Migrate running jobs whose budgets no longer fit their deadlines.
    migrate: bool = True
    #: World-calibration window size (observations drawn before epoch 0;
    #: both the static and the adaptive scheduler calibrate on it).
    warmup_events: int = 1500
    #: Background-profiling observations ingested per epoch. Completed
    #: jobs are a *length-biased* sample (slow jobs are still running
    #: when the window recalibrates), so a deployment that calibrates on
    #: completions alone silently under-covers; the profiling sidecar
    #: keeps sampling the fleet the way the original campaign did.
    probes_per_epoch: int = 0
    #: Epochs between lifecycle update + recalibrate + promote rounds.
    recalibrate_every: int = 1

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"expected one of {SCHEDULER_POLICIES}"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.jobs_per_epoch < 0:
            raise ValueError("jobs_per_epoch must be >= 0")
        if not 1 <= self.max_residents <= 4:
            raise ValueError("max_residents must be in [1, 4]")
        if not 0.0 < self.load <= 1.0:
            raise ValueError("load must be in (0, 1]")
        lo, hi = self.deadline_slack
        if not 0.0 < lo <= hi:
            raise ValueError(
                f"deadline_slack must satisfy 0 < lo <= hi, got {self.deadline_slack}"
            )
        if self.warmup_events < 1:
            raise ValueError("warmup_events must be >= 1")
        if self.probes_per_epoch < 0:
            raise ValueError("probes_per_epoch must be >= 0")
        if self.recalibrate_every < 1:
            raise ValueError("recalibrate_every must be >= 1")


@dataclass(frozen=True)
class SeedSpec:
    """Every random stream the pipeline consumes, in one place.

    Two specs differing only here produce independent replicates of the
    same scenario.
    """

    #: Cluster construction + campaign measurement noise.
    collect: int = 0
    #: Replicate partition seed.
    split: int = 0
    #: SGD batch draws + validation subsampling.
    train: int = 0
    #: Model parameter initialization.
    model_init: int = 0
    #: Drift-trace event sampling + warm-update batch draws.
    drift: int = 0
    #: Scheduler arrivals, world noise, and policy/update randomness.
    schedule: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully-declarative campaign (see module docs).

    ``seeds`` is the single source of randomness: ``trainer.seed`` is
    kept synchronized with ``seeds.train`` on construction, so two specs
    differing only in a redundant seed spelling cannot produce distinct
    content hashes for identical computations.
    """

    name: str
    description: str = ""
    fleet: FleetSpec = field(default_factory=FleetSpec)
    collection: CollectionConfig = field(default_factory=CollectionConfig)
    performance: PerformanceModelConfig = field(
        default_factory=PerformanceModelConfig
    )
    split: SplitSpec = field(default_factory=SplitSpec)
    model: PitotConfig = field(default_factory=PitotConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    conformal: ConformalSpec = field(default_factory=ConformalSpec)
    drift: DriftSpec = field(default_factory=DriftSpec)
    scheduling: SchedulingSpec = field(default_factory=SchedulingSpec)
    seeds: SeedSpec = field(default_factory=SeedSpec)

    def __post_init__(self) -> None:
        if self.trainer.seed != self.seeds.train:
            object.__setattr__(
                self, "trainer", replace(self.trainer, seed=self.seeds.train)
            )
        if self.fleet.synthetic:
            # Synthetic fleets draw features/indices directly; the trace
            # campaign and ground-truth knobs have no effect there, so a
            # non-default value is a misconfiguration, not a no-op.
            if self.collection != CollectionConfig():
                raise ValueError(
                    "collection knobs do not apply to synthetic fleets"
                )
            if self.performance != PerformanceModelConfig():
                raise ValueError(
                    "performance knobs do not apply to synthetic fleets"
                )

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Nested plain-python dict (tuples become lists)."""
        return asdict(self)

    def spec_hash(self) -> str:
        """Stable content hash of the full spec (hex sha256).

        The artifact-store cache key root: equal hashes ⇒ bit-identical
        pipeline outputs.
        """
        payload = {"schema": SPEC_SCHEMA_VERSION, "spec": self.to_dict()}
        return _stable_hash(payload)

    def component_hash(self, *components: str) -> str:
        """Hash of a subset of spec components (plus the schema version).

        Stages key their artifacts on only the components they read, so
        e.g. changing ``trainer.steps`` re-runs training without
        invalidating the collected dataset.
        """
        payload = {"schema": SPEC_SCHEMA_VERSION}
        full = self.to_dict()
        for component in components:
            key, _, leaf = component.partition(".")
            value = full[key]
            payload[component] = value[leaf] if leaf else value
        return _stable_hash(payload)

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def scaled(self, **overrides: object) -> "ScenarioSpec":
        """Replace leaf knobs by name, routing each to its component.

        ``None`` values are ignored (the knob keeps the scenario's own
        value). A list becomes a tuple, the form every sequence knob
        holds and a stored model reloads as (JSON ``--set`` values arrive
        as lists). Unknown names raise. Example::

            get_scenario("paper").scaled(n_workloads=40, steps=400)
        """
        updates: dict[str, dict] = {}
        for key, value in overrides.items():
            if value is None:
                continue
            component = _SCALED_FIELDS.get(key)
            if component is None:
                raise ValueError(
                    f"unknown scenario knob {key!r}; "
                    f"known: {sorted(_SCALED_FIELDS)}"
                )
            if isinstance(value, list):
                value = tuple(value)
            updates.setdefault(component, {})[key] = value
        replaced = {
            component: replace(getattr(self, component), **fields)
            for component, fields in updates.items()
        }
        return replace(self, **replaced)

    def with_seeds(
        self,
        collect: int | None = None,
        split: int | None = None,
        train: int | None = None,
        model_init: int | None = None,
        drift: int | None = None,
        schedule: int | None = None,
    ) -> "ScenarioSpec":
        """Replace seed streams (``None`` keeps the current value)."""
        seeds = self.seeds
        return replace(
            self,
            seeds=SeedSpec(
                collect=seeds.collect if collect is None else collect,
                split=seeds.split if split is None else split,
                train=seeds.train if train is None else train,
                model_init=(
                    seeds.model_init if model_init is None else model_init
                ),
                drift=seeds.drift if drift is None else drift,
                schedule=seeds.schedule if schedule is None else schedule,
            ),
        )

    def describe(self) -> str:
        """One-line human summary for ``repro scenarios list``."""
        if self.fleet.synthetic:
            fleet = f"synthetic {self.fleet.n_workloads}x{self.fleet.n_platforms}"
        else:
            fleet = "x".join(
                "full" if v is None else str(v)
                for v in (
                    self.fleet.n_workloads,
                    self.fleet.n_devices,
                    self.fleet.n_runtimes,
                )
            )
        drift = ""
        if self.drift.enabled:
            drift = (
                f" drift={'/'.join(f'{m:g}x' for m in self.drift.phases)}"
                f"@{self.drift.events_per_phase}"
            )
        sched = ""
        if self.scheduling.enabled:
            sched = (
                f" sched={self.scheduling.policy}"
                f"@{self.scheduling.epochs}x{self.scheduling.jobs_per_epoch}"
            )
        return (
            f"fleet={fleet} sets/deg={self.collection.sets_per_degree} "
            f"train={self.split.train_fraction:.0%} "
            f"holdout={self.split.holdout} steps={self.trainer.steps}"
            f"{drift}{sched}"
        )


#: Leaf-knob → owning component routing for :meth:`ScenarioSpec.scaled`.
_SCALED_FIELDS = {
    "n_workloads": "fleet",
    "n_devices": "fleet",
    "n_runtimes": "fleet",
    "n_platforms": "fleet",
    "n_observations": "fleet",
    "sets_per_degree": "collection",
    "degrees": "collection",
    "interference_timeout_base": "collection",
    "set_crash_rate": "collection",
    "interference_strength": "performance",
    "train_fraction": "split",
    "calibration_fraction": "split",
    "holdout": "split",
    "holdout_fraction": "split",
    "hidden": "model",
    "embedding_dim": "model",
    "learned_features": "model",
    "quantiles": "model",
    "interference_mode": "model",
    "objective": "model",
    "steps": "trainer",
    "batch_per_degree": "trainer",
    "learning_rate": "trainer",
    "eval_every": "trainer",
    "max_eval_rows": "trainer",
    "dtype": "trainer",
    "epsilons": "conformal",
    "strategy": "conformal",
    "use_pools": "conformal",
    "margin": "conformal",
    "margin_tau": "conformal",
    "margin_clip": "conformal",
    "phases": "drift",
    "events_per_phase": "drift",
    "chunk": "drift",
    "window": "drift",
    "update_steps": "drift",
    "update_every": "drift",
    "reset_miscoverage": "drift",
    "policy": "scheduling",
    "epochs": "scheduling",
    "jobs_per_epoch": "scheduling",
    "max_residents": "scheduling",
    "load": "scheduling",
    "deadline_slack": "scheduling",
    "migrate": "scheduling",
    "warmup_events": "scheduling",
    "probes_per_epoch": "scheduling",
    "recalibrate_every": "scheduling",
}


def _stable_hash(payload: object) -> str:
    """sha256 of the canonical-JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
