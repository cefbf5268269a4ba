"""The staged pipeline: ``collect → scale → train → calibrate → evaluate
→ snapshot``.

One :class:`~repro.scenarios.ScenarioSpec` drives the whole path the
paper's Sec 5.1 protocol describes (and ``cli.py``, the benchmarks, and
the integration tests used to re-implement by hand):

* **collect** — build the fleet and run the campaign → `RuntimeDataset`;
* **scale** — draw the replicate split and fit the linear-scaling
  baseline (App B.1) → `DataSplit` + `LinearScalingBaseline`;
* **train** — fit Pitot under the spec's architecture/optimizer →
  `TrainingResult`;
* **calibrate** — conformalize on the calibration hold-out →
  `ConformalRuntimePredictor`;
* **evaluate** — MAPE / coverage / margin on test → metrics dict;
* **snapshot** — freeze serving embeddings → `EmbeddingSnapshot`.

Scenarios with a drift stream (``spec.drift.enabled``) extend the DAG
with the continual-learning suffix (run via ``stop_after="recalibrate"``
or the ``repro lifecycle run`` command; the default ``snapshot`` stop
leaves them untouched):

* **ingest** — build the spec's :class:`~repro.lifecycle.DriftTrace`;
* **update** — replay the trace through the continual loop
  (:func:`~repro.lifecycle.run_lifecycle`): streaming ingestion,
  warm-start updates, rolling recalibration, atomic swaps → the updated
  model checkpoint, the coverage-over-time report, and the final rolling
  window (content-addressed like every other artifact);
* **recalibrate** — the final promotion: rebuild the conformal layer
  from the persisted window against the updated model → a serving-ready
  `ConformalRuntimePredictor`.

Scenarios with a scheduling simulation (``spec.scheduling.enabled``)
add a final **simulate** stage: the event-driven cluster simulator
(:mod:`repro.orchestration.simulator`) plays the spec's job stream
against two schedulers sharing one world-calibrated starting point —
one backed by a live :class:`~repro.lifecycle.LifecycleManager`
(observations ingested, budgets recalibrated and promoted online), one
frozen — and emits a :class:`~repro.orchestration.ScheduleReport`
artifact of per-epoch placement/violation/utilization metrics. Reach it
with ``stop_after="simulate", needed_only=True`` (the ``repro schedule
run`` path), which runs only the stage's ancestor closure — the
lifecycle replay stages are not prerequisites, so drift-free scheduling
scenarios work too.

Each stage declares which spec components it reads and which upstream
stages it consumes; :func:`run_pipeline` keys every stage's artifact on
exactly that (see :mod:`repro.pipeline.artifacts`), so a warm re-run
executes zero stages and a spec edit re-runs only the affected suffix.

The stage functions are plain and public — tests and benchmarks call
them directly; every CLI command goes through :func:`run_pipeline` —
and every one is deterministic in (spec, inputs): the cached and
freshly-computed paths are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.collection import (
    ClusterCollector,
    make_cluster,
    synthetic_fleet_dataset,
)
from ..cluster.dataset import RuntimeDataset, check_schema_version
from ..cluster.splits import DataSplit, make_cold_workload_split, make_split
from ..conformal.margins import MarginParams
from ..conformal.predictor import ConformalRuntimePredictor, HeadChoice
from ..core.model import EmbeddingSnapshot, PitotModel
from ..core.scaling import LinearScalingBaseline
from ..core.serialization import load_model, save_model
from ..core.trainer import PitotTrainer, TrainingResult, train_pitot
from ..eval.metrics import coverage, mape, overprovision_margin
from ..lifecycle.manager import LifecycleManager, run_lifecycle
from ..lifecycle.trace import DriftTrace, make_drift_trace
from ..scenarios.registry import get_scenario

if TYPE_CHECKING:  # deferred: serving imports pipeline artifacts
    from ..serving.service import PredictionService
from ..scenarios.spec import ScenarioSpec
from .artifacts import ArtifactStore, stage_key

__all__ = [
    "StageDef",
    "PIPELINE_STAGES",
    "PipelineResult",
    "LifecycleArtifact",
    "run_pipeline",
    "pipeline_stage_keys",
    "collect_stage",
    "scale_stage",
    "train_stage",
    "calibrate_stage",
    "evaluate_stage",
    "snapshot_stage",
    "ingest_stage",
    "update_stage",
    "recalibrate_stage",
    "simulate_stage",
    "stage_closure",
    "make_scenario_split",
]

#: Split-artifact npz schema (independent of the dataset schema).
_SPLIT_SCHEMA_VERSION = 1
_SNAPSHOT_SCHEMA_VERSION = 1
_WINDOW_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StageDef:
    """One pipeline stage's contract.

    ``spec_components`` are the :class:`ScenarioSpec` parts whose content
    feeds the stage's cache key; ``inputs`` are upstream stage names whose
    keys are chained in. ``provides`` names the :class:`PipelineResult`
    attributes the stage fills.
    """

    name: str
    inputs: tuple[str, ...]
    spec_components: tuple[str, ...]
    provides: tuple[str, ...]


#: The typed stage DAG, in execution order.
PIPELINE_STAGES: tuple[StageDef, ...] = (
    StageDef(
        "collect",
        inputs=(),
        spec_components=("fleet", "collection", "performance", "seeds.collect"),
        provides=("dataset",),
    ),
    StageDef(
        "scale",
        inputs=("collect",),
        spec_components=("split", "seeds.split"),
        provides=("split", "baseline"),
    ),
    StageDef(
        "train",
        inputs=("scale",),
        spec_components=(
            "model",
            "trainer",
            "seeds.train",
            "seeds.model_init",
        ),
        provides=("training",),
    ),
    StageDef(
        "calibrate",
        inputs=("train",),
        spec_components=("conformal",),
        provides=("predictor",),
    ),
    StageDef(
        "evaluate",
        inputs=("calibrate",),
        spec_components=(),
        provides=("metrics",),
    ),
    StageDef(
        "snapshot",
        inputs=("train",),
        spec_components=(),
        provides=("snapshot",),
    ),
    # ------------------------------------------------------------------
    # Continual-learning suffix (drift scenarios; default stop_after =
    # "snapshot" leaves these inert).
    # ------------------------------------------------------------------
    StageDef(
        "ingest",
        inputs=("collect",),
        spec_components=("drift", "seeds.drift"),
        provides=("trace",),
    ),
    StageDef(
        "update",
        # The replay loop serves with the calibrated predictor, trains
        # with the trainer policy, and recalibrates at the conformal ε
        # grid, so all three components feed the checkpoint's key.
        inputs=("calibrate", "ingest"),
        spec_components=("drift", "trainer", "conformal", "seeds.drift"),
        provides=("lifecycle",),
    ),
    StageDef(
        "recalibrate",
        inputs=("update",),
        spec_components=("conformal",),
        provides=("recalibrated",),
    ),
    # ------------------------------------------------------------------
    # Fleet-scheduler suffix (scheduling scenarios; reached via
    # stop_after="simulate", usually with needed_only=True so the
    # lifecycle replay stages above are not forced to run).
    # ------------------------------------------------------------------
    StageDef(
        "simulate",
        # The simulation rebuilds its own (world-calibrated) conformal
        # layer from the trained model, so it consumes no calibrate
        # *artifact* — the input keeps the batch-calibration lineage in
        # the cache key, since both apply the same ConformalSpec policy.
        # The scheduler, drift, trainer (warm updates), and conformal
        # (recalibration grid) components all shape the run.
        inputs=("calibrate",),
        spec_components=(
            "scheduling",
            "drift",
            "trainer",
            "conformal",
            "seeds.schedule",
        ),
        provides=("schedule",),
    ),
)

_STAGE_BY_NAME = {stage.name: stage for stage in PIPELINE_STAGES}


# ----------------------------------------------------------------------
# Stage implementations (pure functions of spec + upstream values)
# ----------------------------------------------------------------------
def collect_stage(spec: ScenarioSpec) -> RuntimeDataset:
    """Build the spec's fleet and run the collection campaign."""
    fleet = spec.fleet
    if fleet.synthetic:
        return synthetic_fleet_dataset(
            n_workloads=fleet.n_workloads,
            n_platforms=fleet.n_platforms,
            n_observations=fleet.n_observations,
            seed=spec.seeds.collect,
        )
    model = make_cluster(
        seed=spec.seeds.collect,
        n_workloads=fleet.n_workloads,
        n_devices=fleet.n_devices,
        n_runtimes=fleet.n_runtimes,
        performance_config=spec.performance,
    )
    collector = ClusterCollector(model, spec.collection)
    return collector.collect(np.random.default_rng(spec.seeds.collect + 1))


def make_scenario_split(
    spec: ScenarioSpec,
    dataset: RuntimeDataset,
    train_fraction: float | None = None,
    seed: int | None = None,
) -> DataSplit:
    """Draw one split under the spec's holdout policy.

    ``train_fraction`` / ``seed`` overrides support the replicate
    protocol (experiment harnesses sweep fractions and seeds over one
    scenario).
    """
    fraction = (
        spec.split.train_fraction if train_fraction is None else train_fraction
    )
    seed = spec.seeds.split if seed is None else seed
    if spec.split.holdout == "cold-workload":
        return make_cold_workload_split(
            dataset,
            fraction,
            seed=seed,
            calibration_fraction=spec.split.calibration_fraction,
            holdout_fraction=spec.split.holdout_fraction,
        )
    return make_split(
        dataset,
        fraction,
        seed=seed,
        calibration_fraction=spec.split.calibration_fraction,
    )


def scale_stage(
    spec: ScenarioSpec, dataset: RuntimeDataset
) -> tuple[DataSplit, LinearScalingBaseline]:
    """Split the dataset and fit the linear-scaling baseline (App B.1).

    The baseline is fit exactly as the trainer fits it (isolation rows of
    the training part, all-rows fallback), so the artifact doubles as the
    standalone Sec 3.2 predictor for this split.
    """
    split = make_scenario_split(spec, dataset)
    baseline = LinearScalingBaseline(dataset.n_workloads, dataset.n_platforms)
    train = split.train
    iso = train.isolation_mask()
    baseline.fit(
        train.w_idx[iso],
        train.p_idx[iso],
        train.log_runtime[iso],
        fallback=(train.w_idx, train.p_idx, train.log_runtime),
    )
    return split, baseline


def train_stage(spec: ScenarioSpec, split: DataSplit) -> TrainingResult:
    """Fit Pitot on the split under the spec's architecture/optimizer.

    ``spec.trainer.seed`` already mirrors ``seeds.train`` (enforced by
    ``ScenarioSpec.__post_init__``).
    """
    return train_pitot(
        split.train,
        split.calibration,
        model_config=spec.model,
        trainer_config=spec.trainer,
        seed=spec.seeds.model_init,
    )


def _spec_predictor(
    spec: ScenarioSpec, model: PitotModel
) -> ConformalRuntimePredictor:
    """Uncalibrated predictor configured from the spec's conformal knobs.

    Resolves the ``None`` auto-strategy ("pitot" for quantile models,
    "split" for point predictors) and the margin-engine parameters in one
    place so calibrate/recalibrate/simulate cannot drift apart.
    """
    quantiles = model.config.quantiles
    strategy = spec.conformal.strategy
    if strategy is None:
        strategy = "pitot" if quantiles else "split"
    return ConformalRuntimePredictor(
        model,
        quantiles=quantiles,
        strategy=strategy,
        use_pools=spec.conformal.use_pools,
        margin=MarginParams.from_conformal_spec(spec.conformal),
    )


def calibrate_stage(
    spec: ScenarioSpec,
    model: PitotModel,
    split: DataSplit,
    snapshot: EmbeddingSnapshot,
) -> ConformalRuntimePredictor:
    """Split-calibrate the trained model at the spec's ε grid.

    ``snapshot`` is ``model`` frozen by :func:`snapshot_stage`. The
    calibration rows are scored through it in serving-sized batches,
    bitwise equal to ``model.predict_log`` without running the towers
    again; the returned predictor wraps ``model``.
    """
    from ..serving.service import PredictionService

    predictor = _spec_predictor(spec, model)
    return predictor.calibrate(
        split.calibration,
        epsilons=spec.conformal.epsilons,
        scorer=PredictionService(snapshot),
    )


def evaluate_stage(
    spec: ScenarioSpec,
    training: TrainingResult,
    predictor: ConformalRuntimePredictor,
    split: DataSplit,
    snapshot: EmbeddingSnapshot,
) -> dict:
    """Sec 5.1 test metrics: MAPE by interference, coverage/margin per ε.

    Scored through ``snapshot`` (the trained model frozen by
    :func:`snapshot_stage`): one forward gives the point predictions and
    one :meth:`~repro.serving.PredictionService.predict_bound_sweep`
    gives the bounds of the whole ε grid, each bitwise equal to the
    model's and the predictor's own answers.
    """
    from ..serving.service import PredictionService

    test = split.test
    service = PredictionService(
        snapshot, choices=predictor.choices, use_pools=predictor.use_pools
    )
    # The scenario *name* is provenance, not content — it lives in the
    # artifact manifest, never in the cached payload, so a same-knob
    # scenario alias hitting this cache is not mislabeled.
    metrics: dict = {
        "n_train": split.n_train,
        "n_calibration": split.n_calibration,
        "n_test": split.n_test,
        "steps_run": training.steps_run,
        "best_step": training.best_step,
        "best_val_loss": (
            training.best_val_loss
            if np.isfinite(training.best_val_loss)
            else None
        ),
        "final_train_loss": (
            training.train_loss_history[-1]
            if training.train_loss_history
            else None
        ),
    }
    pred = service.predict_runtime(test.w_idx, test.p_idx, test.interferers)
    iso = test.isolation_mask()
    # ``None`` (JSON null), not NaN, for empty partitions: metrics.json
    # must stay strict JSON for non-Python consumers of the store.
    metrics["mape_isolation"] = (
        float(mape(pred[iso], test.runtime[iso])) if iso.any() else None
    )
    metrics["mape_interference"] = (
        float(mape(pred[~iso], test.runtime[~iso])) if (~iso).any() else None
    )
    bounds = service.predict_bound_sweep(
        test.w_idx, test.p_idx, test.interferers, spec.conformal.epsilons
    )
    by_epsilon: dict[str, dict[str, float]] = {}
    for eps, bound in zip(spec.conformal.epsilons, bounds.T):
        by_epsilon[repr(float(eps))] = {
            "coverage": float(coverage(bound, test.runtime)),
            "margin": float(overprovision_margin(bound, test.runtime)),
        }
    metrics["epsilons"] = by_epsilon
    return metrics


def snapshot_stage(model: PitotModel) -> EmbeddingSnapshot:
    """Freeze the trained towers into the serving-side snapshot."""
    return EmbeddingSnapshot.from_model(model)


@dataclass
class LifecycleArtifact:
    """The ``update`` stage's checkpoint: everything the continual loop
    produced that downstream stages (and the CLI report) need.

    ``window`` is the final rolling window as dataset-shaped arrays
    ``(w_idx, p_idx, interferers, runtime)`` — the recalibrate stage
    re-derives the final conformal layer from it deterministically.
    """

    model: PitotModel  #: the warm-updated model checkpoint
    ticks: list[dict]  #: coverage-over-time rows (LifecycleTick.as_dict)
    update_loss_history: list[float]
    update_steps: int
    window: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def ingest_stage(spec: ScenarioSpec, dataset: RuntimeDataset) -> DriftTrace:
    """Build the spec's post-deployment drift trace."""
    return make_drift_trace(spec, dataset)


def simulate_stage(
    spec: ScenarioSpec,
    dataset: RuntimeDataset,
    training: TrainingResult,
) -> "ScheduleReport":
    """Play the spec's scheduling simulation: adaptive vs static.

    Both schedulers start from one *world-calibrated* conformal layer
    (so epoch 0 is honest ε-coverage against the simulator's surrogate
    ground truth); the adaptive run then feeds its completions through a
    live :class:`~repro.lifecycle.LifecycleManager` while the static run
    keeps quoting the frozen generation. Raises when the spec has no
    scheduling simulation (``scheduling.enabled`` is false) — the stage
    must fail loudly on batch scenarios rather than simulate an empty
    horizon.
    """
    from ..lifecycle.manager import LifecycleManager
    from ..orchestration.simulator import (
        ClusterSimulator,
        FleetWorld,
        build_schedule_report,
        epoch_multipliers,
        world_calibration_window,
    )
    from ..serving.service import PredictionService

    sched = spec.scheduling
    if not sched.enabled:
        raise ValueError(
            f"scenario {spec.name!r} defines no scheduling simulation "
            f"(scheduling.enabled is false); the simulate stage needs one"
        )
    world = FleetWorld.from_dataset(dataset)
    multipliers = epoch_multipliers(spec.drift, sched.epochs)

    window = world_calibration_window(
        world, dataset, sched.warmup_events, multipliers[0],
        seed=spec.seeds.schedule + 101,
    )
    model = training.model

    def world_calibrated(bound_model: PitotModel) -> ConformalRuntimePredictor:
        return _spec_predictor(spec, bound_model).calibrate(
            window, epsilons=spec.conformal.epsilons
        )

    epsilon = float(spec.conformal.epsilons[0])
    drift = spec.drift

    # Adaptive: a live lifecycle around a clone of the trained model.
    owned = model.clone()
    manager = LifecycleManager(
        owned,
        world_calibrated(owned),
        features_from=dataset,
        trainer_config=spec.trainer,
        window=drift.window if drift.enabled else 4 * sched.warmup_events,
        epsilons=spec.conformal.epsilons,
    )
    # The warmup window doubles as the deployment's observation history:
    # pre-drift recalibrations draw from thousands of rows instead of a
    # couple of epochs' completions, and only a change-point reset
    # shrinks the window back to the fresh regime.
    manager.buffer.ingest_dataset(window)
    adaptive = ClusterSimulator(
        world,
        None,
        sched,
        epsilon=epsilon,
        multipliers=multipliers,
        seed=spec.seeds.schedule,
        lifecycle=manager,
        update_steps=drift.update_steps if drift.enabled else 100,
        reset_miscoverage=drift.reset_miscoverage if drift.enabled else None,
        probe_source=dataset,
    ).run()

    # Static: the same starting generation, never recalibrated.
    base = world_calibrated(model)
    static_service = PredictionService(
        EmbeddingSnapshot.from_model(model),
        choices=base.choices,
        use_pools=base.use_pools,
    )
    static_sim = ClusterSimulator(
        world,
        static_service,
        sched,
        epsilon=epsilon,
        multipliers=multipliers,
        seed=spec.seeds.schedule,
    )
    static = static_sim.run()
    return build_schedule_report(
        spec.name, adaptive, static, multipliers, world.n_platforms,
        static_sim.epoch_seconds,
    )


def update_stage(
    spec: ScenarioSpec,
    dataset: RuntimeDataset,
    training: TrainingResult,
    predictor: ConformalRuntimePredictor,
    trace: DriftTrace,
) -> LifecycleArtifact:
    """Replay the trace through the continual loop (see
    :func:`repro.lifecycle.run_lifecycle`).

    The trained model is cloned inside the loop, so the cached ``train``
    artifact this stage consumes is never mutated.
    """
    lc = run_lifecycle(spec, dataset, training.model, predictor, trace=trace)
    return LifecycleArtifact(
        model=lc.model,
        ticks=[tick.as_dict() for tick in lc.ticks],
        update_loss_history=lc.update_loss_history,
        update_steps=lc.update_steps,
        window=lc.buffer.window_rows(),
    )


def recalibrate_stage(
    spec: ScenarioSpec,
    lifecycle: LifecycleArtifact,
    dataset: RuntimeDataset,
) -> ConformalRuntimePredictor:
    """The final promotion: conformal layer from the persisted window.

    Applies the same interleaved calibration hold-out the lifecycle
    manager used (``LifecycleManager.CALIBRATION_MODULUS``), so when the
    replay's last tick promoted, this predictor reproduces the final
    in-loop recalibration bit-for-bit — and when it did not (leftover
    ticks under ``update_every`` > 1), this stage *is* the freshest
    possible promotion over the full window.
    """
    model = lifecycle.model
    w, p, interferers, runtime = lifecycle.window
    window = RuntimeDataset(
        w_idx=w,
        p_idx=p,
        interferers=interferers,
        runtime=runtime,
        workload_features=dataset.workload_features,
        platform_features=dataset.platform_features,
    )
    _, calibration = LifecycleManager.split_window(window)
    predictor = _spec_predictor(spec, model)
    return predictor.calibrate(
        calibration,
        epsilons=spec.conformal.epsilons,
        arrivals=LifecycleManager.calibration_rows(window.n_observations),
    )


# ----------------------------------------------------------------------
# Stage persistence (artifact directory ↔ in-memory value)
# ----------------------------------------------------------------------
def _save_collect(path: Path, out: dict) -> None:
    out["dataset"].save(path / "dataset.npz")


def _load_collect(path: Path, spec: ScenarioSpec, out: dict) -> None:
    out["dataset"] = RuntimeDataset.load(path / "dataset.npz")


def _save_scale(path: Path, out: dict) -> None:
    split: DataSplit = out["split"]
    baseline: LinearScalingBaseline = out["baseline"]
    np.savez(
        path / "split.npz",
        schema_version=np.array(_SPLIT_SCHEMA_VERSION),
        train_rows=split.train_rows,
        calibration_rows=split.calibration_rows,
        test_rows=split.test_rows,
        train_fraction=np.array(split.train_fraction),
        seed=np.array(split.seed),
        w_bar=baseline.w_bar,
        p_bar=baseline.p_bar,
    )


def _load_scale(path: Path, spec: ScenarioSpec, out: dict) -> None:
    dataset: RuntimeDataset = out["dataset"]
    with np.load(path / "split.npz") as archive:
        check_schema_version(
            archive, _SPLIT_SCHEMA_VERSION, "split", path / "split.npz"
        )
        out["split"] = DataSplit.from_rows(
            dataset,
            train_rows=archive["train_rows"],
            calibration_rows=archive["calibration_rows"],
            test_rows=archive["test_rows"],
            train_fraction=float(archive["train_fraction"]),
            seed=int(archive["seed"]),
        )
        out["baseline"] = LinearScalingBaseline.from_parameters(
            archive["w_bar"], archive["p_bar"]
        )


def _save_train(path: Path, out: dict) -> None:
    training: TrainingResult = out["training"]
    save_model(training.model, path / "model.npz")
    (path / "training.json").write_text(
        json.dumps(
            {
                "train_loss_history": training.train_loss_history,
                "val_loss_history": [
                    [step, loss] for step, loss in training.val_loss_history
                ],
                "best_val_loss": training.best_val_loss,
                "best_step": training.best_step,
                "steps_run": training.steps_run,
            }
        )
        + "\n"
    )


def _load_train(path: Path, spec: ScenarioSpec, out: dict) -> None:
    model = load_model(path / "model.npz")
    history = json.loads((path / "training.json").read_text())
    out["training"] = TrainingResult(
        model=model,
        train_loss_history=[float(v) for v in history["train_loss_history"]],
        val_loss_history=[
            (int(step), float(loss))
            for step, loss in history["val_loss_history"]
        ],
        best_val_loss=float(history["best_val_loss"]),
        best_step=int(history["best_step"]),
        steps_run=int(history["steps_run"]),
    )


def _write_predictor_json(path: Path, predictor: ConformalRuntimePredictor) -> None:
    """Persist a calibrated predictor's conformal layer (model excluded)."""
    path.write_text(
        json.dumps(
            {
                "strategy": predictor.strategy,
                "use_pools": predictor.use_pools,
                "quantiles": predictor.quantiles,
                "margin": {
                    "mode": predictor.margin.mode,
                    "tau": predictor.margin.tau,
                    "clip": predictor.margin.clip,
                },
                "epsilons": predictor._calibrated_epsilons,
                "choices": [
                    {
                        "epsilon": eps,
                        "pool": pool,
                        "head": choice.head,
                        "offset": choice.offset,
                    }
                    for (eps, pool), choice in predictor.choices.items()
                ],
            }
        )
        + "\n"
    )


def _read_predictor_json(path: Path, model: PitotModel) -> ConformalRuntimePredictor:
    """Rebuild a calibrated predictor around ``model`` from its JSON."""
    payload = json.loads(path.read_text())
    quantiles = payload["quantiles"]
    margin = payload.get("margin")
    predictor = ConformalRuntimePredictor(
        model,
        quantiles=None if quantiles is None else tuple(quantiles),
        strategy=payload["strategy"],
        use_pools=payload["use_pools"],
        margin=MarginParams(**margin) if margin else "naive",
    )
    predictor.choices = {
        (float(rec["epsilon"]), int(rec["pool"])): HeadChoice(
            head=int(rec["head"]), offset=float(rec["offset"])
        )
        for rec in payload["choices"]
    }
    predictor._calibrated_epsilons = [float(e) for e in payload["epsilons"]]
    return predictor


def _save_calibrate(path: Path, out: dict) -> None:
    _write_predictor_json(path / "calibration.json", out["predictor"])


def _load_calibrate(path: Path, spec: ScenarioSpec, out: dict) -> None:
    out["predictor"] = _read_predictor_json(
        path / "calibration.json", out["training"].model
    )


def _save_evaluate(path: Path, out: dict) -> None:
    # allow_nan=False keeps the artifact strict JSON (jq/CI-readable);
    # evaluate_stage emits None, never NaN/inf, for undefined metrics.
    (path / "metrics.json").write_text(
        json.dumps(out["metrics"], indent=2, allow_nan=False) + "\n"
    )


def _load_evaluate(path: Path, spec: ScenarioSpec, out: dict) -> None:
    out["metrics"] = json.loads((path / "metrics.json").read_text())


def _save_snapshot(path: Path, out: dict) -> None:
    snapshot: EmbeddingSnapshot = out["snapshot"]
    arrays = {
        "schema_version": np.array(_SNAPSHOT_SCHEMA_VERSION),
        "W": snapshot.W,
        "P": snapshot.P,
    }
    for name in ("VS", "VG", "baseline_w", "baseline_p"):
        value = getattr(snapshot, name)
        if value is not None:
            arrays[name] = value
    np.savez(path / "snapshot.npz", **arrays)


def _load_snapshot(path: Path, spec: ScenarioSpec, out: dict) -> None:
    model: PitotModel = out["training"].model
    with np.load(path / "snapshot.npz") as archive:
        check_schema_version(
            archive, _SNAPSHOT_SCHEMA_VERSION, "snapshot", path / "snapshot.npz"
        )
        def opt(name: str) -> np.ndarray | None:
            return archive[name] if name in archive.files else None

        # Generation is pinned to the in-memory model (same parameters),
        # so staleness checks keep working on the cached path.
        out["snapshot"] = EmbeddingSnapshot(
            config=model.config,
            W=archive["W"],
            P=archive["P"],
            VS=opt("VS"),
            VG=opt("VG"),
            baseline_w=opt("baseline_w"),
            baseline_p=opt("baseline_p"),
            generation=model.generation,
        )


def _save_ingest(path: Path, out: dict) -> None:
    out["trace"].save(path / "trace.npz")


def _load_ingest(path: Path, spec: ScenarioSpec, out: dict) -> None:
    out["trace"] = DriftTrace.load(path / "trace.npz")


def _save_update(path: Path, out: dict) -> None:
    lifecycle: LifecycleArtifact = out["lifecycle"]
    save_model(lifecycle.model, path / "model.npz")
    (path / "lifecycle.json").write_text(
        json.dumps(
            {
                "ticks": lifecycle.ticks,
                "update_loss_history": lifecycle.update_loss_history,
                "update_steps": lifecycle.update_steps,
            },
            allow_nan=False,
        )
        + "\n"
    )
    w, p, interferers, runtime = lifecycle.window
    np.savez(
        path / "window.npz",
        schema_version=np.array(_WINDOW_SCHEMA_VERSION),
        w_idx=w,
        p_idx=p,
        interferers=interferers,
        runtime=runtime,
    )


def _load_update(path: Path, spec: ScenarioSpec, out: dict) -> None:
    payload = json.loads((path / "lifecycle.json").read_text())
    with np.load(path / "window.npz") as archive:
        check_schema_version(
            archive, _WINDOW_SCHEMA_VERSION, "window", path / "window.npz"
        )
        window = (
            archive["w_idx"],
            archive["p_idx"],
            archive["interferers"],
            archive["runtime"],
        )
    out["lifecycle"] = LifecycleArtifact(
        model=load_model(path / "model.npz"),
        ticks=payload["ticks"],
        update_loss_history=[float(v) for v in payload["update_loss_history"]],
        update_steps=int(payload["update_steps"]),
        window=window,
    )


def _save_simulate(path: Path, out: dict) -> None:
    # allow_nan=False: rates are None (JSON null) for empty epochs, so
    # the report stays strict JSON for non-Python consumers.
    (path / "schedule.json").write_text(
        json.dumps(out["schedule"].as_dict(), indent=2, allow_nan=False) + "\n"
    )


def _load_simulate(path: Path, spec: ScenarioSpec, out: dict) -> None:
    from ..orchestration.simulator import ScheduleReport

    out["schedule"] = ScheduleReport.from_dict(
        json.loads((path / "schedule.json").read_text())
    )


def _save_recalibrate(path: Path, out: dict) -> None:
    _write_predictor_json(path / "calibration.json", out["recalibrated"])


def _load_recalibrate(path: Path, spec: ScenarioSpec, out: dict) -> None:
    out["recalibrated"] = _read_predictor_json(
        path / "calibration.json", out["lifecycle"].model
    )


def _compute_collect(spec: ScenarioSpec, out: dict) -> None:
    out["dataset"] = collect_stage(spec)


def _compute_scale(spec: ScenarioSpec, out: dict) -> None:
    out["split"], out["baseline"] = scale_stage(spec, out["dataset"])


def _compute_train(spec: ScenarioSpec, out: dict) -> None:
    out["training"] = train_stage(spec, out["split"])


def _frozen(out: dict) -> EmbeddingSnapshot:
    """The trained model's one tower pass per run.

    The first stage after ``train`` that needs embeddings freezes the
    model; calibrate, evaluate and the snapshot stage share the result.
    """
    if "frozen" not in out:
        out["frozen"] = snapshot_stage(out["training"].model)
    return out["frozen"]


def _compute_calibrate(spec: ScenarioSpec, out: dict) -> None:
    out["predictor"] = calibrate_stage(
        spec, out["training"].model, out["split"], _frozen(out)
    )


def _compute_evaluate(spec: ScenarioSpec, out: dict) -> None:
    out["metrics"] = evaluate_stage(
        spec, out["training"], out["predictor"], out["split"], _frozen(out)
    )


def _compute_snapshot(spec: ScenarioSpec, out: dict) -> None:
    out["snapshot"] = _frozen(out)


def _compute_ingest(spec: ScenarioSpec, out: dict) -> None:
    out["trace"] = ingest_stage(spec, out["dataset"])


def _compute_update(spec: ScenarioSpec, out: dict) -> None:
    out["lifecycle"] = update_stage(
        spec, out["dataset"], out["training"], out["predictor"], out["trace"]
    )


def _compute_recalibrate(spec: ScenarioSpec, out: dict) -> None:
    out["recalibrated"] = recalibrate_stage(
        spec, out["lifecycle"], out["dataset"]
    )


def _compute_simulate(spec: ScenarioSpec, out: dict) -> None:
    out["schedule"] = simulate_stage(spec, out["dataset"], out["training"])


_COMPUTE = {
    "collect": _compute_collect,
    "scale": _compute_scale,
    "train": _compute_train,
    "calibrate": _compute_calibrate,
    "evaluate": _compute_evaluate,
    "snapshot": _compute_snapshot,
    "ingest": _compute_ingest,
    "update": _compute_update,
    "recalibrate": _compute_recalibrate,
    "simulate": _compute_simulate,
}
_SAVERS = {
    "collect": _save_collect,
    "scale": _save_scale,
    "train": _save_train,
    "calibrate": _save_calibrate,
    "evaluate": _save_evaluate,
    "snapshot": _save_snapshot,
    "ingest": _save_ingest,
    "update": _save_update,
    "recalibrate": _save_recalibrate,
    "simulate": _save_simulate,
}
_LOADERS = {
    "collect": _load_collect,
    "scale": _load_scale,
    "train": _load_train,
    "calibrate": _load_calibrate,
    "evaluate": _load_evaluate,
    "snapshot": _load_snapshot,
    "ingest": _load_ingest,
    "update": _load_update,
    "recalibrate": _load_recalibrate,
    "simulate": _load_simulate,
}


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
@dataclass
class PipelineResult:
    """Everything one pipeline run produced (or loaded from cache)."""

    spec: ScenarioSpec
    dataset: RuntimeDataset
    split: DataSplit
    baseline: LinearScalingBaseline
    training: TrainingResult
    predictor: ConformalRuntimePredictor
    metrics: dict
    snapshot: EmbeddingSnapshot
    #: Continual-learning suffix outputs (``None`` unless the run
    #: stopped at/after the corresponding lifecycle stage).
    trace: "DriftTrace | None" = None
    lifecycle: "LifecycleArtifact | None" = None
    recalibrated: ConformalRuntimePredictor | None = None
    #: Fleet-scheduler report (``None`` unless the run reached the
    #: ``simulate`` stage).
    schedule: "object | None" = None
    #: stage → content-addressed artifact key.
    stage_keys: dict[str, str] = field(default_factory=dict)
    #: Stages computed in this run, in order.
    executed: tuple[str, ...] = ()
    #: Stages served from the artifact store, in order.
    cached: tuple[str, ...] = ()

    @property
    def model(self) -> PitotModel:
        """The trained Pitot model (best-validation checkpoint)."""
        return self.training.model

    @property
    def trainer(self) -> PitotTrainer:
        """A trainer bound to the fitted model under the spec's config.

        Supports post-hoc ``evaluate_loss`` sweeps and continued
        fine-tuning without re-plumbing the configuration.
        """
        return PitotTrainer(self.training.model, self.spec.trainer)

    def service(self) -> "PredictionService":
        """A calibrated :class:`~repro.serving.PredictionService`.

        Built from the snapshot stage's frozen embeddings plus the
        calibrate stage's head choices — the end of the declarative path:
        spec in, serving-ready predictor out.
        """
        from ..serving.service import PredictionService

        return PredictionService(
            self.snapshot,
            choices=self.predictor.choices,
            use_pools=self.predictor.use_pools,
        )

    def recalibrated_service(self) -> "PredictionService":
        """Serving state for the post-lifecycle generation.

        Built from the ``update`` stage's warm-updated model and the
        ``recalibrate`` stage's rolling-window conformal layer — what a
        deployment would run after the drift trace. Requires a run with
        ``stop_after="recalibrate"``.
        """
        from ..serving.service import PredictionService

        if self.recalibrated is None or self.lifecycle is None:
            raise RuntimeError(
                "no recalibrated generation in this result; run the "
                "pipeline with stop_after='recalibrate'"
            )
        return PredictionService(
            EmbeddingSnapshot.from_model(self.lifecycle.model),
            choices=self.recalibrated.choices,
            use_pools=self.recalibrated.use_pools,
        )


def pipeline_stage_keys(spec: ScenarioSpec) -> dict[str, str]:
    """Every stage's content-addressed key for ``spec``, without running.

    The same chaining :func:`run_pipeline` applies; front-ends use it to
    probe an :class:`ArtifactStore` for prerequisites (e.g. ``repro
    lifecycle run`` refuses to start when the trained model it would
    build on is not cached).
    """
    keys: dict[str, str] = {}
    for stage in PIPELINE_STAGES:
        keys[stage.name] = stage_key(
            stage.name,
            spec.component_hash(*stage.spec_components),
            tuple(keys[name] for name in stage.inputs),
        )
    return keys


def stage_closure(stop_after: str) -> frozenset[str]:
    """``stop_after`` plus its transitive input ancestors in the DAG."""
    needed = {stop_after}
    frontier = [stop_after]
    while frontier:
        stage = _STAGE_BY_NAME[frontier.pop()]
        for name in stage.inputs:
            if name not in needed:
                needed.add(name)
                frontier.append(name)
    return frozenset(needed)


def _try_load(
    stage_name: str,
    store: ArtifactStore,
    key: str,
    spec: ScenarioSpec,
    out: dict,
) -> bool:
    """Load a committed artifact into ``out``; False on a stale payload.

    A payload-schema bump (dataset/model/split/snapshot version) under
    an unchanged stage key means the committed artifact predates this
    code. Treat it as a miss and recompute — old caches must never
    abort a run.
    """
    try:
        _LOADERS[stage_name](store.read_dir(stage_name, key), spec, out)
        return True
    except ValueError:
        return False


def run_pipeline(
    spec: ScenarioSpec | str,
    store: ArtifactStore | str | Path | None = None,
    stop_after: str = "snapshot",
    force: bool = False,
    needed_only: bool = False,
) -> PipelineResult:
    """Run (or replay) the staged pipeline for one scenario.

    Parameters
    ----------
    spec:
        A :class:`ScenarioSpec` or a registry name.
    store:
        Artifact store (or its root path). ``None`` disables caching:
        every stage computes fresh and nothing is persisted.
    stop_after:
        Last stage to run (``"snapshot"`` = the full DAG). Earlier
        stops leave later :class:`PipelineResult` fields unset (``repro
        sweep run --stop-after collect`` collects only).
    force:
        Recompute every stage even on a cache hit (artifacts are
        rewritten, so downstream consumers see fresh keys' content).
    needed_only:
        Restrict the run to ``stop_after``'s ancestor closure in the
        stage DAG instead of every stage listed before it — how ``repro
        schedule run`` reaches ``simulate`` without forcing the
        lifecycle replay stages (which a drift-free scheduling scenario
        cannot run).
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    if stop_after not in _STAGE_BY_NAME:
        raise ValueError(
            f"unknown stage {stop_after!r}; "
            f"stages: {[s.name for s in PIPELINE_STAGES]}"
        )
    needed = stage_closure(stop_after) if needed_only else None

    keys: dict[str, str] = {}
    executed: list[str] = []
    cached: list[str] = []
    out: dict = {}
    all_keys = pipeline_stage_keys(spec)
    for stage in PIPELINE_STAGES:
        if needed is not None and stage.name not in needed:
            continue
        key = all_keys[stage.name]
        keys[stage.name] = key
        loaded = False
        if store is not None and not force and store.has(stage.name, key):
            loaded = _try_load(stage.name, store, key, spec, out)
        if not loaded and store is not None:
            # Miss (or force): serialize with concurrent producers of
            # this artifact, then re-check under the lock — the previous
            # holder may have committed while this process waited, in
            # which case load its result instead of recomputing
            # (double-checked locking; how parallel sweep workers keep
            # shared ancestor stages exactly-once).
            with store.lock(stage.name, key):
                if not force and store.has(stage.name, key):
                    loaded = _try_load(stage.name, store, key, spec, out)
                if not loaded:
                    _COMPUTE[stage.name](spec, out)
                    path = store.write_dir(stage.name, key)
                    _SAVERS[stage.name](path, out)
                    store.commit(
                        stage.name,
                        key,
                        meta={
                            "scenario": spec.name,
                            "spec_hash": spec.spec_hash(),
                        },
                    )
        elif not loaded:
            _COMPUTE[stage.name](spec, out)
        if loaded:
            cached.append(stage.name)
        else:
            executed.append(stage.name)
        if stage.name == stop_after:
            break

    return PipelineResult(
        spec=spec,
        dataset=out.get("dataset"),
        split=out.get("split"),
        baseline=out.get("baseline"),
        training=out.get("training"),
        predictor=out.get("predictor"),
        metrics=out.get("metrics"),
        snapshot=out.get("snapshot"),
        trace=out.get("trace"),
        lifecycle=out.get("lifecycle"),
        recalibrated=out.get("recalibrated"),
        schedule=out.get("schedule"),
        stage_keys=keys,
        executed=tuple(executed),
        cached=tuple(cached),
    )
