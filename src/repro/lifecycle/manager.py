"""The continual-learning loop: ingest → update → recalibrate → swap.

The paper's deployment story (Sec 5) plus its Sec 6 outlook, wired end to
end: a deployed :class:`~repro.serving.PredictionService` keeps serving
while the fleet streams fresh observations. The
:class:`LifecycleManager` owns the three mutable artifacts —

* an :class:`~repro.cluster.ObservationBuffer` of recent records,
* a warm-startable :class:`~repro.core.PitotTrainer` bound to the live
  model, and
* the serving :class:`~repro.serving.PredictionService` —

and exposes the lifecycle verbs individually (``ingest``, ``update``,
``recalibrate``, ``promote``) so callers can compose their own cadence.
:func:`run_lifecycle` is the batteries-included cadence: replay a
:class:`~repro.lifecycle.trace.DriftTrace` in chunks, score serving
coverage *before* each chunk is ingested (events are evaluated by the
generation that was live when they arrived, exactly as production
would), and periodically promote a freshly-updated, freshly-recalibrated
generation via the atomic swap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..cluster.dataset import BoundQuery, RuntimeDataset
from ..cluster.stream import ObservationBuffer
from ..conformal.predictor import ConformalRuntimePredictor
from ..core.model import EmbeddingSnapshot, PitotModel
from ..core.trainer import PitotTrainer, TrainingResult
from ..eval.metrics import coverage
from ..scenarios.spec import ScenarioSpec
from .trace import DriftTrace, make_drift_trace

__all__ = ["LifecycleManager", "LifecycleTick", "LifecycleResult", "run_lifecycle"]


@dataclass(frozen=True)
class LifecycleTick:
    """One replay chunk's outcome (a row of the coverage-over-time report)."""

    tick: int  #: chunk index in replay order
    phase: int  #: drift phase the chunk's events belong to
    events: int  #: observations served + ingested this tick
    #: Empirical coverage of the continually-maintained service on this
    #: tick's events (scored before ingesting them).
    coverage_adaptive: float
    #: Same events scored by the never-recalibrated baseline service.
    coverage_static: float
    #: Buffer drift score (max over pools) after ingesting the chunk.
    drift_score: float
    #: Whether the change-point reset cleared the window this tick.
    reset: bool
    #: Whether update + recalibrate + swap ran at the end of this tick.
    promoted: bool
    #: Serving generation live at the end of the tick.
    generation: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class LifecycleResult:
    """Everything one :func:`run_lifecycle` replay produced."""

    #: The warm-updated model (owned by the lifecycle, not the caller).
    model: PitotModel
    #: The final promoted predictor (rolling-window recalibration).
    predictor: ConformalRuntimePredictor
    #: The live service, at its final generation.
    service: "PredictionService"
    #: The buffer, still holding the final rolling window.
    buffer: ObservationBuffer
    #: Per-chunk coverage-over-time records.
    ticks: list[LifecycleTick] = field(default_factory=list)
    #: Concatenated warm-update loss history across all bursts.
    update_loss_history: list[float] = field(default_factory=list)
    #: Total warm-start gradient steps run.
    update_steps: int = 0

    def coverage_by_phase(self) -> dict[int, dict[str, float]]:
        """Mean adaptive/static coverage per drift phase."""
        out: dict[int, dict[str, float]] = {}
        for phase in sorted({t.phase for t in self.ticks}):
            rows = [t for t in self.ticks if t.phase == phase]
            weights = np.array([t.events for t in rows], dtype=float)
            adaptive = np.array([t.coverage_adaptive for t in rows])
            static = np.array([t.coverage_static for t in rows])
            out[phase] = {
                "adaptive": float(np.average(adaptive, weights=weights)),
                "static": float(np.average(static, weights=weights)),
            }
        return out


class LifecycleManager:
    """Owns the mutable continual-learning state around one live model.

    Parameters
    ----------
    model:
        The model to keep updating — **owned by the manager** (warm
        updates mutate it in place; pass ``model.clone()`` to protect a
        shared instance).
    predictor:
        The initially-calibrated predictor; seeds the serving state and
        fixes the recalibration policy (quantiles, strategy, pools).
    features_from:
        Dataset supplying side-information matrices when the buffer
        window is materialized for training/recalibration, and the
        drift-statistics reference distribution.
    trainer_config:
        Optimizer settings for warm updates (defaults to the trainer's
        defaults).
    window:
        Per-pool rolling-window capacity of the observation buffer.
    epsilons:
        Miscoverage grid recalibrations maintain.
    """

    def __init__(
        self,
        model: PitotModel,
        predictor: ConformalRuntimePredictor,
        features_from: RuntimeDataset,
        trainer_config=None,
        window: int = 2000,
        epsilons: tuple[float, ...] = (0.1,),
    ) -> None:
        from ..serving.service import PredictionService

        self.trainer = PitotTrainer(model, trainer_config)
        self.features_from = features_from
        self.epsilons = tuple(float(e) for e in epsilons)
        self.quantiles = predictor.quantiles
        self.strategy = predictor.strategy
        self.use_pools = predictor.use_pools
        self.margin = predictor.margin
        self.buffer = ObservationBuffer(window=window, reference=features_from)
        self.service = PredictionService(
            EmbeddingSnapshot.from_model(model),
            choices=predictor.choices,
            use_pools=predictor.use_pools,
        )

    @property
    def model(self) -> PitotModel:
        return self.trainer.model

    #: Every k-th window record is held out for recalibration. Warm
    #: updates must never train on the rows the conformal layer scores —
    #: a model partially memorizing its own calibration set shrinks the
    #: nonconformity scores and silently undercovers. An interleaved
    #: modulus split keeps both subsets exchangeable samples of the
    #: stream at every window position.
    CALIBRATION_MODULUS = 4

    @classmethod
    def calibration_rows(cls, n: int) -> np.ndarray:
        """Window positions of the calibration hold-out (every Kth row).

        These positions double as the hold-out's *arrival tags*: under
        ``weighted`` margins they keep the recency decay in window-event
        units rather than dilating τ by ``CALIBRATION_MODULUS``.
        """
        idx = np.arange(n)
        return idx[idx % cls.CALIBRATION_MODULUS == cls.CALIBRATION_MODULUS - 1]

    @classmethod
    def split_window(
        cls, window: RuntimeDataset
    ) -> tuple[RuntimeDataset, RuntimeDataset]:
        """Disjoint (train, calibration) halves of a window dataset.

        Shared with the pipeline's ``recalibrate`` stage, which re-derives
        the final conformal layer from a *persisted* window — one split
        definition, one guard.
        """
        idx = np.arange(window.n_observations)
        cal = np.zeros(window.n_observations, dtype=bool)
        cal[cls.calibration_rows(window.n_observations)] = True
        if not cal.any() or cal.all():
            raise ValueError(
                f"window of {window.n_observations} row(s) cannot supply "
                f"disjoint update/recalibration subsets"
            )
        return window.subset(idx[~cal]), window.subset(idx[cal])

    def _window_split(self) -> tuple[RuntimeDataset, RuntimeDataset]:
        """The rolling window's (train, calibration) halves."""
        return self.split_window(self.buffer.window_dataset(self.features_from))

    # ------------------------------------------------------------------
    # Lifecycle verbs
    # ------------------------------------------------------------------
    def ingest(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        runtime: np.ndarray,
    ) -> int:
        """Stream a batch of fresh observations into the rolling window.

        Indices are checked against ``features_from`` the way bound
        queries are, so a malformed batch raises naming its field and
        buffers nothing; valid rows are stored exactly as given.
        """
        BoundQuery.from_arrays(w_idx, p_idx, interferers, self.features_from)
        return self.buffer.ingest(w_idx, p_idx, interferers, runtime)

    def update(
        self, steps: int = 100, rng: np.random.Generator | int | None = None
    ) -> TrainingResult:
        """Warm-start the model on the window's training subset.

        The calibration hold-out (see ``CALIBRATION_MODULUS``) is
        excluded, so a following :meth:`recalibrate` scores rows the
        update never saw.
        """
        train, _ = self._window_split()
        return self.trainer.update(train, steps=steps, rng=rng)

    def recalibrate(self) -> ConformalRuntimePredictor:
        """Rebuild the conformal layer from the rolling window.

        Re-runs the full head-choice selection (App B.2) against the
        window — quantile heads are re-picked, not just offsets shifted,
        so a drift that changes the noise *shape* can move the selected
        quantile too. Returns the fresh predictor; nothing is promoted
        until :meth:`promote`.
        """
        predictor = ConformalRuntimePredictor(
            self.model,
            quantiles=self.quantiles,
            strategy=self.strategy,
            use_pools=self.use_pools,
            margin=self.margin,
        )
        window = self.buffer.window_dataset(self.features_from)
        _, calibration = self.split_window(window)
        return predictor.calibrate(
            calibration,
            epsilons=self.epsilons,
            arrivals=self.calibration_rows(window.n_observations),
        )

    def promote(self, predictor: ConformalRuntimePredictor) -> int:
        """Atomically swap the service to (fresh snapshot, ``predictor``).

        Returns the new serving generation.
        """
        return self.service.swap(
            EmbeddingSnapshot.from_model(self.model), predictor
        )

    def ready_to_recalibrate(self) -> bool:
        """Whether the window can support the tightest maintained ε.

        A calibration subset smaller than ``⌈1/ε⌉`` yields infinite
        conformal offsets (valid but useless bounds); the replay loop
        skips promotion until the stream has filled the window this far.
        """
        needed = self.CALIBRATION_MODULUS * math.ceil(1.0 / min(self.epsilons))
        return self.buffer.n_buffered() >= needed


def run_lifecycle(
    spec: ScenarioSpec,
    dataset: RuntimeDataset,
    model: PitotModel,
    predictor: ConformalRuntimePredictor,
    trace: DriftTrace | None = None,
    epsilon: float | None = None,
) -> LifecycleResult:
    """Replay the spec's drift trace through the full continual loop.

    For every chunk of ``spec.drift.chunk`` events: score the incoming
    events against the *currently live* generation (and against a frozen
    never-recalibrated baseline service for contrast), ingest them, and
    every ``spec.drift.update_every`` ticks run a warm-start update, a
    rolling-window recalibration, and an atomic promotion.

    ``model`` is cloned internally; the caller's instance is untouched.
    """
    from ..serving.service import PredictionService

    drift = spec.drift
    if trace is None:
        trace = make_drift_trace(spec, dataset)
    if epsilon is None:
        epsilon = spec.conformal.epsilons[0]
    epsilon = float(epsilon)

    owned = model.clone()
    # The cloned model's predictor: same choices, re-bound to the clone so
    # recalibrations and promotions read the updated parameters.
    seed_predictor = ConformalRuntimePredictor(
        owned,
        quantiles=predictor.quantiles,
        strategy=predictor.strategy,
        use_pools=predictor.use_pools,
        margin=predictor.margin,
    )
    seed_predictor.choices = dict(predictor.choices)
    seed_predictor._calibrated_epsilons = list(predictor._calibrated_epsilons)

    manager = LifecycleManager(
        owned,
        seed_predictor,
        features_from=dataset,
        trainer_config=spec.trainer,
        window=drift.window,
        epsilons=spec.conformal.epsilons,
    )
    static = PredictionService(
        EmbeddingSnapshot.from_model(model),
        choices=predictor.choices,
        use_pools=predictor.use_pools,
    )
    update_rng = np.random.default_rng(spec.seeds.drift + 1)

    result = LifecycleResult(
        model=owned,
        predictor=seed_predictor,
        service=manager.service,
        buffer=manager.buffer,
    )
    for tick, rows in enumerate(trace.chunks(drift.chunk)):
        w, p = trace.w_idx[rows], trace.p_idx[rows]
        interferers = trace.interferers[rows]
        runtime = trace.runtime[rows]
        # Score first, ingest second: each event is judged by the
        # generation that was serving when it arrived. Multi-row calls
        # bypass the LRU, so replay scoring leaves planner caches untouched.
        adaptive = manager.service.predict_bound_sweep(
            w, p, interferers, (epsilon,)
        )[:, 0]
        baseline = static.predict_bound_sweep(w, p, interferers, (epsilon,))[:, 0]
        cov_adaptive = float(coverage(adaptive, runtime))
        # Change-point reset: a chunk whose miscoverage blows far past ε
        # is a regime change, not noise — clear the window so the next
        # recalibration keys on the new regime alone instead of waiting
        # for old-regime rows to age out of the rolling window. Under
        # recency-weighted margins the hard reset softens to exponential
        # downweighting: old-regime rows lose influence at time-scale τ
        # without discarding the data volume the margin still needs.
        triggered = (1.0 - cov_adaptive) > drift.reset_miscoverage * epsilon
        reset = triggered and manager.margin.mode != "weighted"
        if reset:
            manager.buffer.clear()
        manager.ingest(w, p, interferers, runtime)
        promoted = False
        if (tick + 1) % drift.update_every == 0 and manager.ready_to_recalibrate():
            burst = manager.update(steps=drift.update_steps, rng=update_rng)
            result.update_loss_history.extend(burst.train_loss_history)
            result.update_steps += burst.steps_run
            fresh = manager.recalibrate()
            manager.promote(fresh)
            result.predictor = fresh
            promoted = True
        result.ticks.append(
            LifecycleTick(
                tick=tick,
                phase=int(trace.phase[rows[0]]),
                events=len(rows),
                coverage_adaptive=cov_adaptive,
                coverage_static=float(coverage(baseline, runtime)),
                drift_score=manager.buffer.max_drift_score(),
                reset=reset,
                promoted=promoted,
                generation=manager.service.generation,
            )
        )
    return result
