"""Drift traces: the observation stream a deployed predictor faces.

A :class:`DriftTrace` is a time-ordered sequence of runtime observations
replayed *after* training and calibration. Each event re-samples a row
from the collected dataset and scales its runtime by the active phase's
multiplier — the same mechanism the paper's Sec 6 outlook sketches
(thermal throttling, background load, firmware updates: multiplicative
slowdowns over the calibrated distribution). Phases are replayed in
order, so a trace is a piecewise-stationary stream with step-change
drift at phase boundaries — the regime where static conformal
calibration silently loses coverage.

Traces are deterministic in ``(spec.drift, spec.seeds.drift, dataset)``;
the pipeline's ``ingest`` stage persists them content-addressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ..cluster.dataset import (
    MAX_INTERFERERS,
    RuntimeDataset,
    check_schema_version,
)
from ..scenarios.spec import ScenarioSpec

__all__ = ["DriftTrace", "make_drift_trace"]

#: On-disk npz schema for persisted traces.
TRACE_SCHEMA_VERSION = 1


@dataclass
class DriftTrace:
    """A time-ordered, phase-annotated observation stream.

    Arrays follow the dataset schema (``-1``-padded interferers); rows
    are in replay order. ``phase[i]`` indexes into ``multipliers`` —
    the runtime scaling active when event ``i`` was observed.
    """

    w_idx: np.ndarray
    p_idx: np.ndarray
    interferers: np.ndarray
    runtime: np.ndarray
    phase: np.ndarray
    multipliers: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.runtime)
        if not (len(self.w_idx) == len(self.p_idx) == len(self.phase) == n):
            raise ValueError("trace arrays must share length")
        if self.interferers.shape != (n, MAX_INTERFERERS):
            raise ValueError(
                f"interferers must be (n, {MAX_INTERFERERS}), "
                f"got {self.interferers.shape}"
            )

    @property
    def n_events(self) -> int:
        return len(self.runtime)

    def chunks(self, size: int) -> Iterator[np.ndarray]:
        """Yield consecutive row-index arrays of at most ``size`` events.

        A chunk never spans a phase boundary (a shorter chunk is emitted
        at each boundary instead), so every chunk's events share one
        drift regime — per-tick and per-phase coverage attribution stay
        exact even when ``events_per_phase`` is not a multiple of the
        chunk size. Replay order is trace order.
        """
        if size < 1:
            raise ValueError("chunk size must be >= 1")
        lo, n = 0, self.n_events
        while lo < n:
            # self.phase is nondecreasing (phases are replayed in order),
            # so the current phase's end is one searchsorted away.
            boundary = int(
                np.searchsorted(self.phase, self.phase[lo], side="right")
            )
            hi = min(lo + size, boundary)
            yield np.arange(lo, hi)
            lo = hi

    def slice(self, rows: np.ndarray) -> "DriftTrace":
        """Row-subset view (same multipliers)."""
        rows = np.asarray(rows)
        return DriftTrace(
            w_idx=self.w_idx[rows],
            p_idx=self.p_idx[rows],
            interferers=self.interferers[rows],
            runtime=self.runtime[rows],
            phase=self.phase[rows],
            multipliers=self.multipliers,
        )

    def as_dataset(self, features_from: RuntimeDataset) -> RuntimeDataset:
        """The trace as a :class:`RuntimeDataset` (features borrowed)."""
        return RuntimeDataset(
            w_idx=self.w_idx,
            p_idx=self.p_idx,
            interferers=self.interferers,
            runtime=self.runtime,
            workload_features=features_from.workload_features,
            platform_features=features_from.platform_features,
            workloads=features_from.workloads,
            platforms=features_from.platforms,
            workload_feature_names=features_from.workload_feature_names,
            platform_feature_names=features_from.platform_feature_names,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        np.savez(
            Path(path),
            schema_version=np.array(TRACE_SCHEMA_VERSION),
            w_idx=self.w_idx,
            p_idx=self.p_idx,
            interferers=self.interferers,
            runtime=self.runtime,
            phase=self.phase,
            multipliers=np.array(self.multipliers),
        )

    @classmethod
    def load(cls, path: str | Path) -> "DriftTrace":
        with np.load(Path(path)) as archive:
            check_schema_version(archive, TRACE_SCHEMA_VERSION, "trace", path)
            return cls(
                w_idx=archive["w_idx"],
                p_idx=archive["p_idx"],
                interferers=archive["interferers"],
                runtime=archive["runtime"],
                phase=archive["phase"],
                multipliers=tuple(float(m) for m in archive["multipliers"]),
            )


def make_drift_trace(spec: ScenarioSpec, dataset: RuntimeDataset) -> DriftTrace:
    """Build the spec's drift trace over a collected dataset.

    Each phase draws ``events_per_phase`` rows from ``dataset`` with
    replacement (the fleet keeps running the same workload population)
    and scales their runtimes by the phase multiplier. Raises when the
    spec has no drift stream (``drift.enabled`` is false) — lifecycle
    machinery must fail loudly on batch scenarios rather than replay an
    empty stream.
    """
    drift = spec.drift
    if not drift.enabled:
        raise ValueError(
            f"scenario {spec.name!r} defines no drift stream "
            f"(drift.enabled is false); lifecycle replay needs one"
        )
    rng = np.random.default_rng(spec.seeds.drift)
    per_phase = drift.events_per_phase
    rows = rng.integers(
        0, dataset.n_observations, size=per_phase * len(drift.phases)
    )
    phase = np.repeat(np.arange(len(drift.phases)), per_phase)
    multiplier = np.asarray(drift.phases)[phase]
    return DriftTrace(
        w_idx=dataset.w_idx[rows],
        p_idx=dataset.p_idx[rows],
        interferers=dataset.interferers[rows],
        runtime=dataset.runtime[rows] * multiplier,
        phase=phase,
        multipliers=tuple(float(m) for m in drift.phases),
    )
