"""Scalar reference implementations for the parity tests and benches.

Each production operation in ``src/`` has one code path. The slower
formulations it replaced live here, as test oracles: the parity tests
pin the production path to them bit for bit, and the throughput benches
time the production path against them.

* :class:`PrimitiveTrainer` / :class:`UntapedTrainer` — the training step
  on the primitive autograd graph, and on the fused kernels without tape
  replay;
* :func:`row_by_row_oracle` — a :class:`~repro.orchestration.BudgetOracle`
  issuing one ``predict_bound`` call per row;
* :class:`ScalarEventSimulator` — the cluster simulator with its epoch
  events replayed as per-platform Python loops;
* :class:`DequeConformalizer` — online conformal ingest as one ``deque``
  append per score, re-sorting the window on every recalibration.

``tests/`` is on ``sys.path`` under pytest, and ``benchmarks/conftest.py``
appends it, so both trees import this module as ``reference_paths``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.conformal import OnlineConformalizer
from repro.core import PitotConfig, PitotModel, PitotTrainer, TrainerConfig
from repro.nn import Tensor
from repro.orchestration import BudgetOracle, ClusterSimulator, FleetWorld

__all__ = [
    "PrimitiveTrainer",
    "UntapedTrainer",
    "train_with",
    "row_by_row_oracle",
    "reference_runtime",
    "ScalarEventSimulator",
    "DequeConformalizer",
]


# ----------------------------------------------------------------------
# Training engine
# ----------------------------------------------------------------------
# PitotTrainer routes every step through ``_tape_step`` until batch
# shapes stop repeating. The references override it, so they never touch
# the tape cache: the bail-out never fires and every step runs the
# reference formulation.
class PrimitiveTrainer(PitotTrainer):
    """The pre-engine step: the primitive autograd graph, rebuilt every
    step from unfused layer ops."""

    def _tape_step(self, w_idx, p_idx, interferers, plan, targets_b, coeff):
        model = self.model
        if plan is not None:
            embeddings = model.compute_embeddings_sparse(plan.w_rows, plan.p_rows)
            pred = model.forward(
                plan.w_local,
                plan.p_local,
                plan.interferers_local,
                embeddings=embeddings,
            )
        else:
            embeddings = model.compute_embeddings()
            pred = model.forward(w_idx, p_idx, interferers, embeddings=embeddings)
        loss_elem = self._loss_elementwise(pred, targets_b)
        total_loss = (loss_elem * Tensor(coeff[:, None])).sum() * (
            1.0 / model.config.n_heads
        )
        total_loss.backward()
        return total_loss.item()


class UntapedTrainer(PitotTrainer):
    """Fused kernels with the graph rebuilt every step: the production
    step after a tape bail-out, run from the first step."""

    def _tape_step(self, *batch):
        return self._fused_step(*batch)


def train_with(
    trainer_cls: type[PitotTrainer],
    train,
    validation=None,
    model_config: PitotConfig | None = None,
    trainer_config: TrainerConfig | None = None,
    seed: int = 0,
):
    """:func:`repro.core.train_pitot` with the trainer class swapped."""
    model = PitotModel(
        train.workload_features,
        train.platform_features,
        model_config or PitotConfig(),
        np.random.default_rng(seed),
    )
    trainer = trainer_cls(model, trainer_config or TrainerConfig(seed=seed))
    return trainer.fit(train, validation)


# ----------------------------------------------------------------------
# Budget oracle
# ----------------------------------------------------------------------
class _RowByRowBounds:
    """``predict_bound`` adapter that forwards one row per call."""

    def __init__(self, predictor) -> None:
        self.predictor = predictor

    def predict_bound(self, w_idx, p_idx, interferers, epsilon):
        out = np.empty(len(w_idx))
        for i in range(len(w_idx)):
            out[i] = float(
                self.predictor.predict_bound(
                    w_idx[i : i + 1], p_idx[i : i + 1],
                    interferers[i : i + 1], epsilon,
                )[0]
            )
        return out


def row_by_row_oracle(predictor, epsilon: float) -> BudgetOracle:
    """The historical scalar oracle: one ``predict_bound`` call per row."""
    return BudgetOracle(_RowByRowBounds(predictor), epsilon)


# ----------------------------------------------------------------------
# Cluster simulator
# ----------------------------------------------------------------------
def reference_runtime(world: FleetWorld, workload: int) -> float:
    """Deadline anchor: expected isolation runtime on a median platform."""
    p_ref = float(np.median(world.p_base)) if world.n_platforms else 0.0
    return float(np.exp(world.w_base[workload] + p_ref + world.degree_offsets[0]))


class _ScalarWorld(FleetWorld):
    """A :class:`FleetWorld` drawing batches as one scalar sample per row."""

    def sample_batch(self, workloads, platforms, n_co, multiplier, rng):
        return np.array(
            [
                self.sample(int(w), int(p), int(k), multiplier, rng)
                for w, p, k in zip(workloads, platforms, n_co)
            ]
        )


class ScalarEventSimulator(ClusterSimulator):
    """:class:`ClusterSimulator` with its batched epoch events replaced by
    the per-platform Python loops: scalar deadline anchors and probe
    draws, a comprehension for the open-platform scan, per-candidate
    tuples for each scan, and one quote per running job in the migration
    screen."""

    def __init__(self, world: FleetWorld, *args, **kwargs) -> None:
        scalar_world = _ScalarWorld(
            world.w_base, world.p_base, world.degree_offsets, world.sigma
        )
        super().__init__(scalar_world, *args, **kwargs)
        self._ref_runtimes = np.array(
            [reference_runtime(world, w) for w in range(world.n_workloads)]
        )

    def _resident_deadlines(self, platform: int) -> dict[int, float]:
        """Workload → deadline for revalidation (min on collisions)."""
        out: dict[int, float] = {}
        for job_id in self._residents[platform]:
            job = self._jobs[job_id]
            prev = out.get(job.workload)
            if prev is None or job.deadline < prev:
                out[job.workload] = job.deadline
        return out

    def _open_platforms(self) -> list[int]:
        return [
            p
            for p in range(self.world.n_platforms)
            if len(self._residents[p]) < self.scheduling.max_residents
        ]

    def _scan_candidates(self, workload: int, candidates: list[int]):
        residents = {p: self._co_workloads(p) for p in candidates}
        deadlines: dict[int, float] = {}
        for p in candidates:
            for other, deadline in self._resident_deadlines(p).items():
                prev = deadlines.get(other)
                if prev is None or deadline < prev:
                    deadlines[other] = deadline
        checks = self.oracle.check_candidates(
            workload, np.inf, candidates, residents, deadlines
        )
        return (
            np.array([check.budget for check in checks]),
            np.array([check.feasible for check in checks], dtype=bool),
        )

    def _migration_pass(self, t: float, epoch: int, heap, seq: int) -> int:
        stats = self._stats[epoch]
        dirty: set[int] = set()
        for job, fraction, allowance in self._at_risk(t):
            quote_here = self.oracle.budget(
                job.workload,
                job.platform,
                self._co_workloads(job.platform, skip=job.job_id),
            )
            if fraction * quote_here <= allowance:
                continue  # on track
            seq = self._try_migrate(
                t, job, fraction, allowance, stats, heap, seq, dirty
            )
        return seq


# ----------------------------------------------------------------------
# Online conformal ingest
# ----------------------------------------------------------------------
class DequeConformalizer(OnlineConformalizer):
    """:class:`OnlineConformalizer` on the original per-score ``deque``
    windows: each recalibration re-sorts what the windows retain."""

    def __init__(self, model, head=0, window=2000, margin="naive") -> None:
        super().__init__(model, head=head, window=window, margin=margin)
        self._scores: dict[int, deque[float]] = {}
        self._arrivals: dict[int, deque[int]] = {}
        self._cells: dict[int, deque[tuple[int, int]]] = {}

    def observe(self, w_idx, p_idx, interferers, runtime_seconds) -> None:
        runtime_seconds = np.asarray(runtime_seconds, dtype=np.float64)
        if np.any(runtime_seconds <= 0):
            raise ValueError("runtimes must be positive")
        pred = self.model.predict_log(w_idx, p_idx, interferers)[:, self.head]
        scores = np.log(runtime_seconds) - pred
        pools = self._pool_of(interferers, len(scores))
        arrivals = self._seq + np.arange(len(scores), dtype=np.int64)
        self._seq += len(scores)
        for i, (pool, score) in enumerate(zip(pools.tolist(), scores.tolist())):
            self._scores.setdefault(pool, deque(maxlen=self.window)).append(score)
            self._arrivals.setdefault(pool, deque(maxlen=self.window)).append(
                int(arrivals[i])
            )
            if self._track_cells:
                self._cells.setdefault(pool, deque(maxlen=self.window)).append(
                    (int(w_idx[i]), int(p_idx[i]))
                )

    def n_observed(self, pool: int | None = None) -> int:
        if pool is not None:
            return len(self._scores.get(pool, ()))
        return sum(len(q) for q in self._scores.values())

    def pool_scores(self, pool: int) -> np.ndarray:
        return np.asarray(self._scores.get(pool, ()), dtype=np.float64)

    def _pool_window_sorted(self, pool: int):
        scores = np.asarray(self._scores.get(pool, ()), dtype=np.float64)
        arrivals = np.asarray(self._arrivals.get(pool, ()), dtype=np.int64)
        order = np.argsort(scores, kind="stable")
        return scores[order], arrivals[order]

    def _merged_sorted(self):
        pools = self._tracked_pools()
        if not pools:
            return np.empty(0), np.empty(0, dtype=np.int64)
        per_pool = [self._pool_window_sorted(pool) for pool in pools]
        scores = np.concatenate([s for s, _ in per_pool])
        arrivals = np.concatenate([a for _, a in per_pool])
        order = np.argsort(scores, kind="stable")
        return scores[order], arrivals[order]

    def _tracked_pools(self) -> list[int]:
        return sorted(self._scores)

    def _window_cells(self):
        ws, ps = [], []
        for cells in self._cells.values():
            if cells:
                pairs = np.asarray(cells, dtype=np.intp)
                ws.append(pairs[:, 0])
                ps.append(pairs[:, 1])
        if not ws:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(ws), np.concatenate(ps)

    def _mnar_weights_by_pool(self) -> dict[int, np.ndarray]:
        w_all, p_all = self._window_cells()
        if not len(w_all):
            return {}
        weights: dict[int, np.ndarray] = {}
        row_counts = np.bincount(w_all).astype(np.float64)
        col_counts = np.bincount(p_all).astype(np.float64)
        n = float(len(w_all))
        for pool in self._tracked_pools():
            pairs = np.asarray(self._cells.get(pool, ()), dtype=np.intp)
            if not len(pairs):
                weights[pool] = np.empty(0)
                continue
            order = np.argsort(
                np.asarray(self._scores[pool], dtype=np.float64), kind="stable"
            )
            w_idx, p_idx = pairs[order, 0], pairs[order, 1]
            propensity = row_counts[w_idx] * col_counts[p_idx] / n
            w = 1.0 / propensity
            w /= w.mean()
            np.clip(w, 1.0 / self.margin.clip, self.margin.clip, out=w)
            weights[pool] = w
        return weights

    def _merged_cut(self, epsilon: float) -> float:
        scores, arrivals = self._merged_sorted()
        cell_weights = None
        if self.margin.mode == "mnar" and len(scores):
            per_pool = self._mnar_weights_by_pool()
            pools_sorted = self._tracked_pools()
            unsorted = np.concatenate(
                [self._pool_window_sorted(p)[0] for p in pools_sorted]
            )
            stacked = np.concatenate(
                [per_pool[p] for p in pools_sorted if p in per_pool]
            )
            cell_weights = stacked[np.argsort(unsorted, kind="stable")]
        return self._cut(scores, arrivals, epsilon, cell_weights)
