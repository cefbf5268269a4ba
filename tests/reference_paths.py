"""Scalar reference implementations for the parity tests and benches.

Each production operation in ``src/`` has one code path. The slower
formulations it replaced live here, as test oracles: the parity tests
pin the production path to them bit for bit, and the throughput benches
time the production path against them.

* :class:`PrimitiveTrainer` — the training step on the primitive autograd
  graph; :func:`forced_plan` pins a trainer to the dense or the sparse
  tower plan, and :func:`forced_formulation` to the pairwise-table or the
  gather formulation of Eq. 9;
* :func:`row_by_row_oracle` — a :class:`~repro.orchestration.BudgetOracle`
  issuing one ``predict_bound`` call per row through
  :class:`RowByRowBounds`;
* :class:`ScalarEventSimulator` — the cluster simulator with its epoch
  events replayed as per-platform Python loops;
* :func:`resolve_head_offsets` — the per-batch ``np.unique`` (head,
  offset) lookup that :class:`~repro.conformal.HeadOffsetTable` replaced;
* :func:`scan_entity_coverage` — split repair as one Python scan of the
  test rows per missing entity;
* :class:`ScanFillBaseline` — the scaling baseline filling each unseen
  entity with one scan of the whole fallback column;
* :class:`ChoiceLoopCollector` — the interference campaign drawing each
  co-running set with its own ``rng.choice`` call, and computing each
  slot's ground truth once for the timeout test and again for its
  measurement.

``tests/`` is on ``sys.path`` under pytest, and ``benchmarks/conftest.py``
appends it, so both trees import this module as ``reference_paths``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterCollector, RuntimeDataset
from repro.cluster.dataset import MAX_INTERFERERS
from repro.conformal.predictor import require_calibrated
from repro.core import (
    LinearScalingBaseline,
    PitotConfig,
    PitotModel,
    PitotTrainer,
    TrainerConfig,
    plan_sparse_batch,
)
from repro.nn import Tensor
from repro.orchestration import BudgetOracle, ClusterSimulator, FleetWorld

__all__ = [
    "PrimitiveTrainer",
    "forced_plan",
    "forced_formulation",
    "train_with",
    "RowByRowBounds",
    "row_by_row_oracle",
    "reference_runtime",
    "ScalarEventSimulator",
    "resolve_head_offsets",
    "scan_entity_coverage",
    "ScanFillBaseline",
    "ChoiceLoopCollector",
]


# ----------------------------------------------------------------------
# Training engine
# ----------------------------------------------------------------------
# PitotTrainer runs every step through ``_fused_step`` on the plan
# ``_plan`` picks from the batch, scoring Eq. 9 in the formulation
# ``_table_step`` picks; the references override those three seams.
class PrimitiveTrainer(PitotTrainer):
    """The pre-engine step: the primitive autograd graph, rebuilt every
    step from unfused layer ops. Eq. 9 runs through the production
    ``_predict_step``, so both trainers make the same formulation choice."""

    def _fused_step(self, w_idx, p_idx, interferers, plan, targets_b, coeff):
        model = self.model
        if plan is not None:
            embeddings = model.compute_embeddings_sparse(plan.w_rows, plan.p_rows)
            w_idx, p_idx = plan.w_local, plan.p_local
            interferers = plan.interferers_local
        else:
            embeddings = model.compute_embeddings()
        pred = self._predict_step(embeddings, w_idx, p_idx, interferers)
        loss_elem = self._loss_elementwise(pred, targets_b)
        total_loss = (loss_elem * Tensor(coeff[:, None])).sum() * (
            1.0 / model.config.n_heads
        )
        total_loss.backward()
        return total_loss.item()


def forced_plan(
    trainer_cls: type[PitotTrainer], sparse: bool | None
) -> type[PitotTrainer]:
    """``trainer_cls`` with every step forced onto the batch-sparse
    (``True``) or the dense (``False``) tower plan; ``None`` keeps the
    per-step automatic choice and returns ``trainer_cls`` itself."""
    if sparse is None:
        return trainer_cls

    def _plan(self, w_idx, p_idx, interferers):
        return plan_sparse_batch(w_idx, p_idx, interferers) if sparse else None

    mode = "Sparse" if sparse else "Dense"
    return type(f"{mode}{trainer_cls.__name__}", (trainer_cls,), {"_plan": _plan})


def forced_formulation(
    trainer_cls: type[PitotTrainer], table: bool | None
) -> type[PitotTrainer]:
    """``trainer_cls`` with every step scoring Eq. 9 from the pairwise
    table (``True``) or by per-row gathers (``False``); ``None`` keeps the
    per-step size rule and returns ``trainer_cls`` itself."""
    if table is None:
        return trainer_cls

    def _table_step(self, embeddings, batch, interferers):
        return table

    mode = "Table" if table else "Gather"
    return type(
        f"{mode}{trainer_cls.__name__}", (trainer_cls,), {"_table_step": _table_step}
    )


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
class RowByRowBounds:
    """``predict_bound`` adapter that forwards one row per call (the
    call shape a service's LRU serves)."""

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
    return BudgetOracle(RowByRowBounds(predictor), epsilon)


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
# Bound lookup
# ----------------------------------------------------------------------
def resolve_head_offsets(choices, epsilon: float, pools: np.ndarray):
    """Vectorized (head, offset) lookup per query row.

    Maps each row's pool to its calibrated ``HeadChoice`` (falling back
    to the global pool ``-1``) in O(unique pools) dict work per batch.
    Raises when ``epsilon`` was never calibrated.
    """
    require_calibrated(choices, epsilon)
    fallback = choices[(epsilon, -1)]
    unique = np.unique(pools)
    u_heads = np.empty(len(unique), dtype=np.intp)
    u_offsets = np.empty(len(unique))
    for i, pool in enumerate(unique):
        choice = choices.get((epsilon, int(pool)), fallback)
        u_heads[i] = choice.head
        u_offsets[i] = choice.offset
    position = np.searchsorted(unique, pools)
    return u_heads[position], u_offsets[position]


# ----------------------------------------------------------------------
# Split repair and baseline fill
# ----------------------------------------------------------------------
def scan_entity_coverage(
    dataset: RuntimeDataset,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    rng: np.random.Generator,
    universe: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``repro.cluster.splits._ensure_entity_coverage`` as a set and a
    list: every missing entity scans the remaining test rows once."""
    train_set = set(train_rows.tolist())
    test_list = test_rows.tolist()

    for entity_ids, column in (
        (np.unique(dataset.w_idx if universe is None else dataset.w_idx[universe]),
         dataset.w_idx),
        (np.unique(dataset.p_idx if universe is None else dataset.p_idx[universe]),
         dataset.p_idx),
    ):
        covered = set(np.unique(column[train_rows]).tolist()) if len(train_rows) else set()
        missing = [e for e in entity_ids if e not in covered]
        for entity in missing:
            candidates = [r for r in test_list if column[r] == entity]
            if not candidates:
                continue
            chosen = candidates[int(rng.integers(len(candidates)))]
            test_list.remove(chosen)
            train_set.add(chosen)
    return np.array(sorted(train_set), dtype=int), np.array(test_list, dtype=int)


class ScanFillBaseline(LinearScalingBaseline):
    """The baseline with each unseen entity filled by a boolean scan of
    the whole fallback column."""

    def _fill_unseen(self, w_seen, p_seen, fallback) -> None:
        if fallback is not None:
            fw, fp, fy = (np.asarray(a) for a in fallback)
            for entity in np.flatnonzero(~w_seen):
                rows = fw == entity
                if rows.any():
                    self.w_bar[entity] = float(
                        np.mean(fy[rows] - self.p_bar[fp[rows]])
                    )
                    w_seen[entity] = True
            for entity in np.flatnonzero(~p_seen):
                rows = fp == entity
                if rows.any():
                    self.p_bar[entity] = float(
                        np.mean(fy[rows] - self.w_bar[fw[rows]])
                    )
                    p_seen[entity] = True
        if (~w_seen).any():
            self.w_bar[~w_seen] = self.w_bar[w_seen].mean() if w_seen.any() else 0.0
        if (~p_seen).any():
            self.p_bar[~p_seen] = self.p_bar[p_seen].mean() if p_seen.any() else 0.0


# ----------------------------------------------------------------------
# Collection campaign
# ----------------------------------------------------------------------
class ChoiceLoopCollector(ClusterCollector):
    """The campaign with one ``rng.choice`` call per co-running set."""

    def collect_interference(self, rng: np.random.Generator):
        cfg = self.config
        npf = len(self.model.platforms)
        budget_log10 = np.log10(cfg.time_budget_s)

        out_w, out_p, out_k, out_r = [], [], [], []
        for j in range(npf):
            valid = np.flatnonzero(
                (~self.model.crash_table[:, j])
                & (self.model.log10_isolation[:, j] <= budget_log10)
            )
            if len(valid) < max(cfg.degrees):
                continue
            for degree in cfg.degrees:
                sets = np.stack(
                    [
                        rng.choice(valid, size=degree, replace=False)
                        for _ in range(cfg.sets_per_degree)
                    ]
                )
                n_sets = sets.shape[0]
                set_crashed = rng.random(n_sets) < cfg.set_crash_rate * degree
                member_timeout = (
                    rng.random((n_sets, degree))
                    < cfg.interference_timeout_base * (degree - 1) ** 2
                )
                for slot in range(degree):
                    targets = sets[:, slot]
                    others = np.delete(sets, slot, axis=1)
                    pad = np.full(
                        (n_sets, MAX_INTERFERERS - others.shape[1]), -1, dtype=int
                    )
                    interf = np.concatenate([others, pad], axis=1)
                    p_arr = np.full(n_sets, j)
                    true_log10 = self.model.true_log10(targets, p_arr, interf)
                    alive = (
                        (true_log10 <= budget_log10)
                        & ~set_crashed
                        & ~member_timeout[:, slot]
                    )
                    if not alive.any():
                        continue
                    reps = np.clip(
                        np.floor(cfg.time_budget_s / 10.0 ** true_log10[alive]),
                        1,
                        cfg.max_repetitions,
                    )
                    runtime = self.model.sample_runtime(
                        targets[alive], p_arr[alive], interf[alive], rng,
                        averaging_reps=reps,
                    )
                    out_w.append(targets[alive])
                    out_p.append(p_arr[alive])
                    out_k.append(interf[alive])
                    out_r.append(runtime)

        if not out_w:
            empty = np.empty(0, dtype=int)
            return empty, empty, np.empty((0, MAX_INTERFERERS), dtype=int), np.empty(0)
        return (
            np.concatenate(out_w),
            np.concatenate(out_p),
            np.concatenate(out_k),
            np.concatenate(out_r),
        )
