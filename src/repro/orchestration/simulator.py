"""Event-driven fleet scheduling on continually-recalibrated budgets.

The paper's Sec 1 story run forward in time: jobs stream into a
co-located fleet, a scheduler places each one so its deadline holds with
probability 1−ε, and the realized runtimes stream back as observations.
:class:`ClusterSimulator` is the discrete-event loop that closes that
circle:

* **Events** — job arrivals, job completions, and epoch boundaries flow
  through one time-ordered heap; completions free capacity the moment
  they land, and every placement decision sees the cluster exactly as it
  is at decision time.
* **Policies** — pluggable: budget-aware ``greedy`` (tightest feasible
  fit via one :class:`~repro.orchestration.BudgetOracle` batch per
  decision), epoch-batched ``flow`` (min-cost-flow placement into the
  occupied cluster), single-platform ``admission``, and the
  budget-blind ``random`` / ``utilization`` baselines.
* **Migration** — at each epoch boundary, running jobs whose remaining
  work no longer fits their deadline under the *current* generation's
  budgets are moved to a platform where it does.
* **Lifecycle** — pass a :class:`~repro.lifecycle.LifecycleManager` and
  the loop ingests every completed job's observation, then periodically
  warm-updates, recalibrates, and atomically promotes a new serving
  generation — drift flows from the fleet into the scheduler's budgets
  with no offline step.

Ground truth comes from :class:`FleetWorld`, a surrogate generative
model fit on a collected dataset (additive log runtime + per-degree
interference inflation + lognormal noise), scaled by a per-epoch drift
multiplier. A job's realized runtime is sampled once at placement
against its placement-time co-residents (a deliberate simplification:
the interference set at start defines the rate), and re-sampled
pro-rata on migration.

Two violation notions are scored per completion:

* ``deadline`` — realized duration exceeded the job's requested
  deadline (an SLO miss);
* ``budget`` — realized duration exceeded the ε-budget the scheduler
  quoted at placement. This is the conformal commitment: a calibrated
  scheduler holds it at rate ≈ ε, and a stale one silently breaks it —
  the fleet-scale analogue of the lifecycle coverage story.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..cluster.dataset import MAX_INTERFERERS, RuntimeDataset, pad_interferers
from ..conformal.predictor import interference_pools
from ..core.scaling import LinearScalingBaseline
from ..scenarios.spec import SCHEDULER_POLICIES, SchedulingSpec
from .oracle import BudgetOracle
from .placement import MAX_RESIDENTS, PlacementProblem, flow_placement

__all__ = [
    "FleetWorld",
    "SimJob",
    "EpochStats",
    "SimulationResult",
    "ScheduleReport",
    "ClusterSimulator",
    "epoch_multipliers",
    "world_calibration_window",
    "build_schedule_report",
]

# Heap ordering at equal timestamps: completions free capacity before
# arrivals claim it; epoch hooks run after the epoch's last event.
_COMPLETION, _ARRIVAL, _EPOCH_END = 0, 1, 2


@dataclass
class FleetWorld:
    """Surrogate ground truth for simulation, fit from a collected dataset.

    ``log runtime = w_base[w] + p_base[p] + degree_offsets[d-1] + σ·z``,
    times the active drift multiplier — the additive-log structure of
    the paper's linear-scaling baseline (App B.1) plus an empirical
    per-interference-degree inflation and lognormal noise, all estimated
    from the dataset the predictor was trained on. Deterministic given a
    generator.
    """

    w_base: np.ndarray
    p_base: np.ndarray
    #: Log-space inflation per interference degree (index ``degree - 1``).
    degree_offsets: np.ndarray
    sigma: float

    @classmethod
    def from_dataset(cls, dataset: RuntimeDataset) -> "FleetWorld":
        """Fit the surrogate on a dataset (isolation-first, like App B.1)."""
        baseline = LinearScalingBaseline(
            dataset.n_workloads, dataset.n_platforms
        )
        iso = dataset.isolation_mask()
        baseline.fit(
            dataset.w_idx[iso],
            dataset.p_idx[iso],
            dataset.log_runtime[iso],
            fallback=(dataset.w_idx, dataset.p_idx, dataset.log_runtime),
        )
        residual = dataset.log_runtime - baseline.predict(
            dataset.w_idx, dataset.p_idx
        )
        degrees = interference_pools(
            dataset.interferers, dataset.n_observations
        )
        offsets = np.zeros(MAX_RESIDENTS)
        for degree in range(1, MAX_RESIDENTS + 1):
            mask = degrees == degree
            if mask.any():
                offsets[degree - 1] = float(residual[mask].mean())
        sigma = float(np.std(residual - offsets[degrees - 1]))
        return cls(
            w_base=baseline.w_bar,
            p_base=baseline.p_bar,
            degree_offsets=offsets,
            sigma=max(sigma, 1e-6),
        )

    @property
    def n_workloads(self) -> int:
        return len(self.w_base)

    @property
    def n_platforms(self) -> int:
        return len(self.p_base)

    def log_mean(self, workload: int, platform: int, n_co: int) -> float:
        """Mean log runtime for ``workload`` on ``platform`` with
        ``n_co`` co-residents (no noise, no drift)."""
        degree = min(1 + n_co, MAX_RESIDENTS)
        return float(
            self.w_base[workload]
            + self.p_base[platform]
            + self.degree_offsets[degree - 1]
        )

    def sample(
        self,
        workload: int,
        platform: int,
        n_co: int,
        multiplier: float,
        rng: np.random.Generator,
    ) -> float:
        """One realized runtime draw (seconds) under ``multiplier`` drift."""
        z = rng.standard_normal()
        return float(
            np.exp(self.log_mean(workload, platform, n_co) + self.sigma * z)
            * multiplier
        )

    def sample_batch(
        self,
        workloads: np.ndarray,
        platforms: np.ndarray,
        n_co: np.ndarray,
        multiplier: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized :meth:`sample` over row arrays — one RNG array draw.

        Bitwise-identical to calling :meth:`sample` once per row in
        order: ``Generator.standard_normal(n)`` consumes the stream
        exactly as ``n`` scalar draws do, and the elementwise arithmetic
        keeps the scalar path's association
        (``(w + p) + offset``, ``exp(mean + σz) · m``).
        """
        w = np.asarray(workloads, dtype=np.intp)
        p = np.asarray(platforms, dtype=np.intp)
        degree = np.minimum(1 + np.asarray(n_co, dtype=np.intp), MAX_RESIDENTS)
        z = rng.standard_normal(w.size)
        mean = self.w_base[w] + self.p_base[p] + self.degree_offsets[degree - 1]
        return np.exp(mean + self.sigma * z) * multiplier

    def mean_runtime(self) -> float:
        """Expected slot-time per job (epoch sizing).

        The arithmetic mean service time over a uniform (workload,
        platform) draw — separable as ``E[e^w]·E[e^p]`` — including the
        lognormal noise moment and a light (2-way) co-location
        inflation. Slots are occupied for realized runtimes, so offered
        load must be budgeted against this mean, not the (much smaller)
        geometric one.
        """
        if not self.n_workloads:
            return 1.0
        w = float(np.mean(np.exp(self.w_base)))
        # Budget-aware schedulers concentrate placements on the faster
        # platforms (tightest feasible fit), so the lower-quartile
        # platform speed approximates the slot a job actually lands on
        # far better than the fleet mean.
        p = (
            float(np.quantile(np.exp(self.p_base), 0.25))
            if self.n_platforms
            else 1.0
        )
        return w * p * float(
            np.exp(self.sigma**2 / 2.0 + self.degree_offsets[1])
        )


@dataclass
class SimJob:
    """One job's life through the simulation."""

    job_id: int
    workload: int
    arrival: float
    slack: float
    deadline: float = float("nan")  #: duration allowance (seconds)
    platform: int | None = None
    quote: float = float("nan")  #: ε-budget quoted at placement
    start: float = float("nan")
    completion: float = float("nan")
    #: Realized full-job duration on the current platform (pro-rata base
    #: for migration).
    runtime_current: float = float("nan")
    #: Co-resident workloads at (last) placement — the interference set
    #: the realized runtime was drawn under.
    placed_co: tuple[int, ...] = ()
    migrations: int = 0
    completed: bool = False
    deadline_violated: bool = False
    budget_violated: bool = False


@dataclass
class EpochStats:
    """One epoch's scheduler metrics (a row of the violations table)."""

    epoch: int
    multiplier: float
    arrivals: int = 0
    placed: int = 0
    rejected: int = 0
    completions: int = 0
    deadline_violations: int = 0
    budget_violations: int = 0
    migrations: int = 0
    #: Occupied slots / total slots at the epoch boundary.
    utilization: float = 0.0
    #: Wall-clock spent inside policy decisions (provenance metric; the
    #: only non-deterministic field).
    decision_seconds: float = 0.0
    decisions: int = 0
    generation: int = 0
    promoted: bool = False
    reset: bool = False

    def as_dict(self) -> dict:
        out = asdict(self)
        out["placement_rate"] = (
            self.placed / self.arrivals if self.arrivals else None
        )
        out["deadline_violation_rate"] = (
            self.deadline_violations / self.completions
            if self.completions
            else None
        )
        out["budget_violation_rate"] = (
            self.budget_violations / self.completions
            if self.completions
            else None
        )
        return out


@dataclass
class SimulationResult:
    """Everything one :meth:`ClusterSimulator.run` produced."""

    policy: str
    epsilon: float
    epochs: list[EpochStats] = field(default_factory=list)
    #: Deterministic event trace: ``(kind, time, *details)`` tuples.
    events: list[tuple] = field(default_factory=list)
    jobs: list[SimJob] = field(default_factory=list)

    def totals(self) -> dict:
        """Whole-run aggregates over the epoch rows."""
        arrivals = sum(e.arrivals for e in self.epochs)
        placed = sum(e.placed for e in self.epochs)
        completions = sum(e.completions for e in self.epochs)
        decisions = sum(e.decisions for e in self.epochs)
        seconds = sum(e.decision_seconds for e in self.epochs)
        return {
            "arrivals": arrivals,
            "placed": placed,
            "completions": completions,
            "placement_rate": placed / arrivals if arrivals else None,
            "deadline_violation_rate": (
                sum(e.deadline_violations for e in self.epochs) / completions
                if completions
                else None
            ),
            "budget_violation_rate": (
                sum(e.budget_violations for e in self.epochs) / completions
                if completions
                else None
            ),
            "migrations": sum(e.migrations for e in self.epochs),
            "promotions": sum(1 for e in self.epochs if e.promoted),
            "mean_decision_ms": (
                1e3 * seconds / decisions if decisions else None
            ),
            "decisions_per_second": (
                decisions / seconds if seconds > 0 else None
            ),
        }

    def violation_rate(
        self, epochs: list[int] | None = None, kind: str = "budget"
    ) -> float | None:
        """Violations / completions over ``epochs`` (all when ``None``)."""
        rows = [
            e for e in self.epochs if epochs is None or e.epoch in epochs
        ]
        completions = sum(e.completions for e in rows)
        if not completions:
            return None
        key = (
            "budget_violations" if kind == "budget" else "deadline_violations"
        )
        return sum(getattr(e, key) for e in rows) / completions


def epoch_multipliers(drift, n_epochs: int) -> list[float]:
    """Per-epoch drift multiplier: the spec's phases spread evenly over
    the horizon (all ``1.0`` when the spec has no drift stream)."""
    if drift is None or not drift.enabled:
        return [1.0] * n_epochs
    phases = drift.phases
    return [
        float(phases[min(e * len(phases) // max(n_epochs, 1), len(phases) - 1)])
        for e in range(n_epochs)
    ]


def world_calibration_window(
    world: FleetWorld,
    dataset: RuntimeDataset,
    n_events: int,
    multiplier: float,
    seed: int,
) -> RuntimeDataset:
    """A calibration window drawn from the *world*, not the trace.

    Re-samples (workload, platform, interferer) rows from the dataset
    and replaces their runtimes with world draws at ``multiplier`` — the
    observations a deployment would have collected before the horizon
    starts. Calibrating on this window puts both the static and the
    adaptive scheduler in honest ε-coverage against the world at epoch
    0; everything after that is drift.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, dataset.n_observations, size=n_events)
    degrees = interference_pools(dataset.interferers[rows], n_events)
    runtime = world.sample_batch(
        dataset.w_idx[rows], dataset.p_idx[rows], degrees - 1, multiplier, rng
    )
    return RuntimeDataset(
        w_idx=dataset.w_idx[rows],
        p_idx=dataset.p_idx[rows],
        interferers=dataset.interferers[rows],
        runtime=runtime,
        workload_features=dataset.workload_features,
        platform_features=dataset.platform_features,
    )


class ClusterSimulator:
    """Discrete-event fleet scheduler simulation (see module docs).

    Parameters
    ----------
    world:
        Ground-truth runtime generator.
    service:
        ``predict_bound`` provider the scheduler quotes from. Ignored
        (and may be ``None``) when ``lifecycle`` is given — the
        manager's live service is used so promotions reach the
        scheduler atomically.
    scheduling:
        The :class:`~repro.scenarios.SchedulingSpec` knobs (policy,
        horizon, arrival volume, slack, migration, cadence).
    epsilon:
        Miscoverage rate of every quoted budget.
    multipliers:
        Per-epoch drift multiplier (length ``scheduling.epochs``;
        see :func:`epoch_multipliers`).
    seed:
        Drives the arrival schedule, world noise, and policy/update
        randomness (four independent streams).
    lifecycle:
        Optional :class:`~repro.lifecycle.LifecycleManager`: completed
        observations are ingested and every ``recalibrate_every`` epochs
        the loop warm-updates, recalibrates, and promotes.
    update_steps:
        Warm-start gradient steps per lifecycle update burst.
    reset_miscoverage:
        Change-point guard (as in the lifecycle replay): when an epoch's
        budget-violation rate exceeds ``reset_miscoverage × ε`` the
        rolling window is cleared before ingesting, so the next
        recalibration keys on the new regime. ``None`` disables.
    probe_source:
        Dataset supplying the (workload, platform, interferer) row mix
        the profiling sidecar samples (``scheduling.probes_per_epoch``
        world draws per epoch, at the epoch's drift multiplier).
        Completed jobs alone are a length-biased calibration sample —
        the probes restore the uncensored view. Required when
        ``probes_per_epoch > 0`` and a lifecycle is attached.

    Epoch events are batched: migration screening quotes are scored in
    one :meth:`BudgetOracle.budgets_arrays` batch across all co-resident
    platforms, probe draws use :meth:`FleetWorld.sample_batch`, and the
    open-platform scan reads an incrementally-maintained occupancy
    array. The historical per-platform Python loops are a test oracle
    (``tests/reference_paths.py``) the trace-parity tests compare
    against.
    """

    def __init__(
        self,
        world: FleetWorld,
        service,
        scheduling: SchedulingSpec,
        *,
        epsilon: float,
        multipliers: list[float] | None = None,
        seed: int = 0,
        lifecycle=None,
        update_steps: int = 100,
        reset_miscoverage: float | None = None,
        probe_source: RuntimeDataset | None = None,
    ) -> None:
        if scheduling.policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown policy {scheduling.policy!r}; "
                f"known: {SCHEDULER_POLICIES}"
            )
        self.world = world
        self.scheduling = scheduling
        self.lifecycle = lifecycle
        self.service = lifecycle.service if lifecycle is not None else service
        if self.service is None:
            raise ValueError("either service or lifecycle is required")
        self.epsilon = float(epsilon)
        self.multipliers = (
            [1.0] * scheduling.epochs if multipliers is None else multipliers
        )
        if len(self.multipliers) != scheduling.epochs:
            raise ValueError(
                f"need one multiplier per epoch "
                f"({len(self.multipliers)} != {scheduling.epochs})"
            )
        self.update_steps = update_steps
        self.reset_miscoverage = reset_miscoverage
        self.probe_source = probe_source
        if (
            lifecycle is not None
            and scheduling.probes_per_epoch > 0
            and probe_source is None
        ):
            raise ValueError(
                "probes_per_epoch > 0 needs a probe_source dataset"
            )
        self.seed = seed
        self.oracle = BudgetOracle(self.service, self.epsilon)
        self.epoch_seconds = self._epoch_seconds()
        #: Per-workload deadline anchors: expected isolation runtime on
        #: a median platform.
        p_ref = float(np.median(world.p_base)) if world.n_platforms else 0.0
        self._ref_runtimes = (
            np.exp(world.w_base + p_ref + world.degree_offsets[0])
            if world.n_workloads
            else np.empty(0)
        )

    # ------------------------------------------------------------------
    # Schedule generation
    # ------------------------------------------------------------------
    def _epoch_seconds(self) -> float:
        """Epoch length targeting ``scheduling.load`` slot utilization."""
        sched = self.scheduling
        capacity = self.world.n_platforms * sched.max_residents
        mean = self.world.mean_runtime() if self.world.n_workloads else 1.0
        if capacity == 0 or sched.jobs_per_epoch == 0:
            return max(mean, 1e-9)
        return max(
            sched.jobs_per_epoch * mean / (capacity * sched.load), 1e-9
        )

    def _arrival_schedule(self, rng: np.random.Generator) -> list[SimJob]:
        """Every arrival of the horizon, pre-drawn (policy-independent)."""
        sched = self.scheduling
        jobs: list[SimJob] = []
        lo, hi = sched.deadline_slack
        for epoch in range(sched.epochs):
            base = epoch * self.epoch_seconds
            offsets = np.sort(rng.random(sched.jobs_per_epoch))
            workloads = rng.integers(
                0, max(self.world.n_workloads, 1), size=sched.jobs_per_epoch
            )
            slacks = rng.uniform(lo, hi, size=sched.jobs_per_epoch)
            for i in range(sched.jobs_per_epoch):
                jobs.append(
                    SimJob(
                        job_id=len(jobs),
                        workload=int(workloads[i]),
                        arrival=float(base + offsets[i] * self.epoch_seconds),
                        slack=float(slacks[i]),
                    )
                )
        return jobs

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Play the horizon; returns per-epoch metrics + event trace."""
        sched = self.scheduling
        arrival_rng = np.random.default_rng(self.seed)
        self._world_rng = np.random.default_rng(self.seed + 1)
        self._policy_rng = np.random.default_rng(self.seed + 2)
        update_rng = np.random.default_rng(self.seed + 3)
        self._probe_rng = np.random.default_rng(self.seed + 4)

        jobs = self._arrival_schedule(arrival_rng)
        result = SimulationResult(
            policy=sched.policy, epsilon=self.epsilon, jobs=jobs
        )
        self._result = result
        self._stats = [
            EpochStats(epoch=e, multiplier=self.multipliers[e])
            for e in range(sched.epochs)
        ]
        result.epochs = self._stats
        self._residents: dict[int, list[int]] = {
            p: [] for p in range(self.world.n_platforms)
        }
        #: Incremental occupancy: ``len(self._residents[p])`` for all p,
        #: maintained at the three mutation points (start / completion /
        #: migration) so the per-arrival open-platform scan is one
        #: vectorized comparison instead of a Python comprehension.
        self._n_res = np.zeros(self.world.n_platforms, dtype=np.intp)
        #: Resident workloads / deadlines per platform slot, kept in
        #: resident-*list* order (removals shift left) so rows read back
        #: exactly the co-tuples ``_co_workloads`` would build. ``-1`` /
        #: ``inf`` padded; the batched candidate scan slices these
        #: directly instead of rebuilding tuples per decision.
        self._res_w = np.full(
            (self.world.n_platforms, MAX_RESIDENTS), -1, dtype=np.intp
        )
        self._res_dl = np.full((self.world.n_platforms, MAX_RESIDENTS), np.inf)
        #: Per-workload scratch for the candidate scan's deadline map.
        self._dl_scratch = np.full(max(self.world.n_workloads, 1), np.inf)
        self._jobs = {job.job_id: job for job in jobs}
        self._flow_queue: list[SimJob] = []
        self._pending_obs: list[tuple[int, int, tuple[int, ...], float]] = []
        self._epoch_completions = 0
        self._epoch_budget_violations = 0

        heap: list[tuple[float, int, int, int]] = []
        seq = 0
        for job in jobs:
            heapq.heappush(heap, (job.arrival, _ARRIVAL, seq, job.job_id))
            seq += 1
        for epoch in range(sched.epochs):
            heapq.heappush(
                heap,
                ((epoch + 1) * self.epoch_seconds, _EPOCH_END, seq, epoch),
            )
            seq += 1

        while heap:
            t, kind, _, payload = heapq.heappop(heap)
            if kind == _COMPLETION:
                self._on_completion(t, self._jobs[payload])
            elif kind == _ARRIVAL:
                seq = self._on_arrival(t, self._jobs[payload], heap, seq)
            else:
                seq = self._on_epoch_end(t, payload, heap, seq, update_rng)
        return result

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _epoch_of(self, t: float) -> int:
        return min(
            int(t / self.epoch_seconds), self.scheduling.epochs - 1
        )

    def _multiplier_at(self, t: float) -> float:
        return self.multipliers[self._epoch_of(t)]

    def _co_workloads(self, platform: int, skip: int | None = None) -> list[int]:
        return [
            self._jobs[j].workload
            for j in self._residents[platform]
            if j != skip
        ]

    def _on_arrival(self, t: float, job: SimJob, heap, seq: int) -> int:
        stats = self._stats[self._epoch_of(t)]
        stats.arrivals += 1
        if not self.world.n_workloads:
            job.deadline = job.slack
        else:
            job.deadline = (
                job.slack
                * float(self._ref_runtimes[job.workload])
                * self._multiplier_at(t)
            )
        self._result.events.append(
            ("arrival", t, job.job_id, job.workload)
        )
        if self.scheduling.policy == "flow":
            # Batch scheduling: placed together at the epoch boundary.
            self._flow_queue.append(job)
            return seq
        started = time.perf_counter()
        platform = self._decide(job)
        stats.decision_seconds += time.perf_counter() - started
        stats.decisions += 1
        if platform is None:
            stats.rejected += 1
            self._result.events.append(("reject", t, job.job_id))
            return seq
        return self._start(t, job, platform, heap, seq,
                           epoch=self._epoch_of(t))

    def _open_platforms(self) -> list[int]:
        """Platforms with spare capacity, ascending: one comparison over
        the occupancy array."""
        return np.flatnonzero(
            self._n_res < self.scheduling.max_residents
        ).tolist()

    def _decide(self, job: SimJob) -> int | None:
        """One placement decision under the active policy."""
        policy = self.scheduling.policy
        open_platforms = self._open_platforms()
        if not open_platforms:
            return None
        if policy == "random":
            choice = int(
                open_platforms[self._policy_rng.integers(len(open_platforms))]
            )
            job.quote = self.oracle.budget(
                job.workload, choice, self._co_workloads(choice)
            )
            return choice
        if policy == "utilization":
            choice = min(open_platforms, key=lambda p: len(self._residents[p]))
            job.quote = self.oracle.budget(
                job.workload, choice, self._co_workloads(choice)
            )
            return choice
        if policy == "admission":
            # The job arrives at one platform; admit or reject there.
            target = int(self._policy_rng.integers(self.world.n_platforms))
            if target not in open_platforms:
                return None
            candidates = [target]
        else:  # greedy
            candidates = open_platforms
        budgets, reval_ok = self._scan_candidates(job.workload, candidates)
        feasible = (budgets <= job.deadline) & reval_ok
        if not feasible.any():
            return None
        best = int(np.argmin(np.where(feasible, budgets, np.inf)))
        job.quote = float(budgets[best])
        return int(candidates[best])

    def _scan_candidates(
        self, workload: int, candidates: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized candidate scan over *open* platforms.

        Returns ``(budgets, reval_ok)``: the job's ε-budget on each
        candidate and whether every prospective co-resident's
        revalidated budget stays within its deadline (the global
        per-workload minimum across the candidate set, exactly as
        :meth:`BudgetOracle.check_candidates`'s merged ``deadline_of``
        map). One
        ``predict_bound`` batch; rows are sliced from the incremental
        slot matrices instead of rebuilt as tuples.
        """
        C = np.asarray(candidates, dtype=np.intp)
        k = self._n_res[C]
        n_c = len(C)
        # Job rows: the arriving workload among each candidate's
        # residents. Open platforms hold <= MAX_RESIDENTS - 1 co-
        # residents, so the first MAX_INTERFERERS slots carry them all.
        co_job = self._res_w[C][:, :MAX_INTERFERERS]
        n_rev = int(k.sum())
        if n_rev:
            # Revalidation rows: resident i on platform p sees its
            # co-residents minus itself, plus the arriving job —
            # list-order preserved, exactly `_candidate_rows`.
            p_rev = np.repeat(C, k)
            ii = np.arange(n_rev) - np.repeat(np.cumsum(k) - k, k)
            w_rev = self._res_w[p_rev, ii]
            block = self._res_w[p_rev]
            keep = np.arange(MAX_RESIDENTS)[None, :] != ii[:, None]
            others = block[keep].reshape(n_rev, MAX_RESIDENTS - 1)[
                :, :MAX_INTERFERERS
            ]
            k_row = np.repeat(k, k)
            others[np.arange(n_rev), k_row - 1] = workload
            w_all = np.concatenate(
                [np.full(n_c, workload, dtype=np.intp), w_rev]
            )
            p_all = np.concatenate([C, p_rev])
            co_all = np.concatenate([co_job, others])
        else:
            w_all = np.full(n_c, workload, dtype=np.intp)
            p_all, co_all = C, np.ascontiguousarray(co_job)
        values = self.oracle.budgets_arrays(w_all, p_all, co_all)
        budgets = values[:n_c]
        reval_ok = np.ones(n_c, dtype=bool)
        if n_rev:
            dl_of = self._dl_scratch
            dl_of.fill(np.inf)
            flat_w = self._res_w[C].ravel()
            flat_dl = self._res_dl[C].ravel()
            valid = flat_w >= 0
            np.minimum.at(dl_of, flat_w[valid], flat_dl[valid])
            bad = values[n_c:] > dl_of[w_rev]
            np.logical_and.at(reval_ok, np.repeat(np.arange(n_c), k), ~bad)
        return budgets, reval_ok

    def _start(
        self, t: float, job: SimJob, platform: int, heap, seq: int,
        epoch: int,
    ) -> int:
        co = self._co_workloads(platform)
        job.platform = platform
        job.placed_co = tuple(co)
        job.start = t
        if not np.isfinite(job.quote):
            job.quote = self.oracle.budget(job.workload, platform, co)
        job.runtime_current = self.world.sample(
            job.workload, platform, len(co), self._multiplier_at(t),
            self._world_rng,
        )
        job.completion = t + job.runtime_current
        self._admit(job, platform)
        # The caller names the epoch: a flow flush starts jobs at the
        # epoch-end sentinel, whose timestamp already rounds into the
        # *next* epoch's bucket.
        stats = self._stats[epoch]
        stats.placed += 1
        self._result.events.append(("place", t, job.job_id, platform))
        heapq.heappush(heap, (job.completion, _COMPLETION, seq, job.job_id))
        return seq + 1

    def _admit(self, job: SimJob, platform: int) -> None:
        """Register a job on a platform (resident list + slot matrices)."""
        slot = len(self._residents[platform])
        self._residents[platform].append(job.job_id)
        self._n_res[platform] += 1
        self._res_w[platform, slot] = job.workload
        self._res_dl[platform, slot] = job.deadline

    def _evict(self, job: SimJob) -> None:
        """Remove a job from its platform, shifting later slots left so
        the matrices stay in resident-list order."""
        platform = job.platform
        slot = self._residents[platform].index(job.job_id)
        self._residents[platform].remove(job.job_id)
        self._n_res[platform] -= 1
        row_w, row_dl = self._res_w[platform], self._res_dl[platform]
        row_w[slot:-1] = row_w[slot + 1 :]
        row_w[-1] = -1
        row_dl[slot:-1] = row_dl[slot + 1 :]
        row_dl[-1] = np.inf

    def _on_completion(self, t: float, job: SimJob) -> None:
        if job.completed or job.completion != t:
            return  # stale event from before a migration
        job.completed = True
        self._evict(job)
        elapsed = t - job.start
        job.deadline_violated = elapsed > job.deadline
        job.budget_violated = elapsed > job.quote
        stats = self._stats[self._epoch_of(t)]
        stats.completions += 1
        stats.deadline_violations += int(job.deadline_violated)
        stats.budget_violations += int(job.budget_violated)
        self._epoch_completions += 1
        self._epoch_budget_violations += int(job.budget_violated)
        self._result.events.append(
            (
                "complete",
                t,
                job.job_id,
                job.platform,
                int(job.deadline_violated),
                int(job.budget_violated),
            )
        )
        if self.lifecycle is not None and job.migrations == 0:
            # Migrated jobs span platforms; their end-to-end duration is
            # not an observation of any single (w, p, co) cell.
            self._pending_obs.append(
                (job.workload, job.platform, job.placed_co, elapsed)
            )

    def _on_epoch_end(
        self, t: float, epoch: int, heap, seq: int, update_rng
    ) -> int:
        stats = self._stats[epoch]
        if self.scheduling.policy == "flow":
            seq = self._flush_flow_queue(t, epoch, heap, seq)
        if self.scheduling.migrate:
            seq = self._migration_pass(t, epoch, heap, seq)
        self._lifecycle_tick(t, epoch, update_rng)
        capacity = self.world.n_platforms * self.scheduling.max_residents
        occupied = sum(len(r) for r in self._residents.values())
        stats.utilization = occupied / capacity if capacity else 0.0
        stats.generation = getattr(self.service, "generation", 0)
        return seq

    # ------------------------------------------------------------------
    # Flow batch placement
    # ------------------------------------------------------------------
    def _flush_flow_queue(self, t: float, epoch: int, heap, seq: int) -> int:
        """Place the epoch's queued arrivals as min-cost-flow batches.

        ``PlacementProblem`` keys jobs by workload index, so each pass
        peels a maximal unique-workload prefix off the queue (repeat
        workloads wait for the next pass within the same flush).
        """
        queue, self._flow_queue = self._flow_queue, []
        stats = self._stats[epoch]
        while queue:
            batch: list[SimJob] = []
            rest: list[SimJob] = []
            seen: set[int] = set()
            for job in queue:
                if job.workload in seen:
                    rest.append(job)
                else:
                    seen.add(job.workload)
                    batch.append(job)
            started = time.perf_counter()
            occupied = {
                p: tuple(self._co_workloads(p))
                for p in range(self.world.n_platforms)
                if self._residents[p]
            }
            occupied_deadlines: dict[int, float] = {}
            for p in occupied:
                for job_id in self._residents[p]:
                    resident = self._jobs[job_id]
                    prev = occupied_deadlines.get(resident.workload)
                    if prev is None or resident.deadline < prev:
                        occupied_deadlines[resident.workload] = resident.deadline
            if self.world.n_platforms:
                problem = PlacementProblem(
                    predictor=self.service,
                    jobs=tuple(job.workload for job in batch),
                    deadlines=tuple(job.deadline for job in batch),
                    platforms=tuple(range(self.world.n_platforms)),
                    epsilon=self.epsilon,
                    max_residents=self.scheduling.max_residents,
                    occupied=occupied,
                    occupied_deadlines=occupied_deadlines,
                )
                placement = flow_placement(problem, self.oracle)
            else:
                placement = None
            stats.decision_seconds += time.perf_counter() - started
            stats.decisions += len(batch)
            for job in batch:
                platform = (
                    placement.assignment.get(job.workload)
                    if placement is not None
                    else None
                )
                if platform is None:
                    stats.rejected += 1
                    self._result.events.append(("reject", t, job.job_id))
                    continue
                job.quote = placement.budgets[job.workload]
                seq = self._start(t, job, platform, heap, seq, epoch=epoch)
            queue = rest
        return seq

    # ------------------------------------------------------------------
    # Migration on deadline risk
    # ------------------------------------------------------------------
    def _migration_pass(self, t: float, epoch: int, heap, seq: int) -> int:
        """Move at-risk running jobs to platforms where they still fit.

        Risk test under the *current* generation: with fraction ``f`` of
        the job's work remaining, it misses its deadline if
        ``(t - start) + f·b_p`` exceeds the allowance, where ``b_p`` is
        the live budget on its platform. (The work fraction is
        observable in deployments via progress counters.)

        Every running job's screening quote is scored in **one**
        :meth:`BudgetOracle.budgets_arrays` batch across all co-resident
        platforms. Migrations are rare relative to running jobs, so only
        jobs whose platform's resident set changed mid-pass (an earlier
        job moved in or out) fall back to a fresh single-row quote;
        every decision is identical to quoting each job as the pass
        reaches it.
        """
        stats = self._stats[epoch]
        at_risk = self._at_risk(t)
        if not at_risk:
            return seq
        # One fleet-wide screening batch: each job among its current
        # co-residents (own slot masked out of the platform row).
        w_j = np.array([j.workload for j, _, _ in at_risk], dtype=np.intp)
        p_j = np.array([j.platform for j, _, _ in at_risk], dtype=np.intp)
        slots = np.array(
            [
                self._residents[j.platform].index(j.job_id)
                for j, _, _ in at_risk
            ],
            dtype=np.intp,
        )
        block = self._res_w[p_j]
        keep = np.arange(MAX_RESIDENTS)[None, :] != slots[:, None]
        co = block[keep].reshape(len(at_risk), MAX_RESIDENTS - 1)
        quotes = self.oracle.budgets_arrays(w_j, p_j, co)
        #: Platforms whose resident set changed during this pass — their
        #: pre-batched quotes are stale and get re-scored one-off.
        dirty: set[int] = set()
        for i, (job, fraction, allowance) in enumerate(at_risk):
            if job.platform not in dirty:
                quote_here = float(quotes[i])
            else:
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

    def _at_risk(self, t: float) -> list[tuple[SimJob, float, float]]:
        """``(job, fraction, allowance)`` for every running job with work
        left, in job-id order. Fraction and allowance are job-local, so
        computing them ahead of the migration loop changes nothing."""
        running = sorted(
            job_id
            for residents in self._residents.values()
            for job_id in residents
        )
        at_risk: list[tuple[SimJob, float, float]] = []
        for job_id in running:
            job = self._jobs[job_id]
            remaining = job.completion - t
            if remaining <= 0 or job.runtime_current <= 0:
                continue
            at_risk.append(
                (
                    job,
                    remaining / job.runtime_current,
                    job.deadline - (t - job.start),
                )
            )
        return at_risk

    def _try_migrate(
        self,
        t: float,
        job: SimJob,
        fraction: float,
        allowance: float,
        stats: EpochStats,
        heap,
        seq: int,
        dirty: set[int],
    ) -> int:
        """Candidate-scan one at-risk job and move it if somewhere fits."""
        candidates = [
            p for p in self._open_platforms() if p != job.platform
        ]
        if not candidates:
            return seq
        budgets, reval_ok = self._scan_candidates(job.workload, candidates)
        ok = reval_ok & (fraction * budgets <= allowance)
        if not ok.any():
            return seq
        best_i = int(np.argmin(np.where(ok, budgets, np.inf)))
        best = int(candidates[best_i])
        self._evict(job)
        source = job.platform
        co = self._co_workloads(best)
        job.platform = best
        job.placed_co = tuple(co)
        job.runtime_current = self.world.sample(
            job.workload, best, len(co), self._multiplier_at(t),
            self._world_rng,
        )
        job.completion = t + fraction * job.runtime_current
        job.migrations += 1
        self._admit(job, best)
        dirty.add(source)
        dirty.add(best)
        stats.migrations += 1
        self._result.events.append(
            ("migrate", t, job.job_id, source, best)
        )
        heapq.heappush(
            heap, (job.completion, _COMPLETION, seq, job.job_id)
        )
        return seq + 1

    # ------------------------------------------------------------------
    # Lifecycle hook
    # ------------------------------------------------------------------
    def _lifecycle_tick(self, t: float, epoch: int, update_rng) -> None:
        if self.lifecycle is None:
            return
        stats = self._stats[epoch]
        if (
            self.reset_miscoverage is not None
            and self._epoch_completions > 0
            and self._epoch_budget_violations / self._epoch_completions
            > self.reset_miscoverage * self.epsilon
            and self.lifecycle.margin.mode != "weighted"
        ):
            # Change-point: this epoch's violations are a regime change,
            # not noise — recalibrate on the new regime alone. Under
            # recency-weighted margins the hard reset softens into the
            # margin's own exponential downweighting (see run_lifecycle).
            self.lifecycle.buffer.clear()
            stats.reset = True
        self._epoch_completions = 0
        self._epoch_budget_violations = 0
        if self._pending_obs:
            w = np.array([o[0] for o in self._pending_obs], dtype=np.intp)
            p = np.array([o[1] for o in self._pending_obs], dtype=np.intp)
            co = pad_interferers([o[2] for o in self._pending_obs])
            runtime = np.array([o[3] for o in self._pending_obs])
            self.lifecycle.ingest(w, p, co, runtime)
            self._pending_obs = []
        n_probes = self.scheduling.probes_per_epoch
        if n_probes > 0 and self.probe_source is not None:
            source = self.probe_source
            rows = self._probe_rng.integers(
                0, source.n_observations, size=n_probes
            )
            degrees = interference_pools(source.interferers[rows], n_probes)
            runtime = self.world.sample_batch(
                source.w_idx[rows],
                source.p_idx[rows],
                degrees - 1,
                self.multipliers[epoch],
                self._probe_rng,
            )
            self.lifecycle.ingest(
                source.w_idx[rows],
                source.p_idx[rows],
                source.interferers[rows],
                runtime,
            )
        cadence = self.scheduling.recalibrate_every
        if (epoch + 1) % cadence == 0 and self.lifecycle.ready_to_recalibrate():
            self.lifecycle.update(steps=self.update_steps, rng=update_rng)
            fresh = self.lifecycle.recalibrate()
            self.lifecycle.promote(fresh)
            stats.promoted = True
            self._result.events.append(
                ("promote", t, self.service.generation)
            )


# ----------------------------------------------------------------------
# The pipeline artifact
# ----------------------------------------------------------------------
@dataclass
class ScheduleReport:
    """The ``simulate`` stage's artifact: adaptive vs static, per epoch.

    Everything is plain JSON-serializable data (epoch rows are
    :meth:`EpochStats.as_dict` dicts) so the artifact stays diffable and
    jq-readable like every other stage output.
    """

    scenario: str
    policy: str
    epsilon: float
    n_platforms: int
    epoch_seconds: float
    multipliers: list[float]
    adaptive: list[dict]
    static: list[dict]
    summary: dict

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScheduleReport":
        return cls(**payload)


def _steady_epochs(multipliers: list[float]) -> list[int]:
    """Epoch ids of the final drift regime, minus its adaptation edge.

    The acceptance metric is *steady-state* violation under the last
    regime: the first two epochs after a step change are the window the
    rolling recalibration needs to turn over, so they are attributed to
    adaptation, not steady state (when the regime is too short to drop
    them, its later half is used).
    """
    if not multipliers:
        return []
    last = multipliers[-1]
    start = len(multipliers)
    while start > 0 and multipliers[start - 1] == last:
        start -= 1
    ids = list(range(start, len(multipliers)))
    drop = min(2, max(len(ids) - 1, 0))
    return ids[drop:]


def build_schedule_report(
    scenario: str,
    adaptive: SimulationResult,
    static: SimulationResult,
    multipliers: list[float],
    n_platforms: int,
    epoch_seconds: float,
) -> ScheduleReport:
    """Assemble the stage artifact from the two simulation runs."""
    steady = _steady_epochs(multipliers)
    adaptive_steady = adaptive.violation_rate(steady)
    static_steady = static.violation_rate(steady)
    summary = {
        "epsilon": adaptive.epsilon,
        "steady_epochs": steady,
        "adaptive": adaptive.totals(),
        "static": static.totals(),
        "steady_budget_violation_adaptive": adaptive_steady,
        "steady_budget_violation_static": static_steady,
        "degradation": (
            static_steady / adaptive_steady
            if adaptive_steady and static_steady is not None
            else None
        ),
    }
    return ScheduleReport(
        scenario=scenario,
        policy=adaptive.policy,
        epsilon=adaptive.epsilon,
        n_platforms=n_platforms,
        epoch_seconds=epoch_seconds,
        multipliers=list(multipliers),
        adaptive=[e.as_dict() for e in adaptive.epochs],
        static=[e.as_dict() for e in static.epochs],
        summary=summary,
    )
