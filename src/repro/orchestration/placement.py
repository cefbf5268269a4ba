"""Deadline-aware workload placement on conformal runtime budgets.

The paper's opening motivation: "runtime performance measures are crucial
for edge orchestration frameworks that aim to ensure workload performance
by placing them on different available platforms" (Sec 1). This module is
that consumer, built on Pitot's calibrated bounds: a placement is
*feasible* when every job's ε-budget — including interference from its
co-residents — meets its deadline.

Two planners are provided:

* :func:`greedy_placement` — earliest-deadline-first greedy with
  co-resident revalidation; fast, good when load is moderate.
* :func:`flow_placement` — global assignment via min-cost flow on the
  job → (platform, slot-state) feasibility graph built from the greedy
  residual; rescues jobs the greedy pass strands.

Both are interference-aware: adding a job to a platform re-checks the
budgets of everything already there. All bound queries flow through a
shared :class:`~repro.orchestration.BudgetOracle`, which scores a job's
entire candidate scan (own budget on every open platform plus every
co-resident revalidation row) in one vectorized ``predict_bound`` batch
— the planners are consumers of that score matrix, so a
:class:`~repro.serving.PredictionService` behind the oracle serves a
whole decision from one batched forward instead of thousands of one-row
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .oracle import BudgetOracle

__all__ = ["PlacementProblem", "PlacementResult", "greedy_placement", "flow_placement"]

#: Pitot models at most 3 interferers (4-way); a platform therefore holds
#: at most 4 co-resident jobs, but planners may set a lower limit.
MAX_RESIDENTS = 4


@dataclass(frozen=True)
class PlacementProblem:
    """One placement instance.

    Attributes
    ----------
    predictor:
        Calibrated bound predictor: must expose
        ``predict_bound(w_idx, p_idx, interferers, epsilon) → seconds``.
    jobs:
        Workload indices to place.
    deadlines:
        Seconds allowed per job (aligned with ``jobs``).
    platforms:
        Candidate platform indices.
    epsilon:
        Miscoverage rate for the budgets (e.g. 0.05 = 95% confidence).
    max_residents:
        Co-location cap per platform (≤ 4; interference model limit).
    occupied:
        Pre-existing residents per platform (platform → workload
        indices): the warm-cluster case the simulator plans into. They
        consume capacity and are revalidated like any co-resident, but
        are never reassigned.
    occupied_deadlines:
        Deadline per occupied workload (required for every workload in
        ``occupied``).
    """

    predictor: object
    jobs: tuple[int, ...]
    deadlines: tuple[float, ...]
    platforms: tuple[int, ...]
    epsilon: float = 0.05
    max_residents: int = 3
    occupied: dict[int, tuple[int, ...]] = field(default_factory=dict)
    occupied_deadlines: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.jobs) != len(self.deadlines):
            raise ValueError("jobs and deadlines must align")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 1 <= self.max_residents <= MAX_RESIDENTS:
            raise ValueError(f"max_residents must be in [1, {MAX_RESIDENTS}]")
        if any(d <= 0 for d in self.deadlines):
            raise ValueError("deadlines must be positive")
        for platform, residents in self.occupied.items():
            if platform not in self.platforms:
                raise ValueError(f"occupied platform {platform} not a candidate")
            if len(residents) > self.max_residents:
                raise ValueError(
                    f"platform {platform} starts over capacity "
                    f"({len(residents)} > {self.max_residents})"
                )
            for workload in residents:
                if workload not in self.occupied_deadlines:
                    raise ValueError(
                        f"occupied workload {workload} has no deadline"
                    )
        # Built exactly once: planners read this mapping inside their
        # inner loops, and rebuilding it per property access used to
        # dominate small-instance planning time. On a (rare) workload
        # collision between a job and an occupied resident, the tighter
        # deadline wins: revalidation must protect the running
        # resident's real deadline, never a looser arrival's.
        merged = dict(self.occupied_deadlines)
        for job, deadline in zip(self.jobs, self.deadlines):
            prev = merged.get(job)
            merged[job] = deadline if prev is None else min(prev, deadline)
        object.__setattr__(self, "_deadline_of", merged)

    @property
    def deadline_of(self) -> dict[int, float]:
        """Workload → deadline mapping (constructed once at init);
        covers both the jobs being placed and any occupied residents."""
        return self._deadline_of

    def oracle(self) -> BudgetOracle:
        """A :class:`BudgetOracle` over this problem's predictor/ε."""
        return BudgetOracle(self.predictor, self.epsilon)


@dataclass
class PlacementResult:
    """Outcome of a planner run."""

    assignment: dict[int, int | None] = field(default_factory=dict)
    residents: dict[int, list[int]] = field(default_factory=dict)
    budgets: dict[int, float] = field(default_factory=dict)

    @property
    def placed(self) -> list[int]:
        return [j for j, p in self.assignment.items() if p is not None]

    @property
    def unplaced(self) -> list[int]:
        return [j for j, p in self.assignment.items() if p is None]

    def utilization(self) -> dict[int, int]:
        """Resident count per platform."""
        return {p: len(r) for p, r in self.residents.items()}


def greedy_placement(
    problem: PlacementProblem, oracle: BudgetOracle | None = None
) -> PlacementResult:
    """Earliest-deadline-first greedy with tightest-fit platform choice.

    Each job's whole platform scan — own budget plus co-resident
    revalidations on every platform with spare capacity — is scored in
    one oracle batch; the tightest feasible fit wins (first platform in
    ``problem.platforms`` order on ties, matching the historical scalar
    loop bit for bit).
    """
    if oracle is None:
        oracle = problem.oracle()
    result = PlacementResult(
        residents={
            p: list(problem.occupied.get(p, ())) for p in problem.platforms
        }
    )
    deadline_of = problem.deadline_of
    order = np.argsort(problem.deadlines)
    for idx in order:
        job = problem.jobs[idx]
        candidates = [
            p for p in problem.platforms
            if len(result.residents[p]) < problem.max_residents
        ]
        checks = oracle.check_candidates(
            job, deadline_of[job], candidates, result.residents, deadline_of
        )
        best_platform, best_budget = None, np.inf
        for check in checks:
            if check.feasible and check.budget < best_budget:
                best_platform, best_budget = check.platform, check.budget
        result.assignment[job] = best_platform
        if best_platform is not None:
            result.residents[best_platform].append(job)
            result.budgets[job] = best_budget
    return result


def flow_placement(
    problem: PlacementProblem, oracle: BudgetOracle | None = None
) -> PlacementResult:
    """Greedy pass + min-cost-flow rescue of stranded jobs.

    The flow graph connects each unplaced job to every platform with
    spare capacity where the job fits *given the current residents*;
    edge costs prefer tight fits (less wasted headroom) and the whole
    job × platform feasibility matrix is scored in one oracle batch. A
    high-cost "drop" edge keeps the problem always feasible.

    Platform arcs carry their full spare capacity, so one platform can
    absorb several stranded jobs; because the feasibility edges were
    scored against pre-rescue residents, accepted rescues are applied
    earliest-deadline-first with a revalidation check against the
    platform's *current* residents — a rescue that a previously accepted
    rescue invalidated is dropped instead of violating a deadline.
    """
    if oracle is None:
        oracle = problem.oracle()
    result = greedy_placement(problem, oracle)
    unplaced = result.unplaced
    if not unplaced:
        return result
    deadline_of = problem.deadline_of

    open_platforms = [
        p for p in problem.platforms
        if len(result.residents[p]) < problem.max_residents
    ]
    # The score matrix: every stranded job against every open platform,
    # revalidation rows included, in one batch.
    checks = {
        job: oracle.check_candidates(
            job, deadline_of[job], open_platforms, result.residents,
            deadline_of,
        )
        for job in unplaced
    }

    graph = nx.DiGraph()
    graph.add_node("src", demand=-len(unplaced))
    graph.add_node("sink", demand=len(unplaced))
    any_edge = False
    for job in unplaced:
        graph.add_edge("src", f"j{job}", capacity=1, weight=0)
        graph.add_edge(f"j{job}", "sink", capacity=1, weight=1_000_000)
    for index, platform in enumerate(open_platforms):
        spare = problem.max_residents - len(result.residents[platform])
        graph.add_edge(f"p{platform}", "sink", capacity=spare, weight=0)
        for job in unplaced:
            # checks[job] is aligned with open_platforms order.
            check = checks[job][index]
            if not check.feasible:
                continue
            any_edge = True
            headroom = 1.0 - check.budget / deadline_of[job]
            graph.add_edge(
                f"j{job}", f"p{platform}", capacity=1,
                weight=int(1000 * headroom),
            )
    if not any_edge:
        return result

    flow = nx.min_cost_flow(graph)
    rescues: list[tuple[float, int, int, int]] = []
    for position, job in enumerate(unplaced):
        for target, amount in flow.get(f"j{job}", {}).items():
            if amount > 0 and target.startswith("p"):
                rescues.append(
                    (deadline_of[job], position, job, int(target[1:]))
                )
    # Earliest deadline first (position breaks ties deterministically):
    # the same priority order the greedy pass used.
    for _, _, job, platform in sorted(rescues):
        if len(result.residents[platform]) >= problem.max_residents:
            continue
        budget = oracle.check_placement(
            job, deadline_of[job], platform, result.residents[platform],
            deadline_of,
        )
        if budget is None:
            continue
        result.assignment[job] = platform
        result.residents[platform].append(job)
        result.budgets[job] = budget
    return result
