"""Planner throughput — scalar predict_bound loop vs batched BudgetOracle.

The fleet-scale scheduler's hot path: one greedy placement decision
scans every open platform, revalidating prospective co-residents. The
historical implementation issued one single-row ``predict_bound`` call
per scan row; the :class:`~repro.orchestration.BudgetOracle` stacks the
whole scan into one vectorized batch through the serving layer. Both
paths run the *same* planner code (the scalar side wraps the service in
``reference_paths.row_by_row_oracle``, one call per row) and produce
identical assignments, so the measured gap is pure query-path overhead.

The scalar loop is timed on a fixed job prefix and extrapolated (its
per-decision cost is flat in the job index — early jobs see *empty*
platforms, the cheapest possible revalidation, so the extrapolation
favors the scalar side); the batched path is timed on the full fleet.
The PR's acceptance bar is a ≥10x speedup at the 4096 × 512 fleet.
"""

import time

import numpy as np

from repro.conformal.predictor import HeadChoice
from repro.core import EmbeddingSnapshot, PitotConfig, PitotModel
from repro.core.scaling import LinearScalingBaseline
from repro.eval import format_table
from repro.orchestration import PlacementProblem, greedy_placement
from repro.serving import PredictionService

from conftest import emit
from reference_paths import row_by_row_oracle

EPSILON = 0.1
#: (jobs, platforms) grid; the last entry is the acceptance fleet.
FLEETS = ((256, 64), (1024, 256), (4096, 512))
#: Scalar-loop jobs timed before extrapolating (the full scalar run at
#: 4096x512 would be ~4M single-row forwards).
SCALAR_JOBS = 48


def _service(n_workloads: int, n_platforms: int) -> PredictionService:
    """An untrained serving stack at fleet scale (throughput only)."""
    rng = np.random.default_rng(0)
    model = PitotModel(
        rng.normal(size=(n_workloads, 8)),
        rng.normal(size=(n_platforms, 6)),
        PitotConfig(),
        rng,
    )
    # The log_residual objective predicts on top of the scaling baseline;
    # synthetic per-entity parameters stand in for a fitted one.
    model.baseline = LinearScalingBaseline.from_parameters(
        rng.normal(scale=0.2, size=n_workloads),
        rng.normal(scale=0.2, size=n_platforms),
    )
    return PredictionService(
        EmbeddingSnapshot.from_model(model),
        choices={(EPSILON, -1): HeadChoice(head=0, offset=0.25)},
        use_pools=False,
    )


def _problem(service, n_jobs: int, n_platforms: int,
             jobs=None) -> PlacementProblem:
    jobs = tuple(range(n_jobs)) if jobs is None else jobs
    return PlacementProblem(
        predictor=service,
        jobs=jobs,
        deadlines=(1e9,) * len(jobs),  # capacity-bound: every scan is full
        platforms=tuple(range(n_platforms)),
        epsilon=EPSILON,
    )


def test_placement_throughput(benchmark):
    def run():
        rows = []
        metrics = {}
        for n_jobs, n_platforms in FLEETS:
            service = _service(n_jobs, n_platforms)

            scalar_problem = _problem(
                service, n_jobs, n_platforms,
                jobs=tuple(range(SCALAR_JOBS)),
            )
            start = time.perf_counter()
            scalar_result = greedy_placement(
                scalar_problem, row_by_row_oracle(service, EPSILON)
            )
            scalar_rate = SCALAR_JOBS / (time.perf_counter() - start)

            problem = _problem(service, n_jobs, n_platforms)
            start = time.perf_counter()
            batched_result = greedy_placement(problem, problem.oracle())
            batched_rate = n_jobs / (time.perf_counter() - start)

            # Decision parity on the shared prefix: the batched oracle
            # must not change a single assignment.
            prefix = _problem(
                service, n_jobs, n_platforms,
                jobs=tuple(range(SCALAR_JOBS)),
            )
            assert (
                greedy_placement(prefix, prefix.oracle()).assignment
                == scalar_result.assignment
            )
            assert len(batched_result.placed) == min(
                n_jobs, 3 * n_platforms
            )

            speedup = batched_rate / scalar_rate
            rows.append([
                f"{n_jobs}x{n_platforms}",
                f"{scalar_rate:,.1f}",
                f"{batched_rate:,.1f}",
                f"{speedup:,.1f}x",
            ])
            tag = f"{n_jobs}x{n_platforms}"
            metrics[f"scalar_jobs_per_sec_{tag}"] = (scalar_rate, "jobs/s")
            metrics[f"batched_jobs_per_sec_{tag}"] = (batched_rate, "jobs/s")
            metrics[f"speedup_{tag}"] = (speedup, "x")
        return rows, metrics

    rows, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["fleet (jobs x platforms)", "scalar jobs/s", "batched jobs/s",
         "speedup"],
        rows,
        title=(
            "Greedy placement throughput — one predict_bound call per scan "
            f"row vs one BudgetOracle batch per decision (scalar timed on "
            f"{SCALAR_JOBS} jobs, extrapolated)"
        ),
    )
    emit("placement_throughput", table, metrics=metrics)
    top = f"{FLEETS[-1][0]}x{FLEETS[-1][1]}"
    assert metrics[f"speedup_{top}"][0] >= 10.0
