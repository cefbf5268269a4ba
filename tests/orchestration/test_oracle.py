"""BudgetOracle: batched scoring equals the scalar reference loop."""

import numpy as np
import pytest

from repro.orchestration import (
    AdmissionController,
    BudgetOracle,
    PlacementProblem,
    flow_placement,
    greedy_placement,
)

from reference_paths import row_by_row_oracle


class _StubBounds:
    """Analytic budgets: base[w] * plat_factor[p] * (1 + 0.5 * n_co).

    Elementwise numpy, so batched and per-row calls are bit-identical —
    the property the oracle's two modes are pinned against.
    """

    def __init__(self, base, plat_factor):
        self.base = np.asarray(base, dtype=float)
        self.plat_factor = np.asarray(plat_factor, dtype=float)
        self.calls = 0

    def predict_bound(self, w_idx, p_idx, interferers, epsilon):
        self.calls += 1
        n_int = (np.atleast_2d(interferers) >= 0).sum(axis=1)
        return (
            self.base[np.asarray(w_idx)]
            * self.plat_factor[np.asarray(p_idx)]
            * (1.0 + 0.5 * n_int)
        )


def _random_problem(rng, n_jobs=10, n_platforms=4, max_residents=3):
    base = rng.uniform(0.5, 2.0, size=n_jobs)
    plat = rng.uniform(0.5, 3.0, size=n_platforms)
    predictor = _StubBounds(base, plat)
    return PlacementProblem(
        predictor=predictor,
        jobs=tuple(range(n_jobs)),
        deadlines=tuple(rng.uniform(1.0, 6.0, size=n_jobs)),
        platforms=tuple(range(n_platforms)),
        epsilon=0.1,
        max_residents=max_residents,
    )


class TestBudgets:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            BudgetOracle(_StubBounds([1.0], [1.0]), 0.0)

    def test_empty_rows(self):
        oracle = BudgetOracle(_StubBounds([1.0], [1.0]), 0.1)
        assert oracle.budgets([]).shape == (0,)

    def test_batched_equals_scalar(self):
        stub = _StubBounds([1.0, 2.0, 3.0], [1.0, 0.5])
        rows = [(0, 0, ()), (1, 1, (0,)), (2, 0, (0, 1)), (1, 0, (0, 1, 2))]
        batched = BudgetOracle(stub, 0.1).budgets(rows)
        scalar = row_by_row_oracle(stub, 0.1).budgets(rows)
        np.testing.assert_array_equal(batched, scalar)

    def test_batched_issues_one_call(self):
        stub = _StubBounds([1.0, 2.0], [1.0])
        rows = [(0, 0, ()), (1, 0, (0,)), (0, 0, (1,))]
        BudgetOracle(stub, 0.1).budgets(rows)
        assert stub.calls == 1
        stub.calls = 0
        row_by_row_oracle(stub, 0.1).budgets(rows)
        assert stub.calls == len(rows)

    def test_positional_revalidation_rows(self):
        # Duplicate workloads on a platform: each revalidation row drops
        # exactly one copy, not both.
        rows = BudgetOracle._candidate_rows(5, 0, [7, 7])
        assert rows == [
            (5, 0, (7, 7)),
            (7, 0, (7, 5)),
            (7, 0, (7, 5)),
        ]


class TestCandidates:
    def test_feasibility_matches_manual_check(self):
        stub = _StubBounds([1.0, 1.0], [1.0, 1.0])
        oracle = BudgetOracle(stub, 0.1)
        # Platform 0 hosts job 1 with a deadline so tight any co-runner
        # breaks it (budget with 1 interferer = 1.5 > 1.2).
        checks = oracle.check_candidates(
            0, 10.0, [0, 1], {0: [1], 1: []}, {1: 1.2},
        )
        assert not checks[0].feasible
        assert checks[1].feasible and checks[1].budget == 1.0

    def test_check_placement_single_candidate(self):
        stub = _StubBounds([1.0, 1.0], [1.0])
        oracle = BudgetOracle(stub, 0.1)
        assert oracle.check_placement(0, 10.0, 0, [1], {1: 10.0}) == 1.5
        assert oracle.check_placement(0, 1.0, 0, [1], {1: 10.0}) is None
        assert oracle.check_placement(0, 10.0, 0, [1], {1: 1.2}) is None


class TestPlannerParity:
    """Batched planners must match the scalar loop decision for decision."""

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_assignments_identical(self, seed):
        problem = _random_problem(np.random.default_rng(seed))
        batched = greedy_placement(problem, problem.oracle())
        scalar = greedy_placement(
            problem, row_by_row_oracle(problem.predictor, problem.epsilon)
        )
        assert batched.assignment == scalar.assignment
        assert batched.budgets == scalar.budgets

    @pytest.mark.parametrize("seed", range(6))
    def test_flow_assignments_identical(self, seed):
        # Tight deadlines so the greedy pass strands jobs and the flow
        # rescue actually runs.
        rng = np.random.default_rng(100 + seed)
        problem = _random_problem(rng, n_jobs=14, n_platforms=3)
        batched = flow_placement(problem, problem.oracle())
        scalar = flow_placement(
            problem, row_by_row_oracle(problem.predictor, problem.epsilon)
        )
        assert batched.assignment == scalar.assignment

    def test_parity_on_real_service(self, trained_pitot_quantile, mini_split,
                                    mini_dataset):
        from repro.conformal import ConformalRuntimePredictor
        from repro.core import PAPER_QUANTILES
        from repro.serving import PredictionService

        cp = ConformalRuntimePredictor(
            trained_pitot_quantile.model, quantiles=PAPER_QUANTILES
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        service = PredictionService.from_predictor(cp)
        rng = np.random.default_rng(3)
        jobs = tuple(
            int(j) for j in rng.choice(mini_dataset.n_workloads, 8,
                                       replace=False)
        )
        med = [
            float(np.median(mini_dataset.runtime[mini_dataset.w_idx == j]))
            for j in jobs
        ]
        problem = PlacementProblem(
            predictor=service,
            jobs=jobs,
            deadlines=tuple(4.0 * m for m in med),
            platforms=tuple(range(min(6, mini_dataset.n_platforms))),
            epsilon=0.1,
        )
        batched = flow_placement(problem, problem.oracle())
        scalar = flow_placement(
            problem, row_by_row_oracle(problem.predictor, problem.epsilon)
        )
        assert batched.assignment == scalar.assignment


class TestAdmissionOracle:
    def test_one_batch_per_check(self):
        stub = _StubBounds([1.0, 1.0, 1.0], [1.0])
        controller = AdmissionController(stub, platform=0, epsilon=0.1,
                                         max_residents=3)
        controller.admit(0, 10.0)
        controller.admit(1, 10.0)
        stub.calls = 0
        decision = controller.check(2, 10.0)
        assert decision.admitted
        assert stub.calls == 1  # own budget + 2 revalidations, one batch

    def test_decision_reasons_preserved(self):
        stub = _StubBounds([1.0, 1.0], [1.0])
        controller = AdmissionController(stub, platform=0, epsilon=0.1,
                                         max_residents=2)
        assert controller.admit(0, 1.2).reason == "ok"
        # Arrival's own budget with 1 interferer = 1.5.
        assert controller.check(1, 1.4).reason == "own-deadline"
        # Arrival fits, but pushes resident 0 (deadline 1.2) past budget.
        assert controller.check(1, 10.0).reason == "resident-deadline"

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            AdmissionController(_StubBounds([1.0], [1.0]), 0, epsilon=1.5)
        controller = AdmissionController(_StubBounds([1.0], [1.0]), 0,
                                         epsilon=0.05)
        assert controller.epsilon == 0.05
        assert controller.predictor is not None
