"""Orchestration parity: planners behave identically on the service.

The service's contract with :mod:`repro.orchestration` is exact bound
agreement, so placement and admission decisions — which compare bounds
against deadlines — must not change when the raw calibrated predictor is
swapped for the batched, cached service.
"""

import numpy as np
import pytest

from repro.conformal import ConformalRuntimePredictor
from repro.core import PAPER_QUANTILES
from repro.orchestration import (
    AdmissionController,
    PlacementProblem,
    flow_placement,
    greedy_placement,
)
from repro.serving import PredictionService


@pytest.fixture(scope="module")
def calibrated(trained_pitot_quantile, mini_split):
    return ConformalRuntimePredictor(
        trained_pitot_quantile.model,
        quantiles=PAPER_QUANTILES,
        strategy="pitot",
    ).calibrate(mini_split.calibration, epsilons=(0.1,))


@pytest.fixture(scope="module")
def service(calibrated):
    return PredictionService.from_predictor(calibrated)


def _problem(predictor, mini_split, n_jobs=10, n_platforms=4, scale=2.0):
    test = mini_split.test
    jobs = tuple(dict.fromkeys(int(w) for w in test.w_idx))[:n_jobs]
    platforms = tuple(range(n_platforms))
    # Deadlines tight enough that some co-location checks fail.
    solo = predictor.predict_bound(
        np.array(jobs), np.zeros(len(jobs), dtype=int), None, 0.1
    )
    deadlines = tuple(float(b * scale) for b in solo)
    return PlacementProblem(
        predictor=predictor,
        jobs=jobs,
        deadlines=deadlines,
        platforms=platforms,
        epsilon=0.1,
    )


class TestPlacementParity:
    def test_greedy_identical_assignment(self, calibrated, service, mini_split):
        raw = greedy_placement(_problem(calibrated, mini_split))
        served = greedy_placement(_problem(service, mini_split))
        assert raw.assignment == served.assignment
        assert raw.residents == served.residents
        for job, budget in raw.budgets.items():
            assert served.budgets[job] == pytest.approx(budget, abs=1e-10)

    def test_greedy_identical_when_capacity_constrained(
        self, calibrated, service, mini_split
    ):
        raw = greedy_placement(
            _problem(calibrated, mini_split, n_jobs=12, n_platforms=2)
        )
        served = greedy_placement(
            _problem(service, mini_split, n_jobs=12, n_platforms=2)
        )
        assert raw.assignment == served.assignment

    def test_flow_rescue_identical(self, calibrated, service, mini_split):
        raw = flow_placement(
            _problem(calibrated, mini_split, n_jobs=12, n_platforms=3,
                     scale=1.2)
        )
        served = flow_placement(
            _problem(service, mini_split, n_jobs=12, n_platforms=3,
                     scale=1.2)
        )
        assert raw.assignment == served.assignment


class TestAdmissionParity:
    def test_identical_admission_sequence(self, calibrated, service, mini_split):
        test = mini_split.test
        jobs = [int(w) for w in dict.fromkeys(int(x) for x in test.w_idx)][:8]
        solo = calibrated.predict_bound(
            np.array(jobs), np.zeros(len(jobs), dtype=int), None, 0.1
        )
        raw_ctrl = AdmissionController(calibrated, platform=0, epsilon=0.1)
        svc_ctrl = AdmissionController(service, platform=0, epsilon=0.1)
        for job, bound in zip(jobs, solo):
            deadline = float(bound * 1.5)
            raw_decision = raw_ctrl.admit(job, deadline)
            svc_decision = svc_ctrl.admit(job, deadline)
            assert raw_decision.admitted == svc_decision.admitted
            assert raw_decision.reason == svc_decision.reason
        assert raw_ctrl.residents == svc_ctrl.residents
