"""Batched ε-budget scoring: the one bound-query path for orchestration.

Every scheduling decision reduces to the same primitive — "what is the
ε-budget of workload *w* on platform *p* among co-residents *co*?" — and
before this module each consumer (greedy placement, flow rescue,
admission control) issued it as its own one-row ``predict_bound`` call
inside a Python loop. At fleet scale that is thousands of single-row
forwards per placement decision, none of which reach the batched
serving layer.

:class:`BudgetOracle` centralizes the primitive and scores *sets* of
candidates in one vectorized ``predict_bound`` batch: a job's candidate
scan (its own budget on every platform with spare capacity **plus** the
revalidation rows of every prospective co-resident) becomes a single
call, and the planners become consumers of the resulting score rows.
The historical one-row-per-call loop is a test oracle
(``tests/reference_paths.py``) that the planner-parity tests and the
placement-throughput benchmark compare against; decisions are identical
by construction.
"""

from __future__ import annotations

import numpy as np

from ..cluster.dataset import pad_interferers

__all__ = ["BudgetOracle", "CandidateCheck"]

#: A scoring row: (workload, platform, co-resident workload indices).
_Row = tuple[int, int, tuple[int, ...]]


class CandidateCheck:
    """Feasibility verdict for placing one job on one platform.

    ``budget`` is the job's own ε-budget under the post-placement
    interference set; ``feasible`` additionally requires every
    prospective co-resident's revalidated budget to stay within its own
    deadline.
    """

    __slots__ = ("platform", "budget", "feasible")

    def __init__(self, platform: int, budget: float, feasible: bool) -> None:
        self.platform = platform
        self.budget = budget
        self.feasible = feasible

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateCheck(platform={self.platform}, "
            f"budget={self.budget:.6g}, feasible={self.feasible})"
        )


class BudgetOracle:
    """Vectorized ε-budget scorer over any ``predict_bound`` provider.

    Parameters
    ----------
    predictor:
        ``predict_bound(w_idx, p_idx, interferers, epsilon) → seconds``
        provider — a :class:`~repro.serving.PredictionService`, a
        :class:`~repro.conformal.ConformalRuntimePredictor`, or any
        test stub speaking the same protocol.
    epsilon:
        Miscoverage rate baked into every budget this oracle quotes.
    """

    def __init__(self, predictor, epsilon: float) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.predictor = predictor
        self.epsilon = float(epsilon)

    # ------------------------------------------------------------------
    # The scoring primitive
    # ------------------------------------------------------------------
    def budgets(self, rows: list[_Row]) -> np.ndarray:
        """ε-budgets (seconds) for a list of (workload, platform, co) rows,
        scored in one ``predict_bound`` batch."""
        if not rows:
            return np.empty(0)
        interferers = pad_interferers([tuple(co)[:3] for _, _, co in rows])
        w = np.array([row[0] for row in rows], dtype=np.intp)
        p = np.array([row[1] for row in rows], dtype=np.intp)
        return np.asarray(
            self.predictor.predict_bound(w, p, interferers, self.epsilon),
            dtype=float,
        )

    def budget(self, workload: int, platform: int,
               co: tuple[int, ...] | list[int] = ()) -> float:
        """Single-row convenience wrapper over :meth:`budgets`."""
        return float(self.budgets([(workload, platform, tuple(co))])[0])

    def budgets_arrays(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray,
    ) -> np.ndarray:
        """Array-native :meth:`budgets`: rows arrive already ``-1``-padded.

        The simulator's batched event path maintains padded co-resident
        matrices incrementally, so it skips the per-row tuple building
        and re-padding :meth:`budgets` performs. Same contract: one
        ``predict_bound`` batch.
        """
        if len(w_idx) == 0:
            return np.empty(0)
        return np.asarray(
            self.predictor.predict_bound(w_idx, p_idx, interferers, self.epsilon),
            dtype=float,
        )

    # ------------------------------------------------------------------
    # Feasibility-checked candidate scans
    # ------------------------------------------------------------------
    @staticmethod
    def _candidate_rows(
        job: int, platform: int, residents: list[int]
    ) -> list[_Row]:
        """The placement-check rows for one (job, platform) candidate:
        the job among the residents, then each resident revalidated with
        the job added."""
        rows: list[_Row] = [(job, platform, tuple(residents))]
        for i, other in enumerate(residents):
            # Positional removal, not value removal: a platform may host
            # two jobs of the same workload (simulator streams), and the
            # revalidation row must drop exactly one of them.
            others = tuple(residents[:i]) + tuple(residents[i + 1:]) + (job,)
            rows.append((other, platform, others))
        return rows

    def check_candidates(
        self,
        job: int,
        deadline: float,
        candidates: list[int],
        residents_of: dict[int, list[int]],
        deadline_of: dict[int, float],
    ) -> list[CandidateCheck]:
        """Score one job against every candidate platform in one batch.

        For each candidate the batch carries the job's own budget row
        plus one revalidation row per prospective co-resident; a
        candidate is feasible when the job's budget meets ``deadline``
        *and* every co-resident's revalidated budget still meets its own
        deadline (looked up in ``deadline_of``).
        """
        rows: list[_Row] = []
        spans: list[tuple[int, int, int]] = []  # (platform, lo, hi)
        for platform in candidates:
            residents = residents_of[platform]
            lo = len(rows)
            rows.extend(self._candidate_rows(job, platform, residents))
            spans.append((platform, lo, len(rows)))
        values = self.budgets(rows)
        checks: list[CandidateCheck] = []
        for platform, lo, hi in spans:
            budget = float(values[lo])
            feasible = budget <= deadline
            if feasible:
                for offset, other in enumerate(residents_of[platform]):
                    if values[lo + 1 + offset] > deadline_of[other]:
                        feasible = False
                        break
            checks.append(CandidateCheck(platform, budget, feasible))
        return checks

    def check_placement(
        self,
        job: int,
        deadline: float,
        platform: int,
        residents: list[int],
        deadline_of: dict[int, float],
    ) -> float | None:
        """Budget if placing ``job`` keeps every deadline, else ``None``.

        The single-candidate form of :meth:`check_candidates`; used by
        admission control and by the flow planner's post-rescue
        revalidation.
        """
        check = self.check_candidates(
            job, deadline, [platform], {platform: residents}, deadline_of
        )[0]
        return check.budget if check.feasible else None
