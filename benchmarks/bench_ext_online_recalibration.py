"""Extension — online recalibration under platform drift (Sec 6 future work).

Simulates the deployment scenario the paper's conclusion sketches: after
training, a platform's behaviour drifts (e.g., thermal throttling slows
everything by a constant factor). A static conformal predictor silently
loses coverage — and loses it faster the larger the drift — while a
rolling-window recalibration restores it without retraining. The
recalibration runs on the production lifecycle path with the model
frozen: :class:`~repro.lifecycle.LifecycleManager` ``ingest`` →
``recalibrate`` → ``promote``, then bounds from its live service. The
sweep over drift magnitudes is the conformal half of the
continual-learning lifecycle (DESIGN.md §6); the training half is
benchmarked by ``bench_lifecycle_update.py``.
"""

import numpy as np

from repro.conformal import ConformalRuntimePredictor
from repro.core import PAPER_QUANTILES
from repro.eval import coverage, format_table
from repro.lifecycle import LifecycleManager

from conftest import emit

DRIFTS = (1.2, 1.6, 2.0)  # post-drift runtimes are this much longer
EPS = 0.1
# Per-pool window, small enough that the drifted stream (356-623 rows per
# degree pool) makes up most of it, so the recalibration keys on the
# post-drift regime.
WINDOW = 500


def test_ext_online_recalibration(benchmark, zoo, scale):
    fraction = scale.fractions[len(scale.fractions) // 2]

    def run():
        split = zoo.split(fraction, 0)
        model = zoo.pitot_quantile(fraction, 0)
        cal = split.calibration
        static = ConformalRuntimePredictor(
            model, quantiles=PAPER_QUANTILES, strategy="pitot"
        ).calibrate(cal, epsilons=(EPS,))

        test = split.test
        rng = np.random.default_rng(0)
        order = rng.permutation(test.n_observations)
        half = len(order) // 2
        stream, evaluation = test.subset(order[:half]), test.subset(order[half:])

        rows = []
        metrics = {}
        for drift in DRIFTS:
            drifted_eval = evaluation.runtime * drift

            # Rolling window seeded from the calibration set, then fed
            # the post-drift stream; the model stays frozen.
            manager = LifecycleManager(
                model.clone(), static, features_from=cal,
                window=WINDOW, epsilons=(EPS,),
            )
            manager.ingest(cal.w_idx, cal.p_idx, cal.interferers, cal.runtime)
            manager.ingest(
                stream.w_idx, stream.p_idx, stream.interferers,
                stream.runtime * drift,
            )
            manager.promote(manager.recalibrate())

            static_bound = static.predict_bound(
                evaluation.w_idx, evaluation.p_idx, evaluation.interferers, EPS
            )
            online_bound = manager.service.predict_bound_sweep(
                evaluation.w_idx, evaluation.p_idx, evaluation.interferers,
                (EPS,),
            )[:, 0]
            cov_static = coverage(static_bound, drifted_eval)
            cov_online = coverage(online_bound, drifted_eval)
            rows.append([
                f"{drift}x", f"{cov_static:.3f}", f"{cov_online:.3f}",
                f">= {1 - EPS}",
            ])
            metrics[f"static_{drift}x"] = (cov_static, "coverage")
            metrics[f"online_{drift}x"] = (cov_online, "coverage")
        table = format_table(
            ["drift", "static coverage", "online coverage", "target"],
            rows,
            title="Extension: coverage vs drift magnitude — online "
                  "(rolling window) recalibration restores what the "
                  "static predictor loses",
        )
        return table, metrics

    table, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("ext_online_recalibration", table, metrics=metrics)
    for drift in DRIFTS:
        cov_static = metrics[f"static_{drift}x"][0]
        cov_online = metrics[f"online_{drift}x"][0]
        assert cov_online > cov_static
        assert cov_online >= 1 - EPS - 0.05
