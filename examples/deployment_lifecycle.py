"""Deployment lifecycle: phase shifts and drift after the model ships.

The paper's assumptions and future work meet reality here: a deployed
predictor faces (1) workloads whose input distribution changes — a phase
shift that Sec 3.1 assumes is "identified externally" — and (2) platform
drift (thermal throttling), which Sec 6 leaves to "efficient online
learning". This example runs both defenses:

* the CUSUM phase detector splits a workload's history when its runtime
  level shifts, so the new phase can be treated as a new workload;
* a rolling-window recalibration through the production lifecycle verbs
  (``LifecycleManager`` ingest → recalibrate → promote, model frozen)
  restores bound coverage after a platform slows down, without
  retraining.

    python examples/deployment_lifecycle.py
"""

import numpy as np

from repro import (
    PAPER_QUANTILES,
    ConformalRuntimePredictor,
    LifecycleManager,
    PitotConfig,
    TrainerConfig,
    collect_dataset,
    coverage,
    make_split,
    train_pitot,
)
from repro.workloads import detect_phase_shifts, split_phases


def main() -> None:
    print("collecting dataset + training quantile Pitot...")
    dataset = collect_dataset(
        seed=0, n_workloads=60, n_devices=8, n_runtimes=5, sets_per_degree=40
    )
    split = make_split(dataset, train_fraction=0.6, seed=0)
    result = train_pitot(
        split.train, split.calibration,
        model_config=PitotConfig(hidden=(64, 64), quantiles=PAPER_QUANTILES),
        trainer_config=TrainerConfig(steps=600, batch_per_degree=192, seed=0),
    )
    static = ConformalRuntimePredictor(
        result.model, quantiles=PAPER_QUANTILES, strategy="pitot"
    ).calibrate(split.calibration, epsilons=(0.1,))

    # ------------------------------------------------------------------
    # 1. Phase shift: a deployed workload's input distribution changes,
    #    so its repeated executions on ONE platform jump 2.5x. The
    #    monitor watches the per-placement runtime stream; the detector
    #    flags the shift so the orchestrator can re-profile the new phase
    #    as a new workload (Sec 3.1 assumption).
    # ------------------------------------------------------------------
    rng = np.random.default_rng(3)
    workload, platform = 12, 5
    pair_rows = np.flatnonzero(
        (dataset.w_idx == workload) & (dataset.p_idx == platform)
        & dataset.isolation_mask()
    )
    base_log = float(np.log(dataset.runtime[pair_rows]).mean())
    # Monitored stream: 80 executions, then the input distribution changes.
    history = np.concatenate([
        rng.normal(base_log, 0.04, 80),
        rng.normal(base_log + np.log(2.5), 0.04, 80),
    ])
    segments = detect_phase_shifts(history)
    print(f"\nphase detection for {dataset.workloads[workload].name} on "
          f"{dataset.platforms[platform].name}:")
    for seg in segments:
        print(f"  executions [{seg.start:3d}, {seg.end:3d}): "
              f"mean runtime {np.exp(seg.mean_log_runtime)*1e3:8.2f} ms")
    ids = split_phases(
        np.full(len(history), workload), np.arange(len(history)), history
    )
    print(f"  -> history split into workload ids {sorted(set(ids.tolist()))} "
          "(new phase becomes a new workload, per Sec 3.1)")

    # ------------------------------------------------------------------
    # 2. Platform drift: everything runs 1.5x slower from now on.
    #    The static predictor's 90% budgets silently fail; a rolling
    #    window of recent observations, recalibrated and promoted with
    #    the model frozen, recovers.
    # ------------------------------------------------------------------
    test = split.test
    order = rng.permutation(test.n_observations)
    stream = test.subset(order[: len(order) // 2])
    evaluation = test.subset(order[len(order) // 2:])
    drift = 1.5
    cal = split.calibration
    manager = LifecycleManager(
        result.model.clone(), static, features_from=cal,
        window=500, epsilons=(0.1,),
    )
    manager.ingest(cal.w_idx, cal.p_idx, cal.interferers, cal.runtime)
    manager.ingest(
        stream.w_idx, stream.p_idx, stream.interferers,
        stream.runtime * drift,
    )
    manager.promote(manager.recalibrate())

    drifted = evaluation.runtime * drift
    static_bound = static.predict_bound(
        evaluation.w_idx, evaluation.p_idx, evaluation.interferers, 0.1
    )
    online_bound = manager.service.predict_bound_sweep(
        evaluation.w_idx, evaluation.p_idx, evaluation.interferers, (0.1,)
    )[:, 0]
    print(f"\nplatform drift ({drift}x slowdown), 90% budgets:")
    print(f"  static conformal coverage: {coverage(static_bound, drifted):.3f}"
          "  <- silently broken")
    print(f"  rolling window coverage:   {coverage(online_bound, drifted):.3f}"
          "  <- restored without retraining")


if __name__ == "__main__":
    main()
