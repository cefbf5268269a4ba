"""Training throughput: batch-sparse vs dense tower forward.

The paper trains at 11.5 s median on an RTX 4090 (Sec 3.6) by computing
*all* workload/platform embeddings every step (App B.3) — cheap on a GPU,
but on CPU the dense tower forward/backward scales with the population
while a 2048-row batch only references a bounded number of distinct rows.
This bench pins the speedup of the batch-sparse step at the paper's
architecture (r=32, hidden 128×128, batch 2048 = 4×512 per degree) across
population sizes, from the paper's own 249×220 grid up to the fleet
scales the ROADMAP targets.

Wall-clock is the result here; both paths are row-identical (see
``tests/core/test_sparse_training.py`` for the loss-history equivalence
proof), so the only question is steps/sec.

A second grid compares the training-engine variants (primitive
reference graph, fused arena kernels, fused + tape replay, float32) at
fleet scale and in the stable-shape paper regime, where the cached tape
replays from step 2 onward. The first two are the test oracles in
``tests/reference_paths.py``. Absolute steps/sec move with the host;
the asserted contracts are the within-run ratios.
"""

import gc
import time

import numpy as np

from repro.cluster.collection import synthetic_fleet_dataset
from repro.core import PitotConfig, PitotModel, PitotTrainer, TrainerConfig
from repro.eval import format_table

from conftest import emit
from reference_paths import PrimitiveTrainer, UntapedTrainer

#: (label, n_workloads, n_platforms) population grid. "paper" is the
#: published dataset's size; "fleet" is the scale serving is sized for.
POPULATIONS = [
    ("paper", 249, 220),
    ("campus", 4096, 512),
    ("fleet", 32768, 4096),
]

#: Paper-scale training configuration (Sec 3.6 / App B.3).
BATCH_PER_DEGREE = 512  # 4 degrees × 512 = batch 2048
MEASURE_STEPS = 6
WARMUP_STEPS = 2

#: Engine variants measured at fleet scale (label, trainer class,
#: TrainerConfig overrides). "reference" rebuilds the primitive autograd
#: graph each step; "engine" is the production fused + tape-replay path
#: (bitwise identical losses in float64 —
#: ``tests/core/test_engine_equivalence``); the float32 row is the
#: opt-in precision trade.
ENGINES = [
    ("reference", PrimitiveTrainer, dict()),
    ("fused", UntapedTrainer, dict()),
    ("engine", PitotTrainer, dict()),
    ("engine_f32", PitotTrainer, dict(dtype="float32")),
]


def _steps_per_sec(
    dataset,
    sparse: bool | None,
    steps: int = MEASURE_STEPS,
    trainer_cls: type[PitotTrainer] = PitotTrainer,
    **overrides,
) -> float:
    """Steps/sec of ``PitotTrainer.fit`` with one embedding mode forced.

    Per-fit fixed costs (baseline fit, target preparation — O(n_obs) and
    identical in both modes) are measured with a zero-step fit and
    subtracted, so the ratio reflects step cost alone. ``steps`` scales
    the measured window: fast regimes need more steps than the fleet
    default for the window to dominate timer noise (and, for the taped
    engine, to amortize the one-time recording step).
    """
    model = PitotModel(
        dataset.workload_features,
        dataset.platform_features,
        PitotConfig(),  # paper architecture: r=32, hidden 128x128, s=2
        np.random.default_rng(0),
    )

    def fit(steps: int) -> float:
        trainer = trainer_cls(
            model,
            TrainerConfig(
                steps=steps,
                batch_per_degree=BATCH_PER_DEGREE,
                seed=0,
                sparse_embeddings=sparse,
                **overrides,
            ),
        )
        # Collect before timing so a GC pause triggered by earlier
        # configurations' garbage is not billed to this one.
        gc.collect()
        start = time.perf_counter()
        trainer.fit(dataset, None)
        return time.perf_counter() - start

    fit(WARMUP_STEPS)  # warmup: BLAS thread pools, allocators
    fixed = fit(0)  # baseline fit + targets, no optimizer steps
    total = fit(steps)
    return steps / max(total - fixed, 1e-9)


def test_training_throughput(benchmark):
    """Steps/sec, dense vs batch-sparse, across population sizes."""
    # Register the headline number (fleet-scale sparse step) with
    # pytest-benchmark; the table below carries the full grid.
    fleet = POPULATIONS[-1]
    benchmark.pedantic(
        lambda: _steps_per_sec(
            synthetic_fleet_dataset(fleet[1], fleet[2], 30000), sparse=True
        ),
        rounds=1,
        iterations=1,
    )
    rows, metrics = [], {}
    dataset = paper_dataset = None
    for label, n_workloads, n_platforms in POPULATIONS:
        dataset = synthetic_fleet_dataset(n_workloads, n_platforms, 30000)
        if paper_dataset is None:
            paper_dataset = dataset
        sparse = _steps_per_sec(dataset, sparse=True)
        dense = _steps_per_sec(dataset, sparse=False)
        ratio = sparse / dense
        rows.append([
            f"{label} ({n_workloads}x{n_platforms})",
            f"{dense:.2f}",
            f"{sparse:.2f}",
            f"{ratio:.2f}x",
        ])
        metrics[f"{label}_dense"] = (dense, "steps/sec")
        metrics[f"{label}_sparse"] = (sparse, "steps/sec")
        metrics[f"{label}_speedup"] = (ratio, "x")
    table = format_table(
        ["population", "dense steps/s", "sparse steps/s", "speedup"],
        rows,
        title=(
            "Training throughput (paper architecture: r=32, hidden 128x128, "
            "batch 2048)"
        ),
    )

    # Engine grid at fleet scale (sparse auto, as a real run would be):
    # the tentpole comparison is the default fused+taped engine against
    # the primitive reference graph ON THE SAME MACHINE — absolute
    # steps/sec move with the host, the ratio is the contract.
    engine_rows, baseline = [], None
    for engine_label, trainer_cls, overrides in ENGINES:
        sps = _steps_per_sec(
            dataset, sparse=None, trainer_cls=trainer_cls, **overrides
        )
        if baseline is None:
            baseline = sps
        metrics[f"fleet_{engine_label}"] = (sps, "steps/sec")
        engine_rows.append([engine_label, f"{sps:.2f}", f"{sps / baseline:.2f}x"])
    metrics["fleet_engine_speedup"] = (
        metrics["fleet_engine"][0] / baseline, "x"
    )
    engine_table = format_table(
        ["engine", "steps/s", "vs reference"],
        engine_rows,
        title="Training engine (fleet population, sparse auto)",
    )

    # Replay pays off where batch shapes repeat: at the paper's own
    # population auto mode is always dense, every step has the identical
    # signature, and the cached program replays from step 2 onward. (At
    # fleet scale the sparse planner draws a different unique-row count
    # every batch, so the trainer bails out of taping and the engine row
    # above degenerates to the fused path — by design.)
    paper_ref = _steps_per_sec(
        paper_dataset, sparse=None, steps=40, trainer_cls=PrimitiveTrainer
    )
    paper_eng = _steps_per_sec(paper_dataset, sparse=None, steps=40)
    metrics["paper_reference"] = (paper_ref, "steps/sec")
    metrics["paper_engine"] = (paper_eng, "steps/sec")
    metrics["paper_engine_speedup"] = (paper_eng / paper_ref, "x")
    engine_table += (
        f"\n\nStable-shape regime (paper population, dense auto): "
        f"reference {paper_ref:.2f} -> engine {paper_eng:.2f} steps/s "
        f"({paper_eng / paper_ref:.2f}x)"
    )
    emit("training_throughput", table + "\n\n" + engine_table, metrics)
    # The tentpole claim: once the population outgrows the batch, the
    # sparse step wins by >=3x. Asserted with headroom against CI noise.
    assert metrics["fleet_speedup"][0] >= 2.0
    # Fleet-scale sparse shapes never repeat, so the tape bails out and
    # the engine must simply never lose to the primitive reference
    # (floor below parity only by measurement noise).
    assert metrics["fleet_engine_speedup"][0] >= 0.8
    # Where shapes are stable the recorded program replaces graph
    # construction; the median win is modest (~1.07x on 1 CPU core —
    # the fused kernels already removed most Python overhead), so this
    # floor guards against structural regressions, not the win itself.
    assert metrics["paper_engine_speedup"][0] >= 0.75
    # The precision trade is the big fleet-scale lever: float32 halves
    # memory traffic through the towers (measured ~2x vs reference).
    assert (
        metrics["fleet_engine_f32"][0] / metrics["fleet_reference"][0] >= 1.2
    )
