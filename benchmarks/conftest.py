"""Shared benchmark infrastructure.

Every bench regenerates one paper table/figure (see DESIGN.md §10). Two
grid scales:

* ``fast`` (default): miniature cluster, 2 train fractions, ≤2 replicates,
  proportionally shrunken architectures (Pitot towers 64×64, baselines
  128×128 — preserving the paper's 2× relative sizing), shortened
  training. Runs the full suite in tens of minutes on 2 CPU cores.
* ``full`` (``REPRO_SCALE=full``): the paper's grid — 249 workloads × 220
  platforms, 10–90% fractions, 5 replicates, 128-unit towers, 20k steps.
  GPU-scale; provided for completeness.

Trained models and splits are memoized per session so benches that share a
configuration (e.g. Figs 6a/6b/11) do not retrain.

Result tables are printed and archived under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    AttentionBaseline,
    BaselineTrainer,
    MatrixFactorizationBaseline,
    NeuralNetworkBaseline,
)
from repro.conformal import ConformalRuntimePredictor
from repro.core import PAPER_QUANTILES, PitotConfig, TrainerConfig, train_pitot
from repro.pipeline import collect_stage, make_scenario_split
from repro.scenarios import get_scenario

RESULTS_DIR = Path(__file__).parent / "results"

# The scalar reference paths the throughput benches time against live in
# ``tests/reference_paths.py``. Appended, not prepended, so ``conftest``
# still resolves to this module.
sys.path.append(str(Path(__file__).parent.parent / "tests"))


@dataclass(frozen=True)
class BenchScale:
    """One experiment-grid preset."""

    name: str
    # dataset
    n_workloads: int | None
    n_devices: int | None
    n_runtimes: int | None
    sets_per_degree: int
    # protocol
    fractions: tuple[float, ...]
    replicates: int
    epsilons: tuple[float, ...]
    # architecture / training
    pitot_hidden: tuple[int, ...]
    baseline_hidden: tuple[int, ...]
    embedding_dim: int
    steps: int
    steps_quantile: int
    steps_baseline: int
    batch_per_degree: int
    mf_learning_rate: float


FAST = BenchScale(
    name="fast",
    n_workloads=60,
    n_devices=8,
    n_runtimes=5,
    sets_per_degree=40,
    fractions=(0.3, 0.6),
    replicates=2,
    epsilons=(0.1, 0.08, 0.06, 0.04, 0.02),
    pitot_hidden=(64, 64),
    baseline_hidden=(128, 128),
    embedding_dim=32,
    steps=800,
    steps_quantile=600,
    steps_baseline=400,
    batch_per_degree=256,
    mf_learning_rate=0.02,
)

FULL = BenchScale(
    name="full",
    n_workloads=None,
    n_devices=None,
    n_runtimes=None,
    sets_per_degree=250,
    fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    replicates=5,
    epsilons=(0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01),
    pitot_hidden=(128, 128),
    baseline_hidden=(256, 256),
    embedding_dim=32,
    steps=20_000,
    steps_quantile=20_000,
    steps_baseline=20_000,
    batch_per_degree=512,
    mf_learning_rate=1e-3,
)


def current_scale() -> BenchScale:
    return FULL if os.environ.get("REPRO_SCALE", "fast") == "full" else FAST


def bench_scenario(scale: BenchScale):
    """The registry's paper scenario at the bench grid's fleet scale.

    All bench data flows through the scenario layer, so the grid presets
    above only decide *how much* of the paper campaign runs — the
    campaign itself is the registered spec.
    """
    return get_scenario("paper").scaled(
        n_workloads=scale.n_workloads,
        n_devices=scale.n_devices,
        n_runtimes=scale.n_runtimes,
        sets_per_degree=scale.sets_per_degree,
    )


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return current_scale()


@pytest.fixture(scope="session")
def bench_dataset(scale):
    """The collected runtime dataset used by every experiment bench."""
    return collect_stage(bench_scenario(scale))


class ModelZoo:
    """Session-level cache of splits and trained predictors."""

    def __init__(self, dataset, scale: BenchScale) -> None:
        self.dataset = dataset
        self.scale = scale
        self.scenario = bench_scenario(scale)
        self._splits: dict = {}
        self._models: dict = {}

    # ------------------------------------------------------------------
    def split(self, fraction: float, replicate: int):
        key = (round(fraction, 3), replicate)
        if key not in self._splits:
            self._splits[key] = make_scenario_split(
                self.scenario, self.dataset, train_fraction=fraction,
                seed=1000 * replicate + 7,
            )
        return self._splits[key]

    def _trainer_config(self, steps: int, seed: int) -> TrainerConfig:
        return TrainerConfig(
            steps=steps,
            eval_every=max(steps // 8, 50),
            batch_per_degree=self.scale.batch_per_degree,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def pitot(self, fraction: float, replicate: int, **config_overrides):
        """Train (or fetch) a squared-loss Pitot variant.

        Models are keyed by the *resolved* config, so e.g. the four
        Fig 10 sweeps share one training for the paper-default point.
        """
        cfg = dict(
            hidden=self.scale.pitot_hidden,
            embedding_dim=self.scale.embedding_dim,
        )
        cfg.update(config_overrides)
        key = ("pitot", tuple(sorted(cfg.items())),
               round(fraction, 3), replicate)
        if key not in self._models:
            split = self.split(fraction, replicate)
            self._models[key] = train_pitot(
                split.train,
                split.calibration,
                model_config=PitotConfig(**cfg),
                trainer_config=self._trainer_config(self.scale.steps, replicate),
            ).model
        return self._models[key]

    def pitot_quantile(self, fraction: float, replicate: int,
                       **config_overrides):
        """Train (or fetch) the multi-quantile Pitot."""
        cfg = dict(
            hidden=self.scale.pitot_hidden,
            embedding_dim=self.scale.embedding_dim,
            quantiles=PAPER_QUANTILES,
        )
        cfg.update(config_overrides)
        key = ("pitot-q", tuple(sorted(cfg.items())),
               round(fraction, 3), replicate)
        if key not in self._models:
            split = self.split(fraction, replicate)
            self._models[key] = train_pitot(
                split.train,
                split.calibration,
                model_config=PitotConfig(**cfg),
                trainer_config=self._trainer_config(
                    self.scale.steps_quantile, replicate
                ),
            ).model
        return self._models[key]

    # ------------------------------------------------------------------
    def baseline(self, kind: str, fraction: float, replicate: int):
        """Train (or fetch) one of the Sec 5.3 baselines."""
        key = (kind, round(fraction, 3), replicate)
        if key not in self._models:
            split = self.split(fraction, replicate)
            ds = self.dataset
            rng = np.random.default_rng(replicate + 17)
            if kind == "mf":
                model = MatrixFactorizationBaseline(
                    ds.n_workloads, ds.n_platforms, rng,
                    rank=self.scale.embedding_dim,
                )
                config = TrainerConfig(
                    steps=self.scale.steps_baseline,
                    eval_every=max(self.scale.steps_baseline // 8, 50),
                    batch_per_degree=self.scale.batch_per_degree,
                    learning_rate=self.scale.mf_learning_rate,
                    seed=replicate,
                )
            else:
                cls = NeuralNetworkBaseline if kind == "nn" else AttentionBaseline
                model = cls(
                    ds.workload_features, ds.platform_features, rng,
                    hidden=self.scale.baseline_hidden,
                )
                config = self._trainer_config(self.scale.steps_baseline, replicate)
            BaselineTrainer(model, config).fit(split.train, split.calibration)
            self._models[key] = model
        return self._models[key]

    # ------------------------------------------------------------------
    def conformal(self, model, fraction: float, replicate: int,
                  strategy: str, quantiles=None,
                  epsilons: tuple[float, ...] | None = None):
        """Calibrate a conformal wrapper on the split's calibration set."""
        cp = ConformalRuntimePredictor(model, quantiles=quantiles,
                                       strategy=strategy)
        cp.calibrate(
            self.split(fraction, replicate).calibration,
            epsilons=epsilons or self.scale.epsilons,
        )
        return cp


@pytest.fixture(scope="session")
def zoo(bench_dataset, scale) -> ModelZoo:
    return ModelZoo(bench_dataset, scale)


def error_pair(model, split) -> tuple[float, float]:
    """Test MAPE (without interference, with interference) for a model."""
    from repro.eval import mape

    test = split.test
    pred = model.predict_runtime(test.w_idx, test.p_idx, test.interferers)
    iso = test.isolation_mask()
    return (
        mape(pred[iso], test.runtime[iso]),
        mape(pred[~iso], test.runtime[~iso]),
    )


def margin_pair(bound, split) -> tuple[float, float]:
    """Test overprovisioning margin (without, with interference)."""
    from repro.eval import overprovision_margin

    test = split.test
    iso = test.isolation_mask()
    return (
        overprovision_margin(bound[iso], test.runtime[iso]),
        overprovision_margin(bound[~iso], test.runtime[~iso]),
    )


def sweep_error_tables(zoo, scale, model_for, names, title: str) -> str:
    """Shared Fig 4/6a harness: MAPE series over train fractions.

    ``model_for(name, fraction, replicate)`` returns a fitted predictor;
    returns the two per-interference tables the paper plots. Cells show
    mean ± 2·stderr with the replicate count (the error bar is omitted,
    not zeroed, for single-replicate grids).
    """
    from repro.eval import format_mean_2se, format_series_table, two_se

    def cell(values):
        arr = np.asarray(values, dtype=float)
        return format_mean_2se(
            float(arr.mean()), two_se(arr), n_replicates=len(arr)
        )

    iso_series = {name: [] for name in names}
    int_series = {name: [] for name in names}
    for fraction in scale.fractions:
        sums = {name: ([], []) for name in names}
        for rep in range(scale.replicates):
            split = zoo.split(fraction, rep)
            for name in names:
                iso, intf = error_pair(model_for(name, fraction, rep), split)
                sums[name][0].append(iso)
                sums[name][1].append(intf)
        for name in names:
            iso_series[name].append(cell(sums[name][0]))
            int_series[name].append(cell(sums[name][1]))
    x = [f"{int(f * 100)}%" for f in scale.fractions]
    return "\n\n".join([
        format_series_table("train", x, iso_series,
                            title=f"{title} (MAPE, without interference)"),
        format_series_table("train", x, int_series,
                            title=f"{title} (MAPE, with interference)"),
    ])


#: BENCH_<name>.json schema. v1 carried name/scale/results; v2 adds
#: ``git_sha`` and ``timestamp`` so the perf trajectory is attributable
#: across PRs, and the optional ``git_dirty``. Readers must treat the
#: provenance fields as optional (``.get``) so v1 archives stay loadable.
BENCH_SCHEMA_VERSION = 2


def _git(*args: str, cwd: Path = Path(__file__).parent) -> str | None:
    """Standard output of ``git args`` in ``cwd``; ``None`` outside a
    usable git checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_sha() -> str | None:
    """Current commit SHA, or ``None`` outside a usable git checkout."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def _git_dirty(cwd: Path = Path(__file__).parent) -> bool | None:
    """Whether a tracked file outside ``benchmarks/results/`` differs from
    ``HEAD``, i.e. the numbers come from a tree ``git_sha`` does not name;
    ``None`` outside a usable git checkout.

    The result archives are left out: a bench rewrites them before they
    can be committed, so they always differ when a run is archived.
    """
    status = _git("status", "--porcelain", "--untracked-files=no", cwd=cwd)
    if status is None:
        return None
    paths = [
        path.strip('"')
        for line in status.splitlines()
        for path in line[3:].split(" -> ")
    ]
    return any(not path.startswith("benchmarks/results/") for path in paths)


def emit(
    name: str,
    table: str,
    metrics: dict[str, tuple[float, str]] | None = None,
) -> None:
    """Print a result table and archive it under benchmarks/results/.

    ``metrics`` maps a metric name to ``(value, units)``; when given, a
    machine-readable ``BENCH_<name>.json`` (schema
    :data:`BENCH_SCHEMA_VERSION`) is written alongside the text table so
    trend trackers can diff runs without parsing tables.
    """
    print(f"\n{table}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")
    if metrics is not None:
        payload = {
            "schema": BENCH_SCHEMA_VERSION,
            "name": name,
            "scale": current_scale().name,
            "git_sha": _git_sha(),
            "git_dirty": _git_dirty(),
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "results": [
                {"name": metric, "value": float(value), "units": units}
                for metric, (value, units) in metrics.items()
            ],
        }
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )


def load_bench(path: Path) -> dict[str, float]:
    """Read a ``BENCH_<name>.json`` of any schema into {metric: value}.

    Tolerant by construction: only the ``results`` triple list is
    required, so v1 files (no schema/provenance fields) parse the same
    as v2.
    """
    payload = json.loads(Path(path).read_text())
    return {row["name"]: float(row["value"]) for row in payload["results"]}
