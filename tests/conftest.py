"""Shared fixtures: miniature cluster datasets and pre-trained models.

Session-scoped so the expensive artifacts (dataset collection, model
training) are built once and shared; tests must not mutate them.

The session also audits process hygiene: it fails if a
``multiprocessing`` child is still alive at the end, or if a ``psm_*``
shared-memory segment it created is still in ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    PAPER_QUANTILES,
    PitotConfig,
    TrainerConfig,
    train_pitot,
)
from repro.pipeline import collect_stage, make_scenario_split
from repro.scenarios import get_scenario

#: Small-but-structured architecture used by most training-dependent tests.
TINY_MODEL = dict(hidden=(32,), embedding_dim=8, learned_features=1)

#: Where POSIX shared-memory segments appear (Linux); the segment audit
#: is skipped on hosts without it.
SHM_DIR = Path("/dev/shm")
_SEGMENTS_AT_START = pytest.StashKey[set]()


def _psm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("psm_*")}


def pytest_sessionstart(session):
    session.config.stash[_SEGMENTS_AT_START] = _psm_segments()


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if it leaves a worker process or a segment behind."""
    leaks = [
        f"multiprocessing child still alive: {child.name} (pid {child.pid})"
        for child in multiprocessing.active_children()
    ]
    leaks += [
        f"shared-memory segment left in {SHM_DIR}: {name}"
        for name in sorted(
            _psm_segments() - session.config.stash[_SEGMENTS_AT_START]
        )
    ]
    if not leaks:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")
        for leak in leaks:
            reporter.write_line(f"hygiene guard: {leak}", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session")
def mini_scenario():
    """The paper scenario scaled to test size (~40 workloads x ~20
    platforms); the single spec every miniature fixture derives from."""
    return get_scenario("paper").scaled(
        n_workloads=40, n_devices=6, n_runtimes=4, sets_per_degree=20,
        train_fraction=0.6,
    ).with_seeds(split=3)


@pytest.fixture(scope="session")
def mini_dataset(mini_scenario):
    """A miniature collected dataset: ~40 workloads x ~20 platforms."""
    return collect_stage(mini_scenario)


@pytest.fixture(scope="session")
def mini_split(mini_scenario, mini_dataset):
    return make_scenario_split(mini_scenario, mini_dataset)


@pytest.fixture(scope="session")
def trained_pitot(mini_split):
    """A squared-loss Pitot trained briefly on the mini split."""
    return train_pitot(
        mini_split.train,
        mini_split.calibration,
        model_config=PitotConfig(**TINY_MODEL),
        trainer_config=TrainerConfig(
            steps=400, eval_every=100, batch_per_degree=256, seed=0
        ),
    )


@pytest.fixture(scope="session")
def trained_pitot_quantile(mini_split):
    """A quantile-head Pitot trained briefly on the mini split."""
    return train_pitot(
        mini_split.train,
        mini_split.calibration,
        model_config=PitotConfig(quantiles=PAPER_QUANTILES, **TINY_MODEL),
        trainer_config=TrainerConfig(
            steps=300, eval_every=100, batch_per_degree=192, seed=0
        ),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
