"""Public API contract: exports resolve, are documented, and versioned."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.nn",
    "repro.workloads",
    "repro.platforms",
    "repro.cluster",
    "repro.core",
    "repro.scenarios",
    "repro.pipeline",
    "repro.lifecycle",
    "repro.conformal",
    "repro.serving",
    "repro.orchestration",
    "repro.baselines",
    "repro.eval",
    "repro.analysis",
    "repro.sweep",
]


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: missing docstrings: {undocumented}"


def test_paper_constants_re_exported():
    # The headline knobs a downstream user needs are on the root package.
    assert repro.PAPER_QUANTILES[-1] == 0.99
    cfg = repro.PitotConfig()
    assert cfg.embedding_dim == 32


def test_readme_quickstart_names_exist():
    """Every identifier the README quickstart imports must exist."""
    for name in (
        "collect_dataset", "make_split", "train_pitot", "PitotConfig",
        "TrainerConfig", "PAPER_QUANTILES", "ConformalRuntimePredictor",
        "save_model", "load_model",
        "PredictionService", "EmbeddingSnapshot",
        "ScenarioSpec", "get_scenario", "run_pipeline", "ArtifactStore",
        "PipelineResult",
    ):
        assert hasattr(repro, name), name
