"""Trained-model persistence.

Saves a :class:`~repro.core.model.PitotModel` — architecture config,
parameters, feature matrices, and the fitted linear-scaling baseline — to
a single ``.npz`` archive, so an orchestration service can train offline
and load the predictor elsewhere without the training stack.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..cluster.dataset import check_schema_version
from .config import PitotConfig
from .model import PitotModel
from .scaling import LinearScalingBaseline

__all__ = ["save_model", "load_model", "MODEL_SCHEMA_VERSION"]

#: On-disk model archive version; :func:`load_model` refuses any other
#: version (see :func:`repro.cluster.dataset.check_schema_version`).
MODEL_SCHEMA_VERSION: int = 1


def save_model(model: PitotModel, path: str | Path) -> None:
    """Serialize a (trained) Pitot model to ``path`` (.npz)."""
    payload: dict[str, np.ndarray] = {
        "schema_version": np.array(MODEL_SCHEMA_VERSION)
    }
    for name, value in model.state_dict().items():
        payload[f"param::{name}"] = value

    config = asdict(model.config)
    for key, value in config.items():
        if value is None:
            payload[f"config_none::{key}"] = np.array(0)
        elif isinstance(value, tuple):
            payload[f"config_tuple::{key}"] = np.asarray(value)
        elif isinstance(value, bool):
            payload[f"config_bool::{key}"] = np.array(int(value))
        elif isinstance(value, int):
            payload[f"config_int::{key}"] = np.array(value)
        elif isinstance(value, float):
            payload[f"config_float::{key}"] = np.array(value)
        else:
            payload[f"config_str::{key}"] = np.array(str(value))

    payload["features::workload"] = model._raw_workload_features
    payload["features::platform"] = model._raw_platform_features

    if model.baseline is not None:
        payload["baseline::w_bar"] = model.baseline.w_bar
        payload["baseline::p_bar"] = model.baseline.p_bar

    np.savez(Path(path), **payload)


def load_model(path: str | Path) -> PitotModel:
    """Reconstruct a Pitot model saved with :func:`save_model`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        check_schema_version(archive, MODEL_SCHEMA_VERSION, "model", path)
        config_kwargs: dict = {}
        params: dict[str, np.ndarray] = {}
        features: dict[str, np.ndarray] = {}
        baseline_parts: dict[str, np.ndarray] = {}
        for key in archive.files:
            if key == "schema_version":
                continue
            kind, _, name = key.partition("::")
            value = archive[key]
            if kind == "param":
                params[name] = value
            elif kind == "config_none":
                config_kwargs[name] = None
            elif kind == "config_tuple":
                items = value.tolist()
                if name == "hidden":
                    config_kwargs[name] = tuple(int(v) for v in items)
                else:
                    config_kwargs[name] = tuple(float(v) for v in items)
            elif kind == "config_bool":
                config_kwargs[name] = bool(value)
            elif kind == "config_int":
                config_kwargs[name] = int(value)
            elif kind == "config_float":
                config_kwargs[name] = float(value)
            elif kind == "config_str":
                config_kwargs[name] = str(value)
            elif kind == "features":
                features[name] = value
            elif kind == "baseline":
                baseline_parts[name] = value

    config = PitotConfig(**config_kwargs)
    model = PitotModel(
        features["workload"],
        features["platform"],
        config,
        np.random.default_rng(0),
    )
    model.load_state_dict(params)
    if baseline_parts:
        model.baseline = LinearScalingBaseline.from_parameters(
            baseline_parts["w_bar"], baseline_parts["p_bar"]
        )
    return model
