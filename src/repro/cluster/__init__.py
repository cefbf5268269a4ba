"""Simulated heterogeneous cluster: ground truth, collection, datasets.

Substitutes for the paper's physical 24-device testbed (Fig 3). See
DESIGN.md §2 for the substitution rationale.
"""

from .collection import (
    ClusterCollector,
    CollectionConfig,
    collect_dataset,
    make_cluster,
    synthetic_fleet_dataset,
)
from .dataset import (
    DATASET_SCHEMA_VERSION,
    DEGREES,
    MAX_INTERFERERS,
    BoundQuery,
    RuntimeDataset,
)
from .performance import GroundTruthPerformanceModel, PerformanceModelConfig
from .splits import (
    DataSplit,
    make_cold_workload_split,
    make_split,
    replicate_splits,
)
from .stream import ObservationBuffer, PoolDriftStat
from .trace_io import export_observations_csv, import_trace_csv

__all__ = [
    "GroundTruthPerformanceModel",
    "PerformanceModelConfig",
    "ClusterCollector",
    "CollectionConfig",
    "collect_dataset",
    "make_cluster",
    "synthetic_fleet_dataset",
    "RuntimeDataset",
    "BoundQuery",
    "DATASET_SCHEMA_VERSION",
    "DEGREES",
    "MAX_INTERFERERS",
    "DataSplit",
    "make_split",
    "make_cold_workload_split",
    "replicate_splits",
    "ObservationBuffer",
    "PoolDriftStat",
    "export_observations_csv",
    "import_trace_csv",
]
