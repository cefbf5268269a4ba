"""Pitot — interference-aware edge runtime prediction with conformal
matrix completion (MLSys 2025 reproduction).

Public API tour
---------------
Dataset (simulated heterogeneous WebAssembly cluster, Sec 4)::

    from repro import collect_dataset, make_split
    dataset = collect_dataset(seed=0)          # paper-scale campaign
    split = make_split(dataset, train_fraction=0.5, seed=0)

Point prediction (Secs 3.2–3.4)::

    from repro import PitotConfig, TrainerConfig, train_pitot
    result = train_pitot(split.train, split.calibration)
    seconds = result.model.predict_runtime(w_idx, p_idx, interferers)

Runtime bounds (Sec 3.5)::

    from repro import PAPER_QUANTILES, PitotConfig, ConformalRuntimePredictor
    result = train_pitot(split.train, split.calibration,
                         model_config=PitotConfig(quantiles=PAPER_QUANTILES))
    bounds = (ConformalRuntimePredictor(result.model, PAPER_QUANTILES)
              .calibrate(split.calibration, epsilons=(0.05,))
              .predict_bound(w_idx, p_idx, interferers, epsilon=0.05))

Serving (batched, embedding-cached bound queries)::

    from repro import PredictionService
    service = PredictionService.from_predictor(calibrated_predictor)
    budgets = service.predict_bound(w_idx, p_idx, interferers, epsilon=0.05)

Scenarios + pipeline (one declarative path, cached stage-by-stage)::

    from repro import run_pipeline
    result = run_pipeline("paper", store=".repro-cache")
    service = result.service()      # warm re-runs execute zero stages

Continual learning (streaming ingest → warm update → rolling
recalibration → atomic swap)::

    from repro import run_lifecycle
    outcome = run_lifecycle(spec, dataset, result.model, result.predictor)
    outcome.coverage_by_phase()     # adaptive vs never-recalibrated

Sub-packages: :mod:`repro.nn` (autograd substrate), :mod:`repro.workloads`,
:mod:`repro.platforms`, :mod:`repro.cluster` (simulator), :mod:`repro.core`
(Pitot), :mod:`repro.scenarios` (named campaign registry),
:mod:`repro.pipeline` (staged, cached scenario pipeline),
:mod:`repro.lifecycle` (continual-learning loop), :mod:`repro.conformal`,
:mod:`repro.serving`, :mod:`repro.baselines`, :mod:`repro.eval`,
:mod:`repro.analysis`.
"""

from .baselines import (
    AttentionBaseline,
    BaselineTrainer,
    MatrixFactorizationBaseline,
    NeuralNetworkBaseline,
)
from .cluster import (
    ClusterCollector,
    CollectionConfig,
    DataSplit,
    GroundTruthPerformanceModel,
    ObservationBuffer,
    PerformanceModelConfig,
    RuntimeDataset,
    collect_dataset,
    make_cluster,
    make_split,
    replicate_splits,
)
from .conformal import ConformalRuntimePredictor, conformal_offset
from .core import (
    PAPER_QUANTILES,
    EmbeddingSnapshot,
    LinearScalingBaseline,
    PitotConfig,
    PitotModel,
    PitotTrainer,
    TrainerConfig,
    TrainingResult,
    train_pitot,
)
from .core.serialization import load_model, save_model
from .eval import coverage, mape, overprovision_margin
from .orchestration import (
    AdmissionController,
    BudgetOracle,
    ClusterSimulator,
    FleetWorld,
    PlacementProblem,
    ScheduleReport,
    flow_placement,
    greedy_placement,
)
from .lifecycle import (
    DriftTrace,
    LifecycleManager,
    make_drift_trace,
    run_lifecycle,
)
from .pipeline import ArtifactStore, PipelineResult, run_pipeline
from .scenarios import (
    DriftSpec,
    ScenarioSpec,
    SchedulingSpec,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario,
    scenario_names,
)
from .serving import PredictionService

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # cluster / data
    "RuntimeDataset",
    "GroundTruthPerformanceModel",
    "PerformanceModelConfig",
    "ClusterCollector",
    "CollectionConfig",
    "collect_dataset",
    "make_cluster",
    "DataSplit",
    "make_split",
    "replicate_splits",
    "ObservationBuffer",
    # core
    "PitotConfig",
    "TrainerConfig",
    "PitotModel",
    "PitotTrainer",
    "TrainingResult",
    "train_pitot",
    "LinearScalingBaseline",
    "PAPER_QUANTILES",
    "save_model",
    "load_model",
    # scenarios / pipeline
    "ScenarioSpec",
    "DriftSpec",
    "SchedulingSpec",
    "scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "ArtifactStore",
    "PipelineResult",
    "run_pipeline",
    # lifecycle
    "DriftTrace",
    "make_drift_trace",
    "LifecycleManager",
    "run_lifecycle",
    # conformal
    "ConformalRuntimePredictor",
    "conformal_offset",
    # serving
    "EmbeddingSnapshot",
    "PredictionService",
    # baselines
    "MatrixFactorizationBaseline",
    "NeuralNetworkBaseline",
    "AttentionBaseline",
    "BaselineTrainer",
    # orchestration
    "BudgetOracle",
    "PlacementProblem",
    "greedy_placement",
    "flow_placement",
    "AdmissionController",
    "FleetWorld",
    "ClusterSimulator",
    "ScheduleReport",
    # metrics
    "mape",
    "overprovision_margin",
    "coverage",
]
