"""Pitot configuration (hyperparameters of Secs 3.3–3.6 / App B.3–D.2)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PitotConfig", "TrainerConfig", "PAPER_QUANTILES"]

#: The paper's quantile-regression target spread (App B.2): denser near 1.
PAPER_QUANTILES: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99)


@dataclass(frozen=True)
class PitotConfig:
    """Model architecture and objective configuration.

    Defaults are the paper's selected hyperparameters: embedding dimension
    r=32, learned features q=1, interference types s=2, two 128-unit GELU
    hidden layers, LeakyReLU(0.1) interference activation, interference
    objective weight β=0.5 (App B.3/D.2).
    """

    #: Embedding dimension r (rank constraint of the factorization).
    embedding_dim: int = 32
    #: Learned features q appended to each entity's side information.
    learned_features: int = 1
    #: Interference types s (rank of the interference matrix F_j).
    interference_types: int = 2
    #: Hidden layer sizes of both towers.
    hidden: tuple[int, ...] = (128, 128)
    #: Quantile targets ξ; ``None`` → single head trained with squared
    #: loss (the version evaluated for error; Sec 5.1).
    quantiles: tuple[float, ...] | None = None
    #: Interference objective weight β (isolation weight is 1).
    interference_weight: float = 0.5
    #: Interference activation α: "leaky_relu" (paper) or "identity"
    #: (the "simple multiplicative" ablation of Fig 4d).
    interference_activation: str = "leaky_relu"
    #: Negative slope of the leaky interference activation.
    leaky_slope: float = 0.1
    #: Feature ablations (Fig 4b).
    use_workload_features: bool = True
    use_platform_features: bool = True
    #: Objective: "log_residual" (paper), "log" (no scaling baseline), or
    #: "proportional" (naive proportional loss; Fig 4a).
    objective: str = "log_residual"
    #: Interference handling: "aware" (paper), "discard", or "ignore"
    #: (Fig 4c).
    interference_mode: str = "aware"

    def __post_init__(self) -> None:
        if not isinstance(self.hidden, tuple) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n > 0
            for n in self.hidden
        ):
            # () is legal: linear towers.
            raise ValueError(
                f"hidden must be a tuple of positive ints, got {self.hidden!r}"
            )
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.learned_features < 0:
            raise ValueError("learned_features must be >= 0")
        if self.interference_types < 0:
            raise ValueError("interference_types must be >= 0")
        if self.objective not in ("log_residual", "log", "proportional"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.interference_mode not in ("aware", "discard", "ignore"):
            raise ValueError(f"unknown interference_mode {self.interference_mode!r}")
        if self.interference_activation not in ("leaky_relu", "identity", "relu"):
            raise ValueError(
                f"unknown interference_activation {self.interference_activation!r}"
            )
        if self.quantiles is not None:
            if not all(0.0 < q < 1.0 for q in self.quantiles):
                raise ValueError("quantiles must lie in (0, 1)")

    @property
    def n_heads(self) -> int:
        """Workload-embedding heads: one per quantile, else one."""
        return len(self.quantiles) if self.quantiles else 1

    @property
    def models_interference(self) -> bool:
        """Whether the interference term exists in the architecture."""
        return self.interference_mode == "aware" and self.interference_types > 0


@dataclass(frozen=True)
class TrainerConfig:
    """Optimization configuration (App B.3).

    Paper values: AdaMax(1e-3), 20k steps, batch 2048 split into four
    512-sample per-degree sub-batches, eval every 200 steps with
    best-validation checkpointing. ``steps`` defaults lower because the
    CPU reproduction trains on miniature datasets; benches scale it up.
    """

    steps: int = 2000
    batch_per_degree: int = 512
    learning_rate: float = 1e-3
    eval_every: int = 200
    #: Cap on validation rows used for checkpoint selection (speed).
    max_eval_rows: int = 20000
    seed: int = 0
    #: Training precision: "float64" (default; bitwise-pinned by the
    #: equivalence suite) or "float32" (≈2× faster GEMMs/tanh on CPU at
    #: the cost of gradient precision; validation metrics still float64).
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_per_degree < 1:
            raise ValueError("batch_per_degree must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.max_eval_rows < 1:
            # Zero rows would make every validation loss NaN, so fit()
            # would never checkpoint and silently restore the init.
            raise ValueError("max_eval_rows must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be 'float64' or 'float32', got {self.dtype!r}")
