"""The Pitot model: two-tower matrix factorization with interference heads.

Architecture (Fig 2):

* **Workload tower** ``f_w``: MLP over ``[x_w, φ_w]`` emitting one
  r-dimensional embedding per quantile head (Sec 3.5 trains multiple
  *workload* embeddings and shares the platform embedding across heads).
* **Platform tower** ``f_p``: MLP over ``[x_p, φ_p]`` emitting the
  platform embedding ``p_j`` plus interference susceptibility vectors
  ``v_s^(t)`` and magnitude vectors ``v_g^(t)`` for each of the s types.
* **Prediction** (Eq. 9):

  ``ŷ_ijK = w_iᵀ p_j + Σ_t (w_iᵀ v_s^(t)) · α(Σ_{k∈K} w_kᵀ v_g^(t))``

  which is the residual on top of the linear-scaling baseline
  ``log C̄_ij = w̄_i + p̄_j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import (
    MLP,
    EmbeddingTable,
    Module,
    ScratchArena,
    Tensor,
    concatenate,
    fused_mlp,
    gelu,
    get_default_dtype,
    identity,
    leaky_relu,
    no_grad,
    relu,
)
from .config import PitotConfig
from .scaling import LinearScalingBaseline

__all__ = [
    "PitotModel",
    "EmbeddingSnapshot",
    "SNAPSHOT_CHUNK",
    "SparseBatchPlan",
    "interference_rows",
    "plan_sparse_batch",
    "standardize_features",
]

#: Rows per forward when a snapshot scores a batch. The interference
#: term's temporaries grow with the chunk: scoring the 74,031-row
#: ``paper`` test split peaked at 113 MB RSS in chunks of 8,192 rows and
#: at 250 MB in chunks of 65,536. ``serving.service.MAX_BATCH`` takes
#: its value from here.
SNAPSHOT_CHUNK = 8192


def standardize_features(features: np.ndarray) -> np.ndarray:
    """Column z-scoring; constant columns map to zero."""
    mean = features.mean(axis=0, keepdims=True)
    std = features.std(axis=0, keepdims=True)
    std = np.where(std < 1e-12, 1.0, std)
    return (features - mean) / std


@dataclass(frozen=True)
class SparseBatchPlan:
    """Index bookkeeping for one batch-sparse training step.

    Maps the global entity indices referenced by a batch (workloads,
    platforms, and interferer columns) onto rows of the *subset* embedding
    matrices produced by :meth:`PitotModel.compute_embeddings_sparse`, so
    the towers only ever run over ``len(w_rows) + len(p_rows)`` rows
    instead of the full population.
    """

    w_rows: np.ndarray  #: (Uw,) sorted unique global workload indices
    p_rows: np.ndarray  #: (Up,) sorted unique global platform indices
    w_local: np.ndarray  #: (B,) batch workload indices into ``w_rows``
    p_local: np.ndarray  #: (B,) batch platform indices into ``p_rows``
    interferers_local: np.ndarray | None  #: (B, K) remapped, ``-1``-padded


def plan_sparse_batch(
    w_idx: np.ndarray,
    p_idx: np.ndarray,
    interferers: np.ndarray | None = None,
) -> SparseBatchPlan:
    """Compute the unique-row plan for a training batch.

    ``interferers`` uses the dataset's ``-1`` padding; padded cells stay
    ``-1`` in the remapped matrix. Every interferer index is folded into
    the workload row set, since interferer embeddings come from the same
    workload tower.
    """
    w_idx = np.asarray(w_idx, dtype=np.intp)
    p_idx = np.asarray(p_idx, dtype=np.intp)
    if interferers is None:
        w_rows, w_local = np.unique(w_idx, return_inverse=True)
        interferers_local = None
    else:
        interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        mask = interferers >= 0
        w_rows, inverse = np.unique(
            np.concatenate([w_idx, interferers[mask]]), return_inverse=True
        )
        w_local = inverse[: len(w_idx)]
        interferers_local = np.full_like(interferers, -1)
        interferers_local[mask] = inverse[len(w_idx) :]
    p_rows, p_local = np.unique(p_idx, return_inverse=True)
    return SparseBatchPlan(
        w_rows=w_rows,
        p_rows=p_rows,
        w_local=w_local,
        p_local=p_local,
        interferers_local=interferers_local,
    )


def interference_rows(
    VS, interference_mode: str, interferers: np.ndarray | None
) -> np.ndarray | None:
    """The batch's ``(B, K)`` interferer matrix when Eq. 9's interference
    term applies to it, else ``None`` (an interference-blind model, the
    ``"ignore"`` ablation, no interferers, or only ``-1`` padding)."""
    if VS is None or interference_mode == "ignore" or interferers is None:
        return None
    interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
    return interferers if (interferers >= 0).any() else None


def _forward_batch(
    W,
    P,
    VS,
    VG,
    w_idx: np.ndarray,
    p_idx: np.ndarray,
    interferers: np.ndarray | None,
    *,
    heads: int,
    r: int,
    s: int,
    interference_mode: str,
    activation,
    gather,
    const,
):
    """Eq. 9 residual prediction, generic over the array type.

    Shared by the training path (autograd :class:`~repro.nn.Tensor`) and
    the serving path (plain ``ndarray``); both perform the same NumPy
    operations in the same order, so the two paths agree bitwise.
    ``gather(a, idx)`` gathers rows along axis 0 and ``const`` lifts a raw
    coefficient array into the operand type.
    """
    b = len(w_idx)
    Wi = gather(W, w_idx)  # (B, H, r)
    Pj = gather(P, p_idx)  # (B, r)
    # Batched GEMMs keep temporaries 3-D (the broadcast-mul+sum
    # formulation materializes (B,K,H,s,r) and is memory-bound).
    base = (Wi @ Pj.reshape(b, r, 1)).reshape(b, heads)  # (B, H)

    interferers = interference_rows(VS, interference_mode, interferers)
    if interferers is None:
        return base
    dt = P.dtype if isinstance(P, np.ndarray) else P.data.dtype
    mask = (interferers >= 0).astype(dt)  # (B, K)
    safe = np.where(interferers >= 0, interferers, 0).ravel()
    k = mask.shape[1]

    Wk = gather(W, safe).reshape(b, k * heads, r)  # (B, K*H, r)
    VGj_t = gather(VG, p_idx).transpose(0, 2, 1)  # (B, r, s)
    VSj_t = gather(VS, p_idx).transpose(0, 2, 1)  # (B, r, s)

    # magnitude per interferer/type: (B, K*H, s) → (B, K, H, s)
    mag = (Wk @ VGj_t).reshape(b, k, heads, s)
    mag = mag * const(mask.reshape(b, k, 1, 1))
    total = mag.sum(axis=1)  # (B, H, s)
    act = activation(total)

    sus = Wi @ VSj_t  # (B, H, s)
    return base + (sus * act).sum(axis=2)


def _forward_table(
    W: Tensor,
    P: Tensor,
    VS: Tensor | None,
    VG: Tensor | None,
    w_idx: np.ndarray,
    p_idx: np.ndarray,
    interferers: np.ndarray | None,
    *,
    heads: int,
    r: int,
    s: int,
    interference_mode: str,
    activation,
) -> Tensor:
    """Eq. 9 residual prediction scored from one pairwise table.

    ``T = W·[P | V_s | V_g]ᵀ`` dots every (workload, head) embedding with
    every platform vector in one GEMM. Viewed as one row per
    (workload ``i``, head ``h``, platform ``j``), a row holds ``c = 1 + 2s``
    entries: ``w_iᵀp_j``, then ``w_iᵀv_s^(t)`` and ``w_iᵀv_g^(t)`` for each
    type ``t``. One ``take`` picks each batch row's base and susceptibility
    entries (target rows) and magnitude entries (interferer rows), so the
    backward pass is that take's one ``bincount`` into ``dT`` plus the
    GEMM's two. Without an interference term the table is ``W·Pᵀ``.

    Training only: each entry sums its ``r`` products in a different order
    than :func:`_forward_batch`, so the two agree to rounding, not bitwise
    (``PitotTrainer`` picks between them with
    :func:`~repro.core.trainer.choose_table`).
    """
    b, n_w, n_p = len(w_idx), W.shape[0], P.shape[0]
    interferers = interference_rows(VS, interference_mode, interferers)
    if interferers is None:
        c, own, platform = 1, 1, P
    else:
        c, own = 1 + 2 * s, 1 + s
        platform = concatenate([P.reshape(n_p, 1, r), VS, VG], axis=1)
    table = W.reshape(n_w * heads, r) @ platform.reshape(n_p * c, r).T
    head_offsets = (np.arange(heads) * (n_p * c))[:, None]  # (H, 1)

    def entries(w: np.ndarray, p: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Flat table positions of columns ``cols`` in the rows of
        workloads ``w`` (any shape) on platforms ``p`` (broadcast to
        ``w``): shape ``w.shape + (H, len(cols))``."""
        first = w * (heads * n_p * c) + p * c
        return first[..., None, None] + (head_offsets + cols)

    # Base and susceptibility entries of each batch row's own workload.
    target = entries(w_idx, p_idx, np.arange(own))
    if interferers is None:
        return table.reshape(-1).take(target.ravel()).reshape(b, heads)
    k = interferers.shape[1]
    mask = interferers >= 0
    magnitude = entries(
        np.where(mask, interferers, 0), p_idx[:, None], np.arange(own, c)
    )
    picked = table.reshape(-1).take(
        np.concatenate([target.ravel(), magnitude.ravel()])
    )
    mine = picked[: target.size].reshape(b, heads, own)
    mag = picked[target.size :].reshape(b, k, heads, s)
    mag = mag * Tensor(mask.astype(P.data.dtype).reshape(b, k, 1, 1))
    act = activation(mag.sum(axis=1))  # (B, H, s)
    return mine[:, :, 0] + (mine[:, :, 1:] * act).sum(axis=2)


def _numpy_activation(config: PitotConfig):
    """Inference-path α matching the autograd activations elementwise."""
    if config.interference_activation == "leaky_relu":
        slope = config.leaky_slope
        return lambda x: np.where(x > 0, x, x * slope)
    if config.interference_activation == "relu":
        return lambda x: np.where(x > 0, x, np.zeros_like(x))
    return lambda x: x


@dataclass(frozen=True)
class EmbeddingSnapshot:
    """Inference-only view of a trained Pitot model.

    Freezes the tower outputs (and the fitted scaling baseline) into plain
    NumPy arrays so serving-time predictions run a single vectorized
    gather-and-GEMM forward — no autograd tape, no tower recomputation.
    The forward is numerically identical to
    :meth:`PitotModel.predict_log` (same operations, same order).

    Staleness rule: a snapshot captures the model's parameter
    ``generation`` at creation time; any further ``fit`` (or
    ``load_state_dict``) bumps the generation, making the snapshot stale.
    Callers holding a snapshot across retraining must re-snapshot —
    :meth:`is_stale` makes the check cheap.
    """

    config: PitotConfig
    W: np.ndarray  #: (Nw, H, r) workload embeddings, one per head
    P: np.ndarray  #: (Np, r) platform embeddings
    VS: np.ndarray | None  #: (Np, s, r) susceptibility vectors
    VG: np.ndarray | None  #: (Np, s, r) magnitude vectors
    baseline_w: np.ndarray | None  #: fitted w̄ (None when no baseline)
    baseline_p: np.ndarray | None  #: fitted p̄ (None when no baseline)
    generation: int  #: source model's parameter generation at capture

    @classmethod
    def from_model(cls, model: "PitotModel") -> "EmbeddingSnapshot":
        """Run both towers once (tape-free) and freeze the outputs."""
        with no_grad():
            W, P, VS, VG = model.compute_embeddings()
        baseline = model.baseline
        return cls(
            config=model.config,
            W=W.data.copy(),
            P=P.data.copy(),
            VS=None if VS is None else VS.data.copy(),
            VG=None if VG is None else VG.data.copy(),
            baseline_w=None if baseline is None else baseline.w_bar.copy(),
            baseline_p=None if baseline is None else baseline.p_bar.copy(),
            generation=model.generation,
        )

    # ------------------------------------------------------------------
    @property
    def n_workloads(self) -> int:
        return self.W.shape[0]

    @property
    def n_platforms(self) -> int:
        return self.P.shape[0]

    def is_stale(self, model: "PitotModel") -> bool:
        """True when ``model`` has been re-fitted since this snapshot."""
        return model.generation != self.generation

    # ------------------------------------------------------------------
    def baseline_log(self, w_idx: np.ndarray, p_idx: np.ndarray) -> np.ndarray:
        """Baseline term ``log C̄`` (zeros for non-residual objectives)."""
        if self.config.objective == "log_residual":
            if self.baseline_w is None:
                raise RuntimeError("log_residual model has no fitted baseline")
            return (
                self.baseline_w[np.asarray(w_idx)]
                + self.baseline_p[np.asarray(p_idx)]
            )
        return np.zeros(len(np.asarray(w_idx)))

    def forward(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> np.ndarray:
        """Residual prediction ``ŷ`` for one batch; shape ``(B, H)``."""
        cfg = self.config
        return _forward_batch(
            self.W,
            self.P,
            self.VS,
            self.VG,
            np.asarray(w_idx, dtype=np.intp),
            np.asarray(p_idx, dtype=np.intp),
            interferers,
            heads=cfg.n_heads,
            r=cfg.embedding_dim,
            s=cfg.interference_types,
            interference_mode=cfg.interference_mode,
            activation=_numpy_activation(cfg),
            gather=lambda a, idx: a.take(idx, axis=0),
            const=lambda m: m,
        )

    def predict_log(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        chunk: int = SNAPSHOT_CHUNK,
    ) -> np.ndarray:
        """Full natural-log runtime predictions, shape ``(n, H)``.

        Drop-in replacement for :meth:`PitotModel.predict_log`. Each row's
        forward is independent of its chunk, so ``chunk`` moves memory and
        time, not bits.
        """
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        if interferers is not None:
            # Normalize before chunk slicing: a 1-D row means one query,
            # and slicing it per chunk would truncate it to one column.
            interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        n = len(w_idx)
        out = np.empty((n, self.config.n_heads))
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            sub_int = None if interferers is None else interferers[lo:hi]
            out[lo:hi] = self.forward(w_idx[lo:hi], p_idx[lo:hi], sub_int)
        return out + self.baseline_log(w_idx, p_idx)[:, None]

    def predict_runtime(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        head: int = 0,
    ) -> np.ndarray:
        """Point runtime prediction in seconds (one head)."""
        return np.exp(self.predict_log(w_idx, p_idx, interferers)[:, head])


class PitotModel(Module):
    """Pitot predictor over a fixed workload/platform population.

    Parameters
    ----------
    workload_features, platform_features:
        Side information matrices ``x_w`` (log opcode counts) and
        ``x_p``; standardized internally. Feature ablations (Fig 4b) are
        applied according to ``config``.
    config:
        Architecture/objective configuration.
    rng:
        Initialization generator.
    """

    def __init__(
        self,
        workload_features: np.ndarray,
        platform_features: np.ndarray,
        config: PitotConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.config = config
        self.n_workloads = workload_features.shape[0]
        self.n_platforms = platform_features.shape[0]
        # Raw copies retained for serialization round trips.
        self._raw_workload_features = np.array(workload_features, dtype=np.float64)
        self._raw_platform_features = np.array(platform_features, dtype=np.float64)

        xw = standardize_features(workload_features)
        xp = standardize_features(platform_features)
        if not config.use_workload_features:
            xw = np.zeros((self.n_workloads, 0))
        if not config.use_platform_features:
            xp = np.zeros((self.n_platforms, 0))
        self._xw = xw
        self._xp = xp

        q = config.learned_features
        if q == 0 and xw.shape[1] == 0:
            raise ValueError(
                "workload tower has no inputs: enable features or set q >= 1"
            )
        if q == 0 and xp.shape[1] == 0:
            raise ValueError(
                "platform tower has no inputs: enable features or set q >= 1"
            )

        r, s, heads = config.embedding_dim, config.interference_types, config.n_heads
        self.phi_w = EmbeddingTable(self.n_workloads, q, rng, std=0.1)
        self.phi_p = EmbeddingTable(self.n_platforms, q, rng, std=0.1)
        self.workload_tower = MLP(
            xw.shape[1] + q, config.hidden, r * heads, rng, activation=gelu
        )
        plat_out = r + (2 * s * r if config.models_interference else 0)
        self.platform_tower = MLP(
            xp.shape[1] + q, config.hidden, plat_out, rng, activation=gelu
        )
        if config.models_interference:
            # Start the interference heads small: platforms whose training
            # data shows little interference then keep small ‖F_j‖ instead
            # of inheriting initialization noise (cf. the paper's note on
            # dead interference types from poor initialization, Sec 3.4).
            last = getattr(self.platform_tower, f"layer{self.platform_tower.n_layers - 1}")
            last.weight.data[:, r:] *= 0.1

        #: Linear-scaling baseline; attached by the trainer (or left as
        #: zeros for the "log"/"proportional" objectives).
        self.baseline: LinearScalingBaseline | None = None

        #: Parameter generation, bumped by fit/load_state_dict; snapshots
        #: record it so stale serving state is detectable.
        self._generation = 0

        self._activation = {
            "leaky_relu": lambda t: leaky_relu(t, config.leaky_slope),
            "relu": relu,
            "identity": identity,
        }[config.interference_activation]

        #: Scratch buffers for the fused tower kernels: one live buffer
        #: per (tag, shape, dtype) — zero per-step allocation on the
        #: training hot path once shapes stabilize.
        self._arena = ScratchArena()
        #: Per-dtype constant feature tensors (fused path; avoids
        #: re-coercing the feature matrices every step).
        self._feature_cache: dict[tuple[str, str], Tensor] = {}

    # ------------------------------------------------------------------
    # Embedding computation (always all entities; App B.3 optimization)
    # ------------------------------------------------------------------
    def _const_features(self, which: str) -> Tensor:
        """Constant feature tensor in the ambient default dtype, cached.

        The fused path re-uses one leaf per dtype so training steps do not
        re-coerce the (static) feature matrices.
        """
        key = (which, np.dtype(get_default_dtype()).str)
        cached = self._feature_cache.get(key)
        if cached is None:
            cached = Tensor(self._xw if which == "w" else self._xp)
            self._feature_cache[key] = cached
        return cached

    def _fused_tower_input(
        self, table: EmbeddingTable, which: str, rows: np.ndarray | None
    ) -> Tensor:
        """Tower input ``[x, φ]`` for the fused towers.

        Value-identical to :meth:`EmbeddingTable.concat_with` /
        ``concat_rows``, but the features come from the per-dtype cached
        leaf (:meth:`_const_features`) and the row gather goes through
        :meth:`Tensor.take`.
        """
        feats = self._const_features(which)
        if rows is None:
            if table.dim == 0:
                return feats
            return concatenate([feats, table.table], axis=1)
        gathered = feats.take(rows)
        if table.dim == 0:
            return gathered
        return concatenate([gathered, table.table.take(rows)], axis=1)

    def compute_embeddings(
        self, fused: bool = False
    ) -> tuple[Tensor, Tensor, Tensor | None, Tensor | None]:
        """Run both towers for the whole population.

        Returns ``(W, P, VS, VG)`` with shapes ``(Nw, H, r)``, ``(Np, r)``,
        ``(Np, s, r)``, ``(Np, s, r)``; the last two are ``None`` when the
        model is interference-blind. ``fused=True`` routes the towers
        through the arena-backed fused kernels (:mod:`repro.nn.fused`) —
        bitwise-identical outputs, zero per-step allocation.
        """
        cfg = self.config
        r, s, heads = cfg.embedding_dim, cfg.interference_types, cfg.n_heads

        if fused:
            w_in = self._fused_tower_input(self.phi_w, "w", None)
            w_out = fused_mlp(self.workload_tower, w_in, self._arena, "wt")
        else:
            w_in = self.phi_w.concat_with(self._xw)
            w_out = self.workload_tower(w_in)  # (Nw, r*H)
        W = w_out.reshape(self.n_workloads, heads, r)

        if fused:
            p_in = self._fused_tower_input(self.phi_p, "p", None)
            p_out = fused_mlp(self.platform_tower, p_in, self._arena, "pt")
        else:
            p_in = self.phi_p.concat_with(self._xp)
            p_out = self.platform_tower(p_in)  # (Np, r [+ 2sr])
        P = p_out[:, :r]
        if not cfg.models_interference:
            return W, P, None, None
        VS = p_out[:, r : r + s * r].reshape(self.n_platforms, s, r)
        VG = p_out[:, r + s * r :].reshape(self.n_platforms, s, r)
        return W, P, VS, VG

    def compute_embeddings_sparse(
        self, w_rows: np.ndarray, p_rows: np.ndarray, fused: bool = False
    ) -> tuple[Tensor, Tensor, Tensor | None, Tensor | None]:
        """Run both towers for a *subset* of entities (training hot path).

        The tower MLPs are row-independent, so row ``k`` of each returned
        matrix equals row ``w_rows[k]`` / ``p_rows[k]`` of the full
        :meth:`compute_embeddings` output; gradients scatter-add back to
        the full parameter tables through the gather. Shapes are
        ``(Uw, H, r)``, ``(Up, r)``, ``(Up, s, r)``, ``(Up, s, r)``.

        Batch indices must be remapped onto the subset rows first — see
        :func:`plan_sparse_batch`. ``fused=True`` uses the arena-backed
        kernels (bitwise-identical).
        """
        cfg = self.config
        r, s, heads = cfg.embedding_dim, cfg.interference_types, cfg.n_heads
        w_rows = np.asarray(w_rows, dtype=np.intp)
        p_rows = np.asarray(p_rows, dtype=np.intp)

        if fused:
            w_in = self._fused_tower_input(self.phi_w, "w", w_rows)
            w_out = fused_mlp(self.workload_tower, w_in, self._arena, "wt")
        else:
            w_in = self.phi_w.concat_rows(self._xw, w_rows)
            w_out = self.workload_tower(w_in)  # (Uw, r*H)
        W = w_out.reshape(len(w_rows), heads, r)

        if fused:
            p_in = self._fused_tower_input(self.phi_p, "p", p_rows)
            p_out = fused_mlp(self.platform_tower, p_in, self._arena, "pt")
        else:
            p_in = self.phi_p.concat_rows(self._xp, p_rows)
            p_out = self.platform_tower(p_in)  # (Up, r [+ 2sr])
        P = p_out[:, :r]
        if not cfg.models_interference:
            return W, P, None, None
        VS = p_out[:, r : r + s * r].reshape(len(p_rows), s, r)
        VG = p_out[:, r + s * r :].reshape(len(p_rows), s, r)
        return W, P, VS, VG

    # ------------------------------------------------------------------
    # Forward (residual prediction)
    # ------------------------------------------------------------------
    def forward(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        embeddings: tuple | None = None,
    ) -> Tensor:
        """Residual prediction ``ŷ`` for a batch; shape ``(B, H)``.

        ``interferers`` is ``(B, K)`` with ``-1`` padding; ``None`` (or an
        all-padding matrix) yields the interference-free prediction. In
        ``interference_mode="ignore"`` interferers are disregarded.
        ``embeddings`` reuses a precomputed :meth:`compute_embeddings` (or
        ``compute_embeddings_sparse``) result instead of running the towers.
        """
        cfg = self.config
        W, P, VS, VG = (
            embeddings if embeddings is not None else self.compute_embeddings()
        )
        return _forward_batch(
            W,
            P,
            VS,
            VG,
            np.asarray(w_idx, dtype=np.intp),
            np.asarray(p_idx, dtype=np.intp),
            interferers,
            heads=cfg.n_heads,
            r=cfg.embedding_dim,
            s=cfg.interference_types,
            interference_mode=cfg.interference_mode,
            activation=self._activation,
            gather=lambda a, idx: a.take(idx),
            const=Tensor,
        )

    def forward_table(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        embeddings: tuple,
    ) -> Tensor:
        """:meth:`forward` scored from one pairwise table over
        ``embeddings`` (:func:`_forward_table`); equal to it up to
        rounding. The training step uses it at small populations."""
        cfg = self.config
        W, P, VS, VG = embeddings
        return _forward_table(
            W,
            P,
            VS,
            VG,
            np.asarray(w_idx, dtype=np.intp),
            np.asarray(p_idx, dtype=np.intp),
            interferers,
            heads=cfg.n_heads,
            r=cfg.embedding_dim,
            s=cfg.interference_types,
            interference_mode=cfg.interference_mode,
            activation=self._activation,
        )

    # ------------------------------------------------------------------
    # Parameter-generation tracking (serving staleness)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone counter of parameter updates (fit / state loads)."""
        return self._generation

    def mark_updated(self) -> None:
        """Record that parameters changed; invalidates live snapshots."""
        self._generation += 1

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._generation += 1

    def cast(self, dtype: np.dtype | type | str) -> None:
        """Rebind every parameter buffer to ``dtype`` (training precision).

        Used by the trainer's ``dtype="float32"`` path before the
        optimizer captures parameter references. Rebinding (not in-place
        casting) leaves the arena and feature cache holding buffers of the
        old dtype, so both are cleared and the generation bumped.
        """
        dt = np.dtype(dtype)
        if dt.kind != "f":
            raise TypeError(f"cast requires a float dtype, got {dt}")
        for p in self.parameters():
            if p.data.dtype != dt:
                p.data = p.data.astype(dt)
                p.grad = None
        self._arena.clear()
        self._feature_cache.clear()
        self._generation += 1

    def snapshot(self) -> EmbeddingSnapshot:
        """Freeze current embeddings into an inference-only snapshot."""
        return EmbeddingSnapshot.from_model(self)

    def clone(self) -> "PitotModel":
        """An independent copy: same architecture, parameters, baseline.

        The continual-learning path mutates parameters in place
        (:meth:`~repro.core.PitotTrainer.update`); cloning first lets a
        lifecycle run perturb a model while the original — possibly a
        shared cached pipeline artifact — stays pristine. The clone
        starts its own generation counter.
        """
        clone = PitotModel(
            self._raw_workload_features,
            self._raw_platform_features,
            self.config,
            np.random.default_rng(0),
        )
        clone.load_state_dict(self.state_dict())
        if self.baseline is not None:
            clone.baseline = LinearScalingBaseline.from_parameters(
                self.baseline.w_bar.copy(), self.baseline.p_bar.copy()
            )
        return clone

    # ------------------------------------------------------------------
    # Prediction API (NumPy in/out, chunked)
    # ------------------------------------------------------------------
    def baseline_log(self, w_idx: np.ndarray, p_idx: np.ndarray) -> np.ndarray:
        """Baseline term ``log C̄`` (zeros for non-residual objectives)."""
        if self.config.objective == "log_residual":
            if self.baseline is None:
                raise RuntimeError("log_residual model has no fitted baseline")
            return self.baseline.predict(w_idx, p_idx)
        return np.zeros(len(np.asarray(w_idx)))

    def predict_log(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        chunk: int = 4096,
    ) -> np.ndarray:
        """Full natural-log runtime predictions, shape ``(n, H)``.

        For squared-loss models H=1; for quantile models one column per
        target quantile ξ.
        """
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        if interferers is not None:
            # Normalize before chunk slicing: a 1-D row means one query,
            # and slicing it per chunk would truncate it to one column.
            interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        n = len(w_idx)
        out = np.empty((n, self.config.n_heads))
        with no_grad():  # prediction never backpropagates
            embeddings = self.compute_embeddings()
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                sub_int = None if interferers is None else interferers[lo:hi]
                pred = self.forward(
                    w_idx[lo:hi], p_idx[lo:hi], sub_int, embeddings=embeddings
                )
                out[lo:hi] = pred.data
        return out + self.baseline_log(w_idx, p_idx)[:, None]

    def predict_runtime(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        head: int = 0,
    ) -> np.ndarray:
        """Point runtime prediction in seconds (one head)."""
        return np.exp(self.predict_log(w_idx, p_idx, interferers)[:, head])

    # ------------------------------------------------------------------
    # Interpretability accessors (Sec 5.4 / App D.4)
    # ------------------------------------------------------------------
    def workload_embeddings(self, head: int = 0) -> np.ndarray:
        """Trained workload embeddings ``w_i`` for one head; ``(Nw, r)``."""
        with no_grad():
            W, _, _, _ = self.compute_embeddings()
        return W.data[:, head, :].copy()

    def platform_embeddings(self) -> np.ndarray:
        """Trained platform embeddings ``p_j``; ``(Np, r)``."""
        with no_grad():
            _, P, _, _ = self.compute_embeddings()
        return P.data.copy()

    def interference_matrices(self) -> np.ndarray | None:
        """Per-platform interference matrices ``F_j = Σ_t v_s v_gᵀ``.

        Shape ``(Np, r, r)``; ``None`` for interference-blind models.
        Used for the Fig 12d spectral-norm analysis.
        """
        with no_grad():
            _, _, VS, VG = self.compute_embeddings()
        if VS is None:
            return None
        vs, vg = VS.data, VG.data  # (Np, s, r)
        return np.einsum("jtr,jtq->jrq", vs, vg)
