"""Observation container: the runtime dataset.

Mirrors the published dataset's schema: every row is one
(workload, platform, interference-set) observation with a measured wall
clock runtime (Sec 4 / App C.3). Interference sets hold up to 3 interferer
indices, ``-1``-padded; ``degree`` is the number of simultaneously-running
workloads (1 = isolation, 2–4 = the paper's "2/3/4-way interference").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..platforms.platform import Platform
from ..workloads.workload import Workload

__all__ = [
    "RuntimeDataset",
    "BoundQuery",
    "DATASET_SCHEMA_VERSION",
    "check_schema_version",
    "DEGREES",
    "MAX_INTERFERERS",
    "pad_interferers",
]

#: Degrees present in the paper's dataset.
DEGREES: tuple[int, ...] = (1, 2, 3, 4)
#: Up to 3 interfering workloads (4-way).
MAX_INTERFERERS: int = 3
#: On-disk ``.npz`` schema version. Bump whenever the archive layout
#: changes shape or meaning; :meth:`RuntimeDataset.load` refuses archives
#: written under any other version, so cached pipeline artifacts fail
#: loudly instead of deserializing garbage.
DATASET_SCHEMA_VERSION: int = 1


def check_schema_version(
    archive, expected: int, kind: str, path: str | Path
) -> None:
    """Validate an ``.npz`` archive's ``schema_version`` entry.

    Shared by every persistence layer (datasets, models, pipeline
    artifacts): raises ``ValueError`` naming the file, the found version,
    and the expected one — both for archives written before versioning
    existed (no entry) and for genuine mismatches.
    """
    if "schema_version" not in getattr(archive, "files", archive):
        raise ValueError(
            f"{path}: no schema_version entry; this {kind} archive predates "
            f"schema versioning (expected version {expected}). Re-create it "
            f"with the current code."
        )
    found = int(archive["schema_version"])
    if found != expected:
        raise ValueError(
            f"{path}: {kind} schema version {found} does not match this "
            f"code's version {expected}; re-create the archive rather than "
            f"risking silent misinterpretation."
        )


def pad_interferers(rows: list[tuple[int, ...]] | list[list[int]]) -> np.ndarray:
    """Ragged interferer lists → the dataset's ``-1``-padded matrix.

    The single place that knows the padding convention; shared by
    :meth:`BoundQuery.from_rows` and the simulator's observation rows.
    """
    out = np.full((len(rows), MAX_INTERFERERS), -1, dtype=np.intp)
    for i, co in enumerate(rows):
        if len(co) > MAX_INTERFERERS:
            raise ValueError(
                f"at most {MAX_INTERFERERS} interferers supported, got {len(co)}"
            )
        out[i, : len(co)] = co
    return out


def _check_range(
    field: str, values: np.ndarray, limit: int, padded: bool = False
) -> None:
    """Raise naming ``field`` unless every value is in ``[0, limit)`` or,
    when ``padded``, is the ``-1`` padding sentinel."""
    # One unsigned compare catches both ends: negatives wrap to huge.
    shifted = values + 1 if padded else values
    bad = shifted.view(np.uintp) >= limit + padded
    if bad.any():
        raise ValueError(
            f"{field} {int(values[bad][0])} out of range [0, {limit})"
        )


@dataclass(frozen=True)
class BoundQuery:
    """A batch of bound queries in canonical form, validated once.

    A served bound should be a function of (workload, platform,
    interferer *set*, ε), but the forward's last bits are not: the
    interference GEMM's shape follows the padded width and the
    interference sum runs in row order. Every bound entry point therefore
    builds one of these first — interferers sorted ascending and
    ``-1``-padded (padding trailing) to :data:`MAX_INTERFERERS` — so a
    query returns the same bits whatever its order, padding, or entry
    point. Subsets of a canonical query stay canonical (:meth:`take`).

    ``population`` is whatever serves the bound: any object with
    ``n_workloads`` and ``n_platforms`` (a model, snapshot, service, or
    the dataset a lifecycle window is materialized against).
    Failures raise ``ValueError`` naming the offending field.
    """

    w_idx: np.ndarray  #: (n,) intp workload indices
    p_idx: np.ndarray  #: (n,) intp platform indices
    interferers: np.ndarray  #: (n, MAX_INTERFERERS) intp, canonical

    def __len__(self) -> int:
        return len(self.w_idx)

    @classmethod
    def from_arrays(
        cls,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        population,
    ) -> "BoundQuery":
        """Validate and canonicalize array queries.

        ``interferers`` is ``None`` (isolation) or ``(n, K)`` for any
        ``K``, with ``-1`` as padding anywhere in a row; at most
        :data:`MAX_INTERFERERS` entries per row may be real.
        """
        w = np.asarray(w_idx, dtype=np.intp)
        p = np.asarray(p_idx, dtype=np.intp)
        n = len(w)
        if len(p) != n:
            raise ValueError(f"p_idx has {len(p)} rows for {n} queries")
        n_workloads = population.n_workloads
        _check_range("workload", w, n_workloads)
        _check_range("platform", p, population.n_platforms)
        if interferers is None:
            return cls(w, p, np.full((n, MAX_INTERFERERS), -1, dtype=np.intp))
        co = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        if len(co) != n:
            raise ValueError(
                f"interferers has {len(co)} rows for {n} queries"
            )
        _check_range("interferer", co, n_workloads, padded=True)
        # As unsigned, the -1 padding is the largest value: one ascending
        # sort puts each row's indices first, in order, and padding last.
        co = np.sort(co.view(np.uintp), axis=1).view(np.intp)
        width = co.shape[1]
        if width > MAX_INTERFERERS:
            over = co[:, MAX_INTERFERERS] != -1
            if over.any():
                raise ValueError(
                    f"at most {MAX_INTERFERERS} interferers supported, "
                    f"got {int((co[over][0] != -1).sum())}"
                )
            return cls(w, p, np.ascontiguousarray(co[:, :MAX_INTERFERERS]))
        if width < MAX_INTERFERERS:
            out = np.full((n, MAX_INTERFERERS), -1, dtype=np.intp)
            out[:, :width] = co
            co = out
        return cls(w, p, co)

    @classmethod
    def from_rows(cls, rows, population) -> "BoundQuery":
        """Validate and canonicalize ragged ``(workload, platform, co)``
        rows (CLI lines, single submissions); ``-1`` in ``co`` is
        padding and is dropped."""
        rows = list(rows)
        return cls.from_arrays(
            np.array([row[0] for row in rows], dtype=np.intp),
            np.array([row[1] for row in rows], dtype=np.intp),
            pad_interferers([[c for c in row[2] if c != -1] for row in rows]),
            population,
        )

    def take(self, rows: np.ndarray) -> "BoundQuery":
        """The canonical sub-query of ``rows``."""
        return BoundQuery(
            self.w_idx[rows], self.p_idx[rows], self.interferers[rows]
        )


@dataclass
class RuntimeDataset:
    """A collected runtime dataset plus the side information matrices.

    Attributes
    ----------
    w_idx, p_idx:
        ``(n,)`` workload / platform indices per observation.
    interferers:
        ``(n, MAX_INTERFERERS)`` interferer workload indices, ``-1``-padded.
    runtime:
        ``(n,)`` measured runtimes in seconds.
    workload_features, platform_features:
        Side information ``x_w`` (log opcode counts) and ``x_p``.
    workloads, platforms:
        Entity metadata (may be ``None`` after a bare npz load).
    """

    w_idx: np.ndarray
    p_idx: np.ndarray
    interferers: np.ndarray
    runtime: np.ndarray
    workload_features: np.ndarray
    platform_features: np.ndarray
    workloads: list[Workload] | None = None
    platforms: list[Platform] | None = None
    workload_feature_names: list[str] = field(default_factory=list)
    platform_feature_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.runtime)
        if not (len(self.w_idx) == len(self.p_idx) == n):
            raise ValueError("observation arrays must share length")
        if self.interferers.shape != (n, MAX_INTERFERERS):
            raise ValueError(
                f"interferers must be (n, {MAX_INTERFERERS}), "
                f"got {self.interferers.shape}"
            )
        if np.any(self.runtime <= 0):
            raise ValueError("runtimes must be positive")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_observations(self) -> int:
        return len(self.runtime)

    @property
    def n_workloads(self) -> int:
        return self.workload_features.shape[0]

    @property
    def n_platforms(self) -> int:
        return self.platform_features.shape[0]

    @property
    def degree(self) -> np.ndarray:
        """Simultaneously-running workload count per row (1..4)."""
        return 1 + (self.interferers >= 0).sum(axis=1)

    @property
    def log_runtime(self) -> np.ndarray:
        """Natural-log runtimes (the model's target domain)."""
        return np.log(self.runtime)

    def degree_mask(self, degree: int) -> np.ndarray:
        return self.degree == degree

    def isolation_mask(self) -> np.ndarray:
        return self.degree == 1

    def interference_mask(self) -> np.ndarray:
        return self.degree > 1

    def degree_counts(self) -> dict[int, int]:
        """Observation count per degree — the Sec 4 dataset statistics."""
        deg = self.degree
        return {d: int((deg == d).sum()) for d in DEGREES}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def subset(self, indices: np.ndarray) -> "RuntimeDataset":
        """Row-subset view (copies observation arrays, shares features)."""
        indices = np.asarray(indices)
        return RuntimeDataset(
            w_idx=self.w_idx[indices],
            p_idx=self.p_idx[indices],
            interferers=self.interferers[indices],
            runtime=self.runtime[indices],
            workload_features=self.workload_features,
            platform_features=self.platform_features,
            workloads=self.workloads,
            platforms=self.platforms,
            workload_feature_names=self.workload_feature_names,
            platform_feature_names=self.platform_feature_names,
        )

    def isolation_only(self) -> "RuntimeDataset":
        """Observations without interference (the "discard" strategy)."""
        return self.subset(np.flatnonzero(self.isolation_mask()))

    def isolation_mean_log10(self) -> np.ndarray:
        """Mean isolation log10 runtime per (workload, platform) pair.

        ``NaN`` where a pair was never observed in isolation. Used for the
        Fig 1 slowdown histogram and Fig 12d's measured interference.
        """
        iso = self.isolation_mask()
        sums = np.zeros((self.n_workloads, self.n_platforms))
        counts = np.zeros_like(sums)
        np.add.at(sums, (self.w_idx[iso], self.p_idx[iso]), np.log10(self.runtime[iso]))
        np.add.at(counts, (self.w_idx[iso], self.p_idx[iso]), 1.0)
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1.0), np.nan)

    def summary(self) -> dict[str, int]:
        """Dataset statistics in the shape of Sec 4's accounting."""
        counts = self.degree_counts()
        return {
            "n_workloads": self.n_workloads,
            "n_platforms": self.n_platforms,
            "n_observations": self.n_observations,
            "n_isolation": counts[1],
            "n_interference": sum(counts[d] for d in (2, 3, 4)),
            "n_2way": counts[2],
            "n_3way": counts[3],
            "n_4way": counts[4],
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Save observations + features to an ``.npz`` archive."""
        np.savez(
            Path(path),
            schema_version=np.array(DATASET_SCHEMA_VERSION),
            w_idx=self.w_idx,
            p_idx=self.p_idx,
            interferers=self.interferers,
            runtime=self.runtime,
            workload_features=self.workload_features,
            platform_features=self.platform_features,
            workload_feature_names=np.array(self.workload_feature_names, dtype=object),
            platform_feature_names=np.array(self.platform_feature_names, dtype=object),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RuntimeDataset":
        """Load a dataset saved with :meth:`save` (metadata-free).

        Raises ``ValueError`` when the archive's schema version is absent
        or differs from :data:`DATASET_SCHEMA_VERSION`.
        """
        with np.load(Path(path), allow_pickle=True) as archive:
            check_schema_version(archive, DATASET_SCHEMA_VERSION, "dataset", path)
            return cls(
                w_idx=archive["w_idx"],
                p_idx=archive["p_idx"],
                interferers=archive["interferers"],
                runtime=archive["runtime"],
                workload_features=archive["workload_features"],
                platform_features=archive["platform_features"],
                workload_feature_names=list(archive["workload_feature_names"]),
                platform_feature_names=list(archive["platform_feature_names"]),
            )
