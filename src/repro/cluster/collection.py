"""Simulated data-collection campaigns (App C.3).

Reproduces the paper's methodology:

* **Isolation campaign** — every supported (workload, platform) pair is
  run up to 50 repetitions within a 30-second budget and the wall-clock
  mean recorded; pairs that crash or exceed the timeout are omitted.
* **Interference campaign** — per platform, ``sets_per_degree`` random
  sets of 2/3/4 workloads run simultaneously for 30 seconds in a loop.
  A set containing a crashing workload is dropped entirely; a workload
  that times out is dropped but its co-runners keep their observations
  (timed-out workloads still interfere).

With the full inventory this yields ≈47k isolation + ≈324k interference
observations (101k/122k/100k across 2/3/4-way), matching the scale and
attrition shape of the paper's 53,637 + 357,333 (99k/139k/119k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..platforms.platform import generate_platforms
from ..platforms.features import platform_feature_matrix
from ..workloads.workload import generate_workloads, workload_feature_matrix
from .dataset import MAX_INTERFERERS, RuntimeDataset
from .performance import GroundTruthPerformanceModel, PerformanceModelConfig

__all__ = [
    "CollectionConfig",
    "ClusterCollector",
    "PCG64Words",
    "collect_dataset",
    "lemire_decode",
    "make_cluster",
    "sample_distinct_sets",
    "synthetic_fleet_dataset",
]

_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)


def lemire_decode(
    words: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, int]:
    """Uniform draws on ``[0, b]`` for each ``b`` in ``bounds``, in order.

    This is numpy's bounded draw for ``1 <= b < 2**32 - 1`` (Lemire's
    method): a draw reads one 32-bit word ``w`` and yields
    ``(w * (b+1)) >> 32``, unless the low 32 bits of that product fall
    below ``2**32 mod (b+1)``; then the same draw reads the next word.
    A pure function of ``words``, so tests can inject them. Returns the
    values of the leading draws the words cover and how many words those
    draws consumed.
    """
    words = np.asarray(words, dtype=np.uint64)
    span = np.asarray(bounds, dtype=np.uint64) + np.uint64(1)
    values = np.empty(len(span), dtype=np.int64)
    done = used = 0
    while done < len(span) and used < len(words):
        todo = min(len(span) - done, len(words) - used)
        sub = span[done : done + todo]
        product = words[used : used + todo] * sub
        redraw = (product & _LOW32) < (_TWO32 - sub) % sub
        ok = int(redraw.argmax()) if redraw.any() else todo
        values[done : done + ok] = product[:ok] >> np.uint64(32)
        done += ok
        # A redrawn draw spends its word and retries on the next one.
        used += ok + (ok < todo)
    return values[:done], used


class PCG64Words:
    """The 32-bit words a PCG64 generator serves to its bounded draws.

    PCG64 splits each 64-bit output into its low, then its high half,
    and keeps an unused high half in its state (``has_uint32``,
    ``uinteger``) for the next 32-bit draw; 64-bit draws (``random``,
    ``normal``, ``uniform``) leave that half alone. :meth:`take` serves
    the buffered half first and never draws an output it does not
    hand out at least half of; :meth:`close` writes the buffer back.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                "vectorized set sampling needs a PCG64 generator "
                "(np.random.default_rng), got "
                f"{type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        state = bit_generator.state
        self._has_half = bool(state["has_uint32"])
        self._half = int(state["uinteger"])

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` words, as ``uint64``."""
        head = np.empty(0, dtype=np.uint64)
        if count > 0 and self._has_half:
            head = np.array([self._half], dtype=np.uint64)
            self._has_half = False
            count -= 1
        if count <= 0:
            return head
        raw = self._bit_generator.random_raw((count + 1) // 2)
        halves = np.empty(2 * len(raw), dtype=np.uint64)
        halves[0::2] = raw & _LOW32
        halves[1::2] = raw >> np.uint64(32)
        self._has_half = count % 2 == 1
        self._half = int(halves[-1])
        return np.concatenate([head, halves[:count]])

    def close(self) -> None:
        """Leave the generator's half-word buffer as numpy would."""
        state = self._bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        self._bit_generator.state = state


def sample_distinct_sets(
    rng: np.random.Generator, n: int, k: int, count: int
) -> np.ndarray:
    """``count`` rows of ``k`` distinct indices in ``[0, n)``, in one pass.

    Returns exactly what ``count`` consecutive
    ``rng.choice(n, k, replace=False)`` calls return, stacked, and leaves
    ``rng`` in the state they leave it in. Each call is Floyd's algorithm
    (for ``j = n-k … n-1`` pick a uniform ``t`` on ``[0, j]``, or ``j``
    if ``t`` is already picked; ``j = 0`` reads no word) followed by a
    Fisher–Yates pass (for ``i = k-1 … 1`` swap picks ``i`` and a
    uniform ``u`` on ``[0, i]``). All draws of the block are decoded at
    once, then each step runs across all rows.

    Two conditions hold for every collected fleet: ``rng`` is a PCG64
    generator (:class:`PCG64Words` raises ``TypeError`` otherwise), and
    ``n <= 10_000``, below which numpy draws by Floyd's algorithm
    (collected fleets have at most 249 workloads).
    """
    if k > n:
        raise ValueError(f"cannot draw {k} distinct indices from {n}")
    floyd = range(n - k, n)
    bounds = np.array(
        [j for j in floyd if j > 0] + list(range(k - 1, 0, -1)), dtype=np.uint64
    )
    flat = np.tile(bounds, count)
    source = PCG64Words(rng)
    values, _ = lemire_decode(source.take(len(flat)), flat)
    while len(values) < len(flat):
        # Each redraw spent a word the nominal count did not cover.
        more, _ = lemire_decode(
            source.take(len(flat) - len(values)), flat[len(values) :]
        )
        values = np.concatenate([values, more])
    source.close()

    draws = iter(values.reshape(count, len(bounds)).T)
    picks = np.empty((count, k), dtype=np.int64)
    for step, j in enumerate(floyd):
        t = next(draws) if j > 0 else np.zeros(count, dtype=np.int64)
        taken = (picks[:, :step] == t[:, None]).any(axis=1)
        picks[:, step] = np.where(taken, j, t)
    rows = np.arange(count)
    for i in range(k - 1, 0, -1):
        u = next(draws)
        held = picks[:, i].copy()
        picks[:, i] = picks[rows, u]
        picks[rows, u] = held
    return picks


@dataclass(frozen=True)
class CollectionConfig:
    """Campaign parameters (paper values as defaults)."""

    #: Per-benchmark execution budget, seconds.
    time_budget_s: float = 30.0
    #: Maximum averaging repetitions within the budget.
    max_repetitions: int = 50
    #: Random co-running sets per degree per platform (paper: 250).
    sets_per_degree: int = 250
    #: Interference degrees collected (number of simultaneous workloads).
    degrees: tuple[int, ...] = (2, 3, 4)
    #: Per-member timeout probability under co-execution is
    #: ``base * (degree - 1)^2`` — random program alignment means a member
    #: can fail to complete a single iteration within the budget even when
    #: its mean runtime fits. Drives the paper's attrition pattern, where
    #: 4-way yields *fewer* usable observations than 3-way (App C.3).
    interference_timeout_base: float = 0.055
    #: Per-set crash probability is ``rate * degree``; a crash drops the
    #: entire set ("that entire set was excluded", App C.3).
    set_crash_rate: float = 0.01


class ClusterCollector:
    """Runs collection campaigns against a ground-truth model."""

    def __init__(
        self,
        model: GroundTruthPerformanceModel,
        config: CollectionConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or CollectionConfig()

    # ------------------------------------------------------------------
    def collect_isolation(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Benchmark every valid pair in isolation.

        Returns ``(w_idx, p_idx, runtime_seconds)`` for pairs that neither
        crashed nor timed out.
        """
        cfg = self.config
        nw = len(self.model.workloads)
        npf = len(self.model.platforms)
        w_grid, p_grid = np.meshgrid(np.arange(nw), np.arange(npf), indexing="ij")
        w_flat, p_flat = w_grid.ravel(), p_grid.ravel()

        ok = ~self.model.crash_table[w_flat, p_flat]
        # Timeout: the true isolation runtime exceeds the budget.
        true_log10 = self.model.isolation_log10(w_flat, p_flat)
        ok &= true_log10 <= np.log10(cfg.time_budget_s)
        w_flat, p_flat, true_log10 = w_flat[ok], p_flat[ok], true_log10[ok]

        reps = np.clip(
            np.floor(cfg.time_budget_s / 10.0**true_log10),
            1,
            cfg.max_repetitions,
        )
        runtime = self.model.sample_runtime(
            w_flat, p_flat, None, rng, averaging_reps=reps
        )
        return w_flat, p_flat, runtime

    # ------------------------------------------------------------------
    def collect_interference(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run random co-running sets per platform.

        Returns ``(w_idx, p_idx, interferers, runtime_seconds)``. Sets are
        sampled uniformly from workloads that run on the platform (no
        crash, isolation runtime within budget — mirroring that the paper
        sampled from benchmarks known to work).
        """
        cfg = self.config
        npf = len(self.model.platforms)
        budget_log10 = np.log10(cfg.time_budget_s)

        out_w: list[np.ndarray] = []
        out_p: list[np.ndarray] = []
        out_k: list[np.ndarray] = []
        out_r: list[np.ndarray] = []

        for j in range(npf):
            valid = np.flatnonzero(
                (~self.model.crash_table[:, j])
                & (self.model.log10_isolation[:, j] <= budget_log10)
            )
            if len(valid) < max(cfg.degrees):
                continue
            for degree in cfg.degrees:
                # (sets, degree) matrix of distinct workloads per row.
                sets = valid[
                    sample_distinct_sets(
                        rng, len(valid), degree, cfg.sets_per_degree
                    )
                ]
                n_sets = sets.shape[0]
                # Failure injection (App C.3): whole-set crashes and
                # per-member alignment timeouts, both growing with degree.
                set_crashed = rng.random(n_sets) < cfg.set_crash_rate * degree
                member_timeout = (
                    rng.random((n_sets, degree))
                    < cfg.interference_timeout_base * (degree - 1) ** 2
                )
                # Each member observes the rest of its set as interference.
                for slot in range(degree):
                    targets = sets[:, slot]
                    others = np.delete(sets, slot, axis=1)
                    pad = np.full(
                        (n_sets, MAX_INTERFERERS - others.shape[1]), -1, dtype=int
                    )
                    interf = np.concatenate([others, pad], axis=1)
                    p_arr = np.full(n_sets, j)
                    true_log10 = self.model.true_log10(targets, p_arr, interf)
                    # Timed-out members yield no observation (but their
                    # co-runners were still interfered with, and keep theirs).
                    alive = (
                        (true_log10 <= budget_log10)
                        & ~set_crashed
                        & ~member_timeout[:, slot]
                    )
                    if not alive.any():
                        continue
                    truth = true_log10[alive]
                    reps = np.clip(
                        np.floor(cfg.time_budget_s / 10.0**truth),
                        1,
                        cfg.max_repetitions,
                    )
                    runtime = 10.0 ** self.model.measure_log10(
                        truth, p_arr[alive], interf[alive], rng,
                        averaging_reps=reps,
                    )
                    out_w.append(targets[alive])
                    out_p.append(p_arr[alive])
                    out_k.append(interf[alive])
                    out_r.append(runtime)

        if not out_w:
            empty = np.empty(0, dtype=int)
            return empty, empty, np.empty((0, MAX_INTERFERERS), dtype=int), np.empty(0)
        return (
            np.concatenate(out_w),
            np.concatenate(out_p),
            np.concatenate(out_k),
            np.concatenate(out_r),
        )

    # ------------------------------------------------------------------
    def collect(self, rng: np.random.Generator) -> RuntimeDataset:
        """Full campaign: isolation + interference, one dataset."""
        iso_w, iso_p, iso_r = self.collect_isolation(rng)
        int_w, int_p, int_k, int_r = self.collect_interference(rng)

        iso_k = np.full((len(iso_w), MAX_INTERFERERS), -1, dtype=int)
        w_feat, w_names = workload_feature_matrix(self.model.workloads)
        p_feat, p_names = platform_feature_matrix(self.model.platforms)
        return RuntimeDataset(
            w_idx=np.concatenate([iso_w, int_w]).astype(np.int64),
            p_idx=np.concatenate([iso_p, int_p]).astype(np.int64),
            interferers=np.concatenate([iso_k, int_k]).astype(np.int64),
            runtime=np.concatenate([iso_r, int_r]),
            workload_features=w_feat,
            platform_features=p_feat,
            workloads=self.model.workloads,
            platforms=self.model.platforms,
            workload_feature_names=w_names,
            platform_feature_names=p_names,
        )


def make_cluster(
    seed: int = 0,
    n_workloads: int | None = None,
    n_devices: int | None = None,
    n_runtimes: int | None = None,
    performance_config: PerformanceModelConfig | None = None,
) -> GroundTruthPerformanceModel:
    """Build a (possibly miniature) simulated cluster.

    ``None`` limits reproduce the paper-scale inventory (249 workloads,
    24 devices × 10 runtimes → 220 platforms). Tests and fast benches pass
    small limits; workloads/devices are subsampled with stride so every
    suite and device class stays represented.
    """
    from ..platforms.devices import DEVICES
    from ..platforms.runtimes import RUNTIMES

    rng = np.random.default_rng(seed)
    workloads = generate_workloads(rng)
    if n_workloads is not None and n_workloads < len(workloads):
        keep = np.linspace(0, len(workloads) - 1, n_workloads).astype(int)
        workloads = [workloads[i] for i in keep]
        for new_idx, w in enumerate(workloads):
            w.index = new_idx

    devices = DEVICES
    if n_devices is not None and n_devices < len(devices):
        keep = np.linspace(0, len(devices) - 1, n_devices).astype(int)
        devices = [devices[i] for i in keep]
    runtimes = RUNTIMES
    if n_runtimes is not None and n_runtimes < len(runtimes):
        keep = np.linspace(0, len(runtimes) - 1, n_runtimes).astype(int)
        runtimes = [runtimes[i] for i in keep]

    platforms = generate_platforms(devices, runtimes)
    return GroundTruthPerformanceModel(
        workloads, platforms, rng, config=performance_config
    )


def synthetic_fleet_dataset(
    n_workloads: int,
    n_platforms: int,
    n_observations: int | None = None,
    seed: int = 0,
    n_workload_features: int = 20,
    n_platform_features: int = 12,
) -> RuntimeDataset:
    """A runtime dataset with the published schema at arbitrary scale.

    The trace collector enumerates real (device, runtime) inventories and
    tops out near the paper's 249×220 grid; fleet-scale scenarios
    (e.g. ``fleet-large``'s 32768×4096) instead draw features, indices,
    and log-normal runtimes directly. Shapes, index distributions, and the
    2/3/4-way interference mix match the collected schema, so everything
    downstream — sparse training, calibration, serving — runs unchanged.
    """
    if n_observations is None:
        n_observations = 16 * max(n_workloads, n_platforms)
    rng = np.random.default_rng(seed)
    w_idx = rng.integers(0, n_workloads, n_observations)
    p_idx = rng.integers(0, n_platforms, n_observations)
    interferers = np.full((n_observations, MAX_INTERFERERS), -1, dtype=np.intp)
    degree = rng.integers(1, 5, n_observations)
    for d in (2, 3, 4):
        rows = np.flatnonzero(degree == d)
        interferers[rows[:, None], np.arange(d - 1)[None, :]] = rng.integers(
            0, n_workloads, (len(rows), d - 1)
        )
    return RuntimeDataset(
        w_idx=w_idx.astype(np.int64),
        p_idx=p_idx.astype(np.int64),
        interferers=interferers.astype(np.int64),
        runtime=np.exp(rng.normal(0.0, 1.0, n_observations)),
        workload_features=rng.normal(size=(n_workloads, n_workload_features)),
        platform_features=rng.normal(size=(n_platforms, n_platform_features)),
    )


def collect_dataset(
    seed: int = 0,
    n_workloads: int | None = None,
    n_devices: int | None = None,
    n_runtimes: int | None = None,
    sets_per_degree: int = 250,
    performance_config: PerformanceModelConfig | None = None,
) -> RuntimeDataset:
    """One-call convenience: build a cluster and run the full campaign."""
    model = make_cluster(
        seed=seed,
        n_workloads=n_workloads,
        n_devices=n_devices,
        n_runtimes=n_runtimes,
        performance_config=performance_config,
    )
    collector = ClusterCollector(
        model, CollectionConfig(sets_per_degree=sets_per_degree)
    )
    return collector.collect(np.random.default_rng(seed + 1))
