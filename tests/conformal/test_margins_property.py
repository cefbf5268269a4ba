"""Margin-engine properties: the invariants the vectorization must keep.

Two contracts, each over arbitrary generated calibration sets:

* uniform weights collapse ``weighted`` to ``naive`` *exactly* (the
  weighted threshold with w≡c hits the same integer cut index);
* margins are monotone non-increasing in ε (a laxer target never asks
  for a larger offset).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformal import margin_offsets_by_pool

finite_scores = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=300,
)


@settings(max_examples=40, deadline=None)
@given(raw=finite_scores, seed=st.integers(0, 10_000),
       eps=st.sampled_from([0.02, 0.05, 0.1, 0.3]))
def test_property_uniform_weights_reduce_to_naive_exactly(raw, seed, eps):
    scores = np.asarray(raw)
    pools = np.random.default_rng(seed).integers(1, 4, size=len(scores))
    naive = margin_offsets_by_pool(scores, pools, eps, "naive")
    uniform = margin_offsets_by_pool(
        scores, pools, eps, "weighted", weights=np.full(len(scores), 0.7)
    )
    assert naive == uniform


@settings(max_examples=40, deadline=None)
@given(raw=finite_scores, seed=st.integers(0, 10_000),
       mode=st.sampled_from(["naive", "weighted", "mnar"]))
def test_property_margins_monotone_in_epsilon(raw, seed, mode):
    scores = np.asarray(raw)
    rng = np.random.default_rng(seed)
    pools = rng.integers(1, 4, size=len(scores))
    weights = None
    if mode == "weighted":
        weights = rng.uniform(0.1, 2.0, size=len(scores))
    elif mode == "mnar":
        weights = rng.uniform(0.5, 2.0, size=len(scores))
    grid = (0.02, 0.05, 0.1, 0.2, 0.4)
    offsets = [
        margin_offsets_by_pool(scores, pools, eps, mode, weights=weights)
        for eps in grid
    ]
    for tighter, laxer in zip(offsets, offsets[1:]):
        for pool in tighter.keys() & laxer.keys():
            assert laxer[pool] <= tighter[pool]
