"""The block sampler is numpy's ``Generator.choice``, draw for draw.

``sample_distinct_sets`` replaces ``count`` calls of
``rng.choice(n, k, replace=False)`` in the interference campaign. Every
test here compares exact values: the sets, the generator state
afterwards, and the draws that follow. None tolerates a difference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.collection import (
    PCG64Words,
    lemire_decode,
    sample_distinct_sets,
)

#: PCG64's 128-bit LCG multiplier (numpy ``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _choice_loop(rng, valid, k, count):
    return np.stack(
        [rng.choice(valid, size=k, replace=False) for _ in range(count)]
    )


def _assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()
    assert a.normal() == b.normal()
    assert a.integers(0, 1000) == b.integers(0, 1000)


def _twins(seed, primed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if primed:
        # One 32-bit draw leaves the high half of its output buffered.
        a.integers(0, 5)
        b.integers(0, 5)
    return a, b


def _next_output_is(rng, output):
    """Rewind ``rng`` so that its next 64-bit output is ``output``.

    PCG64 steps its 128-bit state ``s ← s·mult + inc`` and then outputs
    ``rotr64(hi ^ lo, hi >> 58)``: keep the high half, solve for the low
    half, and undo one step.
    """
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    hi = state["state"]["state"] >> 64
    rot = hi >> 58
    rotl = ((output << rot) | (output >> (64 - rot))) & _MASK64 if rot else output
    after = (hi << 64) | (rotl ^ hi)
    before = (after - inc) * pow(_PCG_MULT, -1, 1 << 128)
    state["state"]["state"] = before & _MASK128
    state["has_uint32"] = 0
    rng.bit_generator.state = state


class TestMatchesChoice:
    @settings(max_examples=120, deadline=None)
    @given(
        k=st.sampled_from([2, 3, 4]),
        extra=st.integers(0, 296),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        primed=st.booleans(),
    )
    @example(k=2, extra=0, count=1, seed=0, primed=False)
    @example(k=3, extra=0, count=40, seed=1, primed=True)
    @example(k=4, extra=0, count=300, seed=2, primed=False)
    @example(k=4, extra=296, count=300, seed=3, primed=True)
    def test_block_equals_choice_loop(self, k, extra, count, seed, primed):
        n = k + extra
        valid = np.arange(n) * 3 + 5
        a, b = _twins(seed, primed)
        expected = _choice_loop(a, valid, k, count)
        got = valid[sample_distinct_sets(b, n, k, count)]
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        _assert_same_stream(a, b)

    def test_consecutive_blocks_carry_the_half_word(self):
        # An odd word count leaves a half-word that the next block reads
        # first; the 64-bit draws in between must not disturb it.
        a, b = _twins(11, primed=False)
        for n, k in ((10, 2), (57, 3), (4, 4), (200, 4)):
            expected = _choice_loop(a, np.arange(n), k, 7)
            got = sample_distinct_sets(b, n, k, 7)
            assert np.array_equal(got, expected)
            assert a.random(3).tolist() == b.random(3).tolist()
        _assert_same_stream(a, b)

    def test_rejects_other_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match=r"np\.random\.default_rng"):
            sample_distinct_sets(rng, 10, 3, 5)

    def test_rejects_more_picks_than_population(self):
        with pytest.raises(ValueError):
            sample_distinct_sets(np.random.default_rng(0), 3, 4, 1)


class TestLemireDecode:
    def test_values_without_redraw(self):
        # The zero word sits on bound 7, whose span 8 is a power of two.
        words = np.array(
            [0, 3 << 30, (1 << 32) - 1, (5 << 29) + 12345], dtype=np.uint64
        )
        bounds = np.array([7, 9, 9, 1000], dtype=np.uint64)
        values, used = lemire_decode(words, bounds)
        expected = [(int(w) * (int(b) + 1)) >> 32 for w, b in zip(words, bounds)]
        assert values.tolist() == expected == [0, 7, 9, 625]
        assert used == 4

    def test_zero_word_redraws_when_span_is_not_a_power_of_two(self):
        # The word 2**32 - 1 is never redrawn and decodes to b itself.
        for b in list(range(1, 300)) + [3 * 2**30, 2**31, 2**32 - 2]:
            span = b + 1
            values, used = lemire_decode(
                np.array([0, (1 << 32) - 1], dtype=np.uint64), np.array([b])
            )
            if span & (span - 1):
                # threshold 2**32 mod (b+1) > 0: the zero word is spent
                # and the draw takes the next word.
                assert (1 << 32) % span > 0
                assert used == 2
                assert values.tolist() == [b]
            else:
                assert used == 1
                assert values.tolist() == [0]

    def test_threshold_of_three(self):
        # b = 2: threshold 2**32 mod 3 = 1, so only a zero word redraws.
        words = np.array([0, 1, 0, 0, 2**31], dtype=np.uint64)
        values, used = lemire_decode(words, np.array([2, 2], dtype=np.uint64))
        assert values.tolist() == [(1 * 3) >> 32, (2**31 * 3) >> 32]
        assert used == 5

    def test_power_of_two_span_never_redraws(self):
        words = np.random.default_rng(4).integers(
            0, 1 << 32, size=4000, dtype=np.uint64
        )
        words[:50] = 0
        for b in (1, 3, 255, 2**31 - 1):
            bounds = np.full(4000, b, dtype=np.uint64)
            values, used = lemire_decode(words, bounds)
            assert used == 4000
            expected = (words * np.uint64(b + 1)) >> np.uint64(32)
            assert values.tolist() == expected.tolist()

    def test_one_redraw_costs_one_word(self):
        words = np.array([7 << 28, 0, 5 << 28, 9 << 28, 3], dtype=np.uint64)
        values, used = lemire_decode(words, np.array([2, 2, 2], dtype=np.uint64))
        kept = [7 << 28, 5 << 28, 9 << 28]
        assert values.tolist() == [(w * 3) >> 32 for w in kept]
        assert used == 4

    def test_short_words_decode_the_covered_prefix(self):
        words = np.array([1 << 30, 0], dtype=np.uint64)
        values, used = lemire_decode(words, np.array([2, 2, 2], dtype=np.uint64))
        assert values.tolist() == [((1 << 30) * 3) >> 32]
        assert used == 2


class TestWordSource:
    def test_words_follow_numpy_32_bit_draws(self):
        a, b = _twins(8, primed=True)
        source = PCG64Words(b)
        words = np.concatenate([source.take(3), source.take(0), source.take(4)])
        source.close()
        expected = a.integers(0, 1 << 32, size=7, dtype=np.uint64)
        assert words.tolist() == expected.tolist()
        _assert_same_stream(a, b)


class TestRedrawInGenerator:
    """A rejected word at each place a block can meet it."""

    N, K, COUNT = 11, 3, 4  # Floyd bounds 8, 9, 10; shuffle bounds 2, 1
    NOMINAL = COUNT * (2 * K - 1)
    PLACES = ["buffered", "low", "high"]

    @staticmethod
    def _copies(place, n):
        rng = np.random.default_rng(21)
        if place == "buffered":
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
        elif place == "low":
            # First word 0 against bound 8 (threshold 2**32 mod 9 = 4).
            _next_output_is(rng, (77 << 32) | 0)
        else:
            # Second word 0 against bound 9 (threshold 2**32 mod 10 = 6);
            # the first word, 1, yields 9 ≥ 4 and is kept.
            _next_output_is(rng, (0 << 32) | 1)
        copies = [np.random.default_rng(0) for _ in range(n)]
        for copy in copies:
            copy.bit_generator.state = rng.bit_generator.state
        return copies

    @pytest.mark.parametrize("place", PLACES)
    def test_redraw_matches_choice(self, place):
        a, b = self._copies(place, 2)
        expected = _choice_loop(a, np.arange(self.N), self.K, self.COUNT)
        got = sample_distinct_sets(b, self.N, self.K, self.COUNT)
        assert np.array_equal(got, expected)
        _assert_same_stream(a, b)

    @pytest.mark.parametrize("place", PLACES)
    def test_redraw_costs_exactly_one_word(self, place):
        sampled, one_more, nominal = self._copies(place, 3)
        sample_distinct_sets(sampled, self.N, self.K, self.COUNT)
        one_more.integers(0, 1 << 32, size=self.NOMINAL + 1, dtype=np.uint64)
        nominal.integers(0, 1 << 32, size=self.NOMINAL, dtype=np.uint64)
        assert sampled.bit_generator.state == one_more.bit_generator.state
        assert sampled.bit_generator.state != nominal.bit_generator.state
