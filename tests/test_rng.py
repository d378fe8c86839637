"""Unit tests for the deterministic RNG utilities."""

from __future__ import annotations

import random

import pytest

from repro.rng import make_rng, substream


class TestMakeRng:
    def test_none_gives_fresh_generator(self):
        rng = make_rng(None)
        assert isinstance(rng, random.Random)

    def test_int_is_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_distinct_ints_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough(self):
        rng = random.Random(3)
        assert make_rng(rng) is rng

    def test_bad_types_rejected(self):
        with pytest.raises(TypeError):
            make_rng("seed")
        with pytest.raises(TypeError):
            make_rng(True)
        with pytest.raises(TypeError):
            make_rng(1.5)


class TestSubstream:
    def test_deterministic(self):
        assert substream(5, 0) == substream(5, 0)

    def test_index_sensitivity(self):
        children = {substream(5, i) for i in range(100)}
        assert len(children) == 100

    def test_seed_sensitivity(self):
        assert substream(1, 0) != substream(2, 0)

    def test_statistical_decorrelation(self):
        # First draws from consecutive substreams look uniform.
        draws = [
            random.Random(substream(0, i)).random() for i in range(500)
        ]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55

    def test_seed_reduced_modulo_2_64(self):
        # Negative and oversized seeds fold onto their 64-bit residue.
        assert substream(-1, 3) == substream(2**64 - 1, 3)
        assert substream(5 + 2**64, 3) == substream(5, 3)

    def test_index_reduced_modulo_2_64(self):
        assert substream(5, 2**64 + 9) == substream(5, 9)
        assert substream(5, -1) == substream(5, 2**64 - 1)

    def test_children_are_64_bit_words(self):
        # A valid Mersenne Twister seed, and wide enough to use the
        # high bits: some child of the first thousand exceeds 2**63.
        children = [substream(2**63 + 11, i) for i in range(1000)]
        assert all(0 <= c < 2**64 for c in children)
        assert max(children) >= 2**63


class TestBoundedDrawIdentity:
    """The identity the hot loops inline (see the ``repro.rng`` docstring).

    ``randrange(n)`` for ``n > 0`` is ``_randbelow(n)``, which is the
    ``getrandbits`` rejection loop below; the graph builders and walk
    kernels spell that loop out instead of calling ``randrange``.
    """

    SIZES = [
        1, 2, 3, 7, 8, 9, 2**16, 2**31 - 1, 2**31, 2**32 - 1, 2**32,
        2**40 + 3,
    ]

    @staticmethod
    def _inline_draw(bits, n):
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def test_randbelow_is_the_getrandbits_loop(self):
        # A CPython release that changes _randbelow must fail here, not
        # silently shift every inlined draw.
        assert (
            random.Random._randbelow
            is random.Random._randbelow_with_getrandbits
        )

    @pytest.mark.parametrize("n", SIZES)
    def test_inline_loop_equals_randrange(self, n):
        reference = random.Random(n)
        inline = random.Random(n)
        bits = inline.getrandbits
        for _ in range(300):
            assert self._inline_draw(bits, n) == reference.randrange(n)
        assert inline.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", SIZES)
    def test_inline_loop_equals_randint(self, n):
        reference = random.Random(~n)
        inline = random.Random(~n)
        bits = inline.getrandbits
        for _ in range(300):
            assert 1 + self._inline_draw(bits, n) == reference.randint(1, n)
        assert inline.getstate() == reference.getstate()
