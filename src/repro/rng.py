"""Deterministic random-number utilities.

Every stochastic component in this library accepts either an integer seed
or a ready-made :class:`random.Random` instance.  Centralising the
coercion here keeps experiment runs reproducible: a single integer seed
at the top of an experiment fans out into independent, stable substreams
for each repetition and each model.

The library deliberately uses :mod:`random` (Mersenne Twister) rather
than :mod:`numpy.random` for the evolving-graph constructions and the
walk kernels: the inner loops draw one variate at a time, where the
stdlib generator is the faster one to call, and every published number
is pinned to its stream.

**The bounded-draw identity.**  For ``n > 0``, CPython's
``rng.randrange(n)`` is ``rng._randbelow(n)``, and ``_randbelow`` *is*
``_randbelow_with_getrandbits`` (``Random`` keeps ``getrandbits``)::

    k = n.bit_length()      # not (n - 1): n may be 1
    r = getrandbits(k)
    while r >= n:           # reject: an accepted r is uniform on [0, n)
        r = getrandbits(k)

and ``rng.randint(1, n)`` is ``1 + rng._randbelow(n)``.  The hottest
loops (:func:`repro.graphs.mori.mori_tree`, the scalar walk kernels in
:mod:`repro.search.ensemble`, the Cooper–Frieze replay in
:mod:`repro.graphs.fastgen`) write this loop inline with
``getrandbits`` bound once: the same words are consumed in the same
order, so every variate and the generator's end state are unchanged,
while no Python call frame is paid per draw (``randrange`` costs two,
``randint`` three).  A helper function would bring a frame back,
which is why the loop is spelled out at each site rather than shared.
``tests/test_rng.py`` pins the identity (and fails loudly should a
CPython release change ``_randbelow``).
"""

from __future__ import annotations

import random
import zlib
from typing import Union

__all__ = [
    "RandomLike",
    "make_rng",
    "run_substream",
    "substream",
]

#: Anything accepted as a source of randomness by library entry points.
RandomLike = Union[None, int, random.Random]

#: Multiplier used to decorrelate derived seeds (a large odd constant,
#: the 64-bit golden-ratio multiplier used by splitmix64).
_GOLDEN_64 = 0x9E3779B97F4A7C15

_MASK_64 = (1 << 64) - 1


def make_rng(seed: RandomLike = None) -> random.Random:
    """Coerce ``seed`` into a :class:`random.Random` instance.

    * ``None``   -> a freshly, nondeterministically seeded generator;
    * ``int``    -> a generator deterministically seeded with that value;
    * ``Random`` -> returned unchanged (shared state with the caller).

    Parameters
    ----------
    seed:
        Seed value or generator.

    Returns
    -------
    random.Random
        A usable generator.
    """
    if seed is None:
        return random.Random()
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(
            "seed must be None, an int, or a random.Random instance, "
            f"got {type(seed).__name__}"
        )
    return random.Random(seed)


def _mix(value: int) -> int:
    """One round of splitmix64 finalisation, for seed decorrelation."""
    value = (value + _GOLDEN_64) & _MASK_64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return value ^ (value >> 31)


def substream(seed: int, index: int) -> int:
    """Derive the ``index``-th decorrelated child seed of ``seed``.

    Uses a splitmix64-style mix so that consecutive indices give
    statistically independent Mersenne Twister seedings.
    """
    return _mix((seed & _MASK_64) ^ _mix(index & _MASK_64))


def run_substream(seed: int, algorithm_name: str, run_index: int) -> int:
    """The per-run seed of a named algorithm's ``run_index``-th repetition.

    This is *the* derivation every search-cost loop uses — the serial
    per-cell path in :func:`repro.core.trials._execute_cells` and the
    vectorized walker-ensemble kernel
    (:func:`repro.search.ensemble.run_ensemble`) must draw run seeds
    from this one function so their per-run draw sequences can never
    drift apart (``tests/test_search_ensemble.py`` pins golden values
    and golden first-draw traces).

    The formula is ``substream(seed, (crc32(name) << 16) ^ run_index)``:

    * ``crc32`` (not ``hash``) because str hashes are salted per
      process and run seeds must be reproducible across interpreter
      invocations;
    * the ``<< 16`` shift gives run indices their own 16-bit field, so
      distinct ``(name, run_index)`` pairs map to distinct substream
      indices for every ``run_index < 2**16`` — the audited contract.
      (Indices beyond that would fold into the name bits; they are
      rejected here rather than silently colliding.  No experiment
      comes near 65536 runs per graph per algorithm.)
    """
    if not 0 <= run_index < (1 << 16):
        from repro.errors import InvalidParameterError

        raise InvalidParameterError(
            f"run_index must lie in [0, 65536), got {run_index} "
            "(indices beyond the 16-bit field would collide with the "
            "algorithm-name bits of the substream index)"
        )
    name_code = zlib.crc32(algorithm_name.encode("utf-8"))
    return substream(seed, (name_code << 16) ^ run_index)
