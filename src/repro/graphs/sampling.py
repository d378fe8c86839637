"""Weighted-sampling primitives for evolving random graphs.

Two samplers are provided:

* :class:`EndpointUrn` — the dynamic urn underlying *preferential
  attachment*.  Maintaining a flat list containing one entry per unit of
  weight makes "sample proportional to (in)degree" an O(1) operation and
  "add an edge" an O(1) update, which is what makes million-vertex
  evolving graphs feasible in pure Python.
* :class:`AliasSampler` — Walker's alias method for *static*
  distributions, used by the configuration model and the Kleinberg
  long-range link chooser where the weight vector is fixed up front.
* :class:`FenwickFlags` — a Fenwick-tree rank/select over a dynamic
  0/1 membership vector, used by the churn process to draw "the j-th
  surviving vertex/edge" in O(log n).  Selecting by *rank in creation
  order* (rather than by raw id) is what makes churn draws invariant
  under the order-preserving relabeling of
  :meth:`repro.graphs.delta.DeltaGraph.resnapshot`.

Both are deliberately independent of the graph classes so they can be
unit- and property-tested in isolation.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "EndpointUrn",
    "AliasSampler",
    "FenwickFlags",
    "discrete_distribution_sampler",
]


class FenwickFlags:
    """Dynamic 0/1 membership vector with O(log n) count-and-select.

    Positions are 0-based and append-only; each holds a flag (alive or
    dead).  :meth:`select` answers "which position holds the ``k``-th
    set flag?" by binary lifting over the Fenwick tree, and
    :meth:`set`/:meth:`clear` flip a position in O(log n).  This is the
    sampling substrate of the churn process: drawing ``select(randbelow
    (count))`` gives a uniform live element, and because ranks are
    taken in *creation order* the draw is a pure function of which
    elements survive — independent of id compaction.
    """

    __slots__ = ("_tree", "_flags", "_count")

    def __init__(self, size: int = 0, initially_set: bool = True):
        if size < 0:
            raise InvalidParameterError(f"size must be >= 0, got {size}")
        self._tree: List[int] = [0]
        self._flags = bytearray(0)
        self._count = 0
        for _ in range(size):
            self.append(initially_set)

    def __len__(self) -> int:
        return len(self._flags)

    @property
    def count(self) -> int:
        """Number of set flags."""
        return self._count

    def __contains__(self, position: int) -> bool:
        return 0 <= position < len(self._flags) and bool(
            self._flags[position]
        )

    def append(self, flag: bool = True) -> int:
        """Append one position with the given flag; returns its index."""
        position = len(self._flags)
        self._flags.append(1 if flag else 0)
        node = position + 1
        value = 1 if flag else 0
        # A new tree node covers the 2^k positions ending at it; fold
        # in the already-complete subtrees immediately below.
        step = 1
        low = node & (-node)
        while step < low:
            value += self._tree[node - step]
            step <<= 1
        self._tree.append(value)
        if flag:
            self._count += 1
        return position

    def set(self, position: int) -> None:
        """Set the flag at ``position`` (idempotent)."""
        if not self._flags[position]:
            self._flags[position] = 1
            self._count += 1
            self._add(position + 1, 1)

    def clear(self, position: int) -> None:
        """Clear the flag at ``position`` (idempotent)."""
        if self._flags[position]:
            self._flags[position] = 0
            self._count -= 1
            self._add(position + 1, -1)

    def select(self, rank: int) -> int:
        """Position of the ``rank``-th set flag (0-based rank)."""
        if not 0 <= rank < self._count:
            raise InvalidParameterError(
                f"rank {rank} out of range [0, {self._count})"
            )
        size = len(self._flags)
        bit = 1
        while (bit << 1) <= size:
            bit <<= 1
        node = 0
        remaining = rank + 1
        while bit:
            probe = node + bit
            if probe <= size and self._tree[probe] < remaining:
                node = probe
                remaining -= self._tree[probe]
            bit >>= 1
        return node

    def _add(self, node: int, delta: int) -> None:
        size = len(self._flags)
        while node <= size:
            self._tree[node] += delta
            node += node & (-node)

    def __repr__(self) -> str:
        return (
            f"FenwickFlags(size={len(self._flags)}, count={self._count})"
        )


class EndpointUrn:
    """Dynamic urn for degree-proportional sampling.

    Every call to :meth:`add` drops one token for ``vertex`` into the
    urn; :meth:`sample` draws a token uniformly at random, i.e. samples
    a vertex with probability proportional to the number of times it was
    added.  Evolving-graph models call ``add(head)`` once per edge to
    obtain indegree-proportional sampling, or ``add(tail); add(head)``
    for total-degree-proportional sampling.
    """

    __slots__ = ("_tokens",)

    def __init__(self) -> None:
        self._tokens: List[int] = []

    def add(self, vertex: int, count: int = 1) -> None:
        """Add ``count`` tokens for ``vertex`` (one unit of weight each)."""
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        self._tokens.extend([vertex] * count)

    def sample(self, rng: random.Random) -> int:
        """Draw a vertex with probability proportional to its token count."""
        if not self._tokens:
            raise InvalidParameterError("cannot sample from an empty urn")
        return self._tokens[rng.randrange(len(self._tokens))]

    @property
    def total_weight(self) -> int:
        """Total number of tokens currently in the urn."""
        return len(self._tokens)

    def count(self, vertex: int) -> int:
        """Number of tokens held by ``vertex`` (O(total_weight); for tests)."""
        return sum(1 for token in self._tokens if token == vertex)

    def __len__(self) -> int:
        return len(self._tokens)

    def __repr__(self) -> str:
        return f"EndpointUrn(total_weight={len(self._tokens)})"


class AliasSampler:
    """Walker alias method: O(n) setup, O(1) sampling, exact probabilities.

    Parameters
    ----------
    weights:
        Non-negative weights, at least one strictly positive.  Samples
        are indices ``0 .. len(weights) - 1`` drawn with probability
        ``weights[i] / sum(weights)``.
    """

    __slots__ = ("_prob", "_alias", "_size")

    def __init__(self, weights: Sequence[float]):
        if not weights:
            raise InvalidParameterError("weights must be non-empty")
        total = 0.0
        for w in weights:
            if w < 0:
                raise InvalidParameterError(f"weights must be >= 0, got {w}")
            total += w
        if total <= 0:
            raise InvalidParameterError("at least one weight must be positive")

        size = len(weights)
        scaled = [w * size / total for w in weights]
        prob = [0.0] * size
        alias = [0] * size
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]

        while small and large:
            lo = small.pop()
            hi = large.pop()
            prob[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
            if scaled[hi] < 1.0:
                small.append(hi)
            else:
                large.append(hi)
        # Residual numerical mass: these columns sample themselves surely.
        for rest in (large, small):
            while rest:
                prob[rest.pop()] = 1.0

        self._prob = prob
        self._alias = alias
        self._size = size

    def sample(self, rng: random.Random) -> int:
        """Draw one index from the weight distribution."""
        column = rng.randrange(self._size)
        if rng.random() < self._prob[column]:
            return column
        return self._alias[column]

    @property
    def table(self) -> Tuple[List[float], List[int]]:
        """The alias table ``(prob, alias)``, for loops that inline a draw.

        :meth:`sample` is ``column = rng.randrange(len(prob))``, then
        ``column`` if ``rng.random() < prob[column]`` else
        ``alias[column]``.  The lists are the sampler's own; do not
        mutate them.
        """
        return self._prob, self._alias

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"AliasSampler(size={self._size})"


def discrete_distribution_sampler(
    probabilities: Sequence[float],
) -> AliasSampler:
    """Alias sampler over ``{1, 2, ...}`` offsets encoded as a validated pmf.

    The Cooper–Frieze model is parameterised by two discrete
    distributions over *numbers of edges per step*; this helper checks
    they are genuine probability vectors (sum to 1 within tolerance)
    before building the sampler.  ``probabilities[i]`` is the
    probability of the value ``i + 1``; the returned sampler yields
    0-based indices, so callers add 1.
    """
    total = sum(probabilities)
    if abs(total - 1.0) > 1e-9:
        raise InvalidParameterError(
            f"probabilities must sum to 1 (got {total!r})"
        )
    return AliasSampler(probabilities)
