"""Batched graph generation straight into CSR buffers.

PR 4 vectorized the *search* side of every Monte-Carlo cell; this
module vectorizes the *generation* side.  The serial builders
(:func:`repro.graphs.mori.mori_tree` and friends) remain the
equivalence oracle — everything here reproduces their output
**bit-identically**, by consuming the underlying Mersenne-Twister
stream in exactly the serial draw order:

* every draw the serial builders make (``rng.random()``,
  ``rng.randint``, ``EndpointUrn.sample``) bottoms out in 32-bit
  MT19937 output words.  ``random()`` consumes two words ``w0, w1``
  and yields ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53``;
  ``randrange(b)`` consumes words ``w``, taking ``w >> (32 - k)``
  (``k = b.bit_length()``) and rejecting values ``>= b``;
* :class:`_WordStream` pulls those words out in bulk (one
  ``getrandbits(32 * count)`` call yields ``count`` words in draw
  order) and, once a kernel knows how many words the serial builder
  would have consumed, repositions the generator to that exact point —
  so interleaving fast and serial builds on a shared ``Random`` stays
  faithful too;
* a small scalar scan replays only the *data-dependent* part of each
  step (which branch the mixture coin took, how many rejection
  redraws the bounded draw needed); the floating-point coin compare
  uses the same IEEE operations in the same order as the serial code,
  so it cannot diverge even at rounding boundaries.  Everything else —
  attachment masses, urn resolution, relabeling, degree counting, CSR
  assembly — is vectorised numpy;
* preferential draws return *urn token indices*; the token values
  (edge heads) are resolved after the scan by pointer doubling over
  the "token i was a copy of token j < i" graph, in O(log n) gathers.

The kernels emit ``(tails, heads)`` endpoint columns and
:func:`frozen_from_pairs` assembles a :class:`FrozenGraph` directly —
skipping the MultiGraph intermediate entirely.  A stable argsort of the
interleaved ``(tail0, head0, tail1, head1, ...)`` owner array
reproduces each vertex's incidence-slot order exactly, because
:meth:`MultiGraph.add_edge` appends the edge id to the tail's incidence
list and then the head's (a self-loop's two slots are consecutive).

The Cooper-Frieze model is the exception to full vectorisation: the
number of words each step consumes depends on sampled *values* (the
per-step edge-count draw), so the stream cannot be laid out ahead of
the values.  :func:`fast_cooper_frieze_frozen` instead replays the
serial draw sequence with flat-list bookkeeping (no MultiGraph, no urn
objects, no step records) and emits CSR directly — bit-identical by
construction, just with the constant factor cut down.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import GraphConstructionError, InvalidParameterError
from repro.graphs.cooper_frieze import CooperFriezeParams
from repro.graphs.frozen import FrozenGraph
from repro.graphs.sampling import discrete_distribution_sampler
from repro.rng import RandomLike, make_rng

__all__ = [
    "FASTGEN_MODELS",
    "frozen_from_pairs",
    "fast_mori_parents",
    "fast_mori_tree_frozen",
    "fast_merged_mori_frozen",
    "fast_mori_edges_per_step_frozen",
    "fast_barabasi_albert_frozen",
    "fast_cooper_frieze_frozen",
]

#: Model names (family_spec vocabulary) with a vectorized kernel.
FASTGEN_MODELS = ("mori", "mori-edges-per-step", "ba", "cooper-frieze")

#: ``rng.random()``'s final scale factor, an exact power of two.
_RECIP53 = 1.0 / 9007199254740992.0

#: Steps per scan chunk; word demand is prefetched per chunk.
_CHUNK = 16384


class _WordStream:
    """The generator's MT19937 words, bulk-extracted in draw order.

    ``Random.getrandbits(32 * count)`` assembles ``count`` generator
    words into an integer least-significant-word first, so the
    little-endian byte serialisation recovers them in exactly the
    order sequential scalar draws would have consumed them.  After a
    scan, :meth:`rewind` repositions the source generator to just past
    the last consumed word — the state it would hold after the serial
    build — so callers may keep drawing from it.

    The scans read the stream one chunk of steps at a time through
    :meth:`window`, so only a chunk's worth of words is ever held as
    Python objects, however long the build.  Alongside the words a
    window carries ``coins``: ``coins[j]`` is what ``rng.random()``
    would return if its two words were ``words[j], words[j + 1]`` —
    precomputed vectorised with the same IEEE operations as CPython's
    scalar formula ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53`` (every
    intermediate is exact: the scaled sum is an integer below 2**53
    and the final factor is a power of two), so the scan loop pays one
    list index per coin instead of redoing the bit arithmetic.
    """

    def __init__(self, rng):
        self._rng = rng
        self._state = rng.getstate()
        #: Drawn but not yet consumed words; ``_pending[0]`` is word
        #: number ``_base`` of the stream.
        self._pending = _np.zeros(0, dtype=_np.uint32)
        self._base = 0

    def window(self, start: int, count: int):
        """Words ``start .. start + count - 1`` and their coins, as lists.

        ``start`` counts words from the beginning of the stream and
        never moves backwards; both lists are indexed from it (the
        coin list is one shorter: the last word has no partner yet).
        Words before ``start`` are released.
        """
        pending = self._pending[start - self._base:]
        missing = count - len(pending)
        if missing > 0:
            raw = self._rng.getrandbits(32 * missing)
            fresh = _np.frombuffer(
                raw.to_bytes(4 * missing, "little"), dtype="<u4"
            )
            pending = _np.concatenate((pending, fresh))
        self._pending = pending
        self._base = start
        words = pending[:count]
        coins = (
            (words[:-1] >> 5).astype(_np.float64) * 67108864.0
            + (words[1:] >> 6).astype(_np.float64)
        ) * _RECIP53
        return words.tolist(), coins.tolist()

    def rewind(self, consumed: int) -> None:
        """Leave the generator exactly ``consumed`` words past the start."""
        self._rng.setstate(self._state)
        if consumed:
            self._rng.getrandbits(32 * consumed)


def _shifts_for(bounds):
    """``32 - bit_length(b)`` per bound: the getrandbits(k) shift.

    ``frexp`` exponents equal ``bit_length`` for positive integers
    (exact for every bound below 2**53).
    """
    return (32 - _np.frexp(bounds.astype(_np.float64))[1]).tolist()


def _coin_mixture_scan(stream, p, first_pref_bound, uniform_bounds):
    """Replay the Mori-style mixture steps of the serial builders.

    Each step ``i`` replays::

        if rng.random() * total_mass < preferential_mass:
            r = rng.randrange(first_pref_bound + i)   # urn token index
        else:
            r = rng.randrange(uniform_bounds[i])      # vertex 1 + r

    where ``preferential_mass = p * (first_pref_bound + i)`` (one unit
    of mass per urn token, and the urn gains exactly one token per
    step in every Mori variant) and ``total_mass`` adds ``(1 - p) *
    uniform_bounds[i]`` — the same IEEE expressions, evaluated in the
    same order, as the serial code.  Returns an int64 array of one
    encoded choice per step — token index ``r`` for preferential
    draws, ``-(1 + r)`` for uniform draws of vertex ``1 + r`` — and
    the number of words consumed.

    Steps are scanned one :data:`_CHUNK` at a time, each with its own
    word window and per-step lists, so the Python objects alive at any
    moment are bounded by the chunk, not by the build.
    """
    count = len(uniform_bounds)
    choice = _np.empty(count, dtype=_np.int64)
    pos = 0
    start = 0
    # Two coin words plus E[attempts] ~= 1/ln 2 rejection-sampling
    # words per step; a chunk that overruns its window retries with a
    # doubled one (rare).
    words_per_step = 4
    while start < count:
        stop = min(start + _CHUNK, count)
        pref_mass = p * (
            first_pref_bound + _np.arange(start, stop, dtype=_np.int64)
        ).astype(_np.float64)
        bounds = uniform_bounds[start:stop]
        total_mass = pref_mass + (1.0 - p) * bounds.astype(_np.float64)
        words, coins = stream.window(
            pos, (stop - start) * words_per_step + 64
        )
        # The preferential bound grows by one per step; its shift
        # drops by one whenever the bound reaches a power of two.
        b_p = first_pref_bound + start
        sh_p = 32 - b_p.bit_length()
        next_power = 1 << b_p.bit_length()
        out = []
        append = out.append
        at = 0
        try:
            for tm, pm, b_u, sh_u in zip(
                total_mass.tolist(), pref_mass.tolist(),
                bounds.tolist(), _shifts_for(bounds),
            ):
                if coins[at] * tm < pm:
                    r = words[at + 2] >> sh_p
                    at += 3
                    while r >= b_p:
                        r = words[at] >> sh_p
                        at += 1
                    append(r)
                else:
                    r = words[at + 2] >> sh_u
                    at += 3
                    while r >= b_u:
                        r = words[at] >> sh_u
                        at += 1
                    append(-1 - r)
                b_p += 1
                if b_p == next_power:
                    sh_p -= 1
                    next_power += next_power
        except IndexError:
            words_per_step *= 2
            continue
        choice[start:stop] = out
        pos += at
        start = stop
    return choice, pos


def _uniform_scan(stream, bounds):
    """Replay bare ``rng.randrange(bounds[i])`` draws (no coin).

    Chunked like :func:`_coin_mixture_scan`; returns an int64 array of
    the draws and the number of words consumed.
    """
    count = len(bounds)
    picks = _np.empty(count, dtype=_np.int64)
    pos = 0
    start = 0
    # E[attempts] ~= 1/ln 2 words per draw.
    words_per_step = 2
    while start < count:
        stop = min(start + _CHUNK, count)
        chunk = bounds[start:stop]
        words, _ = stream.window(pos, (stop - start) * words_per_step + 64)
        out = []
        append = out.append
        at = 0
        try:
            for b, sh in zip(chunk.tolist(), _shifts_for(chunk)):
                r = words[at] >> sh
                at += 1
                while r >= b:
                    r = words[at] >> sh
                    at += 1
                append(r)
        except IndexError:
            words_per_step *= 2
            continue
        picks[start:stop] = out
        pos += at
        start = stop
    return picks, pos


def _resolve_values(values, pointers):
    """Pointer-double ``pointers`` to anchors; return ``values[root]``.

    ``pointers[i] < i`` for every non-anchor slot (an urn token is
    always a copy of an *earlier* token), so the chains strictly
    decrease and ``ptr = ptr[ptr]`` reaches the fixpoint in
    ``O(log n)`` rounds of O(n) gathers.
    """
    while True:
        jumped = pointers[pointers]
        if _np.array_equal(jumped, pointers):
            return values[pointers]
        pointers = jumped


def frozen_from_pairs(num_vertices, tails, heads) -> FrozenGraph:
    """Assemble a :class:`FrozenGraph` from 1-based endpoint columns.

    Bit-identical to ``freeze(MultiGraph.from_edges(num_vertices,
    pairs))``: ``add_edge`` appends each edge id to the tail's
    incidence list and then the head's, so a *stable* sort of the
    interleaved owner array ``(tail0, head0, tail1, head1, ...)``
    reproduces every vertex's slot order, self-loops (two consecutive
    slots) included.
    """
    tails = _np.ascontiguousarray(tails, dtype=_np.int64)
    heads = _np.ascontiguousarray(heads, dtype=_np.int64)
    num_edges = len(tails)

    owner = _np.empty(2 * num_edges, dtype=_np.int64)
    owner[0::2] = tails
    owner[1::2] = heads
    other = _np.empty(2 * num_edges, dtype=_np.int64)
    other[0::2] = heads
    other[1::2] = tails
    order = _np.argsort(owner, kind="stable")
    slot_edges = _np.repeat(
        _np.arange(num_edges, dtype=_np.int64), 2
    )[order]
    slot_targets = other[order]

    degrees = _np.bincount(owner, minlength=num_vertices + 1)
    offsets = _np.zeros(num_vertices + 2, dtype=_np.int64)
    _np.cumsum(degrees, out=offsets[1:])
    indegree = _np.bincount(heads, minlength=num_vertices + 1)
    outdegree = _np.bincount(tails, minlength=num_vertices + 1)

    return FrozenGraph(
        num_vertices, offsets, slot_edges, slot_targets,
        int(_np.count_nonzero(tails == heads)),
        columns=(tails, heads, indegree, outdegree),
    )


# ----------------------------------------------------------------------
# Mori tree and its two higher-out-degree variants
# ----------------------------------------------------------------------


def _validate_mori(n: int, p: float, what: str) -> None:
    if n < 2:
        raise InvalidParameterError(f"{what} needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(
            f"attachment parameter p must lie in [0, 1], got {p}"
        )


def fast_mori_parents(n: int, p: float, seed: RandomLike = None):
    """The Mori tree's parent vector, batched.

    Returns an int64 array ``parents`` of length ``n + 1`` with
    ``parents[k]`` the father of vertex ``k`` (entries 0 and 1 are 0),
    elementwise equal to ``mori_tree(n, p, seed).parents``.  The
    generator behind ``seed`` is left in the same state the serial
    build would leave it.
    """
    _validate_mori(n, p, "Mori tree")
    rng = make_rng(seed)
    parents = _np.zeros(n + 1, dtype=_np.int64)
    parents[2] = 1
    if n >= 3:
        # Step i (time t = i + 3): urn holds t - 2 tokens, t - 1
        # vertices exist — the bounds double as the mass integers.
        steps = _np.arange(n - 2, dtype=_np.int64)
        stream = _WordStream(rng)
        encoded, consumed = _coin_mixture_scan(stream, p, 1, steps + 2)
        stream.rewind(consumed)

        # Urn slot s holds the head of edge s (the parent of vertex
        # s + 2); slot 0 anchors at vertex 1.  A preferential step's
        # token index points at a strictly earlier slot; a uniform
        # step anchors its own slot at the drawn vertex.
        slots = steps + 1
        values = _np.zeros(n - 1, dtype=_np.int64)
        values[0] = 1
        pointers = _np.arange(n - 1, dtype=_np.int64)
        uniform = encoded < 0
        values[slots[uniform]] = -encoded[uniform]
        pointers[slots[~uniform]] = encoded[~uniform]
        parents[2:] = _resolve_values(values, pointers)
    return parents


def fast_mori_tree_frozen(
    n: int, p: float, seed: RandomLike = None
) -> FrozenGraph:
    """Frozen snapshot equal to ``freeze(mori_tree(n, p, seed).graph)``."""
    parents = fast_mori_parents(n, p, seed)
    tails = _np.arange(2, n + 1, dtype=_np.int64)
    return frozen_from_pairs(n, tails, parents[2:])


def fast_merged_mori_frozen(
    n: int, m: int, p: float, seed: RandomLike = None
) -> FrozenGraph:
    """Frozen merged m-out Mori graph, batched.

    Equal to ``freeze(merged_mori_graph(n, m, p, seed).graph)``: the
    tree is built on ``n * m`` vertices and tree vertex ``j`` relabels
    to merged vertex ``(j - 1) // m + 1``.
    """
    if n < 2:
        raise InvalidParameterError(
            f"merged Mori graph needs n >= 2, got {n}"
        )
    if m < 1:
        raise InvalidParameterError(
            f"merge arity m must be >= 1, got {m}"
        )
    parents = fast_mori_parents(n * m, p, seed)
    tree_tails = _np.arange(2, n * m + 1, dtype=_np.int64)
    tails = (tree_tails - 1) // m + 1
    heads = (parents[2:] - 1) // m + 1
    return frozen_from_pairs(n, tails, heads)


def fast_mori_edges_per_step_frozen(
    n: int, m: int, p: float, seed: RandomLike = None
) -> FrozenGraph:
    """Frozen edges-per-step Mori variant, batched.

    Equal to ``freeze(mori_edges_per_step_graph(n, m, p, seed))``.
    Per-edge granularity: the urn grows by one token per edge (so the
    preferential bound of edge ``e`` is ``e`` itself) while the
    uniform bound steps once per *vertex*.
    """
    _validate_mori(n, p, "edges-per-step Mori graph")
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    rng = make_rng(seed)

    drawn = (n - 2) * m  # edges drawn after the initial bundle
    num_edges = m + drawn
    tails = _np.empty(num_edges, dtype=_np.int64)
    tails[:m] = 2
    heads = _np.empty(num_edges, dtype=_np.int64)
    heads[:m] = 1
    if drawn:
        edge_ids = _np.arange(m, num_edges, dtype=_np.int64)
        tails[m:] = 3 + (edge_ids - m) // m
        stream = _WordStream(rng)
        encoded, consumed = _coin_mixture_scan(
            stream, p, m, tails[m:] - 1
        )
        stream.rewind(consumed)

        # Urn slot e holds the head of edge e; the m initial slots
        # anchor at vertex 1.
        values = _np.zeros(num_edges, dtype=_np.int64)
        values[:m] = 1
        pointers = _np.arange(num_edges, dtype=_np.int64)
        uniform = encoded < 0
        values[edge_ids[uniform]] = -encoded[uniform]
        pointers[edge_ids[~uniform]] = encoded[~uniform]
        heads = _resolve_values(values, pointers)
    return frozen_from_pairs(n, tails, heads)


def fast_barabasi_albert_frozen(
    n: int, m: int = 1, seed: RandomLike = None
) -> FrozenGraph:
    """Frozen Barabasi-Albert multigraph, batched.

    Equal to ``freeze(barabasi_albert_graph(n, m, seed))``.  The urn
    gains two tokens per drawn edge (target then tail) on top of the
    initial self-loop's two, so the bound of draw ``e`` is
    ``2 + 2 * e`` and odd-numbered tokens are known tails.
    """
    if n < 2:
        raise InvalidParameterError(f"BA graph needs n >= 2, got {n}")
    if m < 1:
        raise InvalidParameterError(f"BA graph needs m >= 1, got {m}")
    rng = make_rng(seed)

    drawn = (n - 1) * m
    draw_ids = _np.arange(drawn, dtype=_np.int64)
    stream = _WordStream(rng)
    picks, consumed = _uniform_scan(stream, 2 + 2 * draw_ids)
    stream.rewind(consumed)

    drawn_tails = 2 + draw_ids // m
    # Token slots: 0 and 1 anchor at vertex 1 (the seed self-loop);
    # slot 2 + 2e is draw e's target (a pointer into earlier slots);
    # slot 3 + 2e is draw e's tail (a known anchor).
    values = _np.zeros(2 + 2 * drawn, dtype=_np.int64)
    values[0] = values[1] = 1
    values[3::2] = drawn_tails
    pointers = _np.arange(2 + 2 * drawn, dtype=_np.int64)
    pointers[2::2] = picks
    drawn_heads = _resolve_values(values, pointers)[2::2]

    tails = _np.concatenate(
        (_np.array([1], dtype=_np.int64), drawn_tails)
    )
    heads = _np.concatenate(
        (_np.array([1], dtype=_np.int64), drawn_heads)
    )
    return frozen_from_pairs(n, tails, heads)


# ----------------------------------------------------------------------
# Cooper-Frieze
# ----------------------------------------------------------------------


def fast_cooper_frieze_frozen(
    n: int,
    params: Optional[CooperFriezeParams] = None,
    seed: RandomLike = None,
    max_steps: Optional[int] = None,
    checkpoints: Optional[Sequence[int]] = None,
) -> Tuple[FrozenGraph, Optional[Dict[int, int]]]:
    """Frozen Cooper-Frieze graph via the lean replay path.

    Returns ``(snapshot, checkpoint_edge_counts)`` with the snapshot
    equal to ``freeze(cooper_frieze_graph(n, params, seed).graph)``
    and the marks equal to the serial builder's
    ``checkpoint_edge_counts`` (``None`` without ``checkpoints``).

    The word stream here cannot be laid out ahead of the sampled
    values (each step's edge-count draw decides how many draws
    follow), so this path keeps the serial draw sequence — the same
    ``rng`` methods in the same order, hence bit-identical by
    construction — and strips everything else: endpoints and urn
    tokens are flat lists, and the CSR snapshot is assembled directly.
    """
    if n < 2:
        raise InvalidParameterError(
            f"Cooper-Frieze graph needs n >= 2, got {n}"
        )
    if params is None:
        params = CooperFriezeParams()
    pending = sorted(set(checkpoints)) if checkpoints else []
    if pending and (pending[0] < 2 or pending[-1] > n):
        raise InvalidParameterError(
            f"checkpoints must lie in [2, {n}], got {pending}"
        )
    rng = make_rng(seed)
    if max_steps is None:
        max_steps = int(20 * (n - 1) / params.alpha) + 100

    new_count_sampler = discrete_distribution_sampler(
        params.new_edge_distribution
    )
    old_count_sampler = discrete_distribution_sampler(
        params.old_edge_distribution
    )
    alpha = params.alpha
    beta = params.beta
    gamma = params.gamma
    delta = params.delta
    by_indegree = params.preferential_by == "indegree"
    random = rng.random
    randint = rng.randint
    randrange = rng.randrange

    tails = [1]
    heads = [1]
    tokens = [1] if by_indegree else [1, 1]
    num_vertices = 1
    num_steps = 0
    marks: Dict[int, int] = {}
    while num_vertices < n:
        num_steps += 1
        if num_steps > max_steps:
            raise GraphConstructionError(
                f"evolution exceeded {max_steps} steps before "
                f"reaching {n} vertices (alpha={alpha})"
            )
        if random() < alpha:
            existing = num_vertices
            num_vertices += 1
            vertex = num_vertices
            count = new_count_sampler.sample(rng) + 1
            terminal_uniform = beta
        else:
            existing = num_vertices
            if random() < delta:
                vertex = randint(1, existing)
            else:
                vertex = tokens[randrange(len(tokens))]
            count = old_count_sampler.sample(rng) + 1
            terminal_uniform = gamma
        for _ in range(count):
            if random() < terminal_uniform:
                head = randint(1, existing)
            else:
                head = tokens[randrange(len(tokens))]
            tails.append(vertex)
            heads.append(head)
            if by_indegree:
                tokens.append(head)
            else:
                tokens.append(vertex)
                tokens.append(head)
        while pending and num_vertices >= pending[0]:
            marks[pending.pop(0)] = len(tails)

    snapshot = frozen_from_pairs(
        n,
        _np.array(tails, dtype=_np.int64),
        _np.array(heads, dtype=_np.int64),
    )
    return snapshot, (marks if checkpoints else None)
