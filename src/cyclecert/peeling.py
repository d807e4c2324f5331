"""Potential-based vertex peeling for short directed cycles.

Two potentials drive everything.  psi(D) sums 1/outdeg(v) and is only
defined on sink-less digraphs; phi(D) sums 1/(outdeg(v) + 1) and is
always defined.  Deleting a vertex v raises the phi-term of each of its
in-neighbors u from 1/(deg(u)+1) to 1/deg(u), a gain of exactly
1/(deg(u)(deg(u)+1)), and drops v's own term.  So

    phi(D - v) <= phi(D)   iff   1/(deg(v)+1) >= sum over u -> v of
                                 1/(deg(u) (deg(u) + 1)).        (1)

Summing the right side over all v counts each u once per out-arc and
collapses to phi(D) again, which is why a qualifying v always exists:
the average of (LHS - RHS) over vertices is zero.  Peeling removes such
vertices, keeping the digraph sink-less, until only a union of cycles
remains; its phi is half its order, so the shortest remaining cycle has
length at most 2 phi of the original digraph.

All comparisons are exact.  The public API speaks Fraction; the inner
loop scales by lcm(1..n), which every denominator divides, and compares
integers.  Floats appear nowhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Sequence

from .certificates import BOUND_TWO_PHI, CycleCertificate
from .digraph import Digraph, bits, first_sink
from .errors import BoundViolation, EmptyGraph, LemmaViolation, NotSinkless
from .formats import digraph_json, format_digraph, rational_json

# Live out-masks of a peeling state -> the shortest terminal cycle reached from it.
PeelMemo = dict[tuple[int, ...], tuple[int, ...]]

# A peel memo is emptied before it would grow past this many entries.
PEEL_MEMO_CAP = 1 << 16


@functools.lru_cache(maxsize=64)
def _scale(n: int) -> int:
    """lcm(1..n): scaled by it, every potential term on n vertices is an integer."""
    return math.lcm(*range(1, n + 1)) if n >= 1 else 1


@functools.lru_cache(maxsize=64)
def _gains(n: int, top: int) -> tuple[int, ...]:
    """For out-degrees d = 0..top, _scale(n) // (d (d + 1)): the scaled rise
    in phi when a vertex of out-degree d loses an out-arc.  Entry 0 is
    unused.  top is the largest out-degree in use, not n - 1, so a large
    sparse digraph gets a short table."""
    scale = _scale(n)
    return (0,) + tuple(scale // (d * (d + 1)) for d in range(1, top + 1))


def _phi_scaled(scale: int, degs: Iterable[int]) -> int:
    """phi times scale, for these out-degrees."""
    return sum(scale // (deg + 1) for deg in degs)


def _psi_scaled(scale: int, degs: Iterable[int]) -> int:
    """psi times scale, for these out-degrees (all >= 1)."""
    return sum(scale // deg for deg in degs)


def _rhs_scaled(gains: Sequence[int], degs: Sequence[int], inn: int) -> int:
    """The right side of (1) times scale, at a vertex with in-mask inn;
    gains is _gains(n, top) for some top >= every degree in degs.

    Every in-neighbor u has an out-arc, so deg(u) >= 1 here.
    """
    rhs = 0
    while inn:
        low = inn & -inn
        rhs += gains[degs[low.bit_length() - 1]]
        inn ^= low
    return rhs


class TailTerms(NamedTuple):
    """The terms a block's digraphs (h,) + tail share, scaled by _scale(n)."""

    degs: tuple[int, ...]  # out-degrees of (0,) + tail
    phi: int  # phi of vertices 1..
    rhs: tuple[int, ...]  # the right side of (1) at each vertex, from tail_inn


def tail_terms(n: int, degs: tuple[int, ...], tail_inn: Sequence[int]) -> TailTerms:
    """The TailTerms of a block: degs holds its tail's out-degrees after an
    unread 0, and tail_inn is in_masks_of((0,) + tail)."""
    gains = _gains(n, n - 1)
    rhs = tuple([_rhs_scaled(gains, degs, m) for m in tail_inn])
    return TailTerms(degs, _phi_scaled(_scale(n), degs[1:]), rhs)


def psi(d: Digraph) -> Fraction:
    """Sum of 1/outdeg(v).  Undefined (NotSinkless) if any out-degree is 0."""
    v = first_sink(d)
    if v is not None:
        raise NotSinkless(f"sink at vertex {v}")
    m = _scale(d.n)
    return Fraction(_psi_scaled(m, d.out_deg), m)


def phi(d: Digraph) -> Fraction:
    """Sum of 1/(outdeg(v) + 1).  Defined for every digraph."""
    m = _scale(d.n)
    return Fraction(_phi_scaled(m, d.out_deg), m)


def eq1_terms(d: Digraph) -> list[tuple[Fraction, Fraction]]:
    """Per-vertex (lhs, rhs) of the removability inequality.

    lhs(v) = 1/(deg(v)+1); rhs(v) = sum over in-neighbors u of
    1/(deg(u)(deg(u)+1)).  v is removable without raising phi iff
    lhs(v) >= rhs(v).  Both sides sum to phi(D) over all v.
    """
    m = _scale(d.n)
    degs = d.out_deg
    gains = _gains(d.n, max(degs, default=0))
    return [
        (Fraction(m // (degs[v] + 1), m), Fraction(_rhs_scaled(gains, degs, d.in_masks[v]), m))
        for v in range(d.n)
    ]


class PeelingTrace(NamedTuple):
    """A full record of one peeling run, checkable step by step.

    steps holds (removed vertex, phi after removal); vertices are
    indices of the original digraph throughout.  terminal is the final
    union of cycles reindexed densely, and terminal_vertices maps its
    vertices back to original indices (ascending).  certificate is the
    shortest terminal cycle, bounded by 2 * initial_phi.
    """

    initial_phi: Fraction
    steps: tuple[tuple[int, Fraction], ...]
    terminal: Digraph
    terminal_vertices: tuple[int, ...]
    certificate: CycleCertificate

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "phi_initial": rational_json(self.initial_phi),
            "steps": [
                {"vertex": v, "phi": rational_json(ph)} for v, ph in self.steps
            ],
            "terminal": {
                **digraph_json(self.terminal),
                "vertices": list(self.terminal_vertices),
            },
        }


class _PeelState:
    """Mutable peeling workspace over original indices, bitmask-backed.
    Each step's methods walk set bits inline, as bits() was most of a step."""

    __slots__ = ("scale", "gains", "out", "inn", "deg", "alive")

    def __init__(
        self,
        n: int,
        out: Sequence[int],
        inn: Sequence[int],
        deg: Sequence[int],
        scale: int,
        gains: Sequence[int],
    ):
        """scale is _scale(n) and gains a _gains(n, top) table with top at
        least every degree in deg."""
        self.scale = scale
        self.gains = gains
        self.out = list(out)
        self.inn = list(inn)
        self.deg = list(deg)
        self.alive = (1 << n) - 1

    def is_union_of_cycles(self) -> bool:
        """Every live out-degree is 1 and the out-masks cover the live set,
        so every live in-degree is 1 too.  No out-mask names a removed
        vertex, so a live sink would leave the cover short."""
        cover = 0
        for d, mask in zip(self.deg, self.out):
            if d > 1:
                return False
            cover |= mask
        return cover == self.alive

    def first_eligible(self) -> tuple[int, int] | None:
        """(vertex, scaled phi drop on deleting it) for the smallest vertex
        passing both removal conditions, or None if no vertex does.

        A vertex is eligible when deleting it keeps phi from rising, by
        inequality (1), and leaves no new sink: it must not be the sole
        out-neighbor of any live vertex.
        """
        m, gains = self.scale, self.gains
        deg, inn = self.deg, self.inn
        protected = 0
        for d, mask in zip(deg, self.out):  # a removed vertex has degree 0
            if d == 1:
                protected |= mask
        rest = self.alive & ~protected
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            drop = m // (deg[v] + 1) - _rhs_scaled(gains, deg, inn[v])
            if drop >= 0:
                return v, drop
            rest ^= low
        return None

    def remove(self, v: int) -> None:
        bit = 1 << v
        self.alive ^= bit
        out, inn, deg = self.out, self.inn, self.deg
        rest = inn[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            out[u] &= ~bit
            deg[u] -= 1
            rest ^= low
        rest = out[v]
        while rest:
            low = rest & -rest
            inn[low.bit_length() - 1] &= ~bit
            rest ^= low
        out[v] = inn[v] = deg[v] = 0

    def alive_digraph(self) -> tuple[Digraph, tuple[int, ...]]:
        """The live subgraph reindexed densely, plus original labels."""
        keep = list(bits(self.alive))
        pos = {v: i for i, v in enumerate(keep)}
        out = [sum(1 << pos[w] for w in bits(self.out[v])) for v in keep]
        return Digraph.from_out_masks(len(keep), out), tuple(keep)


def _start(d: Digraph) -> _PeelState:
    """The state a peeling run of d begins in; d must be sink-less and nonempty."""
    if d.n == 0:
        raise EmptyGraph("peeling needs at least one vertex")
    v = first_sink(d)
    if v is not None:
        raise NotSinkless(f"sink at vertex {v}")
    degs = d.out_deg
    return _PeelState(d.n, d.out_masks, d.in_masks, degs, _scale(d.n), _gains(d.n, max(degs)))


def _lemma_violation(state: _PeelState) -> LemmaViolation:
    sub, labels = state.alive_digraph()
    return LemmaViolation(
        "no vertex can be removed without raising phi or creating a sink "
        f"(live vertices {list(labels)}) on:\n" + format_digraph(sub)
    )


def _run_peel(
    state: _PeelState, memo: PeelMemo | None = None
) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """Peel state on to the terminal union of cycles.

    Returns the steps, as (vertex, scaled phi drop on removing it), and
    the shortest terminal cycle.  Each round removes the smallest
    eligible vertex; its drop is lhs(v) - rhs(v) of (1).  A run stops
    when no vertex is eligible: at a union of cycles, where every live
    vertex is some live vertex's only out-neighbor, that is its terminal
    cycle; anywhere else it would refute the averaging argument and
    raises LemmaViolation.

    memo maps the live out-masks of a state reached after at least one
    removal to the shortest terminal cycle of the run from there, so it
    is passed only for a state that has already lost a vertex.  The rest
    of a run depends on those out-masks alone: degrees, in-masks, the
    live set (every live vertex keeps an out-arc), the protected set and,
    through their number, the scale all follow from them.  On a hit the
    run stops, so the state and steps cover only the part walked.  A run
    stores the states it walked only once it has finished, so a stuck run
    stores nothing.
    """
    steps: list[tuple[int, int]] = []
    walked: list[tuple[int, ...]] = []
    while True:
        if memo is not None:
            key = tuple(state.out)
            cyc = memo.get(key)
            if cyc is not None:
                break
            walked.append(key)
        found = state.first_eligible()
        if found is None:
            if not state.is_union_of_cycles():
                raise _lemma_violation(state)
            cyc = _terminal_shortest_cycle(state)
            break
        state.remove(found[0])
        steps.append(found)
    for key in walked:
        if len(memo) >= PEEL_MEMO_CAP:
            memo.clear()
        memo[key] = cyc
    return steps, cyc


def peel(d: Digraph) -> PeelingTrace:
    """Peel d down to a union of cycles, recording every step; each step
    removes the smallest eligible vertex."""
    state = _start(d)
    m = state.scale
    phi0 = phi_m = _phi_scaled(m, d.out_deg)
    steps, cyc = _run_peel(state)
    trace = []
    for v, drop in steps:
        phi_m -= drop
        trace.append((v, Fraction(phi_m, m)))
    terminal, labels = state.alive_digraph()
    return PeelingTrace(
        initial_phi=Fraction(phi0, m),
        steps=tuple(trace),
        terminal=terminal,
        terminal_vertices=labels,
        certificate=_certificate(d.n, d.out_masks, m, phi0, cyc),
    )


def _terminal_shortest_cycle(state: _PeelState) -> tuple[int, ...]:
    """Shortest cycle of the terminal union of cycles, original indices.

    Scanning unvisited vertices in ascending order means each walk
    starts at the minimum vertex of its own cycle.
    """
    visited = 0
    best: list[int] | None = None
    for v in bits(state.alive):
        if (visited >> v) & 1:
            continue
        cyc = [v]
        visited |= 1 << v
        w = state.out[v].bit_length() - 1
        while w != v:
            cyc.append(w)
            visited |= 1 << w
            w = state.out[w].bit_length() - 1
        if best is None or len(cyc) < len(best):
            best = cyc
    assert best is not None
    return tuple(best)


def _certificate(
    n: int, out: Sequence[int], scale: int, phi0: int, cyc: tuple[int, ...]
) -> CycleCertificate:
    """The certificate for a run's shortest terminal cycle on the digraph
    with these out-masks, bounded by 2 phi, which is phi0 / scale."""
    if len(cyc) * scale > 2 * phi0:
        raise BoundViolation(
            f"peeled cycle length {len(cyc)} exceeds 2 phi = {Fraction(2 * phi0, scale)} on:\n"
            + format_digraph(Digraph.from_out_masks(n, out))
        )
    return CycleCertificate(cyc, Fraction(2 * phi0, scale), BOUND_TWO_PHI)


def short_cycle_via_peeling(d: Digraph) -> CycleCertificate:
    """A directed cycle of length <= 2 phi(D), certified, for sink-less D.

    The certificate's vertices are indices of the original digraph.
    """
    state = _start(d)
    cyc = _run_peel(state)[1]
    return _certificate(d.n, d.out_masks, state.scale, _phi_scaled(state.scale, d.out_deg), cyc)


class BlockPeeler:
    """short_cycle_via_peeling over a block: the digraphs (h,) + tail on
    n vertices, which share the out-masks tail of vertices 1..n-1 and
    differ in vertex 0's out-mask h.  tail_inn is in_masks_of((0,) + tail),
    terms its tail_terms, which a sweep shares with other checks.  memo,
    a dict shared across blocks, lets runs that reach a state an earlier
    run passed through reuse its outcome; it holds at most PEEL_MEMO_CAP
    entries and gives the same certificates as no memo.

    Each digraph's first removal v comes from the tail terms, and with it
    the memo key of the state after it.  A hit ends the choice with no
    peeling state built; a miss builds the state, removes v and runs on
    from there, storing the keys a run from the start state would.  A
    start state with no eligible vertex, such as a union of cycles, is
    run as it stands.

    The policy tries vertex 0 first.  Whether 0 is protected (some tail
    out-mask is {0}) and the right side of (1) at 0, terms.rhs[0], are the
    same for every h, and the left side 1/(deg0 + 1) falls as deg0 rises,
    so 0 is removed first exactly when deg0 is at most one threshold per
    block.  The state after it, D - 0, is the same for all those digraphs:
    one memo key, built once.  (A union of cycles removes nothing, but
    there 0's one in-neighbor has out-mask {0}, so 0 is protected.)

    Every other digraph removes some v >= 1 first, and whether v is
    eligible in its start state depends on h in two ways only: v in h
    adds gains[deg0] to the right side of (1) at v, terms.rhs[v] without
    it, and when deg0 = 1 the one vertex of h is protected.  So per-block
    tables, built on first use, give v in a few mask operations, and the
    memo key is the out-masks with bit v cleared and slot v emptied.

    cycle(h) gives the cycle short_cycle_via_peeling(d) certifies, and
    raises as it does when that cycle is longer than 2 phi of d's own
    degrees.  certificate(h) builds the certificate itself; a sweep asks
    for one only where it leaves the block.
    """

    __slots__ = (
        "n", "tail", "tail_inn", "memo", "scale", "gains", "degs", "tail_phi", "rhs",
        "zero_first", "_zero_key", "_tables",
    )

    def __init__(
        self, n: int, tail: tuple[int, ...], tail_inn: Sequence[int], terms: TailTerms,
        memo: PeelMemo,
    ) -> None:
        if 0 in tail:
            raise NotSinkless(f"sink at vertex {tail.index(0) + 1}")
        self.n, self.tail, self.tail_inn, self.memo = n, tail, tail_inn, memo
        self.scale = scale = _scale(n)
        self.gains = _gains(n, n - 1)
        # Vertex 0's own out-degree is h.bit_count(), not degs[0].
        self.degs, self.tail_phi, self.rhs = terms
        # The vertex-0 out-degrees whose digraphs remove vertex 0 first,
        # and the memo key of D - 0, the state they reach.
        self.zero_first = range(0)
        self._zero_key: tuple[int, ...] = ()
        if 1 not in tail:  # else some tail vertex's only out-arc enters 0
            rhs0 = terms.rhs[0]
            top = max((d for d in range(1, n) if scale // (d + 1) >= rhs0), default=0)
            self.zero_first = range(1, top + 1)
            if top:
                self._zero_key = (0, *[m & ~1 for m in tail])
        # The first-step tables (see _first_step_tables), built on first use.
        self._tables: tuple[int, tuple[int, ...], list[tuple[int, ...]]] | None = None

    def certificate(self, h: int) -> CycleCertificate:
        """short_cycle_via_peeling of the digraph (h,) + tail, with memo."""
        phi0 = self.tail_phi + self.scale // (h.bit_count() + 1)
        return _certificate(self.n, (h, *self.tail), self.scale, phi0, self.cycle(h))

    def cycle(self, h: int) -> tuple[int, ...]:
        """The vertices of certificate(h), with the same checks."""
        if h == 0:
            raise NotSinkless("sink at vertex 0")
        deg0 = h.bit_count()
        first = self._first_step(h, deg0)
        if first is None:
            cyc = _run_peel(self._state(h, deg0))[1]
        else:
            v, key = first
            cyc = self.memo.get(key)
            if cyc is None:
                state = self._state(h, deg0)
                state.remove(v)
                cyc = _run_peel(state, self.memo)[1]
        phi0 = self.tail_phi + self.scale // (deg0 + 1)
        if len(cyc) * self.scale > 2 * phi0:
            _certificate(self.n, (h, *self.tail), self.scale, phi0, cyc)  # raises BoundViolation
        return cyc

    def _first_step(self, h: int, deg0: int) -> tuple[int, tuple[int, ...]] | None:
        """The vertex v the run of (h,) + tail removes first and the live
        out-masks once v is gone, the memo key of that state; None if the
        start state has no eligible vertex.  That happens when it is a
        union of cycles, where every vertex is some vertex's only
        out-neighbor, and nowhere else unless the averaging argument
        fails."""
        if deg0 in self.zero_first:
            return 0, self._zero_key
        outside, inside, after = self._tables or self._first_step_tables()
        cand = (outside & ~h) | (inside[deg0] & h)
        if not cand:
            return None
        v = (cand & -cand).bit_length() - 1
        return v, (h & ~(1 << v), *after[v])

    def _first_step_tables(self) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
        """Built once per block, from the tail terms: the vertices v >= 1
        eligible when v is not in h; for each deg0, those eligible when v
        is in h; and for each v in the first set, the tail's out-masks once
        v is gone.  Neither set holds a vertex the tail protects, the sole
        out-neighbor of a tail vertex of out-degree 1, and the set for
        deg0 = 1 is empty, since then h's one vertex is protected."""
        n, tail, degs, gains, m = self.n, self.tail, self.degs, self.gains, self.scale
        protected = 0
        for u, mask in enumerate(tail, 1):
            if degs[u] == 1:
                protected |= mask
        outside = 0
        inside = [0] * n
        after: list[tuple[int, ...]] = [()] * n
        for v in range(1, n):
            bit = 1 << v
            if protected & bit:
                continue
            slack = m // (degs[v] + 1) - self.rhs[v]
            if slack < 0:
                continue
            outside |= bit
            for d in range(2, n):
                if slack >= gains[d]:
                    inside[d] |= bit
            rest = [mask & ~bit for mask in tail]
            rest[v - 1] = 0
            after[v] = tuple(rest)
        self._tables = (outside, tuple(inside), after)
        return self._tables

    def _state(self, h: int, deg0: int) -> _PeelState:
        """The state a run of the digraph (h,) + tail begins in."""
        inn = list(self.tail_inn)
        rest = h
        while rest:
            low = rest & -rest
            inn[low.bit_length() - 1] |= 1
            rest ^= low
        return _PeelState(
            self.n, (h, *self.tail), inn, (deg0, *self.degs[1:]), self.scale, self.gains
        )
