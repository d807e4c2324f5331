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
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .certificates import BOUND_TWO_PHI, CycleCertificate
from .digraph import Digraph, bits
from .errors import BoundViolation, EmptyGraph, LemmaViolation, NotSinkless, SinkPresent
from .formats import format_digraph, rational_json

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


def psi(d: Digraph) -> Fraction:
    """Sum of 1/outdeg(v).  Undefined (SinkPresent) if any out-degree is 0."""
    for v in range(d.n):
        if d.out_deg[v] == 0:
            raise SinkPresent(f"sink at vertex {v}")
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


def removable_vertices(d: Digraph) -> list[int]:
    """Vertices whose deletion does not increase phi, in ascending order."""
    res = [v for v, (lhs, rhs) in enumerate(eq1_terms(d)) if lhs >= rhs]
    if d.n > 0 and not res:
        raise LemmaViolation(
            "no vertex is phi-removable, contradicting the averaging argument, on:\n"
            + format_digraph(d)
        )
    return res


@dataclass(frozen=True)
class PeelingTrace:
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
                "n": self.terminal.n,
                "arcs": [list(a) for a in self.terminal.arcs],
                "vertices": list(self.terminal_vertices),
            },
        }


class _PeelState:
    """Mutable peeling workspace over original indices, bitmask-backed."""

    __slots__ = ("scale", "gains", "out", "inn", "deg", "alive")

    def __init__(self, d: Digraph):
        self.scale = _scale(d.n)
        self.gains = _gains(d.n, max(d.out_deg, default=0))
        self.out = list(d.out_masks)
        self.inn = list(d.in_masks)
        self.deg = list(d.out_deg)
        self.alive = (1 << d.n) - 1

    def is_union_of_cycles(self) -> bool:
        """Every live out-degree is 1 and the out-masks cover the live set,
        so every live in-degree is 1 too."""
        cover = 0
        for v in bits(self.alive):
            if self.deg[v] != 1:
                return False
            cover |= self.out[v]
        return cover == self.alive

    def first_eligible(self) -> tuple[int, int] | None:
        """(vertex, scaled phi drop on deleting it) for the smallest vertex
        passing both removal conditions, or None if no vertex does.

        A vertex is eligible when deleting it keeps phi from rising, by
        inequality (1), and leaves no new sink: it must not be the sole
        out-neighbor of any live vertex.
        """
        m, gains = self.scale, self.gains
        deg = self.deg
        protected = 0
        for u in bits(self.alive):
            if deg[u] == 1:
                protected |= self.out[u]
        for v in bits(self.alive & ~protected):
            drop = m // (deg[v] + 1) - _rhs_scaled(gains, deg, self.inn[v])
            if drop >= 0:
                return v, drop
        return None

    def remove(self, v: int) -> None:
        bit = 1 << v
        self.alive ^= bit
        for u in bits(self.inn[v]):
            self.out[u] &= ~bit
            self.deg[u] -= 1
        for w in bits(self.out[v]):
            self.inn[w] &= ~bit
        self.out[v] = 0
        self.inn[v] = 0
        self.deg[v] = 0

    def alive_digraph(self) -> tuple[Digraph, tuple[int, ...]]:
        """The live subgraph reindexed densely, plus original labels."""
        keep = list(bits(self.alive))
        pos = {v: i for i, v in enumerate(keep)}
        out = [sum(1 << pos[w] for w in bits(self.out[v])) for v in keep]
        return Digraph.from_out_masks(len(keep), out), tuple(keep)


def _require_sinkless_nonempty(d: Digraph) -> None:
    if d.n == 0:
        raise EmptyGraph("peeling needs at least one vertex")
    for v in range(d.n):
        if d.out_deg[v] == 0:
            raise NotSinkless(f"sink at vertex {v}")


def _lemma_violation(state: _PeelState) -> LemmaViolation:
    sub, labels = state.alive_digraph()
    return LemmaViolation(
        "no vertex can be removed without raising phi or creating a sink "
        f"(live vertices {list(labels)}) on:\n" + format_digraph(sub)
    )


def _run_peel(
    d: Digraph, memo: PeelMemo | None = None
) -> tuple[_PeelState, int, list[tuple[int, int]], tuple[int, ...]]:
    """Peel to the terminal union of cycles.

    Returns (final state, initial scaled phi, steps as (vertex, scaled
    phi after removal), shortest terminal cycle).  phi is carried
    through (1): deleting v changes it by rhs(v) - lhs(v).  Each round
    removes the smallest eligible vertex.  A stuck run would refute the
    averaging argument and raises LemmaViolation.

    memo maps the live out-masks of a state reached after at least one
    removal to the shortest terminal cycle of the run from there.  The
    rest of a run depends on those out-masks alone: degrees, in-masks,
    the live set (every live vertex keeps an out-arc), the protected set
    and, through their number, the scale all follow from them.  On a hit
    the run stops, so the state and steps returned cover only the part
    walked.  A run stores the states it walked only once it has
    finished, so a stuck run stores nothing, and it never looks up or
    stores its initial state, of which a sweep has one per digraph.
    """
    _require_sinkless_nonempty(d)
    state = _PeelState(d)
    phi0 = phi_m = _phi_scaled(state.scale, d.out_deg)
    steps: list[tuple[int, int]] = []
    walked: list[tuple[int, ...]] = []
    while True:
        if memo is not None and steps:
            key = tuple(state.out)
            cyc = memo.get(key)
            if cyc is not None:
                break
            walked.append(key)
        if state.is_union_of_cycles():
            cyc = _terminal_shortest_cycle(state)
            break
        found = state.first_eligible()
        if found is None:
            raise _lemma_violation(state)
        v, drop = found
        state.remove(v)
        phi_m -= drop
        steps.append((v, phi_m))
    for key in walked:
        if len(memo) >= PEEL_MEMO_CAP:
            memo.clear()
        memo[key] = cyc
    return state, phi0, steps, cyc


def peel_step(d: Digraph) -> int | None:
    """The first vertex a peeling run removes: the smallest one
    whose removal keeps phi non-increasing and the digraph sink-less, or
    None when d is already a union of cycles."""
    steps = _run_peel(d)[2]
    return steps[0][0] if steps else None


def peel(d: Digraph) -> PeelingTrace:
    """Peel d down to a union of cycles, recording every step; each step
    removes the smallest eligible vertex."""
    state, phi0, steps, cyc = _run_peel(d)
    m = state.scale
    terminal, labels = state.alive_digraph()
    return PeelingTrace(
        initial_phi=Fraction(phi0, m),
        steps=tuple((v, Fraction(ph, m)) for v, ph in steps),
        terminal=terminal,
        terminal_vertices=labels,
        certificate=_certificate(d, m, phi0, cyc),
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


def _certificate(d: Digraph, scale: int, phi0: int, cyc: tuple[int, ...]) -> CycleCertificate:
    """The certificate for a run's shortest terminal cycle, bounded by 2 phi(d)."""
    if len(cyc) * scale > 2 * phi0:
        raise BoundViolation(
            f"peeled cycle length {len(cyc)} exceeds 2 phi = {Fraction(2 * phi0, scale)} on:\n"
            + format_digraph(d)
        )
    return CycleCertificate(cyc, Fraction(2 * phi0, scale), BOUND_TWO_PHI)


def short_cycle_via_peeling(
    d: Digraph, memo: PeelMemo | None = None
) -> CycleCertificate:
    """A directed cycle of length <= 2 phi(D), certified, for sink-less D.

    The certificate's vertices are indices of the original digraph.
    memo, a dict shared across calls, lets runs that reach a state an
    earlier run passed through reuse its outcome; it holds at most
    PEEL_MEMO_CAP entries and gives the same certificates as no memo.
    """
    state, phi0, _, cyc = _run_peel(d, memo)
    return _certificate(d, state.scale, phi0, cyc)
