"""Potential-based vertex peeling for short directed cycles.

Two potentials drive everything.  psi(D) sums 1/outdeg(v) and is only
defined on sink-less digraphs; phi(D) sums 1/(outdeg(v) + 1) and is
always defined.  Deleting a vertex v raises the phi-term of each of its
in-neighbors u from 1/(deg(u)+1) to 1/deg(u), a gain of exactly
1/(deg(u)(deg(u)+1)), and drops v's own term.  So

    phi(D - v) <= phi(D)   iff   1/(deg(v)+1) >= sum over u -> v of
                                 1/(deg(u) (deg(u) + 1)).

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .certificates import BOUND_TWO_PHI, CycleCertificate
from .digraph import Digraph, bits, is_union_of_cycles
from .errors import BoundViolation, EmptyGraph, GraphInputError, LemmaViolation, NotSinkless, SinkPresent

ChoiceHook = Callable[[Sequence[int], Sequence[int]], int]


def psi(d: Digraph) -> Fraction:
    """Sum of 1/outdeg(v).  Undefined (SinkPresent) if any out-degree is 0."""
    for v in range(d.n):
        if d.out_deg[v] == 0:
            raise SinkPresent(f"sink at vertex {v}")
    return sum((Fraction(1, deg) for deg in d.out_deg), Fraction(0))


def phi(d: Digraph) -> Fraction:
    """Sum of 1/(outdeg(v) + 1).  Defined for every digraph."""
    return sum((Fraction(1, deg + 1) for deg in d.out_deg), Fraction(0))


def eq1_terms(d: Digraph) -> list[tuple[Fraction, Fraction]]:
    """Per-vertex (lhs, rhs) of the removability inequality.

    lhs(v) = 1/(deg(v)+1); rhs(v) = sum over in-neighbors u of
    1/(deg(u)(deg(u)+1)).  v is removable without raising phi iff
    lhs(v) >= rhs(v).  Both sides sum to phi(D) over all v.
    """
    out = []
    for v in range(d.n):
        lhs = Fraction(1, d.out_deg[v] + 1)
        rhs = Fraction(0)
        for u in bits(d.in_masks[v]):
            du = d.out_deg[u]
            rhs += Fraction(1, du * (du + 1))
        out.append((lhs, rhs))
    return out


def removable_vertices(d: Digraph) -> list[int]:
    """Vertices whose deletion does not increase phi, in ascending order."""
    res = [v for v, (lhs, rhs) in enumerate(eq1_terms(d)) if lhs >= rhs]
    if d.n > 0 and not res:
        from .formats import format_digraph

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
    vertices back to original indices (ascending).
    """

    initial_phi: Fraction
    steps: tuple[tuple[int, Fraction], ...]
    terminal: Digraph
    terminal_vertices: tuple[int, ...]

    def to_json_dict(self) -> dict[str, Any]:
        from .formats import rational_json

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


def _scale(n: int) -> int:
    return math.lcm(*range(1, n + 1)) if n >= 1 else 1


class _PeelState:
    """Mutable peeling workspace over original indices, bitmask-backed."""

    __slots__ = ("n", "scale", "out", "inn", "deg", "indeg", "alive", "alive_count")

    def __init__(self, d: Digraph):
        self.n = d.n
        self.scale = _scale(d.n)
        self.out = list(d.out_masks)
        self.inn = list(d.in_masks)
        self.deg = list(d.out_deg)
        self.indeg = list(d.in_deg)
        self.alive = (1 << d.n) - 1
        self.alive_count = d.n

    def phi_scaled(self) -> int:
        m = self.scale
        deg = self.deg
        return sum(m // (deg[v] + 1) for v in bits(self.alive))

    def is_union_of_cycles(self) -> bool:
        for v in bits(self.alive):
            if self.deg[v] != 1 or self.indeg[v] != 1:
                return False
        return True

    def eligible(self, stop_at_first: bool) -> list[int]:
        """Vertices passing both removal conditions, ascending.

        A vertex is eligible when deleting it keeps phi from rising
        (integer-scaled inequality) and leaves no new sink: it must not
        be the sole out-neighbor of any live vertex.
        """
        m = self.scale
        deg = self.deg
        protected = 0
        for u in bits(self.alive):
            if deg[u] == 1:
                protected |= self.out[u]
        res = []
        for v in bits(self.alive):
            if (protected >> v) & 1:
                continue
            lhs = m // (deg[v] + 1)
            rhs = 0
            mm = self.inn[v]
            while mm:
                low = mm & -mm
                du = deg[low.bit_length() - 1]
                rhs += m // (du * (du + 1))
                mm ^= low
            if lhs >= rhs:
                res.append(v)
                if stop_at_first:
                    break
        return res

    def remove(self, v: int) -> None:
        bit = 1 << v
        self.alive ^= bit
        self.alive_count -= 1
        mm = self.inn[v]
        while mm:
            low = mm & -mm
            u = low.bit_length() - 1
            self.out[u] &= ~bit
            self.deg[u] -= 1
            mm ^= low
        mm = self.out[v]
        while mm:
            low = mm & -mm
            w = low.bit_length() - 1
            self.inn[w] &= ~bit
            self.indeg[w] -= 1
            mm ^= low
        self.out[v] = 0
        self.inn[v] = 0
        self.deg[v] = 0
        self.indeg[v] = 0

    def alive_digraph(self) -> tuple[Digraph, tuple[int, ...]]:
        """The live subgraph reindexed densely, plus original labels."""
        keep = list(bits(self.alive))
        pos = {v: i for i, v in enumerate(keep)}
        out = []
        for v in keep:
            mask = 0
            for w in bits(self.out[v]):
                mask |= 1 << pos[w]
            out.append(mask)
        return Digraph.from_out_masks(len(keep), out), tuple(keep)


def _require_sinkless_nonempty(d: Digraph) -> None:
    if d.n == 0:
        raise EmptyGraph("peeling needs at least one vertex")
    for v in range(d.n):
        if d.out_deg[v] == 0:
            raise NotSinkless(f"sink at vertex {v}")


def _lemma_violation(state: _PeelState) -> LemmaViolation:
    from .formats import format_digraph

    sub, labels = state.alive_digraph()
    return LemmaViolation(
        "no vertex can be removed without raising phi or creating a sink "
        f"(live vertices {list(labels)}) on:\n" + format_digraph(sub)
    )


def peel_step(d: Digraph) -> int | None:
    """The smallest vertex whose removal keeps phi non-increasing and the
    digraph sink-less, or None when d is already a union of cycles.

    A sink-less digraph that is not a union of cycles but has no such
    vertex would be a counterexample; that raises LemmaViolation.
    """
    _require_sinkless_nonempty(d)
    if is_union_of_cycles(d):
        return None
    state = _PeelState(d)
    found = state.eligible(stop_at_first=True)
    if not found:
        raise _lemma_violation(state)
    return found[0]


def _run_peel(d: Digraph, choose: ChoiceHook | None) -> tuple[_PeelState, int, list[tuple[int, int]]]:
    """Peel to the terminal union of cycles.

    Returns (final state, initial scaled phi, steps as (vertex, scaled
    phi after removal)).  choose, if given, picks among all eligible
    vertices each round; the default takes the smallest index.
    """
    _require_sinkless_nonempty(d)
    state = _PeelState(d)
    phi0 = state.phi_scaled()
    steps: list[tuple[int, int]] = []
    while not state.is_union_of_cycles():
        if choose is None:
            found = state.eligible(stop_at_first=True)
            if not found:
                raise _lemma_violation(state)
            v = found[0]
        else:
            found = state.eligible(stop_at_first=False)
            if not found:
                raise _lemma_violation(state)
            v = choose(tuple(bits(state.alive)), tuple(found))
            if v not in found:
                raise GraphInputError(f"choice hook returned ineligible vertex {v}")
        state.remove(v)
        steps.append((v, state.phi_scaled()))
    return state, phi0, steps


def peel(d: Digraph, choose: ChoiceHook | None = None) -> PeelingTrace:
    """Peel d down to a union of cycles, recording every step.

    choose(alive, eligible) may override the default smallest-index
    policy; it must return a member of eligible.
    """
    state, phi0, steps = _run_peel(d, choose)
    m = state.scale
    terminal, labels = state.alive_digraph()
    return PeelingTrace(
        initial_phi=Fraction(phi0, m),
        steps=tuple((v, Fraction(ph, m)) for v, ph in steps),
        terminal=terminal,
        terminal_vertices=labels,
    )


def _terminal_shortest_cycle(state: _PeelState) -> list[int]:
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
    return best


def short_cycle_via_peeling(
    d: Digraph, choose: ChoiceHook | None = None
) -> CycleCertificate:
    """A directed cycle of length <= 2 phi(D), certified, for sink-less D.

    The certificate's vertices are indices of the original digraph.
    """
    state, phi0, _ = _run_peel(d, choose)
    cyc = _terminal_shortest_cycle(state)
    bound = Fraction(2 * phi0, state.scale)
    cert = CycleCertificate(
        vertices=tuple(cyc), bound=bound, bound_kind=BOUND_TWO_PHI
    )
    if cert.length > bound:
        from .formats import format_digraph

        raise BoundViolation(
            f"peeled cycle length {cert.length} exceeds 2 phi = {bound} on:\n"
            + format_digraph(d)
        )
    return cert
