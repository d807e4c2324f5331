"""Checkable certificates and their validators.

Every algorithm in this package that promises a short cycle hands back a
certificate that an independent validator can confirm against the input
alone.  Validators never trust the producer: they re-check arcs, vertex
distinctness, color distinctness, and the numeric bound, which they
recompute from the input by its kind.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .digraph import Digraph, bits
from .families import Edge, RainbowInstance, normalize_edge

# Bound kinds a cycle certificate may carry.  The bound is a promise:
# a certificate validates only if its length is within the bound.
BOUND_TWO_PHI = "two-phi"                      # length <= 2 * phi(D)
BOUND_CEIL_N_PLUS_P = "ceil-n-plus-p-over-2"   # length <= ceil((n + p) / 2)
BOUND_EXACT_GIRTH = "exact-girth"              # length <= girth(D), i.e. attains it
BOUND_EXACT_LENGTH = "exact-length"            # bound is the cycle's own length

BOUND_KINDS = frozenset(
    {BOUND_TWO_PHI, BOUND_CEIL_N_PLUS_P, BOUND_EXACT_GIRTH, BOUND_EXACT_LENGTH}
)


class CycleCertificate(NamedTuple):
    """A directed cycle given by its vertex sequence, plus a length bound."""

    vertices: tuple[int, ...]
    bound: Fraction
    bound_kind: str

    @property
    def length(self) -> int:
        return len(self.vertices)


class RainbowCycleCertificate(NamedTuple):
    """A rainbow cycle as a sequence of (edge, color) steps.

    Consecutive edges share a vertex, the last edge closes on the first,
    all cycle vertices are distinct, and all colors are distinct.
    """

    steps: tuple[tuple[Edge, int], ...]

    @property
    def length(self) -> int:
        return len(self.steps)


def _bound_holds(n: int, out: Sequence[int], cert: CycleCertificate) -> bool:
    """Whether cert's stated bound is the one its kind gives on the
    digraph with these out-masks.

    phi is summed here on its own, sharing no code with the peeling that
    produces two-phi certificates, and compared in integers; the girth is
    checked by closed walks, sharing no code with the girth oracle.
    """
    kind, bound = cert.bound_kind, cert.bound
    if kind == BOUND_TWO_PHI:
        terms = [m.bit_count() + 1 for m in out]
        den = math.lcm(*terms)
        two_phi = 2 * sum([den // t for t in terms])
        return bound.numerator * den == two_phi * bound.denominator
    if kind == BOUND_CEIL_N_PLUS_P:
        degs = [m.bit_count() for m in out]
        if any(deg not in (1, 2) for deg in degs):
            return False
        return bound == (n + degs.count(1) + 1) // 2
    if kind == BOUND_EXACT_LENGTH:
        return bound == cert.length
    # BOUND_EXACT_GIRTH: cert, a cycle of length k, attains the girth
    # exactly when no closed walk has fewer than k arcs.  ends[v] holds
    # the ends of the walks from v with as many arcs as steps taken.
    k = cert.length
    if bound != k:
        return False
    ends = [1 << v for v in range(n)]
    for _ in range(k - 1):
        ends = [_successors(out, e) for e in ends]
        if any(e >> v & 1 for v, e in enumerate(ends)):
            return False
    return True


def _successors(out: Sequence[int], vs: int) -> int:
    """The out-neighbors of the vertex mask vs, as a mask."""
    nxt = 0
    for u in bits(vs):
        nxt |= out[u]
    return nxt


def _shape_holds(n: int, cert: CycleCertificate) -> bool:
    """Whether cert holds up without reading an arc: its kind is known, it
    names k >= 2 distinct vertices of 0..n-1, and k is within its bound."""
    vs, bound = cert.vertices, cert.bound
    return (
        cert.bound_kind in BOUND_KINDS
        and _distinct_in_range(n, vs)
        and len(vs) * bound.denominator <= bound.numerator
    )


def _distinct_in_range(n: int, vs: Sequence[int]) -> bool:
    """Whether vs names k >= 2 distinct vertices of 0..n-1."""
    k = len(vs)
    return k >= 2 and len(set(vs)) == k and min(vs) >= 0 and max(vs) < n


def _arcs_hold(out: Sequence[int], vs: Sequence[int]) -> bool:
    """Whether out has the arc from each vertex of vs to the next, and
    from the last back to the first."""
    prev = vs[-1]
    for v in vs:
        if not out[prev] >> v & 1:
            return False
        prev = v
    return True


def validate_cycle_masks(n: int, out: Sequence[int], cert: CycleCertificate) -> bool:
    """True iff cert is a genuine directed cycle of the digraph on n
    vertices with out-masks out, within its bound, and that bound is the
    one its kind gives there."""
    return _shape_holds(n, cert) and _arcs_hold(out, cert.vertices) and _bound_holds(n, out, cert)


@functools.lru_cache(maxsize=4096)
def _two_phi_tops(n: int, tail_degs: tuple[int, ...]) -> tuple[int, ...]:
    """For each cycle length k = 0..n, the largest vertex-0 out-degree d with
    k <= 2 phi, vertices 1.. having out-degrees tail_degs; n if every d is."""
    terms = [deg + 1 for deg in tail_degs]
    # phi of the tail is tail_phi / den, in integers.
    den = math.lcm(*terms)
    tail_phi = sum([den // t for t in terms])
    # k <= 2 phi = 2 (tail_phi / den + 1 / (d + 1)) exactly when
    # (d + 1) (k den - 2 tail_phi) <= 2 den; when k den <= 2 tail_phi
    # it holds for every d, up to the largest out-degree n.
    rests = [k * den - 2 * tail_phi for k in range(n + 1)]
    return tuple([2 * den // rest - 1 if rest > 0 else n for rest in rests])


class BlockCycleValidator:
    """Two-phi certificates over a block: the digraphs (h,) + tail on n
    vertices, which share the out-masks tail of vertices 1..n-1 and
    differ in vertex 0's out-mask h.  valid(h, cyc) gives the verdict
    validate_cycle_masks(n, (h, *tail), cert) gives, for cert the cycle
    cyc with bound 2 phi of that digraph and kind two-phi.

    Of cyc's arcs, only the one out of vertex 0, when 0 is on the cycle,
    reads h; the tail fixes every other.  And phi sums 1/(deg + 1) over
    the vertices, where vertex 0's term depends on h only through its
    out-degree popcount(h).  So each distinct cycle's shape and arcs out
    of tail vertices are checked once, giving the arc it needs out of 0.
    For each length k, _two_phi_tops gives the largest vertex-0 out-degree
    d with k <= 2 phi, from phi summed there over the tail's popcounts and
    memoized by them.  Per head, what is left is a mask test and a
    popcount.  Every bound is thus still recomputed from the input,
    sharing no code with its producer.
    """

    __slots__ = ("n", "tail", "_top", "_need")

    def __init__(self, n: int, tail: tuple[int, ...]) -> None:
        self.n, self.tail = n, tail
        self._top = _two_phi_tops(n, tuple([m.bit_count() for m in tail]))
        # cycle -> the arc it needs out of 0 as a mask, 0 if it does not
        # pass through 0, or -1 if no head makes it a cycle.
        self._need: dict[tuple[int, ...], int] = {}

    def valid(self, h: int, cyc: tuple[int, ...]) -> bool:
        need = self._need.get(cyc)
        if need is None:
            need = self._need[cyc] = self._cycle_need(cyc)
        return h & need == need and h.bit_count() <= self._top[len(cyc)]

    def _cycle_need(self, vs: tuple[int, ...]) -> int:
        # -1 has every bit set: the arc out of 0 is left to the head.
        if not (_distinct_in_range(self.n, vs) and _arcs_hold((-1, *self.tail), vs)):
            return -1
        return 1 << vs[(vs.index(0) + 1) % len(vs)] if 0 in vs else 0


def validate_cycle(d: Digraph, cert: CycleCertificate) -> bool:
    """True iff cert is a genuine directed cycle of d within its bound, and
    that bound is the one its kind gives on d (see validate_cycle_masks)."""
    return validate_cycle_masks(d.n, d.out_masks, cert)


def _walk_vertices(steps: tuple[tuple[Edge, int], ...]) -> list[int] | None:
    """Vertex sequence [v0, .., v_{k-1}] of a closed edge walk, or None.

    steps[i] joins v_i to v_{i+1 mod k}.  Edges are unordered, so both
    orientations of the first edge are tried.
    """
    k = len(steps)
    if k == 0:
        return None
    first = steps[0][0]
    starts = [(first[0], first[1])]
    if first[0] != first[1]:
        starts.append((first[1], first[0]))
    for v0, v1 in starts:
        seq = [v0, v1]
        ok = True
        for e, _ in steps[1:]:
            cur = seq[-1]
            if e[0] == cur:
                seq.append(e[1])
            elif e[1] == cur:
                seq.append(e[0])
            else:
                ok = False
                break
        if ok and seq[-1] == v0:
            return seq[:-1]
    return None


def validate_rainbow_cycle(inst: RainbowInstance, cert: RainbowCycleCertificate) -> bool:
    """True iff cert is a rainbow cycle of inst.

    Rules: colors pairwise distinct; each edge belongs to the family of
    its color; the steps form a closed walk on distinct vertices.  A
    single loop edge is a legal length-1 cycle only on instances not of
    simple origin.  Two edges on the same vertex pair form a legal
    length-2 cycle when their colors differ.

    The color set is tested first; then one pass over the steps checks,
    per step, that its color is in range and its normalized edge is in
    that color's family, and notes a loop.  A malformed step (an edge
    or a step that is no pair, a color that is no int) that these checks
    reach raises the TypeError or ValueError that unpacking, comparing or
    indexing with it raises.
    """
    steps = cert.steps
    k = len(steps)
    try:
        colors = {c for _, c in steps}
    except TypeError:
        # An unhashable color: every step is unpacked before any color
        # is hashed, so a later step that is no pair raises first.
        colors = set([c for _, c in steps])
    if k == 0 or len(colors) != k:
        return False
    fams = inst.families
    m = len(fams)
    loop = False
    for e, c in steps:
        if not 0 <= c < m:
            return False
        u, v = e
        if ((u, v) if u <= v else (v, u)) not in fams[c]:
            return False
        if u == v:
            loop = True
    if k == 1:
        return loop and not inst.simple_origin
    if loop:
        return False
    if k == 2:
        (e1, _), (e2, _) = steps
        return normalize_edge(e1) == normalize_edge(e2)
    seq = _walk_vertices(steps)
    return seq is not None and len(set(seq)) == k
