"""Brute-force oracles.

Everything here computes exact answers by exhaustive search, with no
shortcuts shared with the constructive algorithms, so the two routes can
be compared.  Oracles enforce hard caps and refuse rather than truncate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Protocol, Sequence

from .certificates import (
    BOUND_CEIL_N_PLUS_P,
    BOUND_EXACT_GIRTH,
    BOUND_EXACT_LENGTH,
    CycleCertificate,
    RainbowCycleCertificate,
)
from .digraph import Digraph, bits
from .errors import (
    Acyclic,
    BoundViolation,
    ClaimViolation,
    GraphInputError,
    NotSinkless,
    ResourceCap,
    TheoremViolation,
)
from .families import Edge, RainbowInstance
from .formats import format_digraph, format_rainbow

CYCLE_CAP = 10_000_000
RAINBOW_VERTEX_CAP = 16


def _girth_masks(n: int, out: tuple[int, ...], inn: tuple[int, ...]) -> tuple[int, int] | None:
    """(girth, anchor vertex) by BFS from every vertex, or None if acyclic.

    The cycle through anchor s is a shortest s -> u path plus the arc
    u -> s.  A digon scan settles girth 2 instantly; longer searches
    prune layers that cannot beat the best girth found so far.
    """
    for u in range(n):
        if out[u] & inn[u]:
            return 2, u
    best_g = None
    best_s = -1
    for s in range(n):
        target = inn[s]
        if not target:
            continue
        frontier = out[s]
        seen = frontier
        dist = 1
        while frontier:
            if frontier & target:
                g = dist + 1
                if best_g is None or g < best_g:
                    best_g, best_s = g, s
                break
            if best_g is not None and dist + 2 >= best_g:
                break
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= out[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~seen
            seen |= frontier
            dist += 1
    if best_g is None:
        return None
    return best_g, best_s


def _girth_table(
    n: int, tail: Sequence[int], tail_inn: tuple[int, ...], heads: Sequence[int]
) -> list[int | None]:
    """For each h in heads, the girth of the digraph with out-masks
    (h,) + tail, or None if it is acyclic; tail_inn is in_masks_of((0,) + tail).

    A cycle either avoids vertex 0, and so is a cycle of D - 0, or leaves
    0 by an arc 0 -> v and returns by a shortest v -> 0 path, which meets
    0 only at its end and so uses arcs of vertices 1.. alone.  One girth
    search of D - 0 and one backward search from 0 over tail_inn thus
    serve every h: girth = min(g(D - 0), 1 + min over v in h of dist(v -> 0)).
    """
    hit = _girth_masks(n, (0, *(m & ~1 for m in tail)), (0, *tail_inn[1:]))
    g0 = None if hit is None else hit[0]
    # layers[k]: the vertices whose shortest path to 0 has k + 1 arcs, only
    # as deep as a cycle through 0 (k + 2 arcs) still beats g0.
    layers = []
    depth = n if g0 is None else g0 - 2
    seen, frontier = 1, tail_inn[0]
    while frontier and len(layers) < depth:
        layers.append(frontier)
        seen |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= tail_inn[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
    table = []
    for h in heads:
        g = g0
        for k, layer in enumerate(layers):
            if h & layer:
                g = k + 2
                break
        table.append(g)
    return table


def _shortest_cycle_through(out: tuple[int, ...], inn: tuple[int, ...], s: int) -> list[int]:
    """A shortest cycle through s, as a vertex list starting at s.

    BFS layers from s, as bitmasks, stop at the first layer holding an
    in-neighbor of s; the walk back takes the smallest closing vertex and
    then, layer by layer, the smallest vertex with an arc to the last one.
    """
    seen = layer = 1 << s
    layers = []
    while True:
        nxt = 0
        for w in bits(layer):
            nxt |= out[w]
        layer = nxt & ~seen
        if not layer:
            raise AssertionError("no cycle through anchor vertex")
        if layer & inn[s]:
            break
        seen |= layer
        layers.append(layer)
    path = [next(bits(layer & inn[s]))]
    for layer in reversed(layers):
        path.append(next(bits(layer & inn[path[-1]])))
    path.append(s)
    path.reverse()
    return path


def _rotate_min(vs: list[int]) -> tuple[int, ...]:
    i = vs.index(min(vs))
    return tuple(vs[i:] + vs[:i])


def girth_exact(d: Digraph) -> tuple[int | float, CycleCertificate | None]:
    """The exact girth with a witness cycle, or (inf, None) for acyclic digraphs."""
    hit = _girth_masks(d.n, d.out_masks, d.in_masks)
    if hit is None:
        return math.inf, None
    g, s = hit
    vs = _shortest_cycle_through(d.out_masks, d.in_masks, s)
    cert = CycleCertificate(
        vertices=_rotate_min(vs), bound=Fraction(g), bound_kind=BOUND_EXACT_GIRTH
    )
    return g, cert


def _cycles_vertices(n: int, out: tuple[int, ...]) -> Iterator[list[int]]:
    """All simple directed cycles, as vertex lists starting at their minimum vertex.

    Anchored enumeration: cycles are found from their smallest vertex s,
    and the search never descends below s, so each cycle appears exactly
    once.  Deterministic order: ascending anchor, then lexicographic path.
    """
    path: list[int] = []

    def dfs(s: int, w: int, used: int) -> Iterator[list[int]]:
        m = out[w]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if v == s and len(path) >= 2:
                yield list(path)
            elif v > s and not (used & low):
                path.append(v)
                yield from dfs(s, v, used | low)
                path.pop()

    for s in range(n):
        path = [s]
        yield from dfs(s, s, 1 << s)


def enumerate_cycles(d: Digraph) -> Iterator[CycleCertificate]:
    """Every simple directed cycle of d.

    Emits at most CYCLE_CAP cycles; one more raises ResourceCap.
    """
    count = 0
    for vs in _cycles_vertices(d.n, d.out_masks):
        count += 1
        if count > CYCLE_CAP:
            raise ResourceCap(f"more than {CYCLE_CAP} cycles")
        yield CycleCertificate(
            vertices=tuple(vs), bound=Fraction(len(vs)), bound_kind=BOUND_EXACT_LENGTH
        )


@dataclass(frozen=True)
class TwoCyclePair:
    """Two cycles (possibly the same one) minimizing vertex intersection."""

    c1: CycleCertificate
    c2: CycleCertificate
    intersection: tuple[int, ...]
    p: int

    @property
    def degenerate(self) -> bool:
        return self.c1 == self.c2


def _deg2_hypothesis(d: Digraph) -> bool:
    return d.n > 0 and all(1 <= deg <= 2 for deg in d.out_deg)


def two_cycles_min_intersection(d: Digraph) -> TwoCyclePair:
    """A pair of cycles with minimum vertex intersection.

    The pair may repeat one cycle (needed when d has a single cycle).
    Ties break toward the smaller combined length, then enumeration
    order.  On sink-less digraphs with all out-degrees in {1, 2}, an
    intersection above p + 1 (p = number of out-degree-1 vertices) is a
    TheoremViolation.
    """
    cycles: list[tuple[int, tuple[int, ...]]] = []
    for cert in enumerate_cycles(d):
        mask = 0
        for v in cert.vertices:
            mask |= 1 << v
        cycles.append((mask, cert.vertices))
    if not cycles:
        raise Acyclic("digraph has no directed cycle")
    best = None
    for i, (mi, vi) in enumerate(cycles):
        for j in range(i, len(cycles)):
            mj, vj = cycles[j]
            key = ((mi & mj).bit_count(), len(vi) + len(vj), i, j)
            if best is None or key < best:
                best = key
    isize, _, bi, bj = best
    p = sum(1 for deg in d.out_deg if deg == 1)
    if _deg2_hypothesis(d) and isize > p + 1:
        raise TheoremViolation(
            f"cycle pair intersection {isize} exceeds p + 1 = {p + 1} on:\n"
            + format_digraph(d)
        )
    mi, vi = cycles[bi]
    mj, vj = cycles[bj]
    inter = tuple(bits(mi & mj))
    mk = lambda vs: CycleCertificate(
        vertices=vs, bound=Fraction(len(vs)), bound_kind=BOUND_EXACT_LENGTH
    )
    return TwoCyclePair(c1=mk(vi), c2=mk(vj), intersection=inter, p=p)


def deg2_short_cycle(d: Digraph) -> CycleCertificate:
    """A cycle of length <= ceil((n + p) / 2) on digraphs with out-degrees in {1, 2}."""
    if d.n == 0 or any(deg == 0 for deg in d.out_deg):
        raise NotSinkless("requires every out-degree >= 1")
    if any(deg > 2 for deg in d.out_deg):
        raise GraphInputError("requires every out-degree <= 2")
    pair = two_cycles_min_intersection(d)
    short = pair.c1 if pair.c1.length <= pair.c2.length else pair.c2
    bound = Fraction((d.n + pair.p + 1) // 2)
    if short.length > bound:
        raise BoundViolation(
            f"short cycle length {short.length} exceeds ceil((n+p)/2) = {bound} on:\n"
            + format_digraph(d)
        )
    return CycleCertificate(
        vertices=short.vertices, bound=bound, bound_kind=BOUND_CEIL_N_PLUS_P
    )


def shortest_rainbow_cycle_exact(
    inst: RainbowInstance,
) -> tuple[int | float, RainbowCycleCertificate | None]:
    """The exact rainbow girth by iterative deepening, or (inf, None).

    Length 1 means a loop edge; length 2 means two edges on one vertex
    pair from two families; length >= 3 is a simple rainbow cycle found
    by depth-limited search from each anchor vertex.
    """
    if inst.n > RAINBOW_VERTEX_CAP:
        raise ResourceCap(f"rainbow search capped at {RAINBOW_VERTEX_CAP} vertices")
    for c, fam in enumerate(inst.families):
        for e in fam:
            if e[0] == e[1]:
                return 1, RainbowCycleCertificate(steps=((e, c),))
    # No loops remain: a pair held by two families is a 2-cycle.
    first_color: dict[tuple[int, int], int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.n)]
    for c, fam in enumerate(inst.families):
        for e in fam:
            c0 = first_color.setdefault(e, c)
            if c0 != c:
                return 2, RainbowCycleCertificate(steps=((e, c0), (e, c)))
            u, v = e
            adj[u].append((v, c))
            adj[v].append((u, c))
    for u in range(inst.n):
        adj[u] = sorted(set(adj[u]))
    for length in range(3, inst.n + 1):
        for s in range(inst.n):
            path = [s]
            colors: list[int] = []
            if _rainbow_cycle_dfs(adj, path, colors, s, s, 1 << s, 0, length - 1):
                steps = []
                for i in range(length):
                    u, v = path[i], path[(i + 1) % length]
                    steps.append(((min(u, v), max(u, v)), colors[i]))
                return length, RainbowCycleCertificate(steps=tuple(steps))
    return math.inf, None


def _rainbow_cycle_dfs(
    adj: list[list[tuple[int, int]]],
    path: list[int],
    colors: list[int],
    s: int,
    w: int,
    used_v: int,
    used_c: int,
    remaining: int,
) -> bool:
    """Extend path, which runs from s to w on the vertex mask used_v in the
    colors of used_c (listed in colors), by remaining more vertices above
    s and then close it at s in a color still free.  True once path and
    colors hold such a cycle; each cycle is tried in one direction only,
    path[1] < path[-1]."""
    if remaining == 0:
        if path[1] > path[-1]:
            return False
        for v, c in adj[w]:
            if v == s and not (used_c >> c) & 1:
                colors.append(c)
                return True
        return False
    for v, c in adj[w]:
        if v > s and not (used_v >> v) & 1 and not (used_c >> c) & 1:
            path.append(v)
            colors.append(c)
            if _rainbow_cycle_dfs(
                adj, path, colors, s, v, used_v | (1 << v), used_c | (1 << c), remaining - 1
            ):
                return True
            path.pop()
            colors.pop()
    return False


def assert_all_size2_bound(inst: RainbowInstance) -> RainbowCycleCertificate:
    """Exact shortest rainbow cycle for an all-size-2 instance, asserted <= ceil(n/2).

    This is the base case the recursive construction leans on; a miss is
    a counterexample to a published bound and raises BoundViolation.
    """
    length, cert = shortest_rainbow_cycle_exact(inst)
    bound = (inst.n + 1) // 2
    if cert is None or length > bound:
        raise BoundViolation(
            f"all-size-2 instance has rainbow girth {length} > ceil(n/2) = {bound} on:\n"
            + format_rainbow(inst)
        )
    return cert


class _ColoredEdgeList(Protocol):
    def edges(self) -> list[tuple[Edge, int]]:
        """The colored edges, indexed by edge id."""
        ...


def all_pairs_rainbow_distances(h: _ColoredEdgeList) -> dict[tuple[int, int], int]:
    """Shortest rainbow-path length for every unordered vertex pair of a
    colored graph such as the rainbow construction's greedy subgraph.

    Only h's colored edge list is read: the vertices are its endpoints,
    and the incidence lists are built here.  A graph on more than
    RAINBOW_VERTEX_CAP vertices is refused; a pair with no rainbow path
    raises ClaimViolation.
    """
    edges = h.edges()
    incident: dict[int, list[int]] = {}
    for eid, ((a, b), _) in enumerate(edges):
        incident.setdefault(a, []).append(eid)
        if a != b:
            incident.setdefault(b, []).append(eid)
    if len(incident) > RAINBOW_VERTEX_CAP:
        raise ResourceCap(f"rainbow search capped at {RAINBOW_VERTEX_CAP} vertices")
    vs = sorted(incident)
    out = {}
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            path = _brute_shortest_rainbow_path(edges, incident, a, b)
            if path is None:
                raise ClaimViolation(f"no rainbow path from {a} to {b} in {h!r}")
            out[(a, b)] = len(path)
    return out


def _brute_shortest_rainbow_path(
    edges: list[tuple[Edge, int]], incident: dict[int, list[int]], u: int, v: int
) -> list[tuple[Edge, int]] | None:
    """Exact shortest simple rainbow path u -> v, by DFS over all paths."""
    best = _rainbow_dfs(edges, incident, v, u, {u}, set(), [], None)
    if best is None:
        return None
    return [edges[eid] for eid in best]


def _rainbow_dfs(
    edges: list[tuple[Edge, int]],
    incident: dict[int, list[int]],
    v: int,
    w: int,
    used_v: set[int],
    used_c: set[int],
    trail: list[int],
    best: list[int] | None,
) -> list[int] | None:
    """Extend the trail of edge ids, which has reached w on the vertices
    used_v in the colors used_c, by each edge at w to an unused vertex in
    an unused color.  Returns the shortest trail to v known: best, the
    shortest found before, or a shorter one found here."""
    if w == v:
        return list(trail) if best is None or len(trail) < len(best) else best
    if best is not None and len(trail) + 1 >= len(best):
        return best
    for eid in incident[w]:
        e, c = edges[eid]
        nxt = e[1] if e[0] == w else e[0]
        if nxt in used_v or c in used_c:
            continue
        used_v.add(nxt)
        used_c.add(c)
        trail.append(eid)
        best = _rainbow_dfs(edges, incident, v, nxt, used_v, used_c, trail, best)
        trail.pop()
        used_v.discard(nxt)
        used_c.discard(c)
    return best
