"""Brute-force oracles.

Everything here computes exact answers by exhaustive search, with no
shortcuts shared with the constructive algorithms, so the two routes can
be compared.  Oracles enforce hard caps and refuse rather than truncate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Protocol

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
    LimitExceeded,
    NotSinkless,
    TheoremViolation,
)
from .families import Edge, RainbowInstance
from .formats import format_digraph, format_rainbow

# Path extensions the anchored cycle search makes at most.  Every cycle
# costs at least one, so this caps the cycles too; counting extensions
# also refuses a search that runs long while finding few cycles.
CYCLE_CAP = 1_000_000
# Cycles two_cycles_min_intersection pairs at most: K_7 has 2,365, K_8 16,064.
PAIR_CYCLE_CAP = 4_096
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
    The path lives on an explicit stack, so its length is not bounded by
    the interpreter's recursion limit.  Past CYCLE_CAP path extensions it
    raises LimitExceeded.
    """
    extensions = 0
    for s in range(n):
        path = [s]
        used = 1 << s
        # Per path vertex, its out-arcs not tried yet, as a mask.
        untried = [out[s]]
        while untried:
            m = untried[-1]
            if not m:
                untried.pop()
                used ^= 1 << path.pop()
                continue
            low = m & -m
            untried[-1] = m ^ low
            v = low.bit_length() - 1
            if v == s and len(path) >= 2:
                yield list(path)
            elif v > s and not (used & low):
                extensions += 1
                if extensions > CYCLE_CAP:
                    raise LimitExceeded(f"cycle search capped at {CYCLE_CAP} path extensions")
                path.append(v)
                used |= low
                untried.append(out[v])


def enumerate_cycles(d: Digraph) -> Iterator[CycleCertificate]:
    """Every simple directed cycle of d.

    The search extends a path at most CYCLE_CAP times, and so emits at
    most that many cycles; one more extension raises LimitExceeded.
    """
    for vs in _cycles_vertices(d.n, d.out_masks):
        yield CycleCertificate(
            vertices=tuple(vs), bound=Fraction(len(vs)), bound_kind=BOUND_EXACT_LENGTH
        )


class TwoCyclePair(NamedTuple):
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
    TheoremViolation.  Past PAIR_CYCLE_CAP cycles it raises LimitExceeded.
    """
    cycles: list[tuple[int, tuple[int, ...]]] = []
    for cert in enumerate_cycles(d):
        if len(cycles) == PAIR_CYCLE_CAP:
            raise LimitExceeded(f"cycle pairs capped at {PAIR_CYCLE_CAP} cycles")
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


def deg2_short_cycle(d: Digraph, pair: TwoCyclePair | None = None) -> CycleCertificate:
    """A cycle of length <= ceil((n + p) / 2) on digraphs with out-degrees in {1, 2}.

    It is the shorter cycle of two_cycles_min_intersection(d), which a
    caller that has already searched it passes as pair.
    """
    if d.n == 0 or any(deg == 0 for deg in d.out_deg):
        raise NotSinkless("requires every out-degree >= 1")
    if any(deg > 2 for deg in d.out_deg):
        raise GraphInputError("requires every out-degree <= 2")
    if pair is None:
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
        raise LimitExceeded(f"rainbow search capped at {RAINBOW_VERTEX_CAP} vertices")
    # One pass: the first loop returns at once, since a loop beats any
    # shared pair, even one seen before it; the first shared pair is kept
    # until the pass ends with no loop.
    first_color: dict[tuple[int, int], int] = {}
    pair = None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.n)]
    for c, fam in enumerate(inst.families):
        for e in fam:
            u, v = e
            if u == v:
                return 1, RainbowCycleCertificate(steps=((e, c),))
            c0 = first_color.get(e)
            if c0 is None:
                first_color[e] = c
                adj[u].append((v, c))
                adj[v].append((u, c))
            elif c0 != c and pair is None:
                pair = RainbowCycleCertificate(steps=((e, c0), (e, c)))
    if pair is not None:
        return 2, pair
    for nbrs in adj:
        nbrs.sort()
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
    and the adjacency lists are built here.  One exhaustive search per
    source vertex walks every simple rainbow path from it.  A graph on
    more than RAINBOW_VERTEX_CAP vertices is refused; the first pair
    (a, b), a < b in order, with no rainbow path raises ClaimViolation.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for (a, b), c in h.edges():
        adj.setdefault(a, []).append((b, c))
        if a != b:
            adj.setdefault(b, []).append((a, c))
    if len(adj) > RAINBOW_VERTEX_CAP:
        raise LimitExceeded(f"rainbow search capped at {RAINBOW_VERTEX_CAP} vertices")
    vs = sorted(adj)
    out = {}
    for i, a in enumerate(vs):
        dist: dict[int, int] = {}
        _rainbow_dfs(adj, a, 1 << a, 0, 1, dist)
        for b in vs[i + 1 :]:
            if b not in dist:
                raise ClaimViolation(f"no rainbow path from {a} to {b} in {h!r}")
            out[(a, b)] = dist[b]
    return out


def _rainbow_dfs(
    adj: dict[int, list[tuple[int, int]]],
    w: int,
    used_v: int,
    used_c: int,
    length: int,
    dist: dict[int, int],
) -> None:
    """Extend a rainbow path, which has reached w on the vertex mask used_v
    in the color mask used_c, by each edge at w to an unused vertex in an
    unused color, recording in dist each vertex's least path length seen;
    length is the length the path has after one more edge."""
    for v, c in adj[w]:
        if (used_v >> v) & 1 or (used_c >> c) & 1:
            continue
        if v not in dist or length < dist[v]:
            dist[v] = length
        _rainbow_dfs(adj, v, used_v | (1 << v), used_c | (1 << c), length + 1, dist)
