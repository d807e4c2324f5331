"""Recursive construction of short rainbow cycles.

Input: n edge families on n vertices, each of size 1 or 2, with p
families of size 1.  Output: a rainbow cycle of length at most
ceil((n + p) / 2), built constructively.

The recursion in brief.  Loops and vertex pairs shared by two families
give cycles of length 1 or 2 outright.  With p = 0 the exact oracle
settles the instance against the published all-size-2 bound ceil(n/2).
Otherwise a size-1 family seeds a greedy subgraph H: starting from the
seed edge, repeatedly adopt a size-2 family whose two edges join a new
vertex x to two distinct H-vertices.  When H is maximal (t adoptions),
contract V(H) to a single vertex h.  The quotient keeps m = n, loses
one size-1 family, and recursing on it yields a cycle that lifts back:
quotient edges pull back to their parent edges, and if the cycle passes
through h, the gap between the two pull-back endpoints inside H is
closed by a rainbow path of length at most floor(t/2) + 1 whose colors
are all internal to H.  The arithmetic floor(t/2) + ceil((n'+p')/2) <=
ceil((n+p)/2) holds at every level, so the lifted cycle meets the bound.

Certificates bubble up through the levels and are re-validated at each
one; the final certificate is checked against the original instance.
The per-level arithmetic, the contraction's vertex map and the lift are
checked by explicit raises of ClaimViolation, which hold under python -O
too.
"""

from __future__ import annotations

from typing import NamedTuple

from .certificates import RainbowCycleCertificate, _walk_vertices, validate_rainbow_cycle
from .errors import (
    BoundViolation,
    ClaimViolation,
    GraphInputError,
    SeedNotSingleton,
)
from .families import Edge, RainbowInstance
from .formats import format_rainbow
from .oracles import assert_all_size2_bound

Collector = list[tuple[RainbowInstance, "GreedySubgraph"]]


class GreedySubgraph(NamedTuple):
    """The greedy subgraph H: a seed edge plus t two-edge attachments.

    Attachment i = (x, a, b, color) joins the new vertex x to the
    existing vertices a != b through the two edges of one size-2
    family.  Edge ids: 0 is the seed edge, attachment i contributes
    ids 1 + 2i (x-a) and 2 + 2i (x-b).  The (x-a, x-b) id pair at x is
    a forbidden turn: a path entering x by one may not leave by the
    other, because both edges carry the same color.  Its vertex and
    color sets, edge list, forbidden turns and incidence lists are
    computed from its three fields at each call.
    """

    seed_color: int
    seed_edge: Edge
    attachments: tuple[tuple[int, int, int, int], ...]

    @property
    def t(self) -> int:
        return len(self.attachments)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset([*self.seed_edge, *[x for x, _, _, _ in self.attachments]])

    @property
    def colors(self) -> frozenset[int]:
        return frozenset([self.seed_color, *[c for _, _, _, c in self.attachments]])

    @property
    def incident(self) -> dict[int, list[int]]:
        """Per vertex, the ids of its edges, ascending."""
        return _incident(self.edges())

    def edges(self) -> list[tuple[Edge, int]]:
        """All edges with colors, indexed by edge id."""
        edges = [(self.seed_edge, self.seed_color)]
        for x, a, b, c in self.attachments:
            edges.append(((x, a) if x <= a else (a, x), c))
            edges.append(((x, b) if x <= b else (b, x), c))
        return edges

    def forbidden_turns(self) -> dict[int, tuple[int, int]]:
        """Per attachment vertex x, the pair of same-color edge ids at x."""
        return {x: (1 + 2 * i, 2 + 2 * i) for i, (x, _, _, _) in enumerate(self.attachments)}


def _incident(edges: list[tuple[Edge, int]]) -> dict[int, list[int]]:
    incident: dict[int, list[int]] = {}
    for eid, ((a, b), _) in enumerate(edges):
        incident.setdefault(a, []).append(eid)
        if a != b:
            incident.setdefault(b, []).append(eid)
    return incident


def build_greedy_subgraph(inst: RainbowInstance, seed_color: int) -> GreedySubgraph:
    """Grow H maximally from the given size-1 seed family.

    Preconditions checked: the seed family has size 1 and a non-loop
    edge, and the families are pairwise edge-disjoint.  Each round scans
    unused size-2 families by ascending color and adopts the first whose
    edges join one new vertex to two distinct H-vertices; the scan
    restarts after every adoption, so the result is maximal and
    deterministic.
    """
    if not 0 <= seed_color < inst.m:
        raise GraphInputError(f"seed color {seed_color} out of range")
    seed_fam = inst.families[seed_color]
    if len(seed_fam) != 1:
        raise SeedNotSingleton(f"family {seed_color} has size {len(seed_fam)}")
    seed_edge = seed_fam[0]
    if seed_edge[0] == seed_edge[1]:
        raise GraphInputError("seed edge is a loop")
    # The disjointness pass also works out each size-2 family's shape: the
    # vertex x its two edges share and their other ends a and b.  A family
    # whose edges share no vertex is no candidate.  Distinct edges at x
    # have a != b, so three membership tests settle whether one fits.
    seen: set[Edge] = set()
    candidates: list[tuple[int, int, int, int]] = []
    for c, fam in enumerate(inst.families):
        for e in fam:
            if e in seen:
                raise GraphInputError(f"families are not edge-disjoint at {e}")
            seen.add(e)
        if len(fam) == 2:
            (p, q), (r, s) = fam
            if p == r:
                x, a, b = p, q, s
            elif p == s:
                x, a, b = p, q, r
            elif q == r:
                x, a, b = q, p, s
            elif q == s:
                x, a, b = q, p, r
            else:
                continue
            candidates.append((x, a, b, c))
    vertices = {seed_edge[0], seed_edge[1]}
    attachments: list[tuple[int, int, int, int]] = []
    while True:
        for i, att in enumerate(candidates):
            x, a, b, _ = att
            if x not in vertices and a in vertices and b in vertices:
                attachments.append(att)
                vertices.add(x)
                del candidates[i]
                break
        else:
            return GreedySubgraph(
                seed_color=seed_color,
                seed_edge=seed_edge,
                attachments=tuple(attachments),
            )


def rainbow_path_in_subgraph(
    h: GreedySubgraph, u: int, v: int
) -> list[tuple[Edge, int]]:
    """A shortest rainbow path from u to v inside H, length <= floor(t/2) + 1.

    Within H, a path repeats a color only by using both edges of one
    attachment, i.e. by taking a forbidden turn at its vertex x.  So a
    shortest walk that never backtracks an edge and never takes a
    forbidden turn is already simple and rainbow; that is found by BFS
    over (vertex, entering edge) states.  The result is re-checked:
    a walk that is not simple and rainbow, a missing path, or a length
    above floor(t/2) + 1 raises ClaimViolation, since each would refute
    the structure or the distance bound the construction guarantees.
    """
    edges = h.edges()
    incident = _incident(edges)  # keyed by the ends of H's edges: V(H)
    if u not in incident or v not in incident:
        raise GraphInputError("path endpoints must lie in the subgraph")
    bound = h.t // 2 + 1
    if u == v:
        return []
    forbidden = h.forbidden_turns()
    start = (u, -1)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {start: (start, -1)}
    queue = [start]
    goal: tuple[int, int] | None = None
    while queue and goal is None:
        nxt_queue = []
        for state in queue:
            w, ein = state
            pair = forbidden.get(w)
            for eid in incident[w]:
                if eid == ein:
                    continue
                if pair is not None and ein in pair and eid in pair:
                    continue
                e, _ = edges[eid]
                nxt = e[1] if e[0] == w else e[0]
                ns = (nxt, eid)
                if ns in parent:
                    continue
                parent[ns] = (state, eid)
                if nxt == v:
                    goal = ns
                    break
                nxt_queue.append(ns)
            if goal is not None:
                break
        queue = nxt_queue
    if goal is None:
        raise ClaimViolation(f"no rainbow path from {u} to {v} in subgraph {h!r}")
    ids = []
    st = goal
    while st != start:
        st, eid = parent[st]
        ids.append(eid)
    ids.reverse()
    path = [edges[eid] for eid in ids]
    seq = [u]
    for e, _ in path:
        seq.append(e[1] if e[0] == seq[-1] else e[0])
    colors = [c for _, c in path]
    if len(set(seq)) != len(seq) or len(set(colors)) != len(colors):
        raise ClaimViolation(
            f"the turn-restricted walk {seq} from {u} to {v} is not a simple "
            f"rainbow path in subgraph {h!r}"
        )
    if len(path) > bound:
        raise ClaimViolation(
            f"no rainbow path of length <= floor(t/2)+1 = {bound} from {u} to {v} "
            f"(got {len(path)}) in subgraph {h!r}"
        )
    return path


class ContractionMap(NamedTuple):
    """Everything needed to undo one contraction of V(H) to h.

    old_to_new maps parent vertices to quotient vertices (V(H) maps to
    h); family_map maps quotient colors to parent colors; parent_edges
    aligns each quotient family's edge list, position by position, with
    the parent edges it came from.
    """

    old_to_new: tuple[int, ...]
    h: int
    family_map: tuple[int, ...]
    parent_edges: tuple[tuple[Edge, ...], ...]


def contract(
    inst: RainbowInstance, h: GreedySubgraph
) -> tuple[RainbowInstance, ContractionMap]:
    """Contract V(H) to one vertex and drop the families H consumed.

    Quotient vertices: parent vertices outside H keep their relative
    order as 0..n'-2, and the contracted vertex h gets index n'-1.
    Loops and repeated pairs created by contraction are kept; family
    sizes are preserved, so the quotient loses exactly one size-1
    family (the seed).

    A vertex map with some value outside 0..h (as a subgraph that is not
    inst's gives) raises ClaimViolation before anything is built.  Every
    quotient endpoint is an image under the map, so the quotient's
    families, each put in order here, go to RainbowInstance._quotient
    without a second check.
    """
    hv = h.vertices
    h_idx = inst.n - len(hv)
    old_to_new = [h_idx] * inst.n
    i = 0
    for v in range(inst.n):
        if v not in hv:
            old_to_new[v] = i
            i += 1
    # Each value is h_idx or a count from 0, so these bound every value.
    if h_idx < 0 or max(old_to_new) > h_idx:
        raise ClaimViolation(
            f"contracting V(H) = {sorted(hv)} maps a vertex outside 0..{h_idx}, on:\n"
            + format_rainbow(inst)
        )
    used = h.colors
    fam_map = []
    new_fams: list[tuple[Edge, ...]] = []
    aligned: list[tuple[Edge, ...]] = []
    # Each family's quotient edges are put in order, and its parent edges
    # with them; equal quotient edges keep the parent order.
    for c, fam in enumerate(inst.families):
        if c in used:
            continue
        fam_map.append(c)
        u, v = fam[0]
        u, v = old_to_new[u], old_to_new[v]
        q0 = (u, v) if u <= v else (v, u)
        if len(fam) == 1:
            new_fams.append((q0,))
            aligned.append(fam)
            continue
        u, v = fam[1]
        u, v = old_to_new[u], old_to_new[v]
        q1 = (u, v) if u <= v else (v, u)
        if q1 < q0:
            new_fams.append((q1, q0))
            aligned.append((fam[1], fam[0]))
        else:
            new_fams.append((q0, q1))
            aligned.append(fam)
    quotient = RainbowInstance._quotient(h_idx + 1, new_fams)
    cmap = ContractionMap(
        old_to_new=tuple(old_to_new),
        h=h_idx,
        family_map=tuple(fam_map),
        parent_edges=tuple(aligned),
    )
    return quotient, cmap


def loop_or_shared_pair(inst: RainbowInstance) -> RainbowCycleCertificate | None:
    """A cycle of length 1 or 2 from one scan of the families, or None.

    The first loop wins, even over a non-loop vertex pair held by two
    families that comes before it; without a loop, the first such pair
    gives a length-2 cycle.  A family that holds one edge twice is no
    shared pair.
    """
    first: dict[Edge, int] = {}
    pair = None
    for c, fam in enumerate(inst.families):
        for e in fam:
            if e[0] == e[1]:
                return RainbowCycleCertificate(steps=((e, c),))
            if pair is None:
                c0 = first.setdefault(e, c)
                if c0 != c:
                    pair = RainbowCycleCertificate(steps=((e, c0), (e, c)))
    return pair


def _parent_step(
    q_inst: RainbowInstance, cmap: ContractionMap, e: Edge, c: int
) -> tuple[Edge, int]:
    pos = q_inst.families[c].index(e)
    return cmap.parent_edges[c][pos], cmap.family_map[c]


def _lift(
    inst: RainbowInstance,
    h: GreedySubgraph,
    q_inst: RainbowInstance,
    cmap: ContractionMap,
    sub: RainbowCycleCertificate,
) -> RainbowCycleCertificate:
    """Pull a quotient cycle back through one contraction."""
    seq = _walk_vertices(sub.steps)
    if seq is None:
        raise ClaimViolation(
            f"the quotient cycle {sub.steps} is no closed walk, lifting on:\n"
            + format_rainbow(inst)
        )
    k = len(seq)
    steps = list(sub.steps)
    if cmap.h not in seq:
        lifted = [_parent_step(q_inst, cmap, e, c) for e, c in steps]
        return RainbowCycleCertificate(steps=tuple(lifted))
    i0 = seq.index(cmap.h)
    seq = seq[i0:] + seq[:i0]
    steps = steps[i0:] + steps[:i0]
    lifted = [_parent_step(q_inst, cmap, e, c) for e, c in steps]
    if k == 1:
        u, v = lifted[0][0]
    else:
        # Of each parent edge at h, the end that maps to the quotient
        # cycle's neighbour of h lies outside H; the other end is in H.
        old_to_new = cmap.old_to_new
        pe0 = lifted[0][0]
        u = pe0[0] if old_to_new[pe0[1]] == seq[1] else pe0[1]
        pel = lifted[-1][0]
        v = pel[0] if old_to_new[pel[1]] == seq[-1] else pel[1]
    hv = h.vertices
    if u not in hv or v not in hv:
        raise ClaimViolation(
            f"the lifted cycle's ends {u} and {v} at h do not both lie in "
            f"V(H) = {sorted(hv)} on:\n" + format_rainbow(inst)
        )
    if u != v:
        lifted.extend(rainbow_path_in_subgraph(h, v, u))
    return RainbowCycleCertificate(steps=tuple(lifted))


def _length_bound(inst: RainbowInstance) -> int:
    return (inst.n + inst.p + 1) // 2


def _find(inst: RainbowInstance, collect: Collector | None) -> RainbowCycleCertificate:
    cert = loop_or_shared_pair(inst)
    if cert is None:
        if inst.p == 0:
            cert = assert_all_size2_bound(inst)
        else:
            seed = next(c for c, fam in enumerate(inst.families) if len(fam) == 1)
            h = build_greedy_subgraph(inst, seed)
            if collect is not None:
                collect.append((inst, h))
            q_inst, cmap = contract(inst, h)
            # Per-level arithmetic behind the length bound; the quotient
            # keeps m = n, as every level needs.
            if (
                q_inst.p != inst.p - 1
                or q_inst.m != q_inst.n
                or (q_inst.n + q_inst.p + 1) // 2 + h.t // 2 > _length_bound(inst)
            ):
                raise ClaimViolation(
                    f"contracting H (t = {h.t}) leaves n' = {q_inst.n}, m' = {q_inst.m} "
                    f"and p' = {q_inst.p}, which break the length arithmetic, on:\n"
                    + format_rainbow(inst)
                )
            sub = _find(q_inst, collect)
            cert = _lift(inst, h, q_inst, cmap, sub)
    if not validate_rainbow_cycle(inst, cert):
        raise BoundViolation(
            "constructed cycle failed validation on:\n" + format_rainbow(inst)
        )
    return cert


def find_rainbow_cycle(
    inst: RainbowInstance, collect: Collector | None = None
) -> RainbowCycleCertificate:
    """A rainbow cycle of length <= ceil((n + p) / 2), certified.

    Requires a simple-origin instance with as many families as
    vertices.  collect, if given, receives every (instance, greedy
    subgraph) pair built along the recursion, outermost first.
    """
    if not inst.simple_origin:
        raise GraphInputError("top-level instances must be of simple origin")
    if inst.n == 0:
        raise GraphInputError("instance has no vertices")
    if inst.m != inst.n:
        raise GraphInputError(f"need exactly n = {inst.n} families, got {inst.m}")
    cert = _find(inst, collect)
    bound = _length_bound(inst)
    if cert.length > bound:
        raise BoundViolation(
            f"cycle length {cert.length} exceeds ceil((n+p)/2) = {bound} on:\n"
            + format_rainbow(inst)
        )
    return cert
