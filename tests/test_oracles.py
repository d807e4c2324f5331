"""Brute-force oracles: exact girth, cycle enumeration, cycle pairs, rainbow search."""

import gc
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclecert.certificates import (
    BOUND_CEIL_N_PLUS_P,
    BOUND_EXACT_GIRTH,
    BOUND_EXACT_LENGTH,
    validate_cycle,
    validate_rainbow_cycle,
)
from cyclecert.digraph import Digraph, in_masks_of
from cyclecert.errors import (
    Acyclic,
    BoundViolation,
    ClaimViolation,
    GraphInputError,
    LimitExceeded,
    NotSinkless,
)
from cyclecert.families import RainbowInstance
from cyclecert import harness
from cyclecert.harness import _girth_table, _outmap_choices, _sweep
from cyclecert.oracles import (
    RAINBOW_VERTEX_CAP,
    _girth_masks,
    all_pairs_rainbow_distances,
    assert_all_size2_bound,
    deg2_short_cycle,
    enumerate_cycles,
    girth_exact,
    shortest_rainbow_cycle_exact,
    two_cycles_min_intersection,
)

from test_core import BI_TRIANGLE, TRIANGLE, all_digraphs, digraph_strategy


def bfs_girth(out):
    hit = _girth_masks(len(out), out, in_masks_of(out))
    return None if hit is None else hit[0]


def from_vertex(s, out):
    """The out-masks of the digraph on vertices s.. of D: the vertices
    below s are kept with no arc, and the arcs into them are dropped."""
    keep = -1 << s
    return (*(m & keep if v >= s else 0 for v, m in enumerate(out)),)


class TestGirthTable:
    """_girth_table, and the tables the sweep builds with it at every
    vertex u of its recursion (the girth of the digraph on vertices
    u - 1.., over vertex u - 1's choices), against a girth search of each
    digraph."""

    @pytest.mark.parametrize(
        "n, dmin, dmax",
        [(n, 0, n - 1) for n in range(1, 5)] + [(n, 1, d) for d in (2, 3) for n in range(2, 6)],
    )
    def test_every_instance_of_a_population(self, n, dmin, dmax):
        # dmin 0: every labeled digraph, acyclic ones (None) included.  A
        # block's table covers every vertex-0 choice, the empty one too; the
        # sweep keeps the sink-less instances.
        choices = _outmap_choices(n, dmin, dmax)
        size = math.prod(map(len, choices))
        seen = 0
        for b in _sweep(choices, 0, size):
            assert b.girth == [bfs_girth(b.out(r)) for r in range(len(choices[0]))], b.tail
            seen += len(b.kept)
        assert seen == math.prod(sum(1 for m in c if m) for c in choices)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_tails(self, data):
        # The table over vertex s's out-masks heads, from the in-masks of
        # vertices s+1.. (arcs into vertices below s included, as the
        # sweep's recursion holds them) and the girth of the digraph on s+1...
        n = data.draw(st.integers(6, 8), label="n")
        s = data.draw(st.integers(0, 2), label="s")
        full = (1 << n) - 1
        rest = (0,) * (s + 1) + tuple(
            data.draw(st.integers(0, full), label=f"out {v}") & ~(1 << v) for v in range(s + 1, n)
        )
        heads = data.draw(st.lists(st.integers(0, full).map(lambda m: m & ~(1 << s)), max_size=6))
        g_rest = bfs_girth(from_vertex(s + 1, rest))
        table = _girth_table(in_masks_of(rest), heads, g_rest, s)
        assert table == [
            bfs_girth(from_vertex(s, rest[:s] + (h,) + rest[s + 1 :])) for h in heads
        ]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_runs(self, data):
        # A run: vertex 1 ranges over several out-masks, vertices 2.. fixed,
        # every mask non-empty (one sink would empty the sweep).
        n = data.draw(st.integers(6, 8), label="n")
        full = (1 << n) - 1

        def masks(v):
            return st.integers(0, full).map(lambda m: m & ~(1 << v)).filter(bool)

        ones = data.draw(st.lists(masks(1), min_size=1, max_size=6), label="ones")
        rest = [(data.draw(masks(v), label=f"out {v}"),) for v in range(2, n)]
        choices = [(0, 0b110), tuple(ones), *rest]
        # The sweep builds every girth with tables alone: one over each of
        # vertices n-2..1, then a vertex-0 table, the block's.  Each block
        # builds its own as it is built; the first one's serves its one
        # girth search, the cross-check of kept choice 1.
        searches, tables = [], []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(harness, "_girth_masks", lambda *a: searches.append(a) or _girth_masks(*a))
            m.setattr(harness, "_girth_table", lambda *a: tables.append(a) or _girth_table(*a))
            blocks = list(_sweep(choices, 0, math.prod(map(len, choices))))
        assert [a[3] for a in tables] == list(range(n - 2, -1, -1)) + [0] * (len(ones) - 1)
        assert len(blocks) == len(ones)
        assert blocks[0].again == 1 and searches == [(n, blocks[0].out(1), blocks[0].inn(1))]
        for b in blocks:
            assert b.tail[1:] == blocks[0].tail[1:]
            assert b.girth == [bfs_girth(b.out(r)) for r in (0, 1)]


class TestGirth:
    def test_triangle(self):
        g, cert = girth_exact(TRIANGLE)
        assert g == 3
        assert cert.vertices == (0, 1, 2)
        assert cert.bound == 3 and cert.bound_kind == BOUND_EXACT_GIRTH
        assert validate_cycle(TRIANGLE, cert)

    def test_digon_beats_triangle(self):
        g, cert = girth_exact(BI_TRIANGLE)
        assert g == 2 and cert.length == 2
        assert validate_cycle(BI_TRIANGLE, cert)

    def test_acyclic_gives_infinity(self):
        g, cert = girth_exact(Digraph(3, [(0, 1), (0, 2), (1, 2)]))
        assert g == math.inf and cert is None

    def test_empty_digraph_gives_infinity(self):
        g, cert = girth_exact(Digraph(0, []))
        assert g == math.inf and cert is None

    def test_witness_starts_at_smallest_vertex(self):
        d = Digraph(5, [(2, 4), (4, 3), (3, 2), (0, 1), (1, 0)])
        g, cert = girth_exact(d)
        assert g == 2 and cert.vertices[0] == min(cert.vertices)

    @given(digraph_strategy())
    def test_girth_matches_cycle_enumeration(self, d):
        lengths = [c.length for c in enumerate_cycles(d)]
        g, cert = girth_exact(d)
        if lengths:
            assert g == min(lengths)
            assert validate_cycle(d, cert)
        else:
            assert g == math.inf and cert is None


def witness_population():
    """Every labeled digraph with n <= 4, then 200 seeded random digraphs
    for each n = 5..12: one random out-arc per vertex, so girths up to n
    occur, plus 0-9 more random arcs."""
    for n in range(5):
        yield from all_digraphs(n)
    rng = random.Random(0)
    for n in range(5, 13):
        for _ in range(200):
            arcs = {(u, rng.choice([v for v in range(n) if v != u])) for u in range(n)}
            for _ in range(rng.randrange(10)):
                u, v = rng.sample(range(n), 2)
                arcs.add((u, v))
            yield Digraph(n, sorted(arcs))


class TestGirthWitnessGolden:
    # sha256 of the JSON list of [girth, witness vertices] from girth_exact
    # over witness_population(), null for acyclic digraphs: a rewrite of the
    # witness search that picks a different shortest cycle fails here.
    GOLDEN = "d79e561995ed56293fccca9f78938b466adeeb7c3fc93df79bd3e7660ed98b2c"

    def test_golden_witnesses(self):
        rows = []
        for d in witness_population():
            g, cert = girth_exact(d)
            rows.append(None if cert is None else [g, list(cert.vertices)])
        assert len(rows) == 4166 + 8 * 200  # n = 0..4, then the random digraphs
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == self.GOLDEN


class TestEnumerateCycles:
    def test_bidirected_triangle_has_five_cycles(self):
        certs = list(enumerate_cycles(BI_TRIANGLE))
        assert len(certs) == 5
        assert sorted(c.length for c in certs) == [2, 2, 2, 3, 3]
        for c in certs:
            assert c.bound == c.length and c.bound_kind == BOUND_EXACT_LENGTH

    def test_cycles_are_distinct_and_anchored(self):
        certs = list(enumerate_cycles(BI_TRIANGLE))
        assert len({c.vertices for c in certs}) == 5
        for c in certs:
            assert c.vertices[0] == min(c.vertices)

    def test_max_length_filter(self):
        assert sum(1 for c in enumerate_cycles(BI_TRIANGLE) if c.length <= 2) == 3

    def test_complete_digraph_cycle_count(self):
        # sum over k of C(n, k) * (k-1)! simple cycles in the complete digraph
        n = 5
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        expect = sum(
            math.comb(n, k) * math.factorial(k - 1) for k in range(2, n + 1)
        )
        assert sum(1 for _ in enumerate_cycles(d)) == expect

    def test_cap_is_enforced(self, monkeypatch):
        import cyclecert.oracles as oracles

        monkeypatch.setattr(oracles, "CYCLE_CAP", 3)
        with pytest.raises(LimitExceeded):
            list(enumerate_cycles(BI_TRIANGLE))

    def test_cap_counts_path_extensions_not_cycles(self, monkeypatch):
        import cyclecert.oracles as oracles

        # The transitive tournament on 8 vertices has no cycle but 2^7 - 1
        # paths from vertex 0 alone: a search that finds nothing is refused.
        dag = Digraph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        assert list(enumerate_cycles(dag)) == []
        monkeypatch.setattr(oracles, "CYCLE_CAP", 100)
        with pytest.raises(LimitExceeded, match="path extensions"):
            list(enumerate_cycles(dag))

    def test_long_cycle_needs_no_recursion(self):
        # Arcs v -> v - 1: the search from 0 walks all 5,000 vertices, far
        # past the interpreter's recursion limit, and no other anchor moves.
        n = 5_000
        d = Digraph(n, [(v, (v - 1) % n) for v in range(n)])
        (cert,) = enumerate_cycles(d)
        assert cert.vertices == (0, *range(n - 1, 0, -1))


class TestTwoCycles:
    def test_bidirected_triangle_pair(self):
        pair = two_cycles_min_intersection(BI_TRIANGLE)
        assert pair.c1.vertices == (0, 1) and pair.c2.vertices == (0, 2)
        assert pair.intersection == (0,)
        assert pair.p == 0
        assert not pair.degenerate

    def test_single_cycle_repeats_itself(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pair = two_cycles_min_intersection(d)
        assert pair.degenerate
        assert pair.c1.vertices == (0, 1, 2, 3)
        assert pair.intersection == (0, 1, 2, 3)
        assert pair.p == 4

    def test_disjoint_cycles_found(self):
        d = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        pair = two_cycles_min_intersection(d)
        assert pair.intersection == ()

    def test_acyclic_raises(self):
        with pytest.raises(Acyclic):
            two_cycles_min_intersection(Digraph(2, [(0, 1)]))

    def test_cycle_cap_refuses(self, monkeypatch):
        import cyclecert.oracles as oracles

        # BI_TRIANGLE has 5 cycles: a cap of 5 takes them, 4 refuses.
        monkeypatch.setattr(oracles, "PAIR_CYCLE_CAP", 5)
        assert two_cycles_min_intersection(BI_TRIANGLE).intersection == (0,)
        monkeypatch.setattr(oracles, "PAIR_CYCLE_CAP", 4)
        with pytest.raises(LimitExceeded):
            two_cycles_min_intersection(BI_TRIANGLE)
        with pytest.raises(LimitExceeded):
            deg2_short_cycle(BI_TRIANGLE)

    @given(digraph_strategy(4))
    def test_intersection_is_minimal(self, d):
        cycles = [frozenset(c.vertices) for c in enumerate_cycles(d)]
        if not cycles:
            return
        best = min(
            len(a & b) for i, a in enumerate(cycles) for b in cycles[i:]
        )
        pair = two_cycles_min_intersection(d)
        assert len(pair.intersection) == best


class TestDeg2ShortCycle:
    def test_triangle_with_chord(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        cert = deg2_short_cycle(d)
        assert cert.vertices == (0, 2)
        assert cert.bound == 3 and cert.bound_kind == BOUND_CEIL_N_PLUS_P
        assert validate_cycle(d, cert)

    def test_pure_cycle_meets_bound_with_equality(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        cert = deg2_short_cycle(d)
        assert cert.length == 4 and cert.bound == Fraction(4)

    def test_requires_sinkless(self):
        with pytest.raises(NotSinkless):
            deg2_short_cycle(Digraph(2, [(0, 1)]))
        with pytest.raises(NotSinkless):
            deg2_short_cycle(Digraph(0, []))

    def test_rejects_out_degree_three(self):
        d = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
        with pytest.raises(GraphInputError):
            deg2_short_cycle(d)

    def test_exhaustive_small_out_degree_two(self):
        # every sink-less digraph with out-degrees in {1, 2} and n <= 4
        for n in (2, 3, 4):
            for d in all_digraphs(n):
                if d.n and all(1 <= deg <= 2 for deg in d.out_deg):
                    cert = deg2_short_cycle(d)
                    p = sum(1 for deg in d.out_deg if deg == 1)
                    assert cert.length <= (n + p + 1) // 2
                    assert validate_cycle(d, cert)


class EdgeList:
    """A colored edge list and nothing else: no vertex set, no incidence."""

    def __init__(self, edges):
        self._edges = edges

    def edges(self):
        return self._edges


def per_pair_distances(h):
    """The rainbow distance oracle as it was, with one exhaustive search
    per vertex pair, kept here as the reference for the per-source one."""
    edges = h.edges()
    incident = {}
    for eid, ((a, b), _) in enumerate(edges):
        incident.setdefault(a, []).append(eid)
        if a != b:
            incident.setdefault(b, []).append(eid)
    vs = sorted(incident)
    out = {}
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            best = shortest_trail(edges, incident, b, a, {a}, set(), [], None)
            if best is None:
                raise ClaimViolation(f"no rainbow path from {a} to {b} in {h!r}")
            out[(a, b)] = len(best)
    return out


def shortest_trail(edges, incident, v, w, used_v, used_c, trail, best):
    """The shortest trail of edge ids to v known after extending trail,
    which has reached w on the vertices used_v in the colors used_c."""
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
        best = shortest_trail(edges, incident, v, nxt, used_v, used_c, trail, best)
        trail.pop()
        used_v.discard(nxt)
        used_c.discard(c)
    return best


# Colored edge lists on at most 8 vertices, loops included.
COLORED_EDGES = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda e: (min(e), max(e))),
        st.integers(0, 5),
    ),
    max_size=12,
)


class TestRainbowDistanceOracle:
    # The greedy subgraph of seed (0, 1) with attachments 2 (via 0, 1) and
    # 3 (via 0, 2), as its edge list: 1 -> 3 must avoid reusing color 1 or 2
    # twice, so it takes 1-0-3.
    CHAIN = [((0, 1), 0), ((0, 2), 1), ((1, 2), 1), ((0, 3), 2), ((2, 3), 2)]

    def test_reads_only_the_edge_list(self):
        assert all_pairs_rainbow_distances(EdgeList(self.CHAIN)) == {
            (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 2, (2, 3): 1,
        }

    def test_same_color_twice_is_no_path(self):
        # 0-1-2 repeats color 0, so 0 and 2 have no rainbow path.
        with pytest.raises(ClaimViolation):
            all_pairs_rainbow_distances(EdgeList([((0, 1), 0), ((1, 2), 0)]))

    @given(COLORED_EDGES)
    @example([((0, 1), 0), ((0, 2), 1), ((1, 2), 1), ((0, 3), 2), ((2, 3), 2)])
    @example([((0, 1), 0), ((2, 3), 1)])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_pair_search(self, edges):
        h = EdgeList(edges)
        try:
            want = per_pair_distances(h)
        except ClaimViolation as exc:
            # Both name the first unreachable pair (a, b) in order.
            with pytest.raises(ClaimViolation) as got:
                all_pairs_rainbow_distances(h)
            assert str(got.value) == str(exc)
        else:
            assert all_pairs_rainbow_distances(h) == want

    def test_vertex_cap(self):
        n = RAINBOW_VERTEX_CAP + 1
        path = EdgeList([((v, v + 1), v) for v in range(n - 1)])
        with pytest.raises(LimitExceeded):
            all_pairs_rainbow_distances(path)
        fits = EdgeList([((v, v + 1), v) for v in range(n - 2)])
        assert all_pairs_rainbow_distances(fits)[(0, n - 2)] == n - 2


class TestNoReferenceCycles:
    """No search is a closure: a recursive closure that names itself
    would make every call a cycle that only the cyclic collector frees."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: list(enumerate_cycles(BI_TRIANGLE)),
            lambda: two_cycles_min_intersection(BI_TRIANGLE),
            lambda: all_pairs_rainbow_distances(EdgeList(TestRainbowDistanceOracle.CHAIN)),
        ],
        ids=["enumerate_cycles", "two_cycles_min_intersection", "all_pairs_rainbow_distances"],
    )
    def test_hundred_calls_leave_nothing_to_collect(self, call):
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                call()
            assert gc.collect() == 0
        finally:
            gc.enable()


def closes_one_cycle(edges):
    """True iff the edges, one per color, form a single cycle: a loop, two
    edges on one vertex pair, or k >= 3 edges on k vertices of degree 2
    that are all joined up."""
    k = len(edges)
    if k == 1:
        return edges[0][0] == edges[0][1]
    if any(u == v for u, v in edges):
        return False
    if k == 2:
        return edges[0] == edges[1]
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    if len(nbrs) != k or any(len(ws) != 2 for ws in nbrs.values()):
        return False
    reached, todo = {edges[0][0]}, [edges[0][0]]
    while todo:
        for w in nbrs[todo.pop()]:
            if w not in reached:
                reached.add(w)
                todo.append(w)
    return len(reached) == k


def rainbow_girth_by_brute_force(inst):
    """The least k such that some k families, one edge each, close one cycle."""
    fams = inst.families
    for k in range(1, len(fams) + 1):
        for colors in itertools.combinations(range(len(fams)), k):
            for edges in itertools.product(*(fams[c] for c in colors)):
                if closes_one_cycle(edges):
                    return k
    return math.inf


@st.composite
def loose_rainbow_instances(draw):
    """Instances not of simple origin on n <= 5 vertices: loops, families
    that hold one edge twice and pairs shared by several families."""
    n = draw(st.integers(1, 5))
    edge = st.sampled_from([(u, v) for u in range(n) for v in range(u, n)])
    fams = draw(st.lists(st.lists(edge, min_size=1, max_size=2), min_size=1, max_size=5))
    return RainbowInstance(n, fams, simple_origin=False)


class TestRainbowOracle:
    EX4 = RainbowInstance(4, [[(0, 1)], [(2, 3)], [(0, 2), (1, 2)], [(0, 3), (1, 3)]])

    def test_four_vertex_example(self):
        g, cert = shortest_rainbow_cycle_exact(self.EX4)
        assert g == 3
        assert cert.length == 3
        assert validate_rainbow_cycle(self.EX4, cert)

    def test_shared_pair_gives_length_two(self):
        inst = RainbowInstance(2, [[(0, 1)], [(0, 1)]])
        g, cert = shortest_rainbow_cycle_exact(inst)
        assert g == 2 and cert.length == 2

    def test_loop_gives_length_one(self):
        inst = RainbowInstance(2, [[(0, 0)], [(0, 1)]], simple_origin=False)
        g, cert = shortest_rainbow_cycle_exact(inst)
        assert g == 1
        assert cert.steps == (((0, 0), 0),)

    def test_no_rainbow_cycle_is_infinity(self):
        # a single family never closes a rainbow cycle of length >= 2
        inst = RainbowInstance(3, [[(0, 1), (1, 2)]])
        g, cert = shortest_rainbow_cycle_exact(inst)
        assert g == math.inf and cert is None

    def test_forced_long_cycle(self):
        # singleton families along a 4-cycle: the only rainbow cycle is all of it
        inst = RainbowInstance(4, [[(0, 1)], [(1, 2)], [(2, 3)], [(0, 3)]])
        g, cert = shortest_rainbow_cycle_exact(inst)
        assert g == 4

    def test_vertex_cap(self):
        n = RAINBOW_VERTEX_CAP + 1
        inst = RainbowInstance(n, [[(0, 1)]])
        with pytest.raises(LimitExceeded):
            shortest_rainbow_cycle_exact(inst)

    def test_all_size2_bound_on_five_vertices(self):
        inst = RainbowInstance(
            5,
            [
                [(0, 1), (2, 3)],
                [(0, 2), (1, 4)],
                [(0, 3), (2, 4)],
                [(0, 4), (1, 2)],
                [(1, 3), (3, 4)],
            ],
        )
        cert = assert_all_size2_bound(inst)
        assert cert.length <= 3
        assert validate_rainbow_cycle(inst, cert)

    @given(loose_rainbow_instances())
    @example(RainbowInstance(3, [[(0, 1)], [(0, 1)], [(2, 2)]], simple_origin=False))
    @example(RainbowInstance(3, [[(0, 1), (0, 1)], [(1, 2)], [(0, 2)]], simple_origin=False))
    @settings(max_examples=300, deadline=None)
    def test_length_matches_brute_force_off_simple_origin(self, inst):
        g, cert = shortest_rainbow_cycle_exact(inst)
        assert g == rainbow_girth_by_brute_force(inst)
        if cert is not None:
            assert cert.length == g and validate_rainbow_cycle(inst, cert)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_oracle_result_always_validates(self, data):
        n = data.draw(st.integers(2, 6))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = data.draw(st.integers(1, n))
        fams = []
        for _ in range(m):
            size = data.draw(st.integers(1, 2))
            fams.append(data.draw(st.permutations(edges))[:size])
        try:
            inst = RainbowInstance(n, fams)
        except GraphInputError:
            return
        g, cert = shortest_rainbow_cycle_exact(inst)
        if cert is not None:
            assert g == cert.length
            assert validate_rainbow_cycle(inst, cert)
