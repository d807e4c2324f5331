"""The greedy subgraph, contraction, and the recursive rainbow-cycle construction."""

import copy
import gc
import hashlib
import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclecert import rainbow
from cyclecert.certificates import (
    RainbowCycleCertificate,
    _walk_vertices,
    validate_rainbow_cycle,
)
from cyclecert.errors import ClaimViolation, GraphInputError, SeedNotSingleton
from cyclecert.families import RainbowInstance, normalize_edge
from cyclecert.harness import (
    RAINBOW_CHECKS,
    SuiteConfig,
    _rainbow_for_index,
    random_rainbow_instance,
    run_suite,
)
from cyclecert.oracles import all_pairs_rainbow_distances, shortest_rainbow_cycle_exact
from cyclecert.rainbow import (
    GreedySubgraph,
    build_greedy_subgraph,
    contract,
    find_rainbow_cycle,
    loop_or_shared_pair,
    rainbow_path_in_subgraph,
)

CHAIN = RainbowInstance(4, [[(0, 1)], [(0, 2), (1, 2)], [(0, 3), (2, 3)]])
EX4 = RainbowInstance(4, [[(0, 1)], [(2, 3)], [(0, 2), (1, 2)], [(0, 3), (1, 3)]])
# Color 1 hangs 3 on 0 and 2, which only color 2's adoption of 2 brings in.
LOWER_AFTER_HIGHER = RainbowInstance(4, [[(0, 1)], [(0, 3), (2, 3)], [(0, 2), (1, 2)], [(1, 3)]])


def restart_scan(inst, seed_color):
    """The greedy growth as first written, for reference: every round
    rescans the unused size-2 families by ascending color, working out
    each one's shape anew, and adopts the first that fits."""
    seed_edge = inst.families[seed_color][0]
    vertices = set(seed_edge)
    used = {seed_color}
    attachments = []
    while True:
        for c, fam in enumerate(inst.families):
            if c in used or len(fam) != 2:
                continue
            e1, e2 = fam
            common = set(e1) & set(e2)
            if len(common) != 1:
                continue
            x = common.pop()
            a = e1[0] if e1[1] == x else e1[1]
            b = e2[0] if e2[1] == x else e2[1]
            if x in vertices or a not in vertices or b not in vertices or a == b:
                continue
            attachments.append((x, a, b, c))
            vertices.add(x)
            used.add(c)
            break
        else:
            return tuple(attachments)


@pytest.fixture(scope="module")
def construction():
    """What the construction builds for the harness's rainbow instances of
    seeds 0-1, n = 2..12, 100 each: every (instance, certificate) pair a
    level of _find validates, and every quotient contract returns."""
    validated, quotients = [], []
    real_validate, real_contract = rainbow.validate_rainbow_cycle, rainbow.contract

    def validate(inst, cert):
        validated.append((inst, cert))
        return real_validate(inst, cert)

    def contract_and_keep(inst, h):
        q, cmap = real_contract(inst, h)
        quotients.append(q)
        return q, cmap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rainbow, "validate_rainbow_cycle", validate)
        mp.setattr(rainbow, "contract", contract_and_keep)
        for seed in (0, 1):
            for n in range(2, 13):
                for i in range(100):
                    find_rainbow_cycle(_rainbow_for_index(n, seed, i))
    return validated, quotients


@st.composite
def edge_disjoint_instances(draw):
    """Edge-disjoint simple-origin instances on n <= 9 vertices with 1-3
    singleton families, some two-edge families shaped to attach (two edges
    at one vertex) and some of two arbitrary edges, in any color order."""
    n = draw(st.integers(3, 9))
    edges = draw(st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)]))
    k = draw(st.integers(1, 3))
    fams = [[e] for e in edges[:k]]
    used = set(edges[:k])
    vertex = st.integers(0, n - 1)
    for x, a, b in draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=2 * n)):
        pair = {(min(x, a), max(x, a)), (min(x, b), max(x, b))}
        if len({x, a, b}) == 3 and not pair & used:
            used |= pair
            fams.append(sorted(pair))
    rest = [e for e in edges if e not in used]
    j = draw(st.integers(0, len(rest) // 2))
    fams += [rest[2 * i : 2 * i + 2] for i in range(j)]
    return RainbowInstance(n, draw(st.permutations(fams)))


class TestGreedySubgraph:
    def test_chain_growth(self):
        h = build_greedy_subgraph(CHAIN, 0)
        assert h.seed_color == 0
        assert h.seed_edge == (0, 1)
        assert h.attachments == ((2, 0, 1, 1), (3, 0, 2, 2))
        assert h.t == 2
        assert h.vertices == frozenset({0, 1, 2, 3})
        assert h.colors == frozenset({0, 1, 2})

    def test_equality_hash_and_repr_read_the_three_fields(self):
        h = build_greedy_subgraph(CHAIN, 0)
        twin = GreedySubgraph(h.seed_color, h.seed_edge, h.attachments)
        assert h == twin and hash(h) == hash(twin) and repr(h) == repr(twin)
        assert repr(h) == (
            "GreedySubgraph(seed_color=0, seed_edge=(0, 1), "
            "attachments=((2, 0, 1, 1), (3, 0, 2, 2)))"
        )

    def test_edge_ids_and_forbidden_turns(self):
        h = build_greedy_subgraph(CHAIN, 0)
        assert h.edges() == [
            ((0, 1), 0),
            ((0, 2), 1),
            ((1, 2), 1),
            ((0, 3), 2),
            ((2, 3), 2),
        ]
        assert h.forbidden_turns() == {2: (1, 2), 3: (3, 4)}
        assert h.incident == {0: [0, 1, 3], 1: [0, 2], 2: [1, 2, 4], 3: [3, 4]}

    def test_growth_stops_without_candidates(self):
        # family 1 attaches 3; family 2 hangs off vertex 4, outside the
        # subgraph, so it can never attach
        inst = RainbowInstance(5, [[(0, 1)], [(0, 3), (1, 3)], [(0, 2), (2, 4)]])
        h = build_greedy_subgraph(inst, 0)
        assert h.t == 1
        assert h.vertices == frozenset({0, 1, 3})

    def test_rejects_families_sharing_an_edge(self):
        inst = RainbowInstance(4, [[(0, 1)], [(0, 3), (1, 3)], [(0, 2), (1, 3)]])
        with pytest.raises(GraphInputError, match=r"^families are not edge-disjoint at \(1, 3\)$"):
            build_greedy_subgraph(inst, 0)

    def test_seed_must_be_singleton(self):
        with pytest.raises(SeedNotSingleton, match="^family 1 has size 2$"):
            build_greedy_subgraph(CHAIN, 1)

    def test_adoption_can_make_a_lower_color_eligible(self):
        h = build_greedy_subgraph(LOWER_AFTER_HIGHER, 0)
        assert h.attachments == ((2, 0, 1, 2), (3, 0, 2, 1))
        assert h.attachments == restart_scan(LOWER_AFTER_HIGHER, 0)

    @given(edge_disjoint_instances())
    @example(LOWER_AFTER_HIGHER)
    @example(EX4)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_restart_scan(self, inst):
        for seed, fam in enumerate(inst.families):
            if len(fam) == 1:
                h = build_greedy_subgraph(inst, seed)
                assert h.attachments == restart_scan(inst, seed)

    def test_maximality(self):
        # after growth, no unused size-2 family joins a new vertex to two
        # subgraph vertices
        h = build_greedy_subgraph(EX4, 0)
        used = h.colors
        for c, fam in enumerate(EX4.families):
            if c in used or len(fam) != 2:
                continue
            (a1, b1), (a2, b2) = fam
            shared = {a1, b1} & {a2, b2}
            if len(shared) != 1:
                continue
            x = next(iter(shared))
            ends = {a1, b1, a2, b2} - {x}
            assert not (x not in h.vertices and ends <= h.vertices)


class TestRainbowPaths:
    def test_chain_distances(self):
        h = build_greedy_subgraph(CHAIN, 0)
        assert all_pairs_rainbow_distances(h) == {
            (0, 1): 1,
            (0, 2): 1,
            (0, 3): 1,
            (1, 2): 1,
            (1, 3): 2,
            (2, 3): 1,
        }

    def test_brute_force_leaves_no_reference_cycles(self):
        # A recursive closure that names itself would make each call a
        # cycle that only the cyclic collector frees.
        h = build_greedy_subgraph(CHAIN, 0)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                assert all_pairs_rainbow_distances(h)[(1, 3)] == 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_path_respects_forbidden_turn(self):
        h = build_greedy_subgraph(CHAIN, 0)
        path = rainbow_path_in_subgraph(h, 1, 3)
        assert path == [((0, 1), 0), ((0, 3), 2)]
        colors = [c for _, c in path]
        assert len(set(colors)) == len(colors)

    def test_every_pair_is_shortest_where_states_are_reached_twice(self):
        # On this subgraph the searches from 2 to 6 and 8, 3 to 7 and 8 to 7
        # reach a (vertex, entering edge) state a second time; a search that
        # expanded it again would return a 4-step path from 8 to 7.
        h = GreedySubgraph(0, (0, 1), (
            (2, 0, 1, 1), (3, 1, 0, 2), (4, 3, 1, 3), (5, 4, 0, 4),
            (6, 5, 3, 5), (7, 2, 5, 6), (8, 3, 4, 7),
        ))
        dist = all_pairs_rainbow_distances(h)
        pairs = [(u, v) for u in range(9) for v in range(9) if u != v]
        assert len(pairs) == 72
        for u, v in pairs:
            path = rainbow_path_in_subgraph(h, u, v)
            assert len(path) == dist[min(u, v), max(u, v)], (u, v, path)

    def test_trivial_path(self):
        h = build_greedy_subgraph(CHAIN, 0)
        assert rainbow_path_in_subgraph(h, 2, 2) == []

    def test_endpoints_must_lie_inside(self):
        inst = RainbowInstance(4, [[(0, 1)], [(0, 2), (1, 2)]])
        h = build_greedy_subgraph(inst, 0)
        with pytest.raises(GraphInputError):
            rainbow_path_in_subgraph(h, 0, 3)

    def test_non_rainbow_walk_raises(self, monkeypatch):
        # Without the forbidden turns the shortest walk from 4 to 5 is
        # 4-6-5, whose two edges share color 5.  The re-check must refuse
        # it rather than quietly search for another path.
        h = GreedySubgraph(
            seed_color=0,
            seed_edge=(0, 1),
            attachments=((2, 0, 1, 1), (3, 1, 0, 2), (4, 0, 2, 3), (5, 1, 3, 4), (6, 5, 4, 5)),
        )
        assert len(rainbow_path_in_subgraph(h, 4, 5)) <= h.t // 2 + 1
        monkeypatch.setattr(GreedySubgraph, "forbidden_turns", lambda self: {})
        with pytest.raises(ClaimViolation):
            rainbow_path_in_subgraph(h, 4, 5)

    def test_distance_bound_over_many_subgraphs(self):
        # every H grown from random instances keeps all-pairs distance
        # within floor(t/2) + 1, with at most one extremal pair for even t
        seen = 0
        for seed in range(40):
            inst = random_rainbow_instance(7, 3, seed=seed)
            singles = [c for c, f in enumerate(inst.families) if len(f) == 1]
            if not singles:
                continue
            h = build_greedy_subgraph(inst, singles[0])
            bound = h.t // 2 + 1
            dists = all_pairs_rainbow_distances(h)
            assert max(dists.values()) <= bound
            if h.t % 2 == 0:
                assert sum(1 for v in dists.values() if v == bound) <= 1
            seen += 1
        assert seen >= 30


class TestContract:
    INST = RainbowInstance(
        5, [[(0, 1)], [(0, 2), (1, 2)], [(3, 4)], [(2, 3), (2, 4)]]
    )

    def test_quotient_shape(self):
        h = build_greedy_subgraph(self.INST, 0)
        assert h.vertices == frozenset({0, 1, 2})
        q, cmap = contract(self.INST, h)
        assert q.n == 3 and q.m == 2
        assert not q.simple_origin
        assert q.families == (((0, 1),), ((0, 2), (1, 2)))
        assert cmap.old_to_new == (2, 2, 2, 0, 1)
        assert cmap.h == 2
        assert cmap.family_map == (2, 3)
        assert cmap.parent_edges == (((3, 4),), ((2, 3), (2, 4)))

    def test_contraction_can_create_loops_and_repeats(self):
        inst = RainbowInstance(
            4, [[(0, 1)], [(0, 2), (1, 2)], [(0, 3), (1, 3)], [(2, 3)]]
        )
        h = build_greedy_subgraph(inst, 0)
        assert h.vertices == frozenset({0, 1, 2, 3})
        q, cmap = contract(inst, h)
        assert q.n == 1
        assert q.families == (((0, 0),),)  # the leftover edge became a loop
        assert cmap.parent_edges == (((2, 3),),)

    def test_family_sizes_preserved(self):
        h = build_greedy_subgraph(self.INST, 0)
        q, cmap = contract(self.INST, h)
        kept = [self.INST.families[c] for c in cmap.family_map]
        assert [len(f) for f in q.families] == [len(f) for f in kept]

    def test_quotients_are_what_the_checking_constructor_builds(self, construction):
        # contract builds its quotient without the constructor's checks; on
        # every quotient of the sweep, the constructor agrees in every field.
        _, quotients = construction
        assert len(quotients) == 1437
        for q in quotients:
            checked = RainbowInstance(q.n, q.families, simple_origin=False)
            assert (q.n, q.families, q.p, q.simple_origin) == (
                checked.n, checked.families, checked.p, checked.simple_origin
            )
            assert q == checked and hash(q) == hash(checked) and repr(q) == repr(checked)

    @pytest.mark.parametrize(
        "h, outside",
        [
            # V(H) off the instance: the five vertices outside H take 0..4,
            # above h = 3.
            (GreedySubgraph(0, (5, 6), ()), "0..3"),
            # Every vertex of the instance in H, and one more: h = -1, and
            # every vertex maps there.
            (GreedySubgraph(0, (0, 1), tuple((x, 0, 1, 1) for x in range(2, 6))), "0..-1"),
        ],
    )
    def test_a_map_outside_the_quotient_raises(self, monkeypatch, h, outside):
        built = []
        real = RainbowInstance._quotient.__func__
        monkeypatch.setattr(
            RainbowInstance, "_quotient",
            classmethod(lambda cls, n, fams: built.append(n) or real(cls, n, fams)),
        )
        assert contract(self.INST, build_greedy_subgraph(self.INST, 0))[0].n == 3
        assert built == [3]
        with pytest.raises(ClaimViolation, match=rf"maps a vertex outside {outside}, on:\n"):
            contract(self.INST, h)
        assert built == [3]


class TestFindRainbowCycle:
    def test_four_vertex_example(self):
        collected = []
        cert = find_rainbow_cycle(EX4, collect=collected)
        assert cert.length == 3
        assert validate_rainbow_cycle(EX4, cert)
        assert len(collected) == 1
        assert collected[0][1].t == 2

    def test_shared_pair_instance(self):
        inst = RainbowInstance(2, [[(0, 1)], [(0, 1)]])
        cert = find_rainbow_cycle(inst)
        assert cert.length == 2
        assert validate_rainbow_cycle(inst, cert)

    def test_all_size2_base_case(self):
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
        cert = find_rainbow_cycle(inst)
        assert cert.length <= 3
        assert validate_rainbow_cycle(inst, cert)

    def test_hamilton_worst_case(self):
        # singleton families along a cycle force the full length n = ceil((n+p)/2)
        inst = RainbowInstance(4, [[(0, 1)], [(1, 2)], [(2, 3)], [(0, 3)]])
        cert = find_rainbow_cycle(inst)
        assert cert.length == 4
        assert validate_rainbow_cycle(inst, cert)

    def test_input_contract(self):
        with pytest.raises(GraphInputError):
            find_rainbow_cycle(RainbowInstance(3, [[(0, 1)], [(1, 2)]]))  # m != n
        with pytest.raises(GraphInputError):
            find_rainbow_cycle(
                RainbowInstance(2, [[(0, 0)], [(0, 1)]], simple_origin=False)
            )
        with pytest.raises(GraphInputError):
            find_rainbow_cycle(RainbowInstance(0, []))

    def test_loop_wins_over_an_earlier_shared_pair(self):
        # Colors 0 and 1 share the pair 0-1 before color 2's loop: the loop,
        # the shorter cycle, is the answer of the scan, of a construction
        # level and of the exact oracle.
        inst = RainbowInstance(3, [[(0, 1)], [(0, 1)], [(2, 2)]], simple_origin=False)
        loop = (((2, 2), 2),)
        assert loop_or_shared_pair(inst).steps == loop
        assert rainbow._find(inst, None).steps == loop
        length, cert = shortest_rainbow_cycle_exact(inst)
        assert length == 1 and cert.steps == loop

    def test_an_edge_held_twice_by_one_family_is_no_shared_pair(self):
        inst = RainbowInstance(3, [[(0, 1), (0, 1)], [(1, 2)], [(0, 2)]], simple_origin=False)
        assert loop_or_shared_pair(inst) is None
        length, cert = shortest_rainbow_cycle_exact(inst)
        assert length == 3 and validate_rainbow_cycle(inst, cert)
        # A second family on that edge makes it a shared pair.
        inst = RainbowInstance(2, [[(0, 1), (0, 1)], [(0, 1)]], simple_origin=False)
        pair = (((0, 1), 0), ((0, 1), 1))
        assert loop_or_shared_pair(inst).steps == pair
        assert shortest_rainbow_cycle_exact(inst) == (2, RainbowCycleCertificate(steps=pair))

    def test_shared_edge_shortcut(self):
        inst = RainbowInstance(3, [[(0, 1), (1, 2)], [(0, 1), (0, 2)]])
        cert = loop_or_shared_pair(inst)
        assert cert is not None and cert.length == 2
        assert validate_rainbow_cycle(inst, cert)
        assert loop_or_shared_pair(CHAIN) is None

    def test_randomized_bound_and_oracle_agreement(self):
        for seed in range(60):
            n = 4 + seed % 5
            inst = random_rainbow_instance(
                n, (seed * 7) % (n + 1), seed=seed, disjoint=False
            )
            cert = find_rainbow_cycle(inst)
            assert validate_rainbow_cycle(inst, cert)
            assert cert.length <= (inst.n + inst.p + 1) // 2
            exact, _ = shortest_rainbow_cycle_exact(inst)
            assert exact <= cert.length


class TestLevelClaims:
    """What each level of the construction relies on is checked with an
    explicit raise, which holds under python -O, and a failure is a
    ClaimViolation that names the instance, so a sweep records it."""

    # Seeded instance 4 at n = 4: the only one of the first five that
    # grows a greedy subgraph and contracts it.
    INSTANCE_4 = "rainbow 4 4\n0-1\n0-3,1-3\n0-2\n2-3\n"

    @staticmethod
    def keep_the_seed(monkeypatch):
        # A quotient that is the level itself keeps every family, the seed
        # too, so p' = p breaks the per-level arithmetic.
        real = rainbow.contract

        def unshrunk(inst, h):
            return RainbowInstance(inst.n, inst.families, simple_origin=False), real(inst, h)[1]

        monkeypatch.setattr(rainbow, "contract", unshrunk)

    def test_broken_arithmetic_raises(self, monkeypatch):
        self.keep_the_seed(monkeypatch)
        inst = RainbowInstance(4, [[(0, 1)], [(0, 3), (1, 3)], [(0, 2)], [(2, 3)]])
        with pytest.raises(ClaimViolation) as info:
            find_rainbow_cycle(inst)
        assert str(info.value) == (
            "contracting H (t = 1) leaves n' = 4, m' = 4 and p' = 3, which break "
            "the length arithmetic, on:\n" + self.INSTANCE_4
        )

    def test_a_sweep_records_broken_arithmetic(self, monkeypatch):
        self.keep_the_seed(monkeypatch)
        report = run_suite(SuiteConfig(4, 4, "rainbow", RAINBOW_CHECKS, count=5))
        assert report.checked == {"rainbow-bound": 5, "rd-claim": 5}
        assert report.passed == {"rainbow-bound": 4, "rd-claim": 5}
        assert report.violations == [
            {
                "check": "rainbow-bound", "n": 4, "index": 4,
                "message": "ClaimViolation: contracting H (t = 1) leaves n' = 4, m' = 4 "
                "and p' = 3, which break the length arithmetic, on:\n" + self.INSTANCE_4,
                "instance": self.INSTANCE_4, "certificate": None,
            }
        ]

    def test_a_sub_cycle_that_is_no_walk_raises(self):
        inst = TestContract.INST
        h = build_greedy_subgraph(inst, 0)
        q, cmap = contract(inst, h)
        apart = RainbowCycleCertificate(steps=(((0, 1), 0), ((0, 2), 1)))
        with pytest.raises(ClaimViolation, match="is no closed walk"):
            rainbow._lift(inst, h, q, cmap, apart)

    def test_lifted_ends_outside_the_subgraph_raise(self):
        inst = TestContract.INST
        h = build_greedy_subgraph(inst, 0)
        q, cmap = contract(inst, h)
        # The closed walk h-0-1-h of the quotient, in colors 1, 0 and 1.
        sub = RainbowCycleCertificate(steps=(((0, 2), 1), ((0, 1), 0), ((1, 2), 1)))
        assert rainbow._lift(inst, h, q, cmap, sub).steps == (
            ((2, 3), 3), ((3, 4), 2), ((2, 4), 3),
        )
        # A map that puts parent vertex 2, not 3, at quotient vertex 0 picks
        # 3 as the parent edge's end in H.
        wrong = cmap._replace(old_to_new=(2, 2, 0, 2, 1))
        with pytest.raises(ClaimViolation, match=r"ends 3 and 2 at h do not both lie in"):
            rainbow._lift(inst, h, q, wrong, sub)


def reference_validate_rainbow_cycle(inst, cert):
    """validate_rainbow_cycle as first written, for reference: it builds a
    color list, normalizes each step's edge with normalize_edge and looks
    for a loop in a pass of its own."""
    k = cert.length
    if k == 0:
        return False
    colors = [c for _, c in cert.steps]
    if len(set(colors)) != k:
        return False
    fams = inst.families
    m = len(fams)
    for e, c in cert.steps:
        if not 0 <= c < m or normalize_edge(e) not in fams[c]:
            return False
    if k == 1:
        (e, _), = cert.steps
        return e[0] == e[1] and not inst.simple_origin
    if any(e[0] == e[1] for e, _ in cert.steps):
        return False
    if k == 2:
        (e1, _), (e2, _) = cert.steps
        return normalize_edge(e1) == normalize_edge(e2)
    seq = _walk_vertices(cert.steps)
    return seq is not None and len(set(seq)) == k


def outcome(validate, inst, steps):
    """validate's verdict on the steps, or the type of what it raised."""
    try:
        return validate(inst, RainbowCycleCertificate(steps))
    except Exception as exc:
        return type(exc).__name__


def other_origin(inst):
    """inst with simple_origin flipped, also where the constructor would
    refuse the flip (a quotient's loop or repeated edge)."""
    twin = copy.copy(inst)
    twin.simple_origin = not inst.simple_origin
    return twin


def rainbow_mutants(inst, steps):
    """Each single-step mutation of the steps of a cycle of inst, by
    family, as (instance, steps) pairs."""
    n, m = inst.n, inst.m
    out = {f: [] for f in (
        "recolor", "color-out-of-range", "reverse", "endpoint", "drop", "duplicate", "rotate",
        "loop",
    )}
    twin = other_origin(inst)
    for i, (e, c) in enumerate(steps):
        def put(step):
            return (inst, steps[:i] + (step,) + steps[i + 1 :])

        u, v = e
        out["recolor"] += [put((e, d)) for d in range(m) if d != c]
        out["color-out-of-range"] += [put((e, d)) for d in (-1, m)]
        out["reverse"].append(put(((v, u), c)))
        out["endpoint"] += [put(((w, v), c)) for w in range(n) if w != u]
        out["endpoint"] += [put(((u, w), c)) for w in range(n) if w != v]
        out["drop"].append((inst, steps[:i] + steps[i + 1 :]))
        out["duplicate"].append((inst, steps[: i + 1] + steps[i:]))
        if i:
            out["rotate"].append((inst, steps[i:] + steps[:i]))
        for w in {u, v}:
            out["loop"] += [(on, (((w, w), c),)) for on in (inst, twin)]
    return out


def malformed(steps):
    """Each step of steps made malformed in turn, by kind: an edge of three
    ends, a color that is no int, a step of three parts, an unhashable
    color ahead of a step of three parts, and an edge of three ends after
    a color out of range or with a color used before."""
    kinds = (
        "edge-of-three", "color-not-int", "step-of-three", "unhashable-first",
        "after-a-bad-color", "repeated-color",
    )
    out = {f: [] for f in kinds}
    for i, (e, c) in enumerate(steps):
        def put(*step):
            return steps[:i] + (step,) + steps[i + 1 :]

        out["edge-of-three"].append(put((*e, e[0]), c))
        out["color-not-int"] += [put(e, bad) for bad in (str(c), float(c), None, [c])]
        out["step-of-three"].append(put(e, c, c))
        if i < len(steps) - 1:
            out["unhashable-first"].append(put(e, [c])[:-1] + ((*steps[-1], 0),))
        # The checks that come first settle these before the edge is read.
        if i:
            bad_first = ((steps[0][0], -1),) + put((*e, e[0]), c)[1:]
            out["after-a-bad-color"].append(bad_first)
            out["repeated-color"].append(put((*e, e[0]), steps[0][1]))
    return out


class TestRainbowCertificateMutations:
    """validate_rainbow_cycle checks a certificate in one pass over its
    steps; on everything the construction validates, every single-step
    mutation of it and malformed steps, it gives the verdict, or raises
    the exception type, that reference_validate_rainbow_cycle does."""

    def test_every_constructed_certificate(self, construction):
        validated, _ = construction
        assert len(validated) == 3637
        for inst, cert in validated:
            assert validate_rainbow_cycle(inst, cert) is True
            assert reference_validate_rainbow_cycle(inst, cert) is True

    def test_every_single_step_mutation(self, construction):
        validated, _ = construction
        tally = {}
        for inst, cert in validated:
            for family, cases in rainbow_mutants(inst, cert.steps).items():
                for on, steps in cases:
                    ok = outcome(validate_rainbow_cycle, on, steps)
                    assert ok == outcome(reference_validate_rainbow_cycle, on, steps), (on, steps)
                    tally.setdefault(family, Counter())[ok] += 1
        # Reversing an edge or rotating the steps keeps the cycle.  A loop
        # of the step's color passes where that family holds the loop, on
        # the quotient but not on its twin of simple origin.
        assert tally == {
            "recolor": {False: 55873, True: 521},
            "color-out-of-range": {False: 18218},
            "reverse": {True: 9109},
            "endpoint": {False: 112788},
            "drop": {False: 9109},
            "duplicate": {False: 9109},
            "rotate": {True: 5472},
            "loop": {False: 36397, True: 13},
        }

    def test_malformed_steps(self, construction):
        validated, _ = construction
        tally = {}
        for inst, cert in validated:
            for kind, cases in malformed(cert.steps).items():
                for steps in cases:
                    got = outcome(validate_rainbow_cycle, inst, steps)
                    assert got == outcome(reference_validate_rainbow_cycle, inst, steps), steps
                    tally.setdefault(kind, Counter())[got] += 1
        assert tally == {
            "edge-of-three": {"ValueError": 9109},
            "color-not-int": {"TypeError": 36436},
            "step-of-three": {"ValueError": 9109},
            "unhashable-first": {"ValueError": 5472},
            "after-a-bad-color": {False: 5472},
            "repeated-color": {False: 5472},
        }


class TestGoldenRainbow:
    # sha256 over the harness's rainbow instances for seeds 0-1, n = 2..12,
    # 300 each: every instance's constructed certificate, each greedy
    # subgraph it collects with that subgraph's tables, the contraction of
    # each, the exact oracle's answer and the all-pairs rainbow distances.
    # Taken before the rainbow path was tuned: any change to one instance,
    # table, quotient, certificate or distance fails here.
    GOLDEN = "3046791fe22eeab7c6d694a48a22f71b198513e93da5e2cf48377c6bb74b8c43"

    @staticmethod
    def records():
        def steps(cert):
            return None if cert is None else [[list(e), c] for e, c in cert.steps]

        for seed in (0, 1):
            for n in range(2, 13):
                for i in range(300):
                    inst = _rainbow_for_index(n, seed, i)
                    grown = []
                    cert = find_rainbow_cycle(inst, collect=grown)
                    exact, exact_cert = shortest_rainbow_cycle_exact(inst)
                    yield [repr(inst), inst.p, steps(cert), str(exact), steps(exact_cert)]
                    for sub, h in grown:
                        q, cmap = contract(sub, h)
                        yield [
                            repr(sub),
                            repr(h),
                            sorted(h.vertices),
                            sorted(h.colors),
                            h.edges(),
                            sorted(h.forbidden_turns().items()),
                            sorted(h.incident.items()),
                            repr(q),
                            q.p,
                            repr(cmap),
                            sorted(all_pairs_rainbow_distances(h).items()),
                        ]

    def test_golden_outputs(self):
        digest = hashlib.sha256()
        for rec in self.records():
            digest.update(json.dumps(rec).encode() + b"\n")
        assert digest.hexdigest() == self.GOLDEN
