"""Digraph and rainbow-instance basics, plus certificate validation."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclecert import certificates, digraph
from cyclecert.certificates import (
    BOUND_CEIL_N_PLUS_P,
    BOUND_EXACT_GIRTH,
    BOUND_EXACT_LENGTH,
    BOUND_KINDS,
    BOUND_TWO_PHI,
    BlockCycleValidator,
    CycleCertificate,
    RainbowCycleCertificate,
    validate_cycle,
    validate_cycle_masks,
    validate_rainbow_cycle,
)
from cyclecert.digraph import Digraph, bits, first_sink
from cyclecert.errors import GraphInputError
from cyclecert.families import RainbowInstance, normalize_edge
from cyclecert.oracles import enumerate_cycles, girth_exact
from cyclecert.peeling import BlockPeeler, short_cycle_via_peeling, tail_terms

TRIANGLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
BI_TRIANGLE = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])


def all_digraphs(n):
    """Every labeled simple digraph on n vertices, by arc-subset code."""
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    for code in range(1 << len(slots)):
        yield Digraph(n, [slots[i] for i in range(len(slots)) if code >> i & 1])


def block_peeler(n, tail, memo):
    """The BlockPeeler of the block with this tail, from its tail terms as
    a sweep builds them."""
    inn = digraph.in_masks_of((0, *tail))
    return BlockPeeler(n, tail, inn, tail_terms(n, (0, *[m.bit_count() for m in tail]), inn), memo)


def is_union_of_cycles(d):
    """True iff every vertex has out-degree and in-degree exactly 1."""
    return all(deg == 1 for deg in d.out_deg) and all(m.bit_count() == 1 for m in d.in_masks)


def remove_vertex(d, v):
    """The digraph with vertex v deleted and vertices above v shifted down by one."""
    if not 0 <= v < d.n:
        raise GraphInputError(f"vertex {v} not in 0..{d.n - 1}")
    low = (1 << v) - 1
    out = []
    for u in range(d.n):
        if u == v:
            continue
        m = d.out_masks[u] & ~(1 << v)
        out.append((m & low) | ((m >> 1) & ~low))
    return Digraph.from_out_masks(d.n - 1, out)


def digraph_strategy(max_n=5):
    def build(n, code):
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        return Digraph(n, [slots[i] for i in range(len(slots)) if code >> i & 1])

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1))
    )


class TestDigraph:
    def test_bits_iterates_set_positions(self):
        assert list(bits(0b10110)) == [1, 2, 4]
        assert list(bits(0)) == []

    def test_basic_accessors(self):
        d = TRIANGLE
        assert d.n == 3
        assert d.m == 3
        assert d.arcs == ((0, 1), (1, 2), (2, 0))
        assert list(bits(d.out_masks[0])) == [1]
        assert list(bits(d.in_masks[0])) == [2]
        assert d.out_masks[0] >> 1 & 1 and not d.out_masks[1] >> 0 & 1
        assert d.out_deg == (1, 1, 1) and d.in_masks == (0b100, 0b001, 0b010)

    def test_structural_equality_and_hash(self):
        a = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        b = Digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != Digraph(3, [(0, 1), (1, 2)])
        assert a != Digraph(4, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_loops_duplicates_and_range(self):
        with pytest.raises(GraphInputError):
            Digraph(3, [(0, 0)])
        with pytest.raises(GraphInputError):
            Digraph(3, [(0, 1), (0, 1)])
        with pytest.raises(GraphInputError):
            Digraph(3, [(0, 3)])
        with pytest.raises(GraphInputError):
            Digraph(-1, [])

    def test_from_out_masks_round_trip(self):
        d = BI_TRIANGLE
        assert Digraph.from_out_masks(d.n, d.out_masks) == d

    def test_empty_digraph(self):
        d = Digraph(0, [])
        assert d.n == 0 and d.m == 0 and d.arcs == ()
        assert first_sink(d) is None and is_union_of_cycles(d)

    def test_sink_predicates(self):
        assert first_sink(TRIANGLE) is None
        assert first_sink(Digraph(3, [(0, 1), (1, 2)])) == 2
        assert first_sink(Digraph(3, [(1, 2), (2, 1)])) == 0

    def test_union_of_cycles(self):
        assert is_union_of_cycles(TRIANGLE)
        two = Digraph(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
        assert is_union_of_cycles(two)
        assert not is_union_of_cycles(BI_TRIANGLE)
        assert not is_union_of_cycles(Digraph(2, [(0, 1)]))

    def test_remove_vertex_shifts_labels(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        r = remove_vertex(d, 2)
        # survivors 0,1,3 become 0,1,2; arcs (0,1),(3,0),(1,3) survive
        assert r == Digraph(3, [(0, 1), (2, 0), (1, 2)])
        with pytest.raises(GraphInputError):
            remove_vertex(d, 4)

    @given(digraph_strategy(), st.data())
    def test_remove_vertex_preserves_other_arcs(self, d, data):
        v = data.draw(st.integers(0, d.n - 1))
        r = remove_vertex(d, v)
        assert r.n == d.n - 1
        relabel = [u - (u > v) for u in range(d.n)]
        expect = sorted(
            (relabel[u], relabel[w]) for u, w in d.arcs if u != v and w != v
        )
        assert list(r.arcs) == expect


class TestRainbowInstance:
    def test_normalize_edge_orders_endpoints(self):
        assert normalize_edge((3, 1)) == (1, 3)
        assert normalize_edge([1, 3]) == (1, 3)
        assert normalize_edge((2, 2)) == (2, 2)

    def test_families_are_normalized_and_counted(self):
        inst = RainbowInstance(4, [[(1, 0)], [(3, 2), (0, 2)]])
        assert inst.families == (((0, 1),), ((0, 2), (2, 3)))
        assert inst.m == 2
        assert inst.p == 1  # one singleton family

    def test_equality_is_structural(self):
        a = RainbowInstance(3, [[(0, 1)], [(1, 2), (0, 2)]])
        b = RainbowInstance(3, [[(1, 0)], [(0, 2), (2, 1)]])
        assert a == b and hash(a) == hash(b)

    def test_singleton_count_is_kept_not_shown(self):
        inst = RainbowInstance(3, [[(0, 1)], [(1, 2), (0, 2)], [(1, 2)]])
        assert inst.p == sum(1 for fam in inst.families if len(fam) == 1) == 2
        assert repr(inst) == (
            "RainbowInstance(3, [[(0, 1)], [(0, 2), (1, 2)], [(1, 2)]], simple_origin=True)"
        )

    def test_simple_origin_rejections(self):
        with pytest.raises(GraphInputError):
            RainbowInstance(3, [[(0, 0)]])  # loop
        with pytest.raises(GraphInputError):
            RainbowInstance(3, [[(0, 1), (1, 0)]])  # repeated edge in one family
        with pytest.raises(GraphInputError):
            RainbowInstance(3, [[(0, 3)]])  # endpoint out of range
        with pytest.raises(GraphInputError):
            RainbowInstance(3, [[]])  # empty family
        with pytest.raises(GraphInputError):
            RainbowInstance(3, [[(0, 1), (0, 2), (1, 2)]])  # family too large

    def test_quotient_instances_may_hold_loops_and_repeats(self):
        inst = RainbowInstance(2, [[(0, 0)], [(0, 1), (0, 1)]], simple_origin=False)
        assert inst.families == (((0, 0),), ((0, 1), (0, 1)))
        assert inst.p == 1


def reference_rainbow_families(n, families, simple_origin=True):
    """The rules RainbowInstance enforces, written out plainly: the
    normalized families and p, or GraphInputError with its message."""
    if n < 0:
        raise GraphInputError("vertex count must be nonnegative")
    fams = []
    for i, fam in enumerate(families):
        edges = sorted(normalize_edge(e) for e in fam)
        if not 1 <= len(edges) <= 2:
            raise GraphInputError(f"family {i} must hold 1 or 2 edges, got {len(edges)}")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"family {i} edge ({u}, {v}) outside 0..{n - 1}")
            if simple_origin and u == v:
                raise GraphInputError(f"family {i} holds a loop at {u}")
        if simple_origin and len(edges) == 2 and edges[0] == edges[1]:
            raise GraphInputError(f"family {i} repeats the edge {edges[0]}")
        fams.append(tuple(edges))
    return tuple(fams), sum(1 for fam in fams if len(fam) == 1)


def rainbow_outcome(make, n, families, simple_origin):
    try:
        got = make(n, families, simple_origin)
    except GraphInputError as exc:
        return "refused", str(exc)
    return got if isinstance(got, tuple) else (got.families, got.p)


def build_instance(n, families, simple_origin):
    return RainbowInstance(n, families, simple_origin=simple_origin)


# Endpoints -1 and 3 lie outside 0..2, so at n = 3 every rule can break
# in either slot of either edge.
SMALL_EDGES = [(u, v) for u in range(-1, 4) for v in range(-1, 4)]


class TestRainbowInstanceRefusals:
    """The constructor refuses exactly what the plain rules refuse, with
    the same message, and otherwise gives the same families and p."""

    @pytest.mark.parametrize("simple_origin", [True, False])
    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_every_small_family(self, size, simple_origin):
        refused = kept = 0
        for fam in itertools.product(SMALL_EDGES, repeat=size):
            for as_lists in (False, True):
                given_fam = [list(e) for e in fam] if as_lists else list(fam)
                for fams in ([given_fam], [[(0, 1)], given_fam]):
                    want = rainbow_outcome(reference_rainbow_families, 3, fams, simple_origin)
                    assert rainbow_outcome(build_instance, 3, fams, simple_origin) == want
                    refused += want[0] == "refused"
                    kept += want[0] != "refused"
        assert refused and (kept or size in (0, 3))

    @given(
        n=st.integers(-1, 4),
        families=st.lists(
            st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), max_size=3),
            max_size=5,
        ),
        simple_origin=st.booleans(),
    )
    def test_random_instances(self, n, families, simple_origin):
        want = rainbow_outcome(reference_rainbow_families, n, families, simple_origin)
        assert rainbow_outcome(build_instance, n, families, simple_origin) == want


class TestCycleValidation:
    def test_accepts_real_cycle_with_honest_bound(self):
        cert = CycleCertificate(
            vertices=(0, 1, 2), bound=Fraction(3), bound_kind=BOUND_EXACT_GIRTH
        )
        assert validate_cycle(TRIANGLE, cert)

    def test_rejects_missing_arc_repeats_and_bad_bound(self):
        missing = CycleCertificate((0, 2, 1), Fraction(3), BOUND_EXACT_GIRTH)
        assert not validate_cycle(TRIANGLE, missing)
        repeat = CycleCertificate((0, 1, 0, 1), Fraction(4), BOUND_EXACT_GIRTH)
        assert not validate_cycle(BI_TRIANGLE, repeat)
        too_tight = CycleCertificate((0, 1, 2), Fraction(2), BOUND_EXACT_GIRTH)
        assert not validate_cycle(TRIANGLE, too_tight)
        out_of_range = CycleCertificate((0, 1, 3), Fraction(3), BOUND_EXACT_GIRTH)
        assert not validate_cycle(TRIANGLE, out_of_range)
        empty = CycleCertificate((), Fraction(1), BOUND_EXACT_GIRTH)
        assert not validate_cycle(TRIANGLE, empty)

    def test_bounds_are_recomputed_not_trusted(self):
        # Each of these validated when only length <= bound was checked.
        loose_phi = CycleCertificate((0, 1, 2, 3), Fraction(100), BOUND_TWO_PHI)
        assert not validate_cycle(C4, loose_phi)
        girth2 = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
        not_girth = CycleCertificate((0, 1, 2, 3), Fraction(4), BOUND_EXACT_GIRTH)
        assert not validate_cycle(girth2, not_girth)
        loose_ceil = CycleCertificate((0, 1, 2, 3), Fraction(9), BOUND_CEIL_N_PLUS_P)
        assert not validate_cycle(C4, loose_ceil)

    def test_honest_bounds_of_every_kind_validate(self):
        cyc = (0, 1, 2, 3)
        # phi(C4) = 4 * 1/2 and p = 4, so 2 phi = ceil((4 + 4) / 2) = girth = 4
        for kind in (BOUND_TWO_PHI, BOUND_CEIL_N_PLUS_P, BOUND_EXACT_GIRTH, BOUND_EXACT_LENGTH):
            assert validate_cycle(C4, CycleCertificate(cyc, Fraction(4), kind))
        # 2 phi(BI_TRIANGLE) = 2 * 3 * 1/3
        assert validate_cycle(BI_TRIANGLE, CycleCertificate((0, 1), Fraction(2), BOUND_TWO_PHI))
        assert not validate_cycle(
            BI_TRIANGLE, CycleCertificate((0, 1), Fraction(3), BOUND_TWO_PHI)
        )
        # exact-length is the cycle's own length, even when longer would do
        assert not validate_cycle(C4, CycleCertificate(cyc, Fraction(5), BOUND_EXACT_LENGTH))

    def test_cycle_longer_than_its_honest_bound_is_rejected(self):
        # 2 phi bounds the shortest peeled cycle, not every cycle.
        k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        assert validate_cycle(k4, CycleCertificate((0, 1), Fraction(2), BOUND_TWO_PHI))
        assert not validate_cycle(k4, CycleCertificate((0, 1, 2), Fraction(2), BOUND_TWO_PHI))
        # out-degrees 2, 2, 1: 2 phi = 7/3, just below the triangle's length
        d = Digraph(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)])
        assert validate_cycle(d, CycleCertificate((0, 2), Fraction(7, 3), BOUND_TWO_PHI))
        assert not validate_cycle(d, CycleCertificate((0, 1, 2), Fraction(7, 3), BOUND_TWO_PHI))

    def test_ceil_bound_needs_out_degrees_one_or_two(self):
        k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        # out-degree 3 everywhere: p = 0 gives ceil(4 / 2) = 2, yet the bound does not apply
        assert not validate_cycle(k4, CycleCertificate((0, 1), Fraction(2), BOUND_CEIL_N_PLUS_P))
        assert validate_cycle(k4, CycleCertificate((0, 1), Fraction(2), BOUND_EXACT_GIRTH))

    def test_every_rotation_of_every_cycle_validates(self):
        # exhaustive over all digraphs with n <= 3
        for n in (1, 2, 3):
            for d in all_digraphs(n):
                for cert in enumerate_cycles(d):
                    vs = cert.vertices
                    for k in range(len(vs)):
                        rot = CycleCertificate(
                            vs[k:] + vs[:k], cert.bound, cert.bound_kind
                        )
                        assert validate_cycle(d, rot)

    @given(digraph_strategy(4))
    def test_enumerated_cycles_always_validate(self, d):
        for cert in enumerate_cycles(d):
            assert validate_cycle(d, cert)


def honest(d, cert, cycles, girth):
    """Whether cert is valid by definition: up to rotation its vertices are
    one of cycles (vertex tuples as enumerate_cycles gives them), and its
    bound is the one its kind names on d, girth being d's, and no shorter
    than the cycle."""
    vs = cert.vertices
    if not any(vs[i:] + vs[:i] in cycles for i in range(len(vs))):
        return False
    degs = d.out_deg
    want = {
        BOUND_TWO_PHI: 2 * sum(Fraction(1, k + 1) for k in degs),
        BOUND_EXACT_LENGTH: len(vs),
        BOUND_EXACT_GIRTH: girth,
        BOUND_CEIL_N_PLUS_P: (d.n + degs.count(1) + 1) // 2 if set(degs) <= {1, 2} else None,
    }.get(cert.bound_kind)
    return want is not None and cert.bound == want and len(vs) <= want


def mutants(cert, n):
    """Each single-step mutation of cert on n vertices, by family."""
    vs, bound, kind = cert.vertices, cert.bound, cert.bound_kind
    k = len(vs)
    seqs = {"drop": [], "repeat": [], "replace": [], "swap": [], "out-of-range": []}
    for i in range(k):
        seqs["drop"].append(vs[:i] + vs[i + 1 :])
        seqs["repeat"].append(vs[: i + 1] + vs[i:])
        seqs["replace"] += [vs[:i] + (w,) + vs[i + 1 :] for w in range(n) if w not in vs]
        seqs["out-of-range"] += [vs[:i] + (w,) + vs[i + 1 :] for w in (-1, n)]
        # Two vertices trade places; on a 2-cycle that is a rotation.
        for j in range(i + 1, k if k > 2 else 0):
            t = list(vs)
            t[i], t[j] = t[j], t[i]
            seqs["swap"].append(tuple(t))
    out = {f: [CycleCertificate(t, bound, kind) for t in ts] for f, ts in seqs.items()}
    step = Fraction(1, math.lcm(*range(1, n + 1)))
    out["bound"] = [CycleCertificate(vs, bound + s, kind) for s in (step, -step)]
    out["kind"] = [CycleCertificate(vs, bound, other) for other in sorted(BOUND_KINDS - {kind})]
    out["kind"].append(CycleCertificate(vs, bound, "no-such-kind"))
    return out


class TestCycleValidationOnMasks:
    """validate_cycle_masks, the one validator body, reads the digraph as
    out-masks alone."""

    @staticmethod
    def sinkless(max_n):
        for n in range(1, max_n + 1):
            for d in all_digraphs(n):
                if first_sink(d) is None:
                    cycles = {c.vertices for c in enumerate_cycles(d)}
                    yield d, cycles, girth_exact(d)[0]

    def test_every_mutation_of_a_two_phi_certificate_fails(self):
        # Over the peeled certificate of every sink-less digraph with n <= 4,
        # each mutant validates exactly when it is honest.  None is after a
        # dropped, repeated, swapped or out-of-range vertex, or a bound off
        # by 1/lcm(1..n).  A vertex replaced by one off the cycle can give
        # another cycle of d, and another kind can name the same bound (on
        # a union of cycles, 2 phi is the order, as is ceil((n + p) / 2)).
        tally = {}
        for d, cycles, girth in self.sinkless(4):
            cert = short_cycle_via_peeling(d)
            assert validate_cycle_masks(d.n, d.out_masks, cert)
            for family, ms in mutants(cert, d.n).items():
                for m in ms:
                    ok = validate_cycle_masks(d.n, d.out_masks, m)
                    assert ok == honest(d, m, cycles, girth), (d, m)
                    seen, passed = tally.get(family, (0, 0))
                    tally[family] = (seen + 1, passed + ok)
        assert tally == {
            "drop": (5088, 0),
            "repeat": (5088, 0),
            "replace": (9414, 1972),
            "swap": (690, 0),
            "out-of-range": (10176, 0),
            "bound": (4858, 0),
            "kind": (9716, 469),
        }

    def test_agrees_with_validate_cycle(self):
        # Every cycle of every sink-less digraph with n <= 3, reversed too,
        # under every kind and every bound some kind could name.
        checked = 0
        for d, cycles, girth in self.sinkless(3):
            p = d.out_deg.count(1)
            bounds = {2 * sum(Fraction(1, k + 1) for k in d.out_deg), (d.n + p + 1) // 2, girth}
            for vs in cycles:
                for seq in (vs, vs[::-1]):
                    for b in bounds | {len(seq), len(seq) - 1}:
                        for kind in sorted(BOUND_KINDS):
                            cert = CycleCertificate(seq, Fraction(b), kind)
                            ok = validate_cycle_masks(d.n, d.out_masks, cert)
                            assert ok == validate_cycle(d, cert) == honest(d, cert, cycles, girth)
                            checked += ok
        assert checked > 0

    def test_closed_walks_that_revisit_a_vertex_fail(self):
        # Every vertex sequence of length 2-4 on every sink-less digraph
        # with n <= 3, under the kind whose bound is the length itself.
        revisits = 0
        for d, cycles, girth in self.sinkless(3):
            for k in (2, 3, 4):
                for seq in itertools.product(range(d.n), repeat=k):
                    cert = CycleCertificate(seq, Fraction(k), BOUND_EXACT_LENGTH)
                    ok = validate_cycle_masks(d.n, d.out_masks, cert)
                    assert ok == honest(d, cert, cycles, girth)
                    closed = all(d.out_masks[seq[i - 1]] >> seq[i] & 1 for i in range(k))
                    revisits += closed and len(set(seq)) < k
        assert revisits == 122

    def test_in_masks_only_for_the_girth(self, monkeypatch):
        # No kind needs in-masks: the girth is checked by closed walks.
        assert not hasattr(certificates, "in_masks_of")
        calls = []
        derive = digraph.in_masks_of
        monkeypatch.setattr(digraph, "in_masks_of", lambda out: calls.append(out) or derive(out))
        assert validate_cycle_masks(4, C4.out_masks, short_cycle_via_peeling(C4))
        assert calls == []
        assert validate_cycle_masks(4, C4.out_masks, girth_exact(C4)[1])
        assert calls == []


class TestBlockCycleValidator:
    """BlockCycleValidator(n, tail).valid(h, cyc) gives the verdict of
    validate_cycle_masks(n, (h, *tail), cert), for cert the cycle cyc
    bounded by 2 phi of that digraph."""

    @staticmethod
    def two_phi_certificate(out, cyc):
        """cyc as a two-phi certificate on the out-masks out, its 2 phi summed
        here from Fractions."""
        two_phi = 2 * sum(Fraction(1, m.bit_count() + 1) for m in out)
        return CycleCertificate(cyc, two_phi, BOUND_TWO_PHI)

    def test_agrees_with_validate_cycle_masks(self):
        # Every sink-free labeled block with n <= 4, each head but the empty
        # one, against each block's peeled cycles, their vertex-sequence
        # mutants, and each cycle walked twice, a closed walk that revisits
        # every vertex.  The validator caches a cycle's checks, so each is
        # offered on every head of its block.
        families = ("drop", "repeat", "replace", "swap", "out-of-range")
        pairs = passed = 0
        for n in range(1, 5):
            choices = [[m for m in range(1, 1 << n) if not m >> u & 1] for u in range(n)]
            for tail in itertools.product(*choices[1:]):
                peeler = block_peeler(n, tail, {})
                validator = BlockCycleValidator(n, tail)
                offered = []
                for cyc in dict.fromkeys(map(peeler.cycle, choices[0])):
                    ms = mutants(CycleCertificate(cyc, Fraction(0), BOUND_TWO_PHI), n)
                    offered += [cyc, cyc * 2, *(m.vertices for f in families for m in ms[f])]
                for h in choices[0]:
                    out = (h, *tail)
                    for cyc in offered:
                        ok = validate_cycle_masks(n, out, self.two_phi_certificate(out, cyc))
                        assert validator.valid(h, cyc) == ok, (n, tail, h, cyc)
                        pairs += 1
                        passed += ok
        assert (pairs, passed) == (64664, 7059)

    def test_certificates_do_not_carry_across_heads(self):
        # Vertex 1's one out-arc enters 2, vertex 2's enters 0.  The cycle
        # (0, 1, 2) is within 2 phi = 2 (1/2 + 1/2 + 1/2) = 3 on head {1}
        # alone: head {1, 2} has the arc 0 -> 1 but 2 phi = 8/3, and head
        # {2} has out-degree 1 but no arc 0 -> 1.  Offered in both orders,
        # the head that passes comes first and last.
        tail = (0b100, 0b001)
        for heads in ([0b010, 0b110, 0b100], [0b110, 0b100, 0b010]):
            validator = BlockCycleValidator(3, tail)
            for h in heads:
                cert = self.two_phi_certificate((h, *tail), (0, 1, 2))
                ok = validator.valid(h, (0, 1, 2))
                assert ok == validate_cycle_masks(3, (h, *tail), cert) == (h == 0b010)


class TestRainbowValidation:
    INST = RainbowInstance(4, [[(0, 1)], [(2, 3)], [(0, 2), (1, 2)], [(0, 3), (1, 3)]])

    def test_accepts_real_rainbow_cycle(self):
        cert = RainbowCycleCertificate(
            steps=(((0, 2), 2), ((2, 3), 1), ((0, 3), 3))
        )
        assert validate_rainbow_cycle(self.INST, cert)

    def test_rejects_color_reuse(self):
        cert = RainbowCycleCertificate(steps=(((0, 2), 2), ((1, 2), 2), ((0, 1), 0)))
        assert not validate_rainbow_cycle(self.INST, cert)

    def test_rejects_edge_not_in_claimed_family(self):
        cert = RainbowCycleCertificate(steps=(((0, 2), 2), ((2, 3), 0), ((0, 3), 3)))
        assert not validate_rainbow_cycle(self.INST, cert)

    @pytest.mark.parametrize("color", [-1, 4])
    def test_rejects_color_outside_the_families(self, color):
        # Colors index the m = 4 families; -1 would read the last one.
        cert = RainbowCycleCertificate(steps=(((0, 2), 2), ((2, 3), 1), ((0, 3), color)))
        assert not validate_rainbow_cycle(self.INST, cert)

    def test_rejects_broken_walk(self):
        cert = RainbowCycleCertificate(steps=(((0, 1), 0), ((2, 3), 1)))
        assert not validate_rainbow_cycle(self.INST, cert)

    def test_rejects_vertex_revisit(self):
        inst = RainbowInstance(
            5,
            [[(0, 1)], [(1, 2)], [(2, 0)], [(0, 3)], [(3, 4)], [(4, 0)]],
        )
        # figure-eight through vertex 0 is not a simple cycle
        cert = RainbowCycleCertificate(
            steps=(
                ((0, 1), 0), ((1, 2), 1), ((0, 2), 2),
                ((0, 3), 3), ((3, 4), 4), ((0, 4), 5),
            )
        )
        assert not validate_rainbow_cycle(inst, cert)

    def test_loop_step_validates_only_without_simple_origin(self):
        loop_inst = RainbowInstance(2, [[(1, 1)]], simple_origin=False)
        cert = RainbowCycleCertificate(steps=(((1, 1), 0),))
        assert validate_rainbow_cycle(loop_inst, cert)

    def test_two_step_cycle_needs_two_families(self):
        inst = RainbowInstance(2, [[(0, 1)], [(0, 1)]])
        good = RainbowCycleCertificate(steps=(((0, 1), 0), ((0, 1), 1)))
        bad = RainbowCycleCertificate(steps=(((0, 1), 0), ((0, 1), 0)))
        assert validate_rainbow_cycle(inst, good)
        assert not validate_rainbow_cycle(inst, bad)

    def test_empty_certificate_rejected(self):
        assert not validate_rainbow_cycle(self.INST, RainbowCycleCertificate(steps=()))

    def test_one_step_without_a_loop_rejected(self):
        # A length-1 cycle must be a loop, even where loops are allowed.
        inst = RainbowInstance(2, [[(0, 1)], [(0, 1)]], simple_origin=False)
        cert = RainbowCycleCertificate(steps=(((0, 1), 0),))
        assert not validate_rainbow_cycle(inst, cert)

    def test_two_loops_are_no_two_cycle(self):
        # Two loops at one vertex share their vertex pair, yet a cycle of
        # two or more steps has no loop.
        inst = RainbowInstance(2, [[(0, 0)], [(0, 0)]], simple_origin=False)
        cert = RainbowCycleCertificate(steps=(((0, 0), 0), ((0, 0), 1)))
        assert not validate_rainbow_cycle(inst, cert)

    def test_open_walk_rejected(self):
        inst = RainbowInstance(4, [[(0, 1)], [(1, 2)], [(2, 3)], [(0, 3)]])
        walk = (((0, 1), 0), ((1, 2), 1), ((2, 3), 2))
        assert not validate_rainbow_cycle(inst, RainbowCycleCertificate(steps=walk))
        closed = walk + (((0, 3), 3),)
        assert validate_rainbow_cycle(inst, RainbowCycleCertificate(steps=closed))
