"""Potential functions and the peeling procedure, checked exactly."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclecert.certificates import BOUND_TWO_PHI, validate_cycle
from cyclecert.digraph import Digraph, first_sink
from cyclecert import harness, peeling
from cyclecert.errors import EmptyGraph, LemmaViolation, NotSinkless
from cyclecert.harness import SuiteConfig, _run_shard, run_suite
from cyclecert.oracles import girth_exact
from cyclecert.peeling import (
    BlockPeeler,
    eq1_terms,
    peel,
    phi,
    psi,
    short_cycle_via_peeling,
)

from test_core import (
    BI_TRIANGLE,
    TRIANGLE,
    all_digraphs,
    block_peeler,
    digraph_strategy,
    is_union_of_cycles,
    remove_vertex,
)

APEX = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1)])


def induced(d, keep):
    """The subdigraph of d induced on the vertices keep, reindexed densely."""
    pos = {v: i for i, v in enumerate(keep)}
    return Digraph(len(keep), [(pos[u], pos[w]) for u, w in d.arcs if u in pos and w in pos])


def sinkless_strategy(max_n=5):
    return digraph_strategy(max_n).filter(lambda d: d.n > 0 and first_sink(d) is None)


def first_removed(d):
    """The first vertex peel(d) removes, or None if it removes none."""
    steps = peel(d).steps
    return steps[0][0] if steps else None


class TestPotentials:
    def test_triangle_values(self):
        assert psi(TRIANGLE) == 3
        assert phi(TRIANGLE) == Fraction(3, 2)

    def test_bidirected_triangle_values(self):
        assert psi(BI_TRIANGLE) == Fraction(3, 2)
        assert phi(BI_TRIANGLE) == 1

    def test_apex_values(self):
        assert phi(APEX) == Fraction(11, 6)
        assert psi(APEX) == Fraction(7, 2)

    def test_psi_requires_sinkless(self):
        with pytest.raises(NotSinkless, match="sink at vertex 1"):
            psi(Digraph(2, [(0, 1)]))

    def test_phi_tolerates_sinks(self):
        assert phi(Digraph(2, [(0, 1)])) == Fraction(1, 2) + 1
        assert phi(Digraph(1, [])) == 1

    def test_empty_digraph_potentials(self):
        assert psi(Digraph(0, [])) == 0
        assert phi(Digraph(0, [])) == 0

    @given(sinkless_strategy())
    def test_phi_is_less_than_psi_on_sinkless(self, d):
        # 1/(k+1) < 1/k per vertex
        assert phi(d) < psi(d)


class TestEq1:
    def test_terms_on_triangle(self):
        terms = eq1_terms(TRIANGLE)
        assert terms == [(Fraction(1, 2), Fraction(1, 2))] * 3

    def test_both_sides_sum_to_phi_on_sinkless(self):
        for d in (TRIANGLE, BI_TRIANGLE, APEX):
            terms = eq1_terms(d)
            assert sum(l for l, _ in terms) == phi(d)
            assert sum(r for _, r in terms) == phi(d)

    @given(sinkless_strategy())
    def test_summation_identity_property(self, d):
        terms = eq1_terms(d)
        assert sum(l for l, _ in terms) == phi(d)
        assert sum(r for _, r in terms) == phi(d)

    def test_identity_fails_with_a_sink(self):
        # a sink contributes to phi but to no right-hand side
        d = Digraph(2, [(0, 1)])
        terms = eq1_terms(d)
        assert sum(l for l, _ in terms) == phi(d)
        assert sum(r for _, r in terms) < phi(d)

    def test_removable_matches_phi_recomputation(self):
        # the inequality route agrees with deleting v and recomputing phi,
        # exhaustively over every sink-less digraph with n <= 4
        for n in (1, 2, 3, 4):
            for d in all_digraphs(n):
                if not (d.n and first_sink(d) is None):
                    continue
                terms = eq1_terms(d)
                for v, (lhs, rhs) in enumerate(terms):
                    assert (lhs >= rhs) == (phi(remove_vertex(d, v)) <= phi(d))

    def test_removable_vertices_triangle(self):
        for d in (TRIANGLE, BI_TRIANGLE):
            assert [v for v, (lhs, rhs) in enumerate(eq1_terms(d)) if lhs >= rhs] == [0, 1, 2]


class TestPeelStep:
    """The first step of peel: the smallest vertex whose removal keeps phi
    non-increasing and the digraph sink-less."""

    def test_union_of_cycles_returns_none(self):
        assert first_removed(TRIANGLE) is None
        c5 = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert first_removed(c5) is None

    def test_apex_removes_the_apex(self):
        assert first_removed(APEX) == 3

    def test_bidirected_triangle_removes_smallest(self):
        assert first_removed(BI_TRIANGLE) == 0

    def test_requires_nonempty_sinkless(self):
        with pytest.raises(EmptyGraph):
            peel(Digraph(0, []))
        with pytest.raises(NotSinkless, match="sink at vertex 1"):
            peel(Digraph(2, [(0, 1)]))

    @given(sinkless_strategy())
    def test_step_never_raises_phi_or_creates_sink(self, d):
        v = first_removed(d)
        if v is None:
            assert is_union_of_cycles(d)
            return
        rest = remove_vertex(d, v)
        assert phi(rest) <= phi(d)
        assert first_sink(rest) is None


class TestPeel:
    def test_triangle_trace_is_trivial(self):
        tr = peel(TRIANGLE)
        assert tr.initial_phi == Fraction(3, 2)
        assert tr.steps == ()
        assert tr.terminal == TRIANGLE
        assert tr.terminal_vertices == (0, 1, 2)

    def test_bidirected_triangle_trace(self):
        tr = peel(BI_TRIANGLE)
        assert tr.steps == ((0, Fraction(1)),)
        assert tr.terminal == Digraph(2, [(0, 1), (1, 0)])
        assert tr.terminal_vertices == (1, 2)

    def test_apex_trace(self):
        tr = peel(APEX)
        assert tr.initial_phi == Fraction(11, 6)
        assert tr.steps == ((3, Fraction(3, 2)),)
        assert tr.terminal_vertices == (0, 1, 2)

    def test_trace_json_shape(self):
        doc = peel(BI_TRIANGLE).to_json_dict()
        assert doc["phi_initial"] == {"num": 1, "den": 1}
        assert doc["steps"] == [{"vertex": 0, "phi": {"num": 1, "den": 1}}]
        assert doc["terminal"]["vertices"] == [1, 2]

    @given(sinkless_strategy())
    @settings(max_examples=150, deadline=None)
    def test_trace_invariants(self, d):
        tr = peel(d)
        assert tr.initial_phi == phi(d)
        # phi never increases along the trace
        values = [tr.initial_phi] + [p for _, p in tr.steps]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert is_union_of_cycles(tr.terminal)
        assert tr.terminal.n == d.n - len(tr.steps)
        # terminal vertices are the untouched ones, in order
        removed = {v for v, _ in tr.steps}
        assert tr.terminal_vertices == tuple(
            v for v in range(d.n) if v not in removed
        )
        # the terminal really is the induced subdigraph on the survivors
        pos = {v: i for i, v in enumerate(tr.terminal_vertices)}
        for u, w in d.arcs:
            if u in pos and w in pos:
                assert tr.terminal.out_masks[pos[u]] >> pos[w] & 1
        assert tr.terminal.m == sum(
            1 for u, w in d.arcs if u in pos and w in pos
        )
        # the phi carried through (1) matches a re-sum over the survivors
        alive = list(range(d.n))
        for v, ph in tr.steps:
            alive.remove(v)
            assert ph == phi(induced(d, alive))

    def test_trace_carries_its_certificate(self):
        for d in (TRIANGLE, BI_TRIANGLE, APEX):
            tr = peel(d)
            assert tr.certificate == short_cycle_via_peeling(d)
            assert tr.certificate.bound == 2 * tr.initial_phi


class TestShortCycle:
    def test_triangle_certificate(self):
        cert = short_cycle_via_peeling(TRIANGLE)
        assert cert.vertices == (0, 1, 2)
        assert cert.bound == 3
        assert cert.bound_kind == BOUND_TWO_PHI
        assert validate_cycle(TRIANGLE, cert)

    def test_bidirected_triangle_certificate(self):
        cert = short_cycle_via_peeling(BI_TRIANGLE)
        assert cert.vertices == (1, 2)
        assert cert.bound == 2

    def test_five_cycle_is_its_own_certificate(self):
        c5 = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        cert = short_cycle_via_peeling(c5)
        assert cert.vertices == (0, 1, 2, 3, 4)
        assert cert.bound == 2 * phi(c5) == 5

    def test_exhaustive_small(self):
        # every sink-less digraph with n <= 4: validating cert within 2 * phi,
        # and the true girth obeys both potential bounds
        for n in (1, 2, 3, 4):
            for d in all_digraphs(n):
                if not (d.n and first_sink(d) is None):
                    continue
                cert = short_cycle_via_peeling(d)
                assert cert.bound == 2 * phi(d)
                assert validate_cycle(d, cert)
                g, _ = girth_exact(d)
                assert g <= 2 * phi(d)
                assert g < 2 * psi(d)

    @given(sinkless_strategy())
    @settings(max_examples=150, deadline=None)
    def test_certificate_property(self, d):
        cert = short_cycle_via_peeling(d)
        assert validate_cycle(d, cert)
        assert cert.length <= 2 * phi(d)


def sinkless_up_to_4():
    """Every sink-less labeled digraph with n <= 4, in sweep order."""
    return [d for n in range(1, 5) for d in all_digraphs(n) if first_sink(d) is None]


def peel_through(memo, d):
    """short_cycle_via_peeling of d as a sweep runs it: through a
    BlockPeeler of d's block that shares memo."""
    tail = d.out_masks[1:]
    return block_peeler(d.n, tail, memo).certificate(d.out_masks[0])


class TestPeelMemo:
    """A memo shared across runs must change no certificate."""

    # sha256 of the JSON list of short_cycle_via_peeling vertex tuples over
    # sinkless_up_to_4(), taken before the memo existed: a memo that returns
    # a different but still valid cycle fails here.
    GOLDEN = "bac57c27cd83c6a5ec57e71d7fc90ecd4d7ea355d66de9e83293ec2ad9ee71bc"

    @staticmethod
    def digest(cycles):
        return hashlib.sha256(json.dumps([list(c) for c in cycles]).encode()).hexdigest()

    def test_golden_cycles(self):
        ds = sinkless_up_to_4()
        assert len(ds) == 2429
        assert self.digest(short_cycle_via_peeling(d).vertices for d in ds) == self.GOLDEN
        memo = {}
        assert self.digest(peel_through(memo, d).vertices for d in ds) == self.GOLDEN

    @pytest.mark.parametrize("order", ["sweep", "reverse"])
    def test_shared_memo_changes_nothing(self, order):
        ds = sinkless_up_to_4()
        if order == "reverse":
            ds.reverse()
        memo = {}
        for d in ds:
            assert peel_through(memo, d) == short_cycle_via_peeling(d)
        assert memo

    def test_no_initial_state_is_stored(self):
        memo = {}
        for d in sinkless_up_to_4():
            peel_through(memo, d)
        # Every key has a removed vertex, so no whole digraph is ever a key.
        assert all(0 in key for key in memo)

    def test_stuck_run_stores_nothing(self, monkeypatch):
        first_eligible = peeling._PeelState.first_eligible

        def stuck_after_first_removal(self):
            if self.alive != (1 << len(self.out)) - 1:
                return None
            return first_eligible(self)

        monkeypatch.setattr(peeling._PeelState, "first_eligible", stuck_after_first_removal)
        memo = {}
        k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        with pytest.raises(LemmaViolation):
            peel_through(memo, k4)  # stuck after one removal
        assert memo == {}

    def test_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(peeling, "PEEL_MEMO_CAP", 7)
        memo = {}
        for d in sinkless_up_to_4():
            assert peel_through(memo, d) == short_cycle_via_peeling(d)
            assert len(memo) <= 7


def record_two_phi_certificates(monkeypatch):
    """(n, out-masks, cycle) of each instance whose peeled cycle the
    harness's two-phi check validates from here on, in sweep order."""
    seen = []

    class Recording(harness.BlockCycleValidator):
        __slots__ = ()

        def valid(self, h, cyc):
            seen.append((self.n, (h, *self.tail), cyc))
            return super().valid(h, cyc)

    monkeypatch.setattr(harness, "BlockCycleValidator", Recording)
    return seen


def count_peel_runs(monkeypatch):
    """(whether it was given a memo, the live out-masks it starts from) of
    every peeling run from here on."""
    runs = []
    run = peeling._run_peel

    def counting(state, memo=None):
        runs.append((memo is not None, tuple(state.out)))
        return run(state, memo)

    monkeypatch.setattr(peeling, "_run_peel", counting)
    return runs


class TestColdPeels:
    """A run from a state no memo holds stores the same keys and cycles."""

    def test_memo_contents_pinned(self, monkeypatch):
        # The memo after the first n = 5 window of the labeled benchmark
        # (vertex 3 at out-mask slot 6, vertex 4 at slot 1: 15^3 digraphs),
        # as sorted (key, cycle) JSON; pinned before the cold-peel loops
        # walked set bits inline.
        accs = []
        accum = harness._Accum
        monkeypatch.setattr(harness, "_Accum", lambda rows: accs.append(accum(rows)) or accs[-1])
        lo = (1 << 16) | (6 << 12)
        cfg = SuiteConfig(5, 5, "labeled", ("two-phi", "two-psi-strict", "eq1-identity"))
        assert _run_shard(cfg, 5, lo, lo + (1 << 12))["passed"]["two-phi"] == 15**3
        (acc,) = accs
        assert len(acc.peel_memo) == 259
        items = json.dumps(sorted(acc.peel_memo.items())).encode()
        assert hashlib.sha256(items).hexdigest() == (
            "ec877f1fd91f8682beb429183165a3879f0c08bf3c2d7c909ad56212b0704ac4"
        )


class TestBlockPeeler:
    """The two-phi check peels a block of vertex-0 choices through one
    BlockPeeler: the choices that remove vertex 0 first share one memo
    key, D - 0, and each instance still gets its own certificate."""

    HEADS = [m for m in range(1, 16) if not m & 1]  # vertex 0's sink-less out-masks at n = 4

    @staticmethod
    def tails():
        """Every sink-less out-mask tail of vertices 1..3 at n = 4."""
        opts = [[m for m in range(1, 16) if not m >> u & 1] for u in (1, 2, 3)]
        return list(itertools.product(*opts))

    def test_golden_cycles(self, monkeypatch):
        seen = record_two_phi_certificates(monkeypatch)
        report = run_suite(SuiteConfig(1, 4, "labeled", ("two-phi",)))
        assert report.passed == {"two-phi": 2429}
        assert [Digraph.from_out_masks(n, out) for n, out, _ in seen] == sinkless_up_to_4()
        assert TestPeelMemo.digest(cyc for _, _, cyc in seen) == TestPeelMemo.GOLDEN

    def test_pinned_n5_window_matches_runs_from_scratch(self, monkeypatch):
        # Vertices 3 and 4 fixed at out-mask slots 6 and 1, every out-mask of
        # vertices 0..2: 15^3 sink-less digraphs.
        seen = record_two_phi_certificates(monkeypatch)
        lo = (1 << 16) | (6 << 12)
        _run_shard(SuiteConfig(5, 5, "labeled", ("two-phi",)), 5, lo, lo + (1 << 12))
        assert len(seen) == 15**3
        for n, out, cyc in seen:
            assert cyc == short_cycle_via_peeling(Digraph.from_out_masks(n, out)).vertices

    def test_d_minus_0_is_peeled_at_most_once_per_block(self, monkeypatch):
        zero_first = []  # per tail, which heads remove vertex 0 first
        for tail in self.tails():
            ds = [Digraph.from_out_masks(4, (h, *tail)) for h in self.HEADS]
            zero_first.append([first_removed(d) == 0 for d in ds])
        runs = count_peel_runs(monkeypatch)
        for tail, firsts in zip(self.tails(), zero_first):
            peeler = block_peeler(4, tail, {})
            runs.clear()
            certs = [peeler.certificate(h) for h in self.HEADS]
            ds = [Digraph.from_out_masks(4, (h, *tail)) for h in self.HEADS]
            # With a memo of its own, the block peels D - 0 once if any
            # choice removes 0 first, and each union of cycles from its
            # start with no memo.
            d_minus_0 = (0, *[m & ~1 for m in tail])
            assert [start for _, start in runs].count(d_minus_0) == any(firsts)
            assert [memo for memo, _ in runs].count(False) == sum(map(is_union_of_cycles, ds))
            assert certs == [peeling.short_cycle_via_peeling(d) for d in ds]
        shared = sum(map(sum, zero_first))
        blocks = sum(map(any, zero_first))
        assert (shared, blocks) == (1390, 216)  # of 2,401 digraphs in 343 blocks
        # With the sweep's memo, only the 98 choices whose state after the
        # first removal is not yet in the memo are run on, 27 of them from
        # D - 0: the other 189 blocks find D - 0 in the memo already.
        runs.clear()
        res = _run_shard(SuiteConfig(4, 4, "labeled", ("two-phi",)), 4, 0, 1 << 12)
        assert res["passed"] == {"two-phi": 2401}
        continued = [start for memo, start in runs if memo]
        assert len(continued) == 98
        assert sum(not start[0] for start in continued) == 27
        assert len(runs) - len(continued) == 9

    def test_first_step_tables_match_first_eligible(self):
        # Every choice at n = 4: the first removal _first_step gives, vertex
        # 0 by the block's threshold or v >= 1 by its tables, is the one a
        # run from scratch makes, and the memo key is the out-masks of the
        # state after it.  Unions of cycles give none.
        checked = 0
        for tail in self.tails():
            peeler = block_peeler(4, tail, {})
            for h in self.HEADS:
                d = Digraph.from_out_masks(4, (h, *tail))
                first = peeler._first_step(h, h.bit_count())
                if is_union_of_cycles(d):
                    assert first is None
                    continue
                state = peeling._start(d)
                v, _ = state.first_eligible()
                state.remove(v)
                assert first == (v, tuple(state.out))
                checked += 1
        assert checked == 2401 - 9

    def test_a_stuck_start_state_fails_as_a_run_from_scratch(self, monkeypatch):
        # A right side of (1) above every left side leaves no vertex
        # eligible, in the tables and in first_eligible alike: the choice
        # is run from its start state, which raises as today.
        monkeypatch.setattr(peeling, "_rhs_scaled", lambda gains, degs, inn: 1 << 20)
        tail = (0b1101, 0b1011, 0b0111)  # K4 on vertices 1..3 and 0
        peeler = block_peeler(4, tail, {})
        assert not peeler.zero_first
        for h in (0b0010, 0b0110, 0b1110):
            d = Digraph.from_out_masks(4, (h, *tail))
            with pytest.raises(LemmaViolation) as want:
                short_cycle_via_peeling(d)
            with pytest.raises(LemmaViolation) as got:
                peeler.certificate(h)
            assert str(got.value) == str(want.value)
            assert "live vertices [0, 1, 2, 3]" in str(got.value)

    def test_a_memo_hit_builds_no_peel_state(self, monkeypatch):
        # Each choice's first removal and the memo key after it, from a run
        # from scratch, taken before the count starts.
        firsts = {}
        for d in sinkless_up_to_4():
            if d.n == 4 and not is_union_of_cycles(d):
                state = peeling._start(d)
                state.remove(state.first_eligible()[0])
                firsts[d.out_masks] = tuple(state.out)
        calls = {"misses": 0, "hits": 0, "unions": 0}
        built = 0
        init = peeling._PeelState.__init__

        def counting_init(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        cycle = BlockPeeler.cycle

        def counting_cycle(self, h):
            out = (h, *self.tail)
            if out not in firsts:
                calls["unions"] += 1
            else:
                calls["hits" if firsts[out] in self.memo else "misses"] += 1
            return cycle(self, h)

        monkeypatch.setattr(peeling._PeelState, "__init__", counting_init)
        monkeypatch.setattr(BlockPeeler, "cycle", counting_cycle)
        res = _run_shard(SuiteConfig(4, 4, "labeled", ("two-phi",)), 4, 0, 1 << 12)
        assert res["passed"] == {"two-phi": 2401}
        assert calls == {"misses": 98, "hits": 2294, "unions": 9}
        # A state per miss and per union of cycles: a hit builds none.
        assert built == calls["misses"] + calls["unions"]

    def test_a_union_of_cycles_peels_on_its_own(self):
        # It removes nothing, so it must not take D - 0's cycle; its vertex
        # 0 has one in-neighbor, whose only out-arc enters 0.
        unions = [d for d in sinkless_up_to_4() if is_union_of_cycles(d)]
        assert len(unions) == 1 + 2 + 9
        for d in unions:
            tail = d.out_masks[1:]
            peeler = block_peeler(d.n, tail, {})
            assert not peeler.zero_first
            assert peeler.certificate(d.out_masks[0]) == short_cycle_via_peeling(d)

    def test_stuck_d_minus_0_fails_every_choice_it_serves(self, monkeypatch):
        first_eligible = peeling._PeelState.first_eligible

        def stuck_after_first_removal(self):
            if self.alive != (1 << len(self.out)) - 1:
                return None
            return first_eligible(self)

        monkeypatch.setattr(peeling._PeelState, "first_eligible", stuck_after_first_removal)
        runs = count_peel_runs(monkeypatch)
        tail = (0b1101, 0b1011, 0b0111)  # K4 on vertices 1..3 and 0
        peeler = block_peeler(4, tail, {})
        assert list(peeler.zero_first) == [1, 2, 3]
        messages = []
        for h in (0b0010, 0b0110, 0b1110):
            with pytest.raises(LemmaViolation) as exc:
                peeler.certificate(h)
            messages.append(str(exc.value))
        # A stuck run stores nothing, so each choice peels D - 0 again.
        assert runs == [(True, (0, 0b1100, 0b1010, 0b0110))] * 3
        assert len(set(messages)) == 1 and "live vertices [1, 2, 3]" in messages[0]

    @staticmethod
    def random_tails(rng, n, count):
        """count dense sink-less tails on n vertices, each arc in with
        probability 3/4, and count with out-degrees in {1, 2}: each vertex
        u keeps its arc to sigma(u) for a derangement sigma of 0..n-1 and
        gains a second with a probability drawn per tail.  The latter have
        protected vertices, and a union of cycles where h = {sigma(0)} and
        no tail vertex gained an arc."""
        tails = []
        for _ in range(count):
            tail = []
            for u in range(1, n):
                m = 0
                while not m:
                    m = (rng.getrandbits(n) | rng.getrandbits(n)) & ~(1 << u)
                tail.append(m)
            tails.append(tuple(tail))
        for _ in range(count):
            sigma = list(range(n))
            while any(u == s for u, s in enumerate(sigma)):
                rng.shuffle(sigma)
            p = rng.random()
            tail = []
            for u in range(1, n):
                m = 1 << sigma[u]
                if rng.random() < p:
                    m |= 1 << rng.choice([w for w in range(n) if w not in (u, sigma[u])])
                tail.append(m)
            tails.append(tuple(tail))
        return tails

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_blocks_above_n5_match_runs_from_scratch(self, n):
        # No sweep peels a block at n >= 6 yet, so seeded tails stand in:
        # every sink-less head of each goes through one peeler per tail,
        # with one memo across the tails.
        memo = {}
        seen = {"zero first": 0, "other": 0, "union": 0}
        for tail in self.random_tails(random.Random(n), n, 16):
            peeler = block_peeler(n, tail, memo)
            for h in range(2, 1 << n, 2):
                d = Digraph.from_out_masks(n, (h, *tail))
                assert peeler.certificate(h) == short_cycle_via_peeling(d)
                if is_union_of_cycles(d):
                    seen["union"] += 1
                else:
                    seen["zero first" if h.bit_count() in peeler.zero_first else "other"] += 1
        assert sum(seen.values()) == 32 * (2 ** (n - 1) - 1)
        assert all(seen.values()), seen

    def test_sinks_are_refused(self):
        with pytest.raises(NotSinkless, match="vertex 2"):
            block_peeler(3, (0b100, 0), {})
        peeler = block_peeler(3, (0b100, 0b001), {})
        with pytest.raises(NotSinkless, match="vertex 0"):
            peeler.certificate(0)
