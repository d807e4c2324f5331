"""Enumeration generators, the verification suite driver, and the ratio search."""

import collections
import gc
import hashlib
import itertools
import json
import math
import operator
import os
import random
import re
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclecert import certificates, harness, oracles, peeling, rainbow
from cyclecert.digraph import Digraph, first_sink, in_masks_of
from cyclecert.errors import (
    ClaimViolation,
    GraphInputError,
    Infeasible,
    LemmaViolation,
    LimitExceeded,
    TheoremViolation,
)
from cyclecert.families import RainbowInstance
from cyclecert.formats import format_rainbow
from cyclecert.peeling import _gains, _phi_scaled, _psi_scaled, _rhs_scaled, _scale
from cyclecert.harness import (
    ALL_CHECKS,
    DIGRAPH_CHECKS,
    LABELED_CAP,
    OUTMAP_CAP,
    RAINBOW_CAP,
    RAINBOW_CHECKS,
    SEARCH_CAP,
    WORKERS_CAP,
    SuiteConfig,
    _POPULATIONS,
    _cycle_pair_within,
    _outmap_choices,
    _run_shard,
    _sweep,
    _tail_search,
    extremal_ratio_search,
    random_rainbow_instance,
    run_suite,
)


def doc_of(report, ignore_workers=True):
    d = report.to_json_dict()
    if ignore_workers:
        d["config"]["workers"] = 0
    return json.dumps(d, sort_keys=True)


class TestSuiteConfig:
    def test_defaults_validate(self):
        cfg = SuiteConfig(n_lo=1, n_hi=3, generator="labeled", checks=("two-phi",))
        cfg.validate()

    def test_unknown_names_rejected(self):
        with pytest.raises(GraphInputError):
            SuiteConfig(1, 3, "nope", ("two-phi",)).validate()
        with pytest.raises(GraphInputError):
            SuiteConfig(1, 3, "labeled", ("bogus",)).validate()
        with pytest.raises(GraphInputError):
            SuiteConfig(1, 3, "labeled", ("two-phi", "chc", "two-phi")).validate()

    def test_check_generator_mismatch_rejected(self):
        with pytest.raises(GraphInputError):
            SuiteConfig(1, 3, "labeled", ("rainbow-bound",)).validate()
        with pytest.raises(GraphInputError):
            SuiteConfig(4, 5, "rainbow", ("two-phi",)).validate()

    def test_caps(self):
        with pytest.raises(LimitExceeded):
            SuiteConfig(1, LABELED_CAP + 1, "labeled", ("two-phi",)).validate()
        with pytest.raises(LimitExceeded):
            SuiteConfig(1, OUTMAP_CAP + 1, "outmaps", ("two-cycles",)).validate()
        with pytest.raises(LimitExceeded):
            SuiteConfig(
                2, RAINBOW_CAP + 1, "rainbow", ("rainbow-bound",)
            ).validate()
        # at the cap is fine
        SuiteConfig(1, OUTMAP_CAP, "outmaps", ("two-cycles",)).validate()

    def test_workers_capped(self):
        # Checked through validate() only: a run would start the pool.
        SuiteConfig(1, 3, "labeled", ("two-phi",), workers=WORKERS_CAP).validate()
        with pytest.raises(LimitExceeded):
            SuiteConfig(1, 3, "labeled", ("two-phi",), workers=WORKERS_CAP + 1).validate()

    def test_no_checks_rejected(self):
        with pytest.raises(GraphInputError, match=r"^no checks selected$"):
            SuiteConfig(1, 3, "labeled", ()).validate()

    def test_workers_below_one_rejected(self):
        with pytest.raises(GraphInputError, match=r"^workers must be >= 1$"):
            SuiteConfig(1, 3, "labeled", ("two-phi",), workers=0).validate()

    def test_bad_ranges_rejected(self):
        with pytest.raises(GraphInputError):
            SuiteConfig(3, 2, "labeled", ("two-phi",)).validate()
        with pytest.raises(GraphInputError):
            SuiteConfig(1, 3, "rainbow", ("rainbow-bound",)).validate()

    def test_check_sets_are_disjoint_and_cover(self):
        assert set(DIGRAPH_CHECKS) | set(RAINBOW_CHECKS) == set(ALL_CHECKS)
        assert not set(DIGRAPH_CHECKS) & set(RAINBOW_CHECKS)
        assert len(ALL_CHECKS) == len(set(ALL_CHECKS))


def reference_sweep(choices, lo, hi):
    """(index, out-masks) by plain divmod decoding of every index in [lo, hi)
    whose digraph has no sink."""
    for idx in range(lo, hi):
        x, out = idx, []
        for c in choices:
            x, r = divmod(x, len(c))
            out.append(c[r])
        if 0 in out:
            continue
        yield idx, tuple(out)


def case_config(kind, n):
    """A chc-only config at n."""
    return SuiteConfig(n, n, kind, ("chc",))


def cases(kind, ns):
    """(kind, n) cases, with ids whose last field, "sinkless" for labeled
    and "None" for outmaps, keeps the test names stable."""
    tag = "sinkless" if kind == "labeled" else "None"
    return [pytest.param(kind, n, id=f"{kind}-{n}-{tag}") for n in ns]


SWEEP_CASES = cases("labeled", range(1, 5)) + cases("outmaps", range(2, 6))


class TestSweep:
    """The sweep's in-masks and indices against a plain reference decode.
    Every population visits only sink-free digraphs, and a shard counts as
    generated exactly the instances it checks."""

    @pytest.mark.parametrize("kind, n", SWEEP_CASES)
    def test_matches_reference(self, kind, n):
        cfg = case_config(kind, n)
        choices = _outmap_choices(n, 0, n - 1) if kind == "labeled" else _outmap_choices(n, 1, 2)
        size = math.prod(map(len, choices))
        r0 = len(choices[0])
        ranges = [(0, size)]
        if size > 2 * r0:
            # Start and end inside a block of vertex-0 choices, across blocks.
            ranges += [(1, r0 - 1), (r0 // 2, size - r0 // 2 - 1), (r0 + 1, 3 * r0 - 2)]
        # One index either side of a step of each vertex's choice: the first
        # two multiples of w = len(choices[0]) * ... * len(choices[u - 1]).
        for w in itertools.accumulate(map(len, choices[:-1]), operator.mul):
            for lo, hi in ((w - 1, w + 1), (w + 1, 2 * w - 1), (w - 1, 2 * w + 1)):
                if lo < hi <= size:
                    ranges.append((lo, hi))
        for lo, hi in ranges:
            units = _POPULATIONS[cfg.generator].units(cfg, n, lo, hi)
            got = [(b.base + r, b.out(r), b.inn(r)) for b in units for r in b.kept]
            want = list(reference_sweep(choices, lo, hi))
            assert [(i, out) for i, out, _ in got] == want
            assert all(inn == in_masks_of(out) for _, out, inn in got)
            res = _run_shard(cfg, n, lo, hi)
            assert res["generated"] == res["checked"].get("chc", 0) == len(want)

    def test_leaves_no_reference_cycles(self):
        # The recursion over vertices is a module-level generator passed the
        # sweep's constants: a nested one that names itself would make every
        # call a cycle that only the cyclic collector frees.
        cfg = SuiteConfig(4, 4, "labeled", DIGRAPH_CHECKS)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                list(_sweep(_outmap_choices(4, 0, 3), 0, 4096))
            for _ in range(20):
                _run_shard(cfg, 4, 0, 4096)
            assert gc.collect() == 0
        finally:
            gc.enable()


def choice_lists(n):
    """Per vertex, distinct out-masks without a loop, in any order."""
    full = (1 << n) - 1
    return st.tuples(
        *(
            st.lists(st.integers(0, full).map(lambda m, u=u: m & ~(1 << u)), min_size=1, max_size=5, unique=True)
            for u in range(n)
        )
    ).map(lambda cs: [tuple(c) for c in cs])


def assert_facts_from_scratch(b, r):
    """Every fact block b gives about choice r, against a derivation from
    its out-masks alone."""
    out = b.out(r)
    assert b.inn(r) == in_masks_of(out)
    # The checks read every out-degree from these, and two-psi-strict
    # divides by vertex 0's.
    assert (b.head.deg0[r], *b.degs[1:]) == tuple(m.bit_count() for m in out)
    assert b.degs[0] == 0
    assert b.head.scale == _scale(b.n)
    assert b.head.deg0[r] >= 1
    hit = oracles._girth_masks(b.n, out, in_masks_of(out))
    assert b.girth[r] == (None if hit is None else hit[0])
    # The tail terms eq1-identity and two-phi share, from the tail alone.
    terms = b.terms()
    assert b.terms() is terms
    degs = (0, *[m.bit_count() for m in b.tail])
    assert terms.degs == degs
    assert terms.phi == _phi_scaled(_scale(b.n), degs[1:])
    gains = _gains(b.n, b.n - 1)
    assert terms.rhs == tuple(_rhs_scaled(gains, degs, m) for m in in_masks_of((0, *b.tail)))


def girth_minus_0(b):
    """g(D - 0) of block b, by a girth search of D - 0 alone."""
    minus_zero = (0, *(m & ~1 for m in b.tail))
    hit = oracles._girth_masks(b.n, minus_zero, in_masks_of(minus_zero))
    return None if hit is None else hit[0]


class TestBlocks:
    """Every fact a block gives, against a derivation from scratch."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_facts_match_from_scratch(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        choices = data.draw(choice_lists(n), label="choices")
        # The sweep asks that vertex 0's empty choice, if any, come first.
        choices[0] = tuple(sorted(choices[0], key=bool))
        size = math.prod(map(len, choices))
        lo = data.draw(st.integers(0, size), label="lo")
        hi = data.draw(st.integers(lo, size), label="hi")
        got = []
        for b in _sweep(choices, lo, hi):
            assert isinstance(b.kept, range) and b.kept
            assert all(0 <= b.base + r - lo < hi - lo for r in b.kept)
            for r in b.kept:
                got.append((b.base + r, b.out(r)))
                assert_facts_from_scratch(b, r)
        assert got == list(reference_sweep(choices, lo, hi))

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("dmin, dmax", [(0, None), (1, 2)], ids=["labeled", "outdeg-1-2"])
    def test_block_built_without_the_odometer(self, n, dmin, dmax):
        # A block needs only its tail's facts: in-masks from in_masks_of and
        # g(D - 0), found by a girth search, from which it builds its girth
        # table, here on seeded sink-free tails past the sweeps, under every
        # non-empty head.
        choices = _outmap_choices(n, dmin, n - 1 if dmax is None else dmax)
        head = harness._Head(choices)
        acc = harness._Accum([c for c in harness._CHECKS if c.name in DIGRAPH_CHECKS])
        rng = random.Random(n)
        for _ in range(8):
            tail = tuple(rng.choice([m for m in c if m]) for c in choices[1:])
            minus_zero = (0, *(m & ~1 for m in tail))
            hit = oracles._girth_masks(n, minus_zero, in_masks_of(minus_zero))
            g0 = None if hit is None else hit[0]
            tail_inn = in_masks_of((0,) + tail)
            b = harness._Block(
                head, 0, tail, (0, *(m.bit_count() for m in tail)), tail_inn, g0,
                [r for r, h in enumerate(head.first) if h],
            )
            assert b.again is None
            for r in b.kept:
                assert_facts_from_scratch(b, r)
            harness._run_checks(b, acc)
        checked = acc.result()["checked"]
        assert checked["two-phi"] > 0
        if dmax == 2:
            assert checked["two-cycles"] == checked["two-phi"]
        assert acc.violations == [] and acc.findings == []


class TestTailTerms:
    """Each block builds its tail terms once, for every check that reads
    them, and each validator's thresholds come from a memo by degrees."""

    def test_built_once_per_block(self, monkeypatch):
        inns = []
        build = harness.tail_terms
        monkeypatch.setattr(harness, "tail_terms", lambda n, degs, inn: inns.append(inn) or build(n, degs, inn))
        calls = {"outside runs": 0, "in runs": 0}
        rhs = peeling._rhs_scaled

        def counting_rhs(gains, degs, inn):
            ran = sys._getframe(1).f_code.co_name == "first_eligible"
            calls["in runs" if ran else "outside runs"] += 1
            return rhs(gains, degs, inn)

        monkeypatch.setattr(peeling, "_rhs_scaled", counting_rhs)
        certificates._two_phi_tops.cache_clear()
        cfg = SuiteConfig(4, 4, "labeled", ("eq1-identity", "two-phi"))
        res = _run_shard(cfg, 4, 0, 1 << 12)
        assert res["passed"] == {"eq1-identity": 2401, "two-phi": 2401}
        # One build for each of the 343 blocks (7^3 sink-free tails), whose
        # in-masks tell them apart.
        assert len(inns) == len(set(inns)) == 343
        # The right side of (1) once per vertex of each block: 4 * 343.
        # Before the tail terms were shared, eq1-identity, BlockPeeler's
        # threshold for vertex 0 and its first-step tables each worked out
        # their own, 2,056 calls here.
        assert calls == {"outside runs": 1372, "in runs": 90}
        # One threshold table per distinct tail out-degrees, 3^3 of them,
        # read by the validator of each of the 343 blocks.
        info = certificates._two_phi_tops.cache_info()
        assert (info.misses, info.hits + info.misses) == (27, 343)

    def test_outmaps_checks_build_none(self, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "tail_terms", lambda *args: built.append(args))
        cfg = SuiteConfig(4, 4, "outmaps", ("two-cycles", "deg2-girth", "chc", "two-psi-strict"))
        assert _run_shard(cfg, 4, 0, 6**4)["generated"] == 6**4
        assert built == []


class TestBestRatio:
    @pytest.mark.parametrize(
        "cfg, n",
        [
            (SuiteConfig(4, 4, "labeled", ("two-psi-strict",)), 4),
            (SuiteConfig(4, 4, "outmaps", ("two-psi-strict",), dmax=3), 4),
            (SuiteConfig(5, 5, "outmaps", ("two-psi-strict",)), 5),
        ],
        ids=["labeled-4", "outmaps-1-3-4", "outmaps-1-2-5"],
    )
    def test_shard_best_is_first_largest_ratio(self, cfg, n):
        # Equal ratios go to the smallest index, also within one block; a
        # shard's range, unlike a whole population, often ends on such a tie.
        choices = _POPULATIONS[cfg.generator].sweep(cfg, n)
        size = math.prod(map(len, choices))
        width = 3 * len(choices[0]) + 3
        scale = _scale(n)
        for lo in range(5, size - width, size // 40):
            want = None
            for i, out in reference_sweep(choices, lo, lo + width):
                psi_m = _psi_scaled(scale, [m.bit_count() for m in out])
                hit = oracles._girth_masks(n, out, in_masks_of(out))
                ratio = Fraction(hit[0] * scale, psi_m)
                if want is None or ratio > want[0]:
                    want = (ratio, i)
            best = _run_shard(cfg, n, lo, lo + width)["best_ratio"]
            assert want == (best and (Fraction(best[0], best[1]), best[3]))


def cycle_masks(out):
    """The vertex mask of each cycle enumerate_cycles finds."""
    cycles = oracles.enumerate_cycles(Digraph.from_out_masks(len(out), out))
    return [sum(1 << v for v in c.vertices) for c in cycles]


def least_overlap(out):
    """The fewest vertices two cycles share (one counted twice allowed),
    over enumerate_cycles; None if the digraph is acyclic."""
    masks = cycle_masks(out)
    return min(((a & b).bit_count() for i, a in enumerate(masks) for b in masks[i:]), default=None)


def assert_block_scan(tail, heads):
    """The scan of each digraph (h,) + tail, h in heads, with D - 0's
    cycles found once, says at every limit 0..n what least_overlap says."""
    rest = _tail_search((0,) + tail, -1)  # limit -1: lists every cycle
    for h in heads:
        out = (h,) + tail
        want = least_overlap(out)
        for limit in range(len(out) + 1):
            got = _cycle_pair_within(out, limit, *rest)
            assert got == (want is not None and want <= limit), (out, limit)


def deg2_masks(n, v):
    """Every out-mask of vertex v on n vertices with at most 2 out-arcs."""
    return [m for m in range(1 << n) if not m >> v & 1 and m.bit_count() <= 2]


class TestPairScan:
    """_cycle_pair_within, fed _tail_search once per block, against the
    least intersection over every cycle pair.  Every deg-2 sweep scan says
    True (the theorem), so only limits below p + 1 show a False."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_small_outmap(self, n):
        choices = _outmap_choices(n, 1, 2)
        for b in _sweep(choices, 0, math.prod(map(len, choices))):
            assert_block_scan(b.tail, [b.head.first[r] for r in b.kept])

    def test_sampled_n5_blocks(self):
        # Every 101st of the 10^4 blocks, each with its 10 vertex-0 choices.
        choices = _outmap_choices(5, 1, 2)
        for lo in range(0, 100_000, 1010):
            for b in _sweep(choices, lo, lo + 10):
                assert_block_scan(b.tail, [b.head.first[r] for r in b.kept])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_tails_under_every_head(self, data):
        n = data.draw(st.integers(6, 8), label="n")
        tail = tuple(
            data.draw(st.sampled_from(deg2_masks(n, v)), label=f"out {v}") for v in range(1, n)
        )
        assert_block_scan(tail, deg2_masks(n, 0))

    def test_leaves_no_reference_cycles(self):
        # A recursive closure that names itself would make each call a
        # cycle that only the cyclic collector frees.
        triangle = (2, 4, 1)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                assert not _cycle_pair_within(triangle, 1, *_tail_search(triangle, 1))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCrossChecks:
    """Once per block holding a multiple of _CROSS_CHECK_EVERY, the sweep
    checks the girth table, the pair scan and the block peel against
    searches and runs from scratch."""

    @staticmethod
    def off_by_one(table):
        """table, the original harness._girth_table, one too high."""
        return lambda *args: [None if g is None else g + 1 for g in table(*args)]

    def test_disagreement_raises_with_the_instance(self, monkeypatch):
        monkeypatch.setattr(harness, "_girth_table", self.off_by_one(harness._girth_table))
        # Index 0 of outmaps n = 3: 0 -> 1, 1 -> 0, 2 -> 0, girth 2.
        with pytest.raises(TheoremViolation, match=r"says 3, .* says 2, on:\ndigraph 3 3\n"):
            run_suite(SuiteConfig(3, 3, "outmaps", ("deg2-girth",)))

    def test_mid_sweep_index_is_searched_again(self, monkeypatch):
        monkeypatch.setattr(harness, "_girth_table", self.off_by_one(harness._girth_table))
        cfg = SuiteConfig(6, 6, "outmaps", ("two-cycles",))
        # 100,000 is r = 10 of the block at 99,990 (15 vertex-0 choices).
        with pytest.raises(TheoremViolation, match="digraph 6"):
            _run_shard(cfg, 6, 99_995, 100_010)
        # A block holding no multiple (100,005..100,019) is not searched again.
        assert _run_shard(cfg, 6, 100_006, 100_014)["checked"] == {"two-cycles": 8}

    def test_sinkless_sweep_searches_the_next_kept_instance(self, monkeypatch):
        # Code 100,000 at n = 5 has vertex 0 empty, so the sink-free sweep
        # drops it; 100,001, next in its block, is searched again instead.
        monkeypatch.setattr(harness, "_girth_table", self.off_by_one(harness._girth_table))
        cfg = SuiteConfig(5, 5, "labeled", ("chc",))
        with pytest.raises(TheoremViolation, match="digraph 5"):
            _run_shard(cfg, 5, 100_000, 100_002)

    def test_pair_scan_oracle_runs_on_sinkless_sweeps(self, monkeypatch):
        # 100,001, the instance searched again in the block of 100,000,
        # has out-degrees at most 2, so the pair scan's oracle runs on it.
        oracle = harness.two_cycles_min_intersection
        calls = []
        monkeypatch.setattr(
            harness, "two_cycles_min_intersection", lambda d: calls.append(d) or oracle(d)
        )
        cfg = SuiteConfig(5, 5, "labeled", ("two-cycles",))
        res = _run_shard(cfg, 5, 100_000, 100_016)
        assert res["checked"] == res["passed"]
        assert [d.out_masks for d in calls] == [(2, 20, 10, 16, 1)]

    def test_an_oracle_failure_is_stored_and_raised_again(self, monkeypatch):
        # Instance 0's oracle runs once for both checks.  deg2-girth records
        # the TheoremViolation it raised; two-cycles gets it raised again and
        # finds its scan's pair where the oracle found none.
        calls = []

        def planted(d):
            calls.append(d)
            raise TheoremViolation("planted")

        monkeypatch.setattr(harness, "two_cycles_min_intersection", planted)
        cfg = SuiteConfig(4, 4, "outmaps", ("deg2-girth", "two-cycles"))
        res = _run_shard(cfg, 4, 0, 1296)
        assert len(calls) == 1
        assert [(v["check"], v["index"], v["message"]) for v in res["violations"]] == [
            ("deg2-girth", 0, "TheoremViolation: planted"),
            ("two-cycles", 0, "fast pair scan disagrees with the exhaustive oracle"),
        ]
        assert res["checked"] == {"deg2-girth": 1296, "two-cycles": 1296}
        assert res["passed"] == {"deg2-girth": 1295, "two-cycles": 1295}

    def test_block_peel_is_run_again_from_scratch(self, monkeypatch):
        # 100,001 is peeled again, with no memo, and validated on its Digraph.
        peel = harness.short_cycle_via_peeling
        calls = []
        monkeypatch.setattr(
            harness, "short_cycle_via_peeling", lambda d: calls.append(d) or peel(d)
        )
        cfg = SuiteConfig(5, 5, "labeled", ("two-phi",))
        res = _run_shard(cfg, 5, 100_000, 100_016)
        assert res["checked"] == res["passed"] == {"two-phi": 15}
        assert [d.out_masks for d in calls] == [(2, 20, 10, 16, 1)]
        # A run from scratch that differs is a violation at that index.
        monkeypatch.setattr(
            harness, "short_cycle_via_peeling", lambda d: peel(d)._replace(vertices=())
        )
        res = _run_shard(cfg, 5, 100_000, 100_016)
        assert [(v["index"], v["message"]) for v in res["violations"]] == [
            (100_001, "block peeling and a run from scratch disagree")
        ]

    def test_only_the_cross_checked_instance_builds_a_certificate(self, monkeypatch):
        # A choice that passes leaves its cycle in the block, so of the block
        # of 100,000 only 100,001 has certificates built: one by the block
        # peeler and one by the run from scratch it is compared with.  The
        # next block holds no multiple of 100,000 and builds none.
        build = peeling._certificate
        calls = []
        monkeypatch.setattr(
            peeling, "_certificate", lambda n, out, *rest: calls.append(out) or build(n, out, *rest)
        )
        cfg = SuiteConfig(5, 5, "labeled", ("two-phi",))
        assert _run_shard(cfg, 5, 100_000, 100_016)["passed"] == {"two-phi": 15}
        assert [tuple(out) for out in calls] == [(2, 20, 10, 16, 1)] * 2
        calls.clear()
        assert _run_shard(cfg, 5, 100_016, 100_032)["passed"] == {"two-phi": 15}
        assert calls == []

    def test_deg2_short_cycle_runs_and_is_validated(self, monkeypatch):
        # 100,001 also gets the exhaustive ceil((n + p) / 2) certificate.
        oracle = harness.deg2_short_cycle

        def one_off(d, pair):
            cert = oracle(d, pair)
            return cert._replace(vertices=(*cert.vertices[:-1], cert.vertices[-1] + 1))

        calls = []
        monkeypatch.setattr(
            harness, "deg2_short_cycle", lambda d, pair: calls.append(d) or oracle(d, pair)
        )
        cfg = SuiteConfig(5, 5, "labeled", ("deg2-girth",))
        res = _run_shard(cfg, 5, 100_000, 100_016)
        assert res["checked"] == res["passed"]
        assert [d.out_masks for d in calls] == [(2, 20, 10, 16, 1)]
        # A certificate one vertex off is a violation there, with its JSON.
        monkeypatch.setattr(harness, "deg2_short_cycle", one_off)
        res = _run_shard(cfg, 5, 100_000, 100_016)
        assert [(v["index"], v["message"], v["certificate"]) for v in res["violations"]] == [(
            100_001,
            "exhaustive short cycle failed validation",
            {"kind": "ceil-n-plus-p-over-2", "vertices": [1, 3], "bound": {"num": 4, "den": 1}},
        )]

    def test_pair_oracle_runs_once_per_instance(self, monkeypatch):
        # With both deg2-girth and two-cycles selected, each instance searched
        # again is searched once for a cycle pair, read by both checks.
        calls = []
        oracle = oracles.two_cycles_min_intersection
        count = lambda d: calls.append(d.out_masks) or oracle(d)
        monkeypatch.setattr(oracles, "two_cycles_min_intersection", count)
        monkeypatch.setattr(harness, "two_cycles_min_intersection", count)
        short = harness.deg2_short_cycle
        shorts = []
        monkeypatch.setattr(
            harness, "deg2_short_cycle", lambda d, pair: shorts.append(d.out_masks) or short(d, pair)
        )
        report = run_suite(SuiteConfig(1, 5, "outmaps", ("two-cycles", "deg2-girth")))
        assert report.checked == report.passed and not report.violations
        assert len(calls) == len(set(calls)) == 4
        assert shorts == calls


class TestBlockCompare:
    """deg2-girth and two-cycles settle a block when g(D - 0), or else its
    table's largest girth, is within the least of its heads' bounds, and
    walk its heads otherwise.  The pair-scan counts here were taken when
    every head was walked."""

    @pytest.mark.parametrize(
        "kind, dmax, n_hi, blocks, deg2_walked, pairs_walked",
        [
            ("outmaps", 2, 5, 10_226, 0, 2004),
            ("outmaps", 3, 4, 226, 0, 40),
            ("labeled", None, 4, 226, 72, 104),
        ],
        ids=["outmaps-1-2", "outmaps-1-3", "labeled"],
    )
    def test_settles_exactly_the_blocks_the_table_would(
        self, kind, dmax, n_hi, blocks, deg2_walked, pairs_walked
    ):
        # Every block the deg2 rows select heads of (the heads with
        # out-degree at most 2, under a tail whose out-degrees are too), run
        # with no instance searched again: a block settles, and nothing is
        # walked, iff the largest entry of its table, built here from
        # scratch, is within the row's bound.  Then every kept head's girth,
        # found by a breadth-first search, is within it too.
        rows = [c for c in harness._CHECKS if c.bound is not None]
        assert [c.name for c in rows] == ["deg2-girth", "two-cycles"]
        settled = collections.Counter()
        for n in range(2, n_hi + 1):
            choices = _outmap_choices(n, 1 if dmax else 0, dmax or n - 1)
            for b in _sweep(choices, 0, math.prod(map(len, choices))):
                if max(b.degs) > 2:
                    continue
                b.again = None
                table = harness._girth_table(b.tail_inn, b.head.first, girth_minus_0(b), 0)
                top = None if None in table else max(table)
                girths = None
                for row in rows:
                    least = row.bound(n, b.degs.count(1))
                    walked = []
                    spy = row._replace(run=lambda x, rs, acc: walked.append(rs) or ())
                    harness._run_checks(b, harness._Accum([spy]))
                    settles = top is not None and top <= least
                    assert (walked == []) == settles, (n, b.base, row.name)
                    settled[row.name, settles] += 1
                    if settles:
                        if girths is None:
                            girths = [oracles._girth_masks(n, b.out(r), b.inn(r)) for r in b.kept]
                        assert all(hit is not None and hit[0] <= least for hit in girths)
        assert [settled[row.name, s] for row in rows for s in (True, False)] == [
            blocks - deg2_walked, deg2_walked, blocks - pairs_walked, pairs_walked
        ]

    @pytest.mark.parametrize(
        "kind, dmax, n_hi, walked, settled",
        [
            ("outmaps", 2, 5, 2004, 910),
            ("outmaps", 3, 4, 40, 10),
            ("labeled", None, 4, 104, 10),
        ],
        ids=["outmaps-1-2", "outmaps-1-3", "labeled"],
    )
    def test_a_pair_in_d_minus_0_settles_exactly(
        self, monkeypatch, kind, dmax, n_hi, walked, settled
    ):
        # Every block two-cycles walks (the compare leaves it open), with no
        # instance searched again, searches D - 0 once at p' + 1, the least
        # limit of its heads.  The search stops on a pair, and so settles
        # the block, iff the least intersection over enumerate_cycles is
        # within that limit; otherwise it reports that least exactly.  A
        # settled block's heads, the deg0 <= 2 ones the row selects, each
        # have a pair within their own limit, and none is scanned; in a
        # block left open, each head whose girth exceeds its limit is.
        row = next(c for c in harness._CHECKS if c.name == "two-cycles")
        searches = []
        search = harness._tail_search
        monkeypatch.setattr(
            harness, "_tail_search",
            lambda out, limit: searches.append((out, limit, search(out, limit))) or searches[-1][2],
        )
        scans = []
        scan = harness._cycle_pair_within
        monkeypatch.setattr(
            harness, "_cycle_pair_within", lambda out, *args: scans.append(out) or scan(out, *args)
        )
        heads = []
        spy = row._replace(run=lambda x, rs, acc: heads.append(list(rs)) or row.run(x, rs, acc))
        count = collections.Counter()
        for n in range(2, n_hi + 1):
            choices = _outmap_choices(n, 1 if dmax else 0, dmax or n - 1)
            for b in _sweep(choices, 0, math.prod(map(len, choices))):
                b.again = None
                acc = harness._Accum([spy])
                scans.clear()
                harness._run_checks(b, acc)
                assert acc.failed == {} and acc.violations == []
                if len(heads) == len(searches) == count["walked"]:
                    continue  # settled by the compare
                count["walked"] += 1
                (out, limit, (cycles, least)), rs = searches[-1], heads[-1]
                tail_p = b.degs.count(1)
                assert out == (0, *b.tail) and limit == tail_p + 1
                want = least_overlap(out)
                fires = want is not None and want <= limit
                assert (least <= limit) == fires, out
                limits = {r: tail_p + (b.head.deg0[r] == 1) + 1 for r in rs}
                if not fires:
                    assert least == (n + 1 if want is None else want)
                    assert sorted(cycles) == sorted(cycle_masks(out))
                    long = [b.out(r) for r in rs if b.girth[r] is None or b.girth[r] > limits[r]]
                    assert scans == long
                    continue
                count["settled"] += 1
                assert scans == []
                for r in rs:
                    assert least_overlap(b.out(r)) <= limits[r], b.out(r)
        assert count == {"walked": walked, "settled": settled}

    def test_a_tail_girth_too_high_reaches_the_compare(self, monkeypatch):
        # Vertex 1's tables (s = 1) read two too high, so each block's
        # g(D - 0), and the table built from it, read too high too.  The
        # compare reads that g(D - 0) first and walks the blocks it leaves
        # unsettled; the heads whose table entry is then beyond their bound
        # fail.  The counts were taken when every block built its table
        # before the compare.  Indices from 10 skip block 0, whose search
        # again would raise.
        table = harness._girth_table
        monkeypatch.setattr(
            harness,
            "_girth_table",
            lambda inn, heads, g_rest, s: [
                g if g is None or s != 1 else g + 2 for g in table(inn, heads, g_rest, s)
            ],
        )
        res = _run_shard(SuiteConfig(5, 5, "outmaps", ("deg2-girth",)), 5, 10, 100_000)
        assert res["checked"] == {"deg2-girth": 99_990}
        assert res["passed"] == {"deg2-girth": 95_448}
        messages = collections.Counter(v["message"] for v in res["violations"])
        assert messages == {
            "girth 4 exceeds ceil((n + p) / 2) = 3": 3762,
            "girth 5 exceeds ceil((n + p) / 2) = 4": 720,
            "girth 6 exceeds ceil((n + p) / 2) = 5": 60,
        }

    def test_unsettled_heads_reach_the_pair_scan(self, monkeypatch):
        # A scan that never finds a pair, in D - 0 or through vertex 0,
        # disagrees with the oracle on every head whose girth exceeds its
        # limit.
        monkeypatch.setattr(harness, "_tail_search", no_tail_pair)
        monkeypatch.setattr(harness, "_cycle_pair_within", lambda *args: False)
        res = _run_shard(SuiteConfig(5, 5, "outmaps", ("two-cycles",)), 5, 0, 100_000)
        violations = res["violations"]
        assert len(violations) == 8316
        assert {v["message"] for v in violations} == {
            "fast pair scan disagrees with the exhaustive oracle"
        }
        assert hashlib.sha256(json.dumps(violations).encode()).hexdigest() == (
            "f5d16216f71668518634ac7ed5f1724fd9f87abf0ea7586fda609ede115577f3"
        )

    def test_a_table_too_high_fails_the_heads_beyond_their_bound(self, monkeypatch):
        # Only block tables (s = 0) read one too high, so the tables of
        # vertices 1.., and each block's g(D - 0), stay right.  Indices from
        # 10 skip block 0, whose search again would raise.  The sweep counts
        # a block whose g(D - 0) is within the least bound without building
        # it; every block it builds checks each row against the planted
        # table alone, so each of its heads beyond a bound there fails.
        table = harness._girth_table
        monkeypatch.setattr(
            harness,
            "_girth_table",
            lambda inn, heads, g_rest, s: [
                g if g is None or s else g + 1 for g in table(inn, heads, g_rest, s)
            ],
        )
        cfg = SuiteConfig(5, 5, "outmaps", ("deg2-girth", "two-cycles"))
        res = _run_shard(cfg, 5, 10, 100_000)
        assert res["checked"] == {"deg2-girth": 99_990, "two-cycles": 99_990}
        assert res["passed"] == {"deg2-girth": 99_306, "two-cycles": 99_990}
        messages = collections.Counter(v["message"] for v in res["violations"])
        assert messages == {
            "girth 4 exceeds ceil((n + p) / 2) = 3": 564,
            "girth 5 exceeds ceil((n + p) / 2) = 4": 96,
            "girth 6 exceeds ceil((n + p) / 2) = 5": 24,
        }

    def test_scan_work_is_pinned(self, monkeypatch):
        # The compare drops only heads the loop passed without a scan.  Each
        # walked block (2,004, and 4 settled ones searched again) searches
        # D - 0 once; a pair there within the least limit settles 910 of
        # the 2,004, and 5,106 scans go.  Before that settle the counts were
        # 8,398 scans and 1,644 listings of D - 0's cycles, one per block
        # whose first scan needed them.
        calls = collections.Counter()
        for name in ("_cycle_pair_within", "_tail_search"):
            fn = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args)
            )
        report = run_suite(SuiteConfig(1, 5, "outmaps", ("two-cycles", "deg2-girth")))
        assert report.checked == report.passed and not report.violations
        assert calls == {"_cycle_pair_within": 3292, "_tail_search": 2008}

    @staticmethod
    def block_tables(monkeypatch):
        """The calls of harness._girth_table with s = 0 (block tables) the
        returned list gathers, one entry each."""
        table = harness._girth_table
        calls = []
        monkeypatch.setattr(
            harness, "_girth_table", lambda *a: (a[3] == 0 and calls.append(a)) or table(*a)
        )
        return calls

    def test_only_unsettled_blocks_build_their_tables(self, monkeypatch):
        # Of the 10,226 blocks of outmaps n <= 5, 3,435 have g(D - 0) beyond
        # two-cycles' limit (or no cycle in D - 0) and build their tables.
        calls = self.block_tables(monkeypatch)
        report = run_suite(SuiteConfig(1, 5, "outmaps", ("two-cycles", "deg2-girth")))
        assert report.checked == report.passed and not report.violations
        assert len(calls) == 3435

    @staticmethod
    def tables_per_block(monkeypatch):
        """(per_block, calls): for each harness._Block built from here on,
        how many block tables (s = 0) its constructor built, and every
        block table built, as block_tables gathers them."""
        calls = TestBlockCompare.block_tables(monkeypatch)
        per_block = []

        class Counted(harness._Block):
            __slots__ = ()

            def __init__(self, *args):
                before = len(calls)
                super().__init__(*args)
                per_block.append(len(calls) - before)

        monkeypatch.setattr(harness, "_Block", Counted)
        return per_block, calls

    @pytest.mark.parametrize("row", ["two-cycles", "deg2-girth"])
    def test_each_block_builds_its_table_as_it_is_built(self, monkeypatch, row):
        # eq1-identity has no bound, so the sweep builds each of labeled n <=
        # 4's 353 blocks, and each builds one table there, whether the
        # out-degree row then settles it from the table or walks it.
        per_block, calls = self.tables_per_block(monkeypatch)
        report = run_suite(SuiteConfig(1, 4, "labeled", ("eq1-identity", row)))
        assert report.checked == report.passed == {"eq1-identity": 2429, row: 1324}
        assert not report.violations and not report.findings
        assert per_block == [1] * 353 and len(calls) == 353

    def test_a_check_that_reads_no_girth_still_builds_each_table(self, monkeypatch):
        # eq1-identity reads tail terms only, yet each of the 10,309 blocks
        # of this labeled n = 5 shard builds its table as it is built.
        per_block, calls = self.tables_per_block(monkeypatch)
        res = _run_shard(SuiteConfig(5, 5, "labeled", ("eq1-identity",)), 5, 100_000, 300_000)
        assert res["checked"] == res["passed"] == {"eq1-identity": 154_635}
        assert per_block == [1] * 10_309 and len(calls) == 10_309


def built_blocks(monkeypatch):
    """The base of each harness._Block built from here on, in order."""
    built = []

    class Counted(harness._Block):
        __slots__ = ()

        def __init__(self, head, base, *rest):
            built.append(base)
            super().__init__(head, base, *rest)

    monkeypatch.setattr(harness, "_Block", Counted)
    return built


def built_through_run_checks(cfg, n, lo, hi):
    """_run_shard's result for [lo, hi) at n the way it was before the sweep
    settled blocks: every block built and passed through _run_checks."""
    acc = harness._Accum([c for c in harness._CHECKS if c.name in cfg.checks])
    for b in _sweep(_POPULATIONS[cfg.generator].sweep(cfg, n), lo, hi):
        harness._run_checks(b, acc)
    return acc.result()


OUT_DEGREE_ROWS = ("deg2-girth", "two-cycles")


class TestSettledBeforeBuilt:
    """With only rows that carry a bound selected, the sweep counts a block
    that holds no instance searched again, without building it, when its
    g(D - 0) is within the least bound at its p' or its tail has an
    out-degree above 2, so that no row selects any of its instances.  That
    holds for whole blocks and for blocks a shard's edge cuts alike; the
    blocks holding the instance searched again are built."""

    @pytest.mark.parametrize(
        "cfg, built, every",
        [
            (SuiteConfig(1, 5, "outmaps", OUT_DEGREE_ROWS), 3438, 10_231),
            # deg0 = 3 heads and out-degree-3 tails, which no deg2 row selects.
            (SuiteConfig(1, 5, "outmaps", OUT_DEGREE_ROWS, dmax=3), 3442, 38_774),
            # One out-degree row: the least bound is that row's own.
            (SuiteConfig(1, 5, "outmaps", ("deg2-girth",), dmax=3), 1695, 38_774),
            (SuiteConfig(1, 5, "outmaps", ("two-cycles",), dmax=3), 3442, 38_774),
            (SuiteConfig(1, 4, "labeled", OUT_DEGREE_ROWS), 105, 354),
        ],
        ids=[
            "outmaps-1-2", "outmaps-1-3", "outmaps-1-3-deg2-girth", "outmaps-1-3-two-cycles",
            "labeled",
        ],
    )
    def test_shards_equal_building_every_block(self, monkeypatch, cfg, built, every):
        bases = built_blocks(monkeypatch)
        count = collections.Counter()
        pop = _POPULATIONS[cfg.generator]
        for n in range(cfg.n_lo, cfg.n_hi + 1):
            size, r0 = pop.size(cfg, n), len(pop.sweep(cfg, n)[0])
            # Three shards of uneven widths, cut inside blocks where n > 2.
            cuts = sorted({0, size // 5 + 1, size // 2 + 3, size})
            assert n <= 2 or any(c % r0 for c in cuts[1:-1])
            for lo, hi in zip(cuts, cuts[1:]):
                bases.clear()
                res = _run_shard(cfg, n, lo, hi)
                count["built"] += len(bases)
                bases.clear()
                assert res == built_through_run_checks(cfg, n, lo, hi), (n, lo, hi)
                count["every"] += len(bases)
        assert count == {"built": built, "every": every}

    def test_again_blocks_are_built_and_edge_blocks_counted(self, monkeypatch):
        searches = []
        search = harness._girth_masks
        monkeypatch.setattr(
            harness, "_girth_masks", lambda *args: searches.append(args) or search(*args)
        )
        report = run_suite(SuiteConfig(1, 5, "outmaps", OUT_DEGREE_ROWS))
        assert report.checked == report.passed and not report.violations
        assert len(searches) == 4  # index 0 at n = 2..5

        bases = built_blocks(monkeypatch)
        cfg = SuiteConfig(5, 5, "outmaps", OUT_DEGREE_ROWS)
        choices = _outmap_choices(5, 1, 2)
        least = harness._least_bounds([c for c in harness._CHECKS if c.bound is not None], 5)
        # The blocks g(D - 0) settles, at the bases of outmaps 1:2 n = 5's
        # 10,000 blocks of 10.
        settles = {
            b.base for b in _sweep(choices, 0, 100_000)
            if (g0 := girth_minus_0(b)) is not None and g0 <= least[b.degs.count(1)]
        }
        assert len(settles) == 6669

        # Every 13th index searched again: each block holding a multiple of
        # 13 is built and searched once, the 5,124 of them g(D - 0) settles
        # too.
        monkeypatch.setattr(harness, "_CROSS_CHECK_EVERY", 13)
        holding = [base for base in range(0, 100_000, 10) if -base % 13 < 10]
        searches.clear()
        bases.clear()
        res = _run_shard(cfg, 5, 0, 100_000)
        assert res["checked"] == res["passed"] == {"deg2-girth": 100_000, "two-cycles": 100_000}
        assert len(searches) == len(holding) == 7693
        assert set(holding) <= set(bases)
        assert len(set(holding) & settles) == 5124
        monkeypatch.undo()

        # A shard boundary through a block g(D - 0) settles builds nothing
        # of it, and the shard's result is the one building every block.
        base = min(settles - {0})
        bases = built_blocks(monkeypatch)
        assert _run_shard(cfg, 5, base, base + 10)["checked"] == {"deg2-girth": 10, "two-cycles": 10}
        assert bases == []
        for lo, hi in ((base + 3, base + 10), (base - 10, base + 4), (base + 3, base + 17)):
            bases.clear()
            res = _run_shard(cfg, 5, lo, hi)
            assert base not in bases, (lo, hi)
            assert res == built_through_run_checks(cfg, 5, lo, hi)

    def test_again_blocks_with_an_out_degree_3_tail_are_built(self, monkeypatch):
        # Outmaps 1:3 n = 5 has blocks of 14 choices, so with every 13th
        # index searched again each of its 38,416 blocks holds one.  Each is
        # built and searched once, also the 28,416 whose tail has an
        # out-degree-3 vertex, of which no out-degree row selects anything.
        monkeypatch.setattr(harness, "_CROSS_CHECK_EVERY", 13)
        searches = []
        search = harness._girth_masks
        monkeypatch.setattr(
            harness, "_girth_masks", lambda *args: searches.append(args[1]) or search(*args)
        )
        cfg = SuiteConfig(5, 5, "outmaps", OUT_DEGREE_ROWS, dmax=3)
        choices = _outmap_choices(5, 1, 3)
        size = math.prod(map(len, choices))
        blocks = [(b.base, max(b.degs)) for b in _sweep(choices, 0, size)]
        assert len(blocks) == len(searches) == 38_416
        searches.clear()
        bases = built_blocks(monkeypatch)
        res = _run_shard(cfg, 5, 0, size)
        assert bases == [base for base, _ in blocks]
        assert len(searches) == len(set(searches)) == len(blocks)
        assert sum(top > 2 for _, top in blocks) == 28_416
        bases.clear()
        assert res == built_through_run_checks(cfg, 5, 0, size)

    def test_edge_blocks_the_rows_select_nothing_of_are_counted(self, monkeypatch):
        # Outmaps 1:3 n <= 5 cut as run_suite cuts it at --jobs 3, 12 shards
        # per n.  An edge block whose kept choices all have out-degree 3,
        # under a tail of out-degree at most 2, holds nothing the rows
        # select, so it is counted, and each block built builds its table.
        cfg = SuiteConfig(1, 5, "outmaps", OUT_DEGREE_ROWS, dmax=3)
        whole = run_suite(cfg).checked
        bases = built_blocks(monkeypatch)
        tables = TestBlockCompare.block_tables(monkeypatch)
        pop = _POPULATIONS[cfg.generator]
        checked = collections.Counter()
        for n in range(cfg.n_lo, cfg.n_hi + 1):
            size = pop.size(cfg, n)
            step = -(-size // min(12, size)) if size else 1
            for lo in range(0, size, step):
                checked.update(_run_shard(cfg, n, lo, min(lo + step, size))["checked"])
        assert checked == whole
        assert len(bases) == len(tables) == 3449

    def test_whole_blocks_share_one_selection_per_sweep(self, monkeypatch):
        # One shard of outmaps 1:2 n = 5: the sweep works out how many of
        # the shared range the rows select once for each largest tail
        # out-degree 0..4, and _run_checks once for each of the 3,331
        # blocks built.  The 6,669 blocks counted make no call.
        calls = []
        select = harness._deg2_choices
        monkeypatch.setattr(harness, "_deg2_choices", lambda *a: calls.append(a) or select(*a))
        bases = built_blocks(monkeypatch)
        res = _run_shard(SuiteConfig(5, 5, "outmaps", OUT_DEGREE_ROWS), 5, 0, 100_000)
        assert res["checked"] == res["passed"] == {"deg2-girth": 100_000, "two-cycles": 100_000}
        assert len(bases) == 3331
        assert len(calls) == 5 + 3331


class TestTwoPhiFailures:
    """A two-phi producer that goes wrong is reported at its index, with
    the message and certificate JSON pinned here, on all 2,401 sink-free
    labeled digraphs at n = 4."""

    @staticmethod
    def shard(monkeypatch, wrong):
        """The n = 4 shard's violations with every terminal cycle replaced
        by wrong(cycle)."""
        term = peeling._terminal_shortest_cycle
        monkeypatch.setattr(peeling, "_terminal_shortest_cycle", lambda state: wrong(term(state)))
        res = _run_shard(SuiteConfig(4, 4, "labeled", ("two-phi",)), 4, 0, 1 << 12)
        assert res["checked"] == {"two-phi": 2401}
        return res["violations"]

    @staticmethod
    def digest(violations):
        return hashlib.sha256(json.dumps(violations).encode()).hexdigest()

    def test_a_cycle_lacking_an_arc_is_an_invalid_certificate(self, monkeypatch):
        # Reversed, a cycle of length >= 3 lacks an arc unless the instance
        # has every arc both ways.
        violations = self.shard(monkeypatch, lambda cyc: cyc[::-1])
        assert len(violations) == 222
        assert violations[0] == {
            "check": "two-phi",
            "n": 4,
            "index": 593,
            "message": "peeling produced an invalid certificate",
            "instance": "digraph 4 4\n0 1\n1 2\n2 0\n3 0\n",
            "certificate": {"kind": "two-phi", "vertices": [2, 1, 0], "bound": {"num": 4, "den": 1}},
        }
        assert self.digest(violations) == (
            "d120a77c0d053e9882428ffd8d96e90c88de2ebc09ad6c3c0d3bbc03138ea7aa"
        )

    def test_a_cycle_beyond_two_phi_is_a_bound_violation(self, monkeypatch):
        # Walked twice, a cycle revisits its vertices, and beyond 2 phi the
        # producer's own check raises first.
        violations = self.shard(monkeypatch, lambda cyc: cyc * 2)
        assert len(violations) == 2401
        assert violations[2] == {
            "check": "two-phi",
            "n": 4,
            "index": 587,
            "message": "BoundViolation: peeled cycle length 4 exceeds 2 phi = 11/3 on:\n"
            "digraph 4 5\n0 1\n0 2\n1 0\n2 0\n3 0\n",
            "instance": "digraph 4 5\n0 1\n0 2\n1 0\n2 0\n3 0\n",
            "certificate": None,
        }
        bound = [v for v in violations if v["message"].startswith("BoundViolation: peeled cycle length")]
        assert len(bound) == 2350
        assert self.digest(violations) == (
            "8a99506d6fdd86a3e04dd6d8fe6b82df8b269d9425a970ea2e275361dfc79021"
        )

    def test_report_does_not_depend_on_the_worker_count(self, monkeypatch):
        # Violations from several shards, each shard's in index order, are
        # sorted by (check, n, index) in the report whatever the workers.
        term = peeling._terminal_shortest_cycle
        monkeypatch.setattr(peeling, "_terminal_shortest_cycle", lambda state: term(state)[::-1])
        docs = []
        for workers in (1, 3):
            cfg = SuiteConfig(3, 4, "labeled", ("two-phi", "chc"), workers=workers)
            d = run_suite(cfg).to_json_dict()
            d["config"].pop("workers")
            docs.append(json.dumps(d, sort_keys=True))
        assert docs[0] == docs[1]
        violations = json.loads(docs[0])["violations"]
        assert len(violations) == 224
        assert [(v["n"], v["index"]) for v in violations[:3]] == [(3, 25), (3, 38), (4, 593)]
        assert hashlib.sha256(docs[0].encode()).hexdigest() == (
            "701ef1f58aca36efa030c7fec92f5c26dc78f588669628eb12e3f2984116bcc2"
        )


def raised_by_4(table):
    """_girth_table with every cycle's girth raised by 4."""
    return lambda *args: [None if g is None else g + 4 for g in table(*args)]


def no_tail_pair(out, limit):
    """_tail_search planted to find no cycle of D - 0, so no pair either."""
    return [], len(out) + 1


def planted(exc):
    """A function that raises exc("planted") on every call."""

    def wrong(*args):
        raise exc("planted")

    return wrong


class TestDigraphFailures:
    """The failure records of the digraph checks that no correct run
    makes, each from a planted fault, with the counts and digests of the
    records pinned here."""

    @staticmethod
    def digest(records):
        return hashlib.sha256(json.dumps(records).encode()).hexdigest()

    def test_eq1_sides_that_differ(self, monkeypatch):
        terms = harness.tail_terms

        def wrong(*args):
            t = terms(*args)
            return t._replace(rhs=(t.rhs[0] + 1, *t.rhs[1:]))

        monkeypatch.setattr(harness, "tail_terms", wrong)
        res = _run_shard(SuiteConfig(3, 3, "labeled", ("eq1-identity",)), 3, 0, 64)
        assert res["checked"] == {"eq1-identity": 27}
        assert res["passed"] == {}
        violations = res["violations"]
        assert len(violations) == 27
        assert violations[0] == {
            "check": "eq1-identity",
            "n": 3,
            "index": 21,
            "message": "removability right sides sum to 10/6, phi is 9/6",
            "instance": "digraph 3 3\n0 1\n1 0\n2 0\n",
            "certificate": None,
        }
        assert self.digest(violations) == (
            "9e1d4a16cdeea98ea0d0cb459b8c84baa4a12be4becdd106a4e0710c47842e55"
        )

    def test_girths_above_their_bounds(self, monkeypatch):
        # No block of [8, 4096) holds a multiple of _CROSS_CHECK_EVERY, so
        # no girth is searched again and the raised table stands.
        monkeypatch.setattr(harness, "_girth_table", raised_by_4(harness._girth_table))
        res = _run_shard(SuiteConfig(4, 4, "labeled", DIGRAPH_CHECKS), 4, 8, 4096)
        assert res["passed"] == {"eq1-identity": 2401, "two-psi-strict": 262, "two-cycles": 1296}
        kinds = collections.Counter(v["check"] for v in res["violations"])
        assert kinds == {"two-phi": 2401, "two-psi-strict": 2139, "deg2-girth": 1296}
        assert [f["check"] for f in res["findings"]] == ["chc"] * 2401
        at_585 = [(v["check"], v["message"]) for v in res["violations"] + res["findings"] if v["index"] == 585]
        assert at_585 == [
            ("two-phi", "girth 6 exceeds 2 phi = 48/12"),
            ("deg2-girth", "girth 6 exceeds ceil((n + p) / 2) = 4"),
            ("chc", "girth 6 exceeds ceil(n / min out-degree) = 4"),
        ]
        assert self.digest(res["violations"]) == (
            "06eea036d55251fdc85fe3400655d2ddef7033a69a2f7c3fde83d54abb9b90ba"
        )
        assert self.digest(res["findings"]) == (
            "3ae44e6f59f77e4b41fd3e8bf3c39487dca3323f866de96eb0d50539934aa17e"
        )

    def test_cycle_pairs_that_all_meet_too_much(self, monkeypatch):
        # The fast scan and the oracle agree that no pair qualifies.  Index
        # 0, the only one cross-checked, lies before the shard.
        monkeypatch.setattr(harness, "_girth_table", raised_by_4(harness._girth_table))
        monkeypatch.setattr(harness, "_tail_search", no_tail_pair)
        monkeypatch.setattr(harness, "_cycle_pair_within", lambda *args: False)
        monkeypatch.setattr(harness, "two_cycles_min_intersection", planted(TheoremViolation))
        res = _run_shard(SuiteConfig(4, 4, "outmaps", ("two-cycles",)), 4, 6, 1296)
        assert res["checked"] == {"two-cycles": 1290}
        assert res["passed"] == {}
        violations = res["violations"]
        assert len(violations) == 1290
        assert all(v["message"].startswith("every cycle pair meets in more than p + 1 = ") for v in violations)
        assert violations[0]["message"] == "every cycle pair meets in more than p + 1 = 5 vertices"
        assert self.digest(violations) == (
            "8684c64f18aac4a10f3b418e39b61e03dfef7712c8e7bc938445493f4af3cbb9"
        )

    def test_a_run_from_scratch_that_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "short_cycle_via_peeling", planted(LemmaViolation))
        res = _run_shard(SuiteConfig(3, 3, "outmaps", ("two-phi",)), 3, 0, 8)
        assert res["checked"] == {"two-phi": 8}
        assert res["passed"] == {"two-phi": 7}
        assert res["violations"] == [
            {
                "check": "two-phi",
                "n": 3,
                "index": 0,
                "message": "block peeling and a run from scratch disagree",
                "instance": "digraph 3 3\n0 1\n1 0\n2 0\n",
                "certificate": {"kind": "two-phi", "vertices": [0, 1], "bound": {"num": 3, "den": 1}},
            }
        ]

    def test_hill_climb_ratio_that_reaches_2(self, monkeypatch):
        monkeypatch.setattr(harness, "_girth_masks", lambda n, out, inn: (2 * n, 0))
        with pytest.raises(TheoremViolation, match=r"^girth / psi ratio 6 reaches 2 on:\ndigraph 5 15\n"):
            extremal_ratio_search(5, 10, seed=0)


def grown_then_raised(find):
    """find_rainbow_cycle that grows its greedy subgraphs, then raises."""

    def wrong(inst, collect=None):
        find(inst, collect=collect)
        raise ClaimViolation("planted")

    return wrong


def doubled_steps(find):
    """find_rainbow_cycle with every step taken twice, so colors repeat."""

    def wrong(inst, collect=None):
        return certificates.RainbowCycleCertificate(find(inst, collect=collect).steps * 2)

    return wrong


def raising(_):
    """An oracle that raises ClaimViolation on every call."""

    def wrong(*args):
        raise ClaimViolation("planted")

    return wrong


class TestRainbowFailures:
    """A rainbow construction or oracle that goes wrong is reported at its
    index, on 20 seeded instances at n = 7: the first record is pinned
    whole, with the passed counts and the count and digest of all records."""

    INSTANCE_0 = "rainbow 7 7\n1-6,3-6\n0-3,0-6\n1-2,1-5\n1-2\n1-3,1-4\n2-3\n0-4,3-5\n"
    CHECKED = {"rainbow-bound": 20, "rd-claim": 20}

    @pytest.mark.parametrize(
        "name, wrong, passed, count, first, digest",
        [
            (
                # No certificate; the subgraphs grown before the raise are
                # still checked, and pass.
                "find_rainbow_cycle", grown_then_raised, {"rd-claim": 20}, 20,
                {
                    "check": "rainbow-bound", "n": 7, "index": 0,
                    "message": "ClaimViolation: planted",
                    "instance": INSTANCE_0, "certificate": None,
                },
                "8aeed4d234c29856ad2711824737d10d92d6c421a79a55898d1ef4548080f5ff",
            ),
            (
                "find_rainbow_cycle", doubled_steps, {"rd-claim": 20}, 20,
                {
                    "check": "rainbow-bound", "n": 7, "index": 0,
                    "message": "constructed cycle invalid or longer than ceil((n + p) / 2)",
                    "instance": INSTANCE_0,
                    "certificate": {
                        "kind": "rainbow",
                        "steps": [
                            {"edge": [1, 2], "color": 2}, {"edge": [1, 2], "color": 3},
                            {"edge": [1, 2], "color": 2}, {"edge": [1, 2], "color": 3},
                        ],
                        "length": 4,
                    },
                },
                "dfd1e1eedbbc6db3a14147dc5692befe3c95647ed0e340ef0319450f5c81bda5",
            ),
            (
                "shortest_rainbow_cycle_exact",
                lambda exact: lambda inst: (exact(inst)[0] + 1, None),
                {"rd-claim": 20}, 20,
                {
                    "check": "rainbow-bound", "n": 7, "index": 0,
                    "message": "independent search says the shortest rainbow cycle has "
                    "length 3, yet one of length 2 validated",
                    "instance": INSTANCE_0,
                    "certificate": {
                        "kind": "rainbow",
                        "steps": [{"edge": [1, 2], "color": 2}, {"edge": [1, 2], "color": 3}],
                        "length": 2,
                    },
                },
                "e32dff640172c8f82710d7f47fdbc41251c5222f82ac580f3121dcb1b97c554a",
            ),
            (
                # Only instances with a greedy subgraph reach the oracle.
                "all_pairs_rainbow_distances", raising, {**CHECKED, "rd-claim": 11}, 9,
                {
                    "check": "rd-claim", "n": 7, "index": 2,
                    "message": "ClaimViolation: planted",
                    "instance": "rainbow 7 7\n0-4,2-4\n0-2\n0-6\n1-2\n2-5\n2-6\n1-5\n",
                    "certificate": None,
                },
                "6d97cb377d310e153a5fedda0873068c40bf103d618697c4fdd3bf2c69a6ffae",
            ),
            (
                # Two pairs at the extremal distance; at odd t that passes.
                "all_pairs_rainbow_distances",
                lambda _: lambda h: dict.fromkeys([(0, 1), (0, 2)], h.t // 2 + 1),
                {**CHECKED, "rd-claim": 13}, 7,
                {
                    "check": "rd-claim", "n": 7, "index": 3,
                    "message": "2 pairs sit at the extremal distance 1; at most one may",
                    "instance": "rainbow 7 7\n2-4\n0-1,5-6\n0-4,0-6\n2-6,3-5\n0-2\n4-6\n"
                    "1-2,1-3\n",
                    "certificate": None,
                },
                "f8a27b6363f4fce253f56b78b84c204302f29cd5b28a2e08e5766093e510d177",
            ),
        ],
        ids=[
            "construction-raised",
            "invalid-certificate",
            "oracle-says-longer",
            "distances-raised",
            "two-extremal-pairs",
        ],
    )
    def test_pinned(self, monkeypatch, name, wrong, passed, count, first, digest):
        monkeypatch.setattr(harness, name, wrong(getattr(harness, name)))
        res = _run_shard(SuiteConfig(7, 7, "rainbow", RAINBOW_CHECKS, count=20), 7, 0, 20)
        assert res["checked"] == self.CHECKED
        assert res["passed"] == passed
        violations = res["violations"]
        assert len(violations) == count
        assert violations[0] == first
        assert hashlib.sha256(json.dumps(violations).encode()).hexdigest() == digest

    def test_construction_that_fails_its_own_validation(self, monkeypatch):
        # The construction re-validates its cycle before returning it; a
        # refusal raises at every instance, and no certificate is kept.
        monkeypatch.setattr(rainbow, "validate_rainbow_cycle", lambda inst, cert: False)
        res = _run_shard(SuiteConfig(7, 7, "rainbow", RAINBOW_CHECKS, count=20), 7, 0, 20)
        assert res["checked"] == self.CHECKED
        assert res["passed"] == {"rd-claim": 20}
        violations = res["violations"]
        assert len(violations) == 20
        assert {v["check"] for v in violations} == {"rainbow-bound"}
        assert violations[0] == {
            "check": "rainbow-bound", "n": 7, "index": 0,
            "message": "BoundViolation: constructed cycle failed validation on:\n"
            + self.INSTANCE_0,
            "instance": self.INSTANCE_0, "certificate": None,
        }
        digest = "0f83ed0c692a083e937e55130a6578f5e8daa2455b10319d0681a3f2cfc7b61d"
        assert hashlib.sha256(json.dumps(violations).encode()).hexdigest() == digest


AGAIN_CASES = cases("labeled", (3, 4, 5)) + cases("outmaps", (4, 5))


class TestAgain:
    """Each block's cross-checked choice, against the first kept choice at
    or after the first multiple of _CROSS_CHECK_EVERY in the block, read
    from the block's kept choices."""

    EVERY = 7  # several multiples per block at n >= 4, so many blocks hold one

    @pytest.mark.parametrize("kind, n", AGAIN_CASES)
    def test_matches_reference(self, monkeypatch, kind, n):
        monkeypatch.setattr(harness, "_CROSS_CHECK_EVERY", self.EVERY)
        choices = _outmap_choices(n, 0, n - 1) if kind == "labeled" else _outmap_choices(n, 1, 2)
        size, r0 = math.prod(map(len, choices)), len(choices[0])
        rng = random.Random(n)
        windows = [(0, min(size, 5000))]
        for _ in range(30):
            lo = rng.randrange(size)
            windows.append((lo, min(size, lo + rng.randrange(1, 400))))
        held = 0
        cfg = case_config(kind, n)
        for lo, hi in windows:
            for b in _POPULATIONS[cfg.generator].units(cfg, n, lo, hi):
                multiples = [i for i in range(b.base, b.base + r0) if i % self.EVERY == 0]
                want = None
                if multiples:
                    want = next((r for r in b.kept if b.base + r >= multiples[0]), None)
                assert b.again == want, (b.base, list(b.kept))
                held += want is not None
        assert held > 20


def never_settles(c):
    """Check row c, given a bound that no girth meets if it has one: an
    out-degree-2 row that settles no block."""
    return c if c.bound is None else c._replace(bound=lambda n, p: 0)


def fail_on_odd(x, rs, acc):
    return ((r, "odd index") for r in rs if (x.base + r) % 2)


class TestShardTallies:
    """Shard results with one table check patched to fail on odd indices.

    The digests (sha256 of the sorted-key JSON of the _run_shard dict)
    were taken before checks ran over blocks, with the same patch
    written for the per-instance check signature.  A check that passes
    nothing has no "passed" entry.
    """

    @pytest.mark.parametrize(
        "check, cfg, n, lo, hi, checked, passed, failures, digest",
        [
            (
                "chc",
                SuiteConfig(3, 3, "labeled", ("chc", "two-psi-strict", "two-phi")),
                3, 0, 64,
                {"chc": 27, "two-psi-strict": 27, "two-phi": 27},
                {"chc": 9, "two-psi-strict": 27, "two-phi": 27},
                18,
                "d56b4dc3fda8d2ec710e4fd71b8bde6452fc44d92d0978666e73bd9c24f0688a",
            ),
            (
                "chc",
                SuiteConfig(3, 3, "labeled", ("chc", "two-phi")),
                3, 21, 22,
                {"chc": 1, "two-phi": 1},
                {"two-phi": 1},
                1,
                "2fed6a7a3ad5e311408b814c801f50e2da6db796d70e907df92dfbb07e1a4bd5",
            ),
            (
                "deg2-girth",
                SuiteConfig(4, 4, "outmaps", ("deg2-girth", "two-cycles", "eq1-identity"), dmax=3),
                4, 5, 2390,
                {"eq1-identity": 2385, "deg2-girth": 1291, "two-cycles": 1291},
                {"eq1-identity": 2385, "deg2-girth": 645, "two-cycles": 1291},
                646,
                "96b5d60b2de3e164c2147bd4eb81828c47602a4df0f190fb3d7b095be36645d9",
            ),
            (
                "two-cycles",
                SuiteConfig(1, 4, "labeled", ("two-cycles", "chc")),
                4, 100, 4000,
                {"chc": 2324, "two-cycles": 1296},
                {"chc": 2324, "two-cycles": 648},
                648,
                "13442501b631d38dab90769c4415ce2159deafa2dec6827cbfe01a8fccacb27d",
            ),
            (
                "rd-claim",
                SuiteConfig(4, 4, "rainbow", ("rainbow-bound", "rd-claim"), count=10),
                4, 0, 10,
                {"rainbow-bound": 10, "rd-claim": 10},
                {"rainbow-bound": 10, "rd-claim": 5},
                5,
                "81b00a8db522dae56407fc72bcbedce9e72576b308872bfa975fc11b025eab86",
            ),
        ],
        ids=["labeled-n3", "nothing-passed", "deg2-only", "labeled-n4", "rainbow"],
    )
    def test_pinned(self, monkeypatch, check, cfg, n, lo, hi, checked, passed, failures, digest):
        # The patched check settles no block: it sees every choice.
        table = tuple(
            never_settles(c)._replace(run=fail_on_odd) if c.name == check else c
            for c in harness._CHECKS
        )
        monkeypatch.setattr(harness, "_CHECKS", table)
        res = _run_shard(cfg, n, lo, hi)
        assert res["checked"] == checked
        assert res["passed"] == passed
        fails = [rec["index"] for rec in res["violations"] + res["findings"] if rec["check"] == check]
        assert len(fails) == failures and all(i % 2 for i in fails)
        text = json.dumps(res, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def edit_every_container(x):
    """Add an entry to every dict and list in x, innermost first; the
    number of containers edited."""
    if isinstance(x, dict):
        edited = sum(edit_every_container(v) for v in x.values())
        x["edited"] = True
    elif isinstance(x, list):
        edited = sum(edit_every_container(v) for v in x)
        x.append("edited")
    else:
        return 0
    return edited + 1


class TestReportDocument:
    """A report's JSON document shares no dict or list with the report."""

    def test_editing_the_document_leaves_the_report(self, monkeypatch):
        def fail_on_odd_with_certificate(x, rs, acc):
            return (
                (r, ("odd index", {"vertices": [r], "bound": {"num": 1, "den": 1}}))
                for r in rs
                if (x.base + r) % 2
            )

        table = tuple(
            never_settles(c)._replace(run=fail_on_odd_with_certificate) if c.name == "chc" else c
            for c in harness._CHECKS
        )
        monkeypatch.setattr(harness, "_CHECKS", table)
        report = run_suite(SuiteConfig(3, 3, "labeled", ("chc", "two-psi-strict", "two-phi")))
        before = json.dumps(report.to_json_dict(), sort_keys=True)
        doc = report.to_json_dict()
        recs = doc["violations"] + doc["findings"]
        assert len(recs) == 18 and all(rec["certificate"]["vertices"] for rec in recs)
        assert set(doc["extremal"]) == {"max_girth_psi_ratio", "tightness"}
        assert doc["extremal"]["tightness"]["witnesses"] and doc["config"]["checks"]
        # The document, config and its checks, checked, passed, the two
        # record lists and extremal; extremal's two entries and the ratio
        # and witnesses in them; per record, itself and its certificate
        # with its vertices and bound.
        assert edit_every_container(doc) == 8 + 4 + 4 * 18
        assert json.dumps(report.to_json_dict(), sort_keys=True) == before

    @pytest.mark.usefixtures("deadline")
    def test_doc_of_leaves_each_reports_workers(self):
        cfg = SuiteConfig(1, 3, "labeled", ("two-phi",))
        reports = [run_suite(cfg._replace(workers=w)) for w in (1, 2, 3)]
        assert len({doc_of(r) for r in reports}) == 1
        assert [r.config["workers"] for r in reports] == [1, 2, 3]


def generated(cfg):
    return run_suite(cfg).instances_generated


def swept(n, dmin=0, dmax=None):
    """Every digraph of a sweep at n, in index order."""
    choices = _outmap_choices(n, dmin, n - 1 if dmax is None else dmax)
    blocks = _sweep(choices, 0, math.prod(map(len, choices)))
    return [b.digraph(r) for b in blocks for r in b.kept]


class TestDerivedChecked:
    """A shard's checked counts are derived from what it generated and
    what the deg2 rows selected, not tallied per row per unit: they must
    equal what rows that record their selections, and walk every one,
    are handed shard by shard."""

    @pytest.mark.parametrize(
        "cfg",
        [
            SuiteConfig(1, 4, "labeled", DIGRAPH_CHECKS),
            SuiteConfig(1, 4, "outmaps", DIGRAPH_CHECKS, dmax=3),
            SuiteConfig(4, 6, "rainbow", RAINBOW_CHECKS, count=50),
        ],
        ids=["labeled", "outmaps-1-3", "rainbow"],
    )
    def test_equals_the_selections_rows_receive(self, monkeypatch, cfg):
        seen = collections.Counter()

        def recording(name):
            def run(x, rs, acc):
                seen[name] += len(rs)
                return iter(())

            return run

        rows = [never_settles(c)._replace(run=recording(c.name)) for c in harness._CHECKS]
        total = collections.Counter()
        pop = _POPULATIONS[cfg.generator]
        for n in range(cfg.n_lo, cfg.n_hi + 1):
            size = pop.size(cfg, n)
            # Shards that cut blocks and rainbow runs at uneven indices.
            step = size // 3 + 1
            for lo in range(0, size, step):
                hi = min(lo + step, size)
                checked = _run_shard(cfg, n, lo, hi)["checked"]
                seen.clear()
                with monkeypatch.context() as m:
                    m.setattr(harness, "_CHECKS", rows)
                    recorded = _run_shard(cfg, n, lo, hi)
                assert checked == recorded["checked"] == recorded["passed"] == +seen, (n, lo)
                total.update(checked)
        assert set(total) == set(cfg.checks)
        if cfg.generator != "rainbow":
            # The deg2 rows see a strict subset of the instances.
            assert total["two-cycles"] == total["deg2-girth"] < total["chc"]

class TestEnumerateDigraphs:
    """The labeled population: its refusals, sizes and order."""

    def test_refuses_what_a_suite_refuses(self):
        with pytest.raises(LimitExceeded):
            SuiteConfig(LABELED_CAP + 1, LABELED_CAP + 1, "labeled", ("chc",)).validate()
        with pytest.raises(LimitExceeded):
            SuiteConfig(OUTMAP_CAP + 1, OUTMAP_CAP + 1, "outmaps", ("chc",)).validate()
        with pytest.raises(GraphInputError):
            SuiteConfig(3, 3, "outmaps", ("chc",), dmin=2, dmax=1).validate()

    @staticmethod
    def labeled(n):
        return generated(SuiteConfig(n, n, "labeled", ("eq1-identity",)))

    def test_counts_sinkless(self):
        # product over vertices of (2^(n-1) - 1) nonempty out-sets
        assert [self.labeled(n) for n in (1, 2, 3, 4)] == [0, 1, 27, 2401]

    def test_yields_digraphs_in_code_order(self):
        # The 27 sink-less digraphs at n = 3; arc (u, v) is code bit
        # u*(n-1) + v - (v > u).
        items = swept(3)
        assert len(items) == 27
        assert all(isinstance(d, Digraph) and first_sink(d) is None for d in items)
        codes = [sum(1 << (2 * u + v - (v > u)) for u, v in d.arcs) for d in items]
        assert codes == sorted(set(codes))
        assert items[0] == Digraph(3, [(0, 1), (1, 0), (2, 0)])
        assert items[-1] == Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])


class TestEnumerateOutmaps:
    """The out-degree population: its sizes and degrees."""

    @staticmethod
    def outmaps(n, dmin, dmax):
        return generated(SuiteConfig(n, n, "outmaps", ("eq1-identity",), dmin=dmin, dmax=dmax))

    def test_degree_one_count(self):
        assert self.outmaps(3, 1, 1) == 8

    def test_degree_one_or_two_counts(self):
        assert self.outmaps(3, 1, 2) == 27
        assert self.outmaps(4, 1, 2) == 1296

    def test_single_vertex_has_no_maps(self):
        assert self.outmaps(1, 1, 2) == 0

    def test_degrees_respected_and_distinct(self):
        seen = set()
        for d in swept(4, dmin=1, dmax=2):
            assert all(1 <= deg <= 2 for deg in d.out_deg)
            seen.add(d.out_masks)
        assert len(seen) == 1296


class TestRandomRainbowInstance:
    def test_all_singletons_when_p_equals_n(self):
        inst = random_rainbow_instance(4, 4, seed=7)
        assert [len(f) for f in inst.families] == [1, 1, 1, 1]
        assert inst.p == 4 and inst.m == 4

    def test_disjoint_uses_distinct_pairs(self):
        inst = random_rainbow_instance(5, 0, seed=3, disjoint=True)
        edges = [e for fam in inst.families for e in fam]
        assert len(edges) == 10 and len(set(edges)) == 10

    def test_mixed_p_shape(self):
        inst = random_rainbow_instance(6, 2, seed=0)
        sizes = sorted(len(f) for f in inst.families)
        assert sizes == [1, 1, 2, 2, 2, 2]
        assert inst.p == 2

    def test_determinism(self):
        a = random_rainbow_instance(7, 3, seed=42)
        b = random_rainbow_instance(7, 3, seed=42)
        assert a == b
        c = random_rainbow_instance(7, 3, seed=43)
        assert a != c  # overwhelmingly likely, fixed here by the frozen seed

    def test_infeasible_shapes(self):
        with pytest.raises(Infeasible):
            random_rainbow_instance(3, 0, seed=1, disjoint=True)
        with pytest.raises(Infeasible):
            random_rainbow_instance(4, 5, seed=1)  # p > n
        with pytest.raises(Infeasible):
            random_rainbow_instance(1, 1, seed=1)  # no loop-free edges
        with pytest.raises(Infeasible):
            random_rainbow_instance(2, 0, seed=1)  # size-2 families need 2 pairs

    def test_instances_are_valid(self):
        for seed in range(30):
            inst = random_rainbow_instance(8, seed % 9, seed=seed, disjoint=False)
            assert isinstance(inst, RainbowInstance)
            assert inst.m == 8 and inst.p == seed % 9

    @staticmethod
    def by_random_methods(n, p, seed, disjoint):
        """The instance drawn with random.Random's own shuffle and sample,
        or None where random_rainbow_instance must refuse the shape."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if not pairs or (p < n and len(pairs) < 2) or (disjoint and 2 * n - p > len(pairs)):
            return None
        rng = random.Random(seed)
        sizes = [1] * p + [2] * (n - p)
        rng.shuffle(sizes)
        if not disjoint:
            return RainbowInstance(n, [rng.sample(pairs, s) for s in sizes], simple_origin=True)
        drawn = rng.sample(pairs, 2 * n - p)
        ends = list(itertools.accumulate(sizes))
        fams = [drawn[e - s : e] for s, e in zip(sizes, ends)]
        return RainbowInstance(n, fams, simple_origin=True)

    def by_index_with_random_methods(self, n, seed, i):
        rng = random.Random(((seed * 1_000_003 + n) * 1_000_003 + i) % (1 << 63))
        p = rng.choice([q for q in range(n + 1) if q == n or n >= 3])
        disjoint = 2 * n - p <= n * (n - 1) // 2 and rng.random() < 0.5
        return self.by_random_methods(n, p, rng.randrange(1 << 32), disjoint)

    def test_the_sweep_draws_what_random_methods_draw(self):
        # The generator spells choice, randrange, shuffle and sample on
        # getrandbits; these copies call random.Random's own methods.
        for seed in (0, 1, 7, 20261017, -3, 2**70):
            for n in range(2, 13):
                for i in range(200):
                    want = self.by_index_with_random_methods(n, seed, i)
                    assert harness._rainbow_for_index(n, seed, i) == want, (seed, n, i)

    def test_every_shape_draws_what_random_methods_draw(self):
        # At n = 40 a disjoint draw of 2n - p >= 40 of the 780 pairs takes
        # sample's set branch, past the k > 5 threshold 21 + 4 ** 4 = 277.
        for n in [*range(2, 13), 30, 40]:
            for p in range(n + 1):
                for disjoint in (True, False):
                    for seed in (0, 99, 2**40 + 1):
                        want = self.by_random_methods(n, p, seed, disjoint)
                        if want is None:
                            with pytest.raises(Infeasible):
                                random_rainbow_instance(n, p, seed, disjoint=disjoint)
                        else:
                            assert random_rainbow_instance(n, p, seed, disjoint=disjoint) == want

    def test_draws_call_no_random_method(self, monkeypatch):
        # Instances come from getrandbits and random() alone, not from the
        # per-call machinery of choice, randrange, shuffle or sample.
        cfg = SuiteConfig(4, 12, "rainbow", RAINBOW_CHECKS, count=50)
        want = doc_of(run_suite(cfg))

        def refuse(*args, **kwargs):
            raise AssertionError("a random.Random method drew an instance")

        for name in ("choice", "randrange", "shuffle", "sample"):
            monkeypatch.setattr(random.Random, name, refuse)
        assert doc_of(run_suite(cfg)) == want


@pytest.fixture
def deadline():
    """Fails a test that runs forked workers in this process after 60 s,
    rather than letting a lost result hang the whole run: SIGALRM raises
    TimeoutError wherever the parent waits, and _forked_results' clean-up
    still kills and reaps the workers.  A forked child has no timer."""

    def expire(signum, frame):
        raise TimeoutError("the test outlived its 60 s deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestRunSuite:
    CFG = SuiteConfig(
        n_lo=1,
        n_hi=3,
        generator="labeled",
        checks=("two-phi", "two-psi-strict", "eq1-identity", "chc"),
    )

    def test_small_labeled_sweep(self):
        report = run_suite(self.CFG)
        assert not report.has_violations
        assert report.findings == []
        assert report.instances_generated == 28  # sink-less survivors of 69 subsets
        assert report.checked == {c: 28 for c in self.CFG.checks}
        assert report.passed == report.checked

    def test_extremal_summary(self):
        report = run_suite(self.CFG)
        top = report.extremal["max_girth_psi_ratio"]
        assert top["ratio"] == {"num": 4, "den": 3}
        assert top["n"] == 3 and top["index"] == 63
        tight = report.extremal["tightness"]
        assert tight["count"] == 4
        assert len(tight["witnesses"]) == 4

    @staticmethod
    def count_derivations(monkeypatch):
        """The column of every in-mask derivation a sweep makes from here on."""
        calls = []
        derive = harness._or_column
        counting = lambda inn, col: calls.append(col) or derive(inn, col)
        monkeypatch.setattr(harness, "_or_column", counting)
        return calls

    def test_in_masks_derived_once_per_digraph(self, monkeypatch):
        # eq1-identity reads the in-masks and two-phi peels a Digraph built
        # on them.  The sweep derives what each vertex 2 choice gives once,
        # as its recursion fixes it (3 sink-free choices), and each
        # block's tail in-masks from that once (3 * 3 = 9 blocks whose
        # vertices 1..2 have no sink), then carries them to each digraph.
        calls = self.count_derivations(monkeypatch)
        cfg = SuiteConfig(3, 3, "labeled", ("eq1-identity", "two-phi"))
        report = run_suite(cfg)
        assert report.checked == {"eq1-identity": 27, "two-phi": 27}
        assert len(calls) == 3 + 9

    def test_unfiltered_levels_derive_in_masks_once_per_digit_change(self, monkeypatch):
        # The sweep visits only the 7^3 = 343 blocks at n = 4 whose
        # vertices 1..3 have no sink, 7^4 = 2401 sink-free digraphs.  Its
        # recursion derives what vertices 3.., 2.. and 1.. give once per
        # sink-free out-mask it fixes: 7 + 7^2 + 7^3.
        calls = self.count_derivations(monkeypatch)
        report = run_suite(SuiteConfig(4, 4, "labeled", DIGRAPH_CHECKS))
        assert report.instances_generated == 7**4
        assert len(calls) == 7 + 7**2 + 7**3

    def test_rd_claim_fails_once_per_instance(self, monkeypatch):
        # Every greedy subgraph fails here; an instance records its first.
        sizes = []
        for i in range(20):
            grown = []
            harness.find_rainbow_cycle(harness._rainbow_for_index(7, 0, i), collect=grown)
            sizes.append(len(grown))
        assert max(sizes) > 1
        calls = []
        monkeypatch.setattr(
            harness, "all_pairs_rainbow_distances", lambda h: calls.append(h) or {(0, 1): 99}
        )
        res = _run_shard(SuiteConfig(7, 7, "rainbow", ("rd-claim",), count=20), 7, 0, 20)
        failing = [i for i, k in enumerate(sizes) if k]
        assert [v["index"] for v in res["violations"]] == failing
        assert res["checked"]["rd-claim"] - res["passed"].get("rd-claim", 0) == len(failing)
        assert len(calls) == len(failing)

    @pytest.mark.parametrize(
        "checks", [("rainbow-bound",), ("rd-claim",), ("rainbow-bound", "rd-claim")]
    )
    def test_each_rainbow_instance_is_constructed_once(self, monkeypatch, checks):
        # 40 instances per n: two full runs of 16 and a short one.
        built = []
        construct = harness.find_rainbow_cycle
        monkeypatch.setattr(
            harness,
            "find_rainbow_cycle",
            lambda inst, **kw: built.append(format_rainbow(inst)) or construct(inst, **kw),
        )
        report = run_suite(SuiteConfig(4, 6, "rainbow", checks, count=40, seed=3))
        assert report.checked == {c: 120 for c in checks}
        assert built == [
            format_rainbow(harness._rainbow_for_index(n, 3, i))
            for n in range(4, 7)
            for i in range(40)
        ]

    def test_shard_result_holds_only_tallies(self):
        # The shard's peel memo stays out of the result run_suite merges.
        res = _run_shard(SuiteConfig(3, 3, "labeled", ("two-phi",)), 3, 0, 64)
        assert sorted(res) == [
            "best_ratio",
            "checked",
            "findings",
            "generated",
            "passed",
            "tight_count",
            "tight_witnesses",
            "violations",
        ]
        assert res["generated"] == 27 and res["checked"] == {"two-phi": 27}

    @pytest.mark.usefixtures("deadline")
    def test_deterministic_and_worker_invariant(self):
        base = doc_of(run_suite(self.CFG))
        again = doc_of(run_suite(self.CFG))
        forked = doc_of(
            run_suite(
                SuiteConfig(
                    n_lo=1,
                    n_hi=3,
                    generator="labeled",
                    checks=self.CFG.checks,
                    workers=2,
                )
            )
        )
        assert base == again == forked
        # Each shard counts the sink-free digraphs it checks.
        sinkless = SuiteConfig(1, 4, "labeled", DIGRAPH_CHECKS)
        reports = [run_suite(sinkless._replace(workers=w)) for w in (1, 2, 3)]
        assert len({doc_of(r) for r in reports}) == 1
        assert {r.instances_generated for r in reports} == {2429}

    @pytest.mark.usefixtures("deadline")
    def test_rainbow_reports_are_worker_invariant(self):
        # 37 instances per n put shard edges inside the 16-instance runs.
        cfg = SuiteConfig(4, 7, "rainbow", RAINBOW_CHECKS, count=37, seed=5)
        reports = [run_suite(cfg._replace(workers=w)) for w in (1, 2, 3)]
        assert len({doc_of(r) for r in reports}) == 1
        assert {r.instances_generated for r in reports} == {4 * 37}

    @pytest.mark.usefixtures("deadline")
    def test_pool_has_no_more_processes_than_shards(self, monkeypatch):
        # n = 1 and n = 2 make 1 + 4 shards, so 16 workers start 5 processes.
        forks = []
        fork = harness.os.fork

        def recording():
            forks.append(None)
            return fork()

        monkeypatch.setattr(harness.os, "fork", recording)
        report = run_suite(SuiteConfig(1, 2, "labeled", ("chc",), workers=16))
        assert len(forks) == 5
        assert report.config["workers"] == 16
        assert doc_of(report) == doc_of(run_suite(SuiteConfig(1, 2, "labeled", ("chc",))))

    @pytest.mark.usefixtures("deadline")
    def test_results_that_finish_early_wait_for_their_turn(self, monkeypatch, capsys):
        # Shard 1 of 16 sleeps in its worker, so the other two workers
        # finish the rest first; the run still takes the results, reports
        # and logs in task order.
        parent = os.getpid()
        full = harness._run_shard

        def run_shard(cfg, n, lo, hi):
            if (n, lo) == (1, 0) and os.getpid() != parent:
                time.sleep(0.2)
            return full(cfg, n, lo, hi)

        taken = []
        shard_results = harness._shard_results

        def recording(cfg, tasks):
            for res in shard_results(cfg, tasks):
                taken.append(res)
                yield res
            assert taken == [full(*task) for task in tasks]

        cfg = SuiteConfig(1, 3, "labeled", ("two-phi", "chc"), workers=3)
        serial = doc_of(run_suite(cfg._replace(workers=1)))
        capsys.readouterr()
        monkeypatch.setattr(harness, "_run_shard", run_shard)
        monkeypatch.setattr(harness, "_shard_results", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = run_suite(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        ns = [1] + [2] * 4 + [3] * 11
        assert len(taken) == len(ns)
        assert capsys.readouterr().err.splitlines() == [
            f"progress: shard {i}/{len(ns)} done (n={n})" for i, n in enumerate(ns, 1)
        ]
        assert doc_of(report) == serial

    @staticmethod
    def open_fds():
        return set(os.listdir("/proc/self/fd"))

    @pytest.mark.usefixtures("deadline")
    def test_a_failed_fork_leaves_no_pipe_open_and_no_worker(self, monkeypatch):
        cfg = SuiteConfig(1, 3, "labeled", ("chc",), workers=3)
        before = self.open_fds()
        run_suite(cfg)
        assert self.open_fds() == before
        forks = []
        fork = harness.os.fork

        def failing():
            forks.append(None)
            if len(forks) == 2:
                raise OSError("no more processes")
            return fork()

        monkeypatch.setattr(harness.os, "fork", failing)
        with pytest.raises(OSError, match="no more processes"):
            run_suite(cfg)
        assert len(forks) == 2
        assert self.open_fds() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.usefixtures("deadline")
    def test_large_results_cross_many_pipe_reads(self, monkeypatch):
        # Each result a worker sends is over 1 MiB, far more than a pipe
        # holds, so the parent reads every one in many pieces.
        parent = os.getpid()
        full = harness._run_shard
        pad = "x" * (1 << 20)

        def run_shard(*task):
            res = full(*task)
            return dict(res, pad=pad) if os.getpid() != parent else res

        padded = []
        shard_results = harness._shard_results

        def recording(cfg, tasks):
            for res in shard_results(cfg, tasks):
                padded.append(res.get("pad") == pad)
                yield res

        cfg = SuiteConfig(1, 3, "labeled", ("two-phi", "chc"), workers=3)
        serial = doc_of(run_suite(cfg._replace(workers=1)))
        monkeypatch.setattr(harness, "_run_shard", run_shard)
        monkeypatch.setattr(harness, "_shard_results", recording)
        report = run_suite(cfg)
        assert padded == [True] * 16
        assert doc_of(report) == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_outmap_sweep(self):
        cfg = SuiteConfig(
            n_lo=1, n_hi=4, generator="outmaps", checks=("two-cycles", "deg2-girth")
        )
        report = run_suite(cfg)
        assert not report.has_violations
        assert report.instances_generated == 0 + 1 + 27 + 1296
        assert report.checked == {"two-cycles": 1324, "deg2-girth": 1324}

    def test_rainbow_sweep(self):
        cfg = SuiteConfig(
            n_lo=4,
            n_hi=6,
            generator="rainbow",
            checks=("rainbow-bound", "rd-claim"),
            count=50,
            seed=1,
        )
        report = run_suite(cfg)
        assert not report.has_violations
        assert report.checked["rainbow-bound"] == 150
        assert report.passed["rainbow-bound"] == 150

    def test_report_json_shape(self):
        doc = run_suite(self.CFG).to_json_dict()
        assert sorted(doc) == [
            "checked",
            "config",
            "extremal",
            "findings",
            "instances_generated",
            "passed",
            "violations",
        ]
        assert doc["config"]["generator"] == "labeled"

    def test_invalid_config_refused(self):
        with pytest.raises(GraphInputError):
            run_suite(SuiteConfig(1, 3, "labeled", ("rainbow-bound",)))



SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# Opens every script run_script runs.  no_child_left() says whether every
# worker process the script started has been reaped.
PRELUDE = """
import json, os, sys, time
from cyclecert import cli, harness
from cyclecert.harness import SuiteConfig, run_suite

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""
# A girth table one too high, so the sweep's breadth-first cross-check
# raises a TheoremViolation at index 0 of outmaps n = 3.
OFF_BY_ONE = """
table = harness._girth_table
harness._girth_table = lambda *args: [None if g is None else g + 1 for g in table(*args)]
"""


def run_script(*parts, timeout=60):
    """Run PRELUDE and parts in a fresh interpreter with the package on its
    path; one that outlives timeout seconds raises
    subprocess.TimeoutExpired, so a hang fails the test."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", "\n".join(map(textwrap.dedent, (PRELUDE, *parts)))],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestForkedWorkers:
    """How a run with several workers fails: never by hanging, never
    leaving a worker behind, and as one worker would."""

    def test_dead_worker_fails_the_run_naming_its_shard(self):
        # Labeled n = 1..3 on two workers makes 1 + 4 + 8 shards; the one
        # at n = 3, lo = 16 is shard 8 of 13.  The run ends at once: the
        # worker still busy, on shard 9 at the latest, is killed.
        r = run_script(
            """
            full = harness._run_shard
            def run_shard(cfg, n, lo, hi):
                if (n, lo) == (3, 16):
                    os._exit(7)
                if (n, lo) == (3, 24):  # the other worker's next shard
                    time.sleep(120)
                return full(cfg, n, lo, hi)
            harness._run_shard = run_shard
            try:
                run_suite(SuiteConfig(1, 3, "labeled", ("chc",), workers=2))
            except ChildProcessError as exc:
                print(exc)
            print(no_child_left())
            code = cli.main(["verify", "--generator", "labeled", "--n", "1-3", "--jobs", "2"])
            print(code, no_child_left())
            """
        )
        lost = "a worker exited with code 7 before returning shard 8/13 (n=3)"
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == [lost, "True", "2 True"]
        # The command line reports it as an error, after the progress of
        # the shards that came back before it.
        assert r.stderr.splitlines()[-1] == f"error: {lost}"
        assert "Traceback" not in r.stderr

    def test_worker_dying_after_a_shard_fails_the_run(self):
        # The worker that returns shard 8 of 13 dies 0.1 s later, owing the
        # next shard it was sent.  The later shards sleep, so the run cannot
        # finish on the other worker first.  On the second run the parent
        # is slow to send indices 8.., so it sends that next shard to the
        # dead worker, and the write's broken pipe must not be the error.
        r = run_script(
            """
            import threading
            full = harness._run_shard
            def run_shard(cfg, n, lo, hi):
                if (n, lo) == (3, 16):
                    threading.Thread(target=lambda: time.sleep(0.1) or os._exit(9), daemon=True).start()
                if n == 3 and lo > 16:
                    time.sleep(1)
                return full(cfg, n, lo, hi)
            harness._run_shard = run_shard
            write = os.write
            def slow_write(fd, data):
                if len(data) == harness._INDEX.size and harness._INDEX.unpack(data)[0] >= 8:
                    time.sleep(0.5)
                return write(fd, data)
            for w in (write, slow_write):
                harness.os.write = w
                try:
                    run_suite(SuiteConfig(1, 3, "labeled", ("chc",), workers=2))
                except ChildProcessError as exc:
                    print(exc)
                print(no_child_left())
            harness.os.write = write
            code = cli.main(["verify", "--generator", "labeled", "--n", "1-3", "--jobs", "2"])
            print(code, no_child_left())
            """
        )
        assert r.returncode == 0, r.stderr
        lost = r"a worker exited with code 9 before returning shard \d+/13 \(n=3\)"
        first, reaped, second, reaped_again, verified = r.stdout.splitlines()
        assert re.fullmatch(lost, first) and re.fullmatch(lost, second)
        assert (reaped, reaped_again, verified) == ("True", "True", "2 True")
        assert re.fullmatch(f"error: {lost}", r.stderr.splitlines()[-1])
        assert "Traceback" not in r.stderr

    def test_worker_dying_in_the_middle_of_a_result_fails_the_run(self):
        # The worker running shard 8 of 13 sends all of its result but the
        # last byte, then dies.
        r = run_script(
            """
            import pickle, threading
            full = harness._run_shard
            dumps = pickle.dumps
            def run_shard(cfg, n, lo, hi):
                if (n, lo) == (3, 16):
                    harness.pickle.dumps = lambda *args: dumps(*args)[:-1]
                    threading.Thread(target=lambda: time.sleep(0.1) or os._exit(9), daemon=True).start()
                return full(cfg, n, lo, hi)
            harness._run_shard = run_shard
            try:
                run_suite(SuiteConfig(1, 3, "labeled", ("chc",), workers=2))
            except ChildProcessError as exc:
                print(exc)
            print(no_child_left())
            """
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == [
            "a worker exited with code 9 before returning shard 8/13 (n=3)",
            "True",
        ]

    def test_shard_exception_is_raised_as_one_worker_raises_it(self):
        r = run_script(
            OFF_BY_ONE,
            """
            for w in (1, 2):
                try:
                    run_suite(SuiteConfig(3, 3, "outmaps", ("deg2-girth",), workers=w))
                except Exception as exc:
                    print(json.dumps([type(exc).__name__, str(exc)]))
            print(no_child_left())
            """,
        )
        assert r.returncode == 0, r.stderr
        one, two, reaped = r.stdout.splitlines()
        assert one == two
        assert json.loads(one)[0] == "TheoremViolation"
        assert json.loads(one)[1].startswith(
            "girth table says 3, breadth-first search says 2, on:\ndigraph 3 3\n"
        )
        assert reaped == "True"

    def test_verify_reports_the_counterexample_as_one_job_does(self):
        runs = [
            run_script(
                OFF_BY_ONE,
                f"""
                code = cli.main(["verify", "--generator", "outmaps", "--n", "3", "--jobs", "{jobs}"])
                print(no_child_left())
                sys.exit(code)
                """,
            )
            for jobs in (1, 2)
        ]
        for r in runs:
            assert r.returncode == 1, r.stderr
            assert r.stdout == "True\n"
            assert r.stderr.startswith(
                "counterexample: girth table says 3, breadth-first search says 2, on:\ndigraph 3 3\n"
            )
        assert runs[0].stderr == runs[1].stderr

class TestExtremalRatioSearch:
    def test_exhaustive_n3(self):
        report = extremal_ratio_search(3, 1000)
        assert report.config["mode"] == "exhaustive"
        assert report.instances_generated == 27
        top = report.extremal["max_girth_psi_ratio"]
        assert top["ratio"] == {"num": 4, "den": 3}
        assert top["girth"] == 2
        assert top["psi"] == {"num": 3, "den": 2}
        # witness: the bidirected triangle
        assert top["instance"].startswith("digraph 3 6")

    def test_exhaustive_n2(self):
        report = extremal_ratio_search(2, 10)
        top = report.extremal["max_girth_psi_ratio"]
        assert top["ratio"] == {"num": 1, "den": 1}  # the digon: g = 2, psi = 2

    @pytest.mark.parametrize("n, population", [(2, 1), (3, 27), (4, 2401)])
    def test_exhaustive_once_the_sinkless_population_fits(self, n, population):
        # (2^(n-1) - 1)^n sink-less digraphs; the code space 2^(n(n-1)) is larger.
        at = extremal_ratio_search(n, population)
        assert at.config["mode"] == "exhaustive"
        assert at.instances_generated == population
        if population > 1:
            below = extremal_ratio_search(n, population - 1)
            assert below.config["mode"] == "hill-climb"
            assert below.instances_generated == population - 1

    def test_budget_zero_reports_nothing(self):
        report = extremal_ratio_search(5, 0)
        assert report.extremal == {} and report.instances_generated == 0

    def test_hill_climb_mode(self):
        report = extremal_ratio_search(5, 400, seed=9)
        assert report.config["mode"] == "hill-climb"
        assert report.instances_generated >= 400
        top = report.extremal["max_girth_psi_ratio"]
        ratio = top["ratio"]["num"] / top["ratio"]["den"]
        assert 1 <= ratio < 2

    def test_hill_climb_deterministic(self):
        a = extremal_ratio_search(6, 300, seed=5)
        b = extremal_ratio_search(6, 300, seed=5)
        assert doc_of(a) == doc_of(b)

    def test_bad_inputs(self):
        with pytest.raises(GraphInputError):
            extremal_ratio_search(1, 100)
        with pytest.raises(GraphInputError):
            extremal_ratio_search(4, -1)

    def test_n_capped_before_anything_is_built(self, monkeypatch):
        # Refused before the scale lcm(1..n) or the code space is built.
        monkeypatch.setattr(harness, "_scale", None)
        with pytest.raises(LimitExceeded):
            extremal_ratio_search(SEARCH_CAP + 1, 1)
        with pytest.raises(LimitExceeded):
            extremal_ratio_search(SEARCH_CAP + 1, 0)

    def test_exhaustive_mode_raises_when_a_ratio_reaches_two(self, monkeypatch):
        table = harness._girth_table

        def doubled(*args):
            return [None if g is None else 2 * g for g in table(*args)]

        monkeypatch.setattr(harness, "_girth_table", doubled)
        with pytest.raises(TheoremViolation, match="strictly below 2 psi.*, on:\ndigraph 3 "):
            extremal_ratio_search(3, 1000)

    def test_exhaustive_mode_reads_block_tables(self, monkeypatch):
        # No girth search at all, not per digraph (2401) nor for the
        # witness: girths come from tables, one per block (343) and one per
        # sink-free out-mask the recursion fixes with no sink above it,
        # 7^2 = 49 for vertex 1's choices and 7 for vertex 2's.
        calls = []
        search = oracles._girth_masks

        def counting(*args):
            calls.append(args)
            return search(*args)

        tables = []
        table = harness._girth_table
        monkeypatch.setattr(oracles, "_girth_masks", counting)
        monkeypatch.setattr(harness, "_girth_masks", counting)
        monkeypatch.setattr(harness, "_girth_table", lambda *a: tables.append(a) or table(*a))
        report = extremal_ratio_search(4, 10**6)
        assert report.instances_generated == 2401
        assert len(calls) == 0
        assert len(tables) == 343 + 49 + 7


def report_digest(report):
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenReports:
    """Byte-for-byte pins of whole reports, so engine rewrites cannot drift.

    The digests were taken before the sweep engine was unified, except
    the sinkless one, taken just before labeled:none was removed, and the
    outmaps 1:2 one, taken just before deg2-girth and two-cycles began to
    settle whole blocks.  They cover the labeled population (every
    sink-free digraph), four out-degree ranges (a single radix, the
    benchmark's 1:2, a range wider than 2 that skips the deg2-only checks,
    and one that excludes out-degree 1), the chc finding channel, and both
    ratio-search modes.
    """

    LABELED = "d2066863b64656c38110bbaef3723c62ba3244c72edd22428a1cc0ece11b0f2d"

    # The id's leading "sinkless" names the population; it keeps the test
    # name from when labeled took a filter.
    @pytest.mark.parametrize(
        "generated, checked, digest",
        [pytest.param(2429, 2429, LABELED, id=f"sinkless-2429-2429-{LABELED}")],
    )
    def test_labeled(self, generated, checked, digest):
        report = run_suite(SuiteConfig(1, 4, "labeled", DIGRAPH_CHECKS))
        assert report.instances_generated == generated
        assert report.checked["two-phi"] == checked
        assert report_digest(report) == digest

    @pytest.mark.parametrize(
        "dmin, dmax, digest",
        [
            (1, 1, "2f4b753558458005389015dff8ba8047365dff613ef8548b69840a66d96d30fe"),
            (1, 2, "60d9623d707d739cc003a2af066f58588f5af0ec87ed0a7029660d80696fde1a"),
            (1, 3, "dae05470d6a8e201d00b374db331b8766fdd10201b88450c0ef97bcb23657258"),
            (2, 3, "4c469c2e62738b105003ace0377df477cc4fdb279677c84e1db8d2c68126a077"),
        ],
    )
    def test_outmaps(self, dmin, dmax, digest):
        cfg = SuiteConfig(1, 4, "outmaps", DIGRAPH_CHECKS, dmin=dmin, dmax=dmax)
        assert report_digest(run_suite(cfg)) == digest

    def test_ratio_search_exhaustive(self):
        report = extremal_ratio_search(4, 10**6)
        assert report.config["mode"] == "exhaustive"
        assert report_digest(report) == (
            "0776312b7b1a81eac43fdbffd129371be937022c0d6011c87d0d37e25b4840a5"
        )

    def test_ratio_search_hill_climb(self):
        report = extremal_ratio_search(5, 3000, seed=1)
        assert report.config["mode"] == "hill-climb"
        assert report_digest(report) == (
            "95ff4af01b9836d97d589c29b512f26fe5ac35d9fea256c203a7759e31a10aa2"
        )
