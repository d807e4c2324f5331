"""Acceptance gates.

Each test is one release criterion and prints exactly one summary line,
straight to the terminal, of the form

    [criterion K] <what was verified>: PASS|FAIL

The heavy sweeps behind criteria 1-6 run once in module-scoped fixtures
and are shared by the tests that read them.
"""

import math
import time
from contextlib import contextmanager

import pytest

from cyclecert.harness import SuiteConfig, extremal_ratio_search, run_suite
from cyclecert.families import RainbowInstance
from cyclecert.oracles import enumerate_cycles, girth_exact, shortest_rainbow_cycle_exact

from test_core import all_digraphs
from test_cli import run_cli

# labeled sink-less digraphs per n: (2^(n-1) - 1)^n
SINKLESS_COUNTS = {1: 0, 2: 1, 3: 27, 4: 2401, 5: 759375}
# out-degree maps with degrees in {1, 2} per n: (C(n-1,1) + C(n-1,2))^n
OUTMAP_COUNTS = {1: 0, 2: 1, 3: 27, 4: 1296, 5: 100000, 6: 11390625}


@pytest.fixture
def gate(capsys):
    @contextmanager
    def _gate(num, name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _gate


@pytest.fixture(scope="module")
def labeled_sweep():
    cfg = SuiteConfig(
        n_lo=1,
        n_hi=5,
        generator="labeled",
        checks=("two-phi", "two-psi-strict", "eq1-identity"),
    )
    t0 = time.perf_counter()
    report = run_suite(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def outmap_sweep():
    checks = ("two-cycles", "deg2-girth")
    t0 = time.perf_counter()
    small = run_suite(SuiteConfig(1, 5, "outmaps", checks, dmin=1, dmax=2))
    small_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    full = run_suite(SuiteConfig(6, 6, "outmaps", checks, dmin=1, dmax=2))
    full_elapsed = time.perf_counter() - t0
    return small, small_elapsed, full, full_elapsed


@pytest.fixture(scope="module")
def rainbow_sweep():
    cfg = SuiteConfig(
        n_lo=4,
        n_hi=10,
        generator="rainbow",
        checks=("rainbow-bound", "rd-claim"),
        count=1000,
        seed=0,
    )
    t0 = time.perf_counter()
    report = run_suite(cfg)
    return report, time.perf_counter() - t0


def test_criterion_1_short_cycle_bound(gate, labeled_sweep):
    report, elapsed = labeled_sweep
    with gate(1, "girth <= 2*phi with validating certificate, all sink-less n <= 5"):
        want = sum(SINKLESS_COUNTS.values())
        assert report.instances_generated == want
        assert report.checked["two-phi"] == want
        assert report.passed["two-phi"] == want
        assert not [v for v in report.violations if v["check"] == "two-phi"]
        assert elapsed <= 300, f"sweep took {elapsed:.0f}s, budget 300s"


def test_criterion_2_strict_psi_bound(gate, labeled_sweep):
    report, _ = labeled_sweep
    with gate(2, "girth < 2*psi strictly, same population"):
        want = sum(SINKLESS_COUNTS.values())
        assert report.checked["two-psi-strict"] == want
        assert report.passed["two-psi-strict"] == want
        assert not [v for v in report.violations if v["check"] == "two-psi-strict"]


def test_criterion_3_removability_never_fails(gate, labeled_sweep):
    report, _ = labeled_sweep
    with gate(3, "peeling never stuck, potential identity exact, same population"):
        # a stuck peel would have aborted the sweep; certificates all passed
        want = sum(SINKLESS_COUNTS.values())
        assert report.checked["eq1-identity"] == want
        assert report.passed["eq1-identity"] == want
        assert report.violations == []


def test_criterion_4_out_degree_two_sweep(gate, outmap_sweep):
    small, small_elapsed, full, full_elapsed = outmap_sweep
    with gate(4, "cycle pairs and girth bound, all out-degree {1,2} maps n <= 6"):
        assert small.instances_generated == sum(OUTMAP_COUNTS[n] for n in range(1, 6))
        assert full.instances_generated == OUTMAP_COUNTS[6]
        for report in (small, full):
            assert not report.has_violations
            assert report.checked["two-cycles"] == report.passed["two-cycles"]
            assert report.checked["deg2-girth"] == report.passed["deg2-girth"]
        assert small_elapsed <= 60, f"n <= 5 gate took {small_elapsed:.0f}s, budget 60s"
        total = small_elapsed + full_elapsed
        assert total <= 1800, f"full sweep took {total:.0f}s, budget 1800s"


def test_criterion_5_rainbow_construction(gate, rainbow_sweep):
    report, elapsed = rainbow_sweep
    with gate(5, "rainbow cycles within ceil((n+p)/2), 1000 seeded instances per n in 4..10"):
        assert report.checked["rainbow-bound"] == 7000
        assert report.passed["rainbow-bound"] == 7000
        assert not [v for v in report.violations if v["check"] == "rainbow-bound"]
        assert elapsed <= 600, f"sweep took {elapsed:.0f}s, budget 600s"


def test_criterion_6_subgraph_distance_claim(gate, rainbow_sweep):
    report, _ = rainbow_sweep
    with gate(6, "greedy-subgraph rainbow distances within floor(t/2)+1, same runs"):
        assert report.checked["rd-claim"] == 7000
        assert report.passed["rd-claim"] == 7000
        assert report.violations == []


def _edge_pairings(edges):
    if not edges:
        yield []
        return
    first = edges[0]
    rest = edges[1:]
    for i, other in enumerate(rest):
        for tail in _edge_pairings(rest[:i] + rest[i + 1 :]):
            yield [[first, other]] + tail


def test_criterion_7_exhaustive_base_case(gate):
    with gate(7, "rainbow girth <= 3 on all 945 disjoint all-size-2 instances, n = 5"):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        count = 0
        for fams in _edge_pairings(edges):
            inst = RainbowInstance(5, fams)
            length, cert = shortest_rainbow_cycle_exact(inst)
            assert cert is not None and length <= 3
            count += 1
        assert count == 945


def test_criterion_8_oracle_self_consistency(gate):
    with gate(8, "girth scan agrees with cycle enumeration n <= 4; CLI byte-stable"):
        totals = {}
        for n in (1, 2, 3, 4):
            totals[n] = 0
            for d in all_digraphs(n):
                totals[n] += 1
                lengths = [c.length for c in enumerate_cycles(d)]
                g, _ = girth_exact(d)
                assert g == (min(lengths) if lengths else math.inf)
        assert totals[4] == 4096 and sum(totals.values()) == 4165
        args = (
            "verify", "--generator", "labeled", "--n", "1-4",
            "--checks", "two-phi,two-psi-strict,chc,eq1-identity", "--seed", "0",
        )
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout


def test_criterion_9_ratio_exploration(gate, capsys):
    with gate(9, "max girth/psi ratios reported for n <= 8, every instance below 2"):
        found = {}
        for n in range(2, 9):
            report = extremal_ratio_search(n, budget=5000, seed=0)
            top = report.extremal["max_girth_psi_ratio"]
            ratio = top["ratio"]
            assert ratio["num"] < 2 * ratio["den"]
            found[n] = f"{ratio['num']}/{ratio['den']}"
        # exhaustively covered sizes have known maxima
        assert found[2] == "1/1" and found[3] == "4/3" and found[4] == "3/2"
    with capsys.disabled():
        print(f"    ratios found: {found}", flush=True)
