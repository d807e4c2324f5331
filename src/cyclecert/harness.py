"""Exhaustive and randomized verification harness.

Populations are all sink-free labeled digraphs, all bounded-out-degree
maps (both from one mixed-radix generator over per-vertex out-mask
choices), or seeded random rainbow instances.  run_suite streams them
through the named checks of one table and returns a deterministic
Report.  Each check runs over a unit of instances at once: a block of
digraphs that differ only in vertex 0's out-mask, or a short run of
rainbow instances.  When only the out-degree-2 checks, the rows with a
bound, are selected, a block they need not walk (none of its instances
is theirs, or the girth of D - 0 is within their bounds) is counted, not
built.  Checks of proved statements record violations, which callers
treat as fatal; checks of open conjectures record findings only.
Reports are independent of the worker count: shards partition the index
space and merge by sums, concatenation sorted by index, and tie-broken
extremes.  Several workers are forked children, each owing one shard at
a time: its next shard index comes down a task pipe of its own once its
last result is back on its result pipe, and a worker that dies owing a
shard fails the run instead of hanging it.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import random
import select
import signal
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import or_
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, Sequence, Union

from .certificates import (
    BlockCycleValidator,
    CycleCertificate,
    RainbowCycleCertificate,
    validate_cycle,
    validate_cycle_masks,
    validate_rainbow_cycle,
)
from .digraph import Digraph, in_masks_of
from .errors import (
    CounterexampleFound,
    GraphInputError,
    Infeasible,
    LimitExceeded,
    TheoremViolation,
)
from .families import RainbowInstance
from .formats import (
    cycle_cert_json,
    format_digraph,
    format_rainbow,
    parse_digraph,
    rainbow_cert_json,
    rational_json,
)
from .oracles import (
    TwoCyclePair,
    _girth_masks,
    all_pairs_rainbow_distances,
    deg2_short_cycle,
    shortest_rainbow_cycle_exact,
    two_cycles_min_intersection,
)
from .peeling import (
    BlockPeeler,
    PeelMemo,
    TailTerms,
    _gains,
    _psi_scaled,
    _scale,
    psi,
    short_cycle_via_peeling,
    tail_terms,
)
from .rainbow import Collector, find_rainbow_cycle

LABELED_CAP = 5
OUTMAP_CAP = 7
RAINBOW_CAP = 12
# run_suite starts this many worker processes at most.
WORKERS_CAP = 64
# extremal_ratio_search takes n up to this; the scale lcm(1..n) and the
# code space 2^(n(n-1)) it builds grow without bound in n.
SEARCH_CAP = 512

# How often, in indices, the girth table, the fast pair scan and the block
# peel are checked against a search or run from scratch (see _Block.again).
_CROSS_CHECK_EVERY = 100_000


@dataclass(frozen=True)
class SuiteConfig:
    """What to enumerate and what to check.

    n_lo..n_hi is inclusive.  generator names an entry of _POPULATIONS:
    "labeled" (every sink-free labeled digraph), "outmaps" (every
    assignment of out-neighborhoods with dmin <= out-degree <= dmax), or
    "rainbow" (count seeded random instances per n).  Every check must
    apply to the chosen population.
    """

    n_lo: int
    n_hi: int
    generator: str
    checks: tuple[str, ...]
    dmin: int = 1
    dmax: int = 2
    count: int = 100
    workers: int = 1
    seed: int = 0

    def validate(self) -> None:
        pop = _POPULATIONS.get(self.generator)
        if pop is None:
            raise GraphInputError(f"unknown generator {self.generator!r}")
        if not self.checks:
            raise GraphInputError("no checks selected")
        for i, c in enumerate(self.checks):
            if c not in ALL_CHECKS:
                raise GraphInputError(f"unknown check {c!r}")
            if c in self.checks[:i]:
                raise GraphInputError(f"check {c!r} is named twice")
        for c in self.checks:
            if c not in pop.checks:
                raise GraphInputError(
                    f"check {c!r} does not apply to generator {self.generator!r}"
                )
        if self.n_lo < 1 or self.n_lo > self.n_hi:
            raise GraphInputError(f"bad n range {self.n_lo}..{self.n_hi}")
        if self.workers < 1:
            raise GraphInputError("workers must be >= 1")
        if self.workers > WORKERS_CAP:
            raise LimitExceeded(f"workers is capped at {WORKERS_CAP}, asked for {self.workers}")
        if self.n_hi > pop.cap:
            raise LimitExceeded(
                f"generator {self.generator!r} is capped at n <= {pop.cap}, asked for {self.n_hi}"
            )
        pop.validate(self)

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "generator": self.generator,
            "checks": sorted(self.checks),
            "workers": self.workers,
            "seed": self.seed,
        }
        for key in _POPULATIONS[self.generator].keys:
            d[key] = getattr(self, key)
        if self.generator == _LABELED.name:
            d["filter"] = "sinkless"  # pinned report digests hash this key
        return d


def _record_key(rec: dict[str, Any]) -> tuple[str, int, int]:
    return (rec["check"], rec["n"], rec["index"])


@dataclass
class Report:
    """Deterministic outcome of a suite run."""

    config: dict[str, Any]
    instances_generated: int = 0
    checked: dict[str, int] = field(default_factory=dict)
    passed: dict[str, int] = field(default_factory=dict)
    violations: list[dict[str, Any]] = field(default_factory=list)
    findings: list[dict[str, Any]] = field(default_factory=list)
    extremal: dict[str, Any] = field(default_factory=dict)

    @property
    def has_violations(self) -> bool:
        return bool(self.violations)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "instances_generated": self.instances_generated,
            "checked": dict(sorted(self.checked.items())),
            "passed": dict(sorted(self.passed.items())),
            "violations": sorted(self.violations, key=_record_key),
            "findings": sorted(self.findings, key=_record_key),
            "extremal": self.extremal,
        }


# ---------------------------------------------------------------------------
# Generators


def _outmap_choices(n: int, dmin: int, dmax: int) -> list[tuple[int, ...]]:
    """Per vertex, the allowed out-neighborhood masks in ascending order."""
    hi = min(dmax, n - 1)
    choices = []
    for u in range(n):
        opts = [
            m for m in range(1 << n) if not (m >> u) & 1 and dmin <= m.bit_count() <= hi
        ]
        choices.append(tuple(opts))
    return choices


class _Head:
    """Vertex 0's out-mask choices in a sweep, and what each one adds to an
    instance: its in-mask column (bit 0 at each out-neighbor), out-degree
    and, scaled, terms of phi and psi (0 for an empty choice, never kept)
    and of (1)'s right sides.  deg2 says whether every out-degree is <= 2."""

    __slots__ = ("n", "first", "cols", "deg0", "deg2", "scale", "phi0", "psi0", "rhs0")

    def __init__(self, choices: list[tuple[int, ...]]) -> None:
        self.n = n = len(choices)
        self.first = first = choices[0]
        # Unpacked: see _or_column.
        self.cols = [(*((m >> v) & 1 for v in range(n)),) for m in first]
        self.deg0 = [m.bit_count() for m in first]
        self.deg2 = max(self.deg0) <= 2
        self.scale = scale = _scale(n)
        gains = _gains(n, n - 1)
        self.phi0 = [scale // (d + 1) for d in self.deg0]
        self.psi0 = [scale // d if d else 0 for d in self.deg0]
        self.rhs0 = [d * gains[d] for d in self.deg0]


def _or_column(inn: tuple[int, ...], col: tuple[int, ...]) -> tuple[int, ...]:
    """The in-masks inn once a vertex adds its out-arcs; col is its in-mask
    column, its own bit at each out-neighbor."""
    # Unpacked rather than tuple(map(...)) or tuple(<generator>), which
    # build a 10-slot tuple and shrink it, filling the interpreter's tuple
    # free lists (about 0.4 MB more peak memory over a sweep).
    return (*map(or_, inn, col),)


class _Block:
    """The kept instances base + r that share the out-masks tail of
    vertices 1..: vertex 0's out-mask is head.first[r], r in the range
    kept.  Every kept instance is sink-free: the tail has no empty
    out-mask, and kept starts past vertex 0's empty choice, which can only
    be its first.

    degs are the out-degrees of (0,) + tail, tail_inn the in-masks of
    (0,) + tail (what vertices 1.. give every instance), g0 the girth of
    D - 0, which no choice's exceeds, and girth each choice's girth; each
    is None where acyclic.  Every other per-choice fact a check needs is a
    tail term (terms() builds them once) plus vertex 0's, from head.  out,
    inn and the Digraph are built anew for each r a check asks about.

    again is the kept choice whose instance the cross-checks search again
    from scratch, or None.
    """

    __slots__ = (
        "head", "n", "base", "tail", "degs", "tail_inn", "g0", "kept", "again", "_girth",
        "_pair", "_terms",
    )

    def __init__(
        self, head: _Head, base: int, tail: tuple[int, ...], degs: tuple[int, ...],
        tail_inn: tuple[int, ...], g0: int | None, kept: range,
    ) -> None:
        self.head = head
        self.n = head.n
        self.base = base
        self.tail = tail
        self.degs = degs
        self.tail_inn = tail_inn
        self.g0 = g0
        self.kept = kept
        self.again: int | None = None
        self._girth: list[int | None] | None = None
        self._pair: TwoCyclePair | TheoremViolation | None = None
        self._terms: TailTerms | None = None

    @property
    def girth(self) -> list[int | None]:
        """The block's _girth_table, built on the first read."""
        if self._girth is None:
            self._girth = _girth_table(self.tail_inn, self.head.first, self.g0, 0)
        return self._girth

    def terms(self) -> TailTerms:
        """peeling.tail_terms of the block, built once, on the first ask."""
        if self._terms is None:
            self._terms = tail_terms(self.n, self.degs, self.tail_inn)
        return self._terms

    def out(self, r: int) -> tuple[int, ...]:
        return (self.head.first[r],) + self.tail

    def inn(self, r: int) -> tuple[int, ...]:
        # Unpacked, as in _or_column.
        return (*map(or_, self.tail_inn, self.head.cols[r]),)

    def digraph(self, r: int) -> Digraph:
        return Digraph.from_out_masks(self.n, self.out(r), self.inn(r))

    def text(self, r: int) -> str:
        return format_digraph(self.digraph(r))

    def again_pair(self) -> TwoCyclePair:
        """two_cycles_min_intersection of instance again, searched once for
        every check that asks; a TheoremViolation it raised is raised again."""
        if self._pair is None:
            try:
                self._pair = two_cycles_min_intersection(self.digraph(self.again))
            except TheoremViolation as exc:
                self._pair = exc
        if isinstance(self._pair, TheoremViolation):
            raise self._pair
        return self._pair


def _girth_table(
    inn: tuple[int, ...], heads: Sequence[int], g_rest: int | None, s: int
) -> list[int | None]:
    """For each out-mask h of vertex s in heads, the girth of the digraph
    D on vertices s.., or None if it is acyclic.  inn holds the in-masks
    the arcs of vertices s+1.. give, and g_rest is the girth of the
    digraph on vertices s+1.., the same for every h; arcs into vertices
    below s are dropped.  A block's table is the one at s = 0, over
    vertex 0's choices from its tail_inn.

    A cycle either avoids vertex s, and so is a cycle of the digraph on
    vertices s+1.., or leaves s by an arc s -> v and returns by a shortest
    v -> s path, which meets s only at its end and so uses arcs of
    vertices s+1.. alone.  One backward search from s over inn thus serves
    every h:
    girth = min(g_rest, 1 + min over v in h of dist(v -> s)).
    """
    # layers[k]: the vertices whose shortest path to s has k + 1 arcs, only
    # as deep as a cycle through s (k + 2 arcs) still beats g_rest.
    layers = []
    depth = len(inn) if g_rest is None else g_rest - 2
    seen, frontier = 1 << s, inn[s]
    while frontier and len(layers) < depth:
        layers.append(frontier)
        seen |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= inn[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
    # Deepest layer first, so the shallowest one h meets has the last word.
    table = [g_rest] * len(heads)
    for k in range(len(layers) - 1, -1, -1):
        layer, g = layers[k], k + 2
        table = [g if h & layer else t for h, t in zip(heads, table)]
    return table


def _sweep(
    choices: list[tuple[int, ...]], lo: int, hi: int, acc: _Accum | None = None
) -> Iterator[_Block]:
    """The blocks of sink-free digraphs whose mixed-radix indices lie in
    [lo, hi), each block with at least one kept choice.

    Digit u of an index, in radix len(choices[u]) with vertex 0 varying
    fastest, picks vertex u's out-mask from choices[u].  When every
    out-mask is allowed (_outmap_choices(n, 0, n - 1)), the index is the
    arc-bitmask code: arc (u, v) is bit u*(n-1) + v - (v > u).

    A block is r0 = len(choices[0]) consecutive indices with vertices 1..
    fixed.  The sweep is one recursion over vertices n - 1 down to 1
    (_blocks).  Each out-mask of vertex u prepends itself and its
    out-degree to the tail, ORs its in-mask column into the in-masks, and
    tables, over vertex u - 1's choices, the girth of the digraph on
    vertices u - 1.. (_girth_table), down to vertex 1's: g(D - 0) for
    each block.  An empty out-mask (a sink) is skipped with every block
    under it.  Vertex 0's empty choice, if it has one, must come first, as
    it does when choices ascend; a block keeps the range of its other
    choices inside [lo, hi), one range shared by every block lying wholly
    inside.  Instance again has its girth searched again from scratch, and
    a disagreement raises.

    Given the shard's acc, when each of its rows is an out-degree-2 row
    (it has a bound), the sweep counts a block instead of building it when
    the block holds no again and either its tail (vertex 1's out-degree
    included) has an out-degree above 2, so no row selects anything, or
    its g(D - 0) is within the least bound at its p (_least_bounds).
    Nothing is yielded for it: its kept choices are added to acc.generated
    and those the rows select (_deg2_choices) to acc.deg2, and its tail,
    out-degrees, in-masks and _Block are never built.
    """
    n = len(choices)
    if lo >= hi or n < 2:
        return  # one vertex without a loop is a sink
    head = _Head(choices)
    cols = [
        [(*((m >> v & 1) << u for v in range(n)),) for m in c]
        for u, c in enumerate(choices[1:], 1)
    ]
    # span[u]: the blocks one step of vertex u's choice moves by.
    span = [1, 1]
    for c in choices[1:]:
        span.append(span[-1] * len(c))
    # The blocks wholly in [lo, hi), block indices -(-lo // r0) to
    # hi // r0, share one kept range.
    r0, start = len(head.first), int(head.first[0] == 0)
    least = None if acc is None else _least_bounds(acc.rows, n)
    sweep = (
        head, choices, cols, span, lo, hi, start, -(-lo // r0), hi // r0, range(start, r0),
        least, acc,
    )
    # One vertex has no cycle: vertex n - 1's table is all None.
    yield from _blocks(sweep, n - 1, 0, (), (), (0,) * n, [None] * len(choices[-1]))


def _blocks(
    sweep: tuple[Any, ...], u: int, block: int, tail: tuple[int, ...], degs: tuple[int, ...],
    inn: tuple[int, ...], girth: list[int | None],
) -> Iterator[_Block]:
    """_sweep's blocks from block on whose vertices u + 1.. have out-masks
    tail and out-degrees degs, giving in-masks inn; girth[d] is the girth
    of the digraph on vertices u.. when vertex u takes choices[u][d], None
    where acyclic.  At u = 1 each choice of vertex 1 is one block, girth[d]
    its g(D - 0): its kept range comes first, then, when _sweep has least,
    the test that counts it unbuilt.  Module-level, passed _sweep's
    constants, so a call makes no reference cycle."""
    head, choices, cols, span, lo, hi, start, whole_lo, whole_hi, whole, least, acc = sweep
    r0, step = len(head.first), span[u]
    if u == 1 and least is not None:
        # p and the largest out-degree of vertices 2..; vertex 1 adds its own.
        p, top = degs.count(1), max(degs, default=0)
    for d, m in enumerate(choices[u]):
        at = block + d * step  # the first block under this out-mask
        if at * r0 >= hi:
            return
        if not m or (at + step) * r0 <= lo:
            continue  # a sink, or blocks that all lie before lo
        if u > 1:
            inn_u = _or_column(inn, cols[u - 1][d])
            table = _girth_table(inn_u, choices[u - 1], girth[d], u - 1)
            yield from _blocks(
                sweep, u - 1, at, (m,) + tail, (m.bit_count(),) + degs, inn_u, table
            )
            continue
        base = at * r0
        if whole_lo <= at < whole_hi:
            kept = whole
        else:
            kept = range(max(lo - base, start), min(hi - base, r0))
        if not kept:
            continue
        # The offset of the block's first multiple of _CROSS_CHECK_EVERY;
        # one at or past kept.stop leaves the block no again.
        r, k = -base % _CROSS_CHECK_EVERY, m.bit_count()
        if least is not None and r >= kept.stop:
            g0, t = girth[d], k if k > top else top
            if t > 2 or (g0 is not None and g0 <= least[p + (k == 1)]):
                acc.generated += len(kept)
                acc.deg2 += len(_deg2_choices(head, t, kept))
                continue
        b = _Block(
            head, base, (m,) + tail, (0, k) + degs, _or_column(inn, cols[0][d]), girth[d], kept
        )
        # In a block holding a multiple of _CROSS_CHECK_EVERY, the first
        # kept choice at or after it (at labeled n <= 5 the multiple itself
        # has vertex 0 empty).
        if r < kept.stop:
            b.again = r = max(r, kept.start)
            hit = _girth_masks(head.n, b.out(r), b.inn(r))
            g = None if hit is None else hit[0]
            if g != b.girth[r]:
                raise TheoremViolation(
                    f"girth table says {b.girth[r]}, breadth-first search says {g}, "
                    f"on:\n{b.text(r)}"
                )
        yield b


@functools.lru_cache(maxsize=64)
def _vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every pair u < v of vertices 0..n-1, in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@functools.lru_cache(maxsize=64)
def _feasible_p(n: int) -> tuple[int, ...]:
    """The singleton counts a random instance at size n may draw: size-2
    families need two distinct vertex pairs."""
    return tuple(q for q in range(n + 1) if q == n or len(_vertex_pairs(n)) >= 2)


def random_rainbow_instance(
    n: int, p: int, seed: int, disjoint: bool = True
) -> RainbowInstance:
    """A seeded random instance: n edge families on n vertices, p singletons.

    disjoint=True draws all edges distinct across families; False lets
    families collide.  Family sizes are shuffled across positions.
    Raises Infeasible when no such instance exists.
    """
    if not 0 <= p <= n:
        raise Infeasible(f"p must lie in 0..{n}, got {p}")
    pairs = _vertex_pairs(n)
    if n >= 1 and not pairs:
        raise Infeasible("no loop-free edges exist on fewer than two vertices")
    if p < n and len(pairs) < 2:
        raise Infeasible("size-2 families need at least two distinct vertex pairs")
    need = 2 * n - p
    if disjoint and need > len(pairs):
        raise Infeasible(
            f"{need} distinct edges needed, only {len(pairs)} exist on {n} vertices"
        )
    rng = random.Random(seed)
    sizes = [1] * p + [2] * (n - p)
    rng.shuffle(sizes)
    fams: list[list[tuple[int, int]]] = []
    if disjoint:
        drawn = rng.sample(pairs, need)
        pos = 0
        for s in sizes:
            fams.append(drawn[pos : pos + s])
            pos += s
    else:
        for s in sizes:
            fams.append(rng.sample(pairs, s))
    return RainbowInstance(n, fams, simple_origin=True)


def _instance_seed(seed: int, n: int, i: int) -> int:
    return ((seed * 1_000_003 + n) * 1_000_003 + i) % (1 << 63)


def _rainbow_for_index(n: int, seed: int, i: int) -> RainbowInstance:
    """The i-th random instance at size n >= 2: mixed p, mixed disjointness."""
    rng = random.Random(_instance_seed(seed, n, i))
    p = rng.choice(_feasible_p(n))
    disjoint_ok = 2 * n - p <= len(_vertex_pairs(n))
    disjoint = disjoint_ok and rng.random() < 0.5
    return random_rainbow_instance(n, p, rng.randrange(1 << 32), disjoint=disjoint)


# ---------------------------------------------------------------------------
# Per-instance checks


def _beats(a: Sequence[Any], b: Sequence[Any]) -> bool:
    """Whether ratio candidate a = (num, den, n, index, ...) outranks b.

    The larger ratio wins; equal ratios go to the smaller (n, index).
    Denominators are positive, so cross-multiplying compares exactly.
    """
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    return lhs > rhs or (lhs == rhs and (a[2], a[3]) < (b[2], b[3]))


@dataclass(slots=True)
class _RainbowRun:
    """Seeded rainbow instances base + r at size n, r < len(insts), each
    with its construction built[r]: the certificate, or None and why, and
    every greedy subgraph grown."""

    n: int
    base: int
    insts: list[RainbowInstance]
    built: list[tuple[RainbowCycleCertificate | None, str, Collector]]

    @property
    def kept(self) -> range:
        """The choices the checks run on: every instance of the run."""
        return range(len(self.insts))

    def text(self, r: int) -> str:
        return format_rainbow(self.insts[r])


# Rainbow instances per _RainbowRun: each holds its construction until
# the run's checks are done, so a run stays short.
_RAINBOW_RUN = 16

# What checks run over: a block of digraphs or a run of rainbow instances.
_Unit = Union[_Block, _RainbowRun]


@dataclass(slots=True)
class _Accum:
    """Shard-local tallies for the selected check rows; result() is the
    shard's result for run_suite to merge.

    generated counts the instances of every unit, and deg2 those the
    out-degree-2 rows (the rows with a bound) select; result() derives
    each row's checked count from them, so nothing is tallied per row per
    unit.
    """

    rows: Sequence[_Check]
    generated: int = 0
    deg2: int = 0
    failed: dict[str, int] = field(default_factory=dict)
    violations: list[dict[str, Any]] = field(default_factory=list)
    findings: list[dict[str, Any]] = field(default_factory=list)
    # [num, den, n, index, instance text]: girth/psi is num/den in lowest terms.
    best_ratio: list[Any] | None = None
    tight_count: int = 0
    tight_witnesses: list[tuple[int, int, str]] = field(default_factory=list)
    # Peeling outcomes shared by this shard's two-phi runs; bounded by
    # peeling.PEEL_MEMO_CAP and never part of the shard's result.
    peel_memo: PeelMemo = field(default_factory=dict)

    def record(
        self, kind: str, check: str, x: _Unit, r: int, message: str, certificate: Any = None
    ) -> None:
        rec = {
            "check": check,
            "n": x.n,
            "index": x.base + r,
            "message": message,
            "instance": x.text(r),
            "certificate": certificate,
        }
        (self.violations if kind == "violation" else self.findings).append(rec)

    def offer_ratio(self, num: int, den: int, x: _Block, r: int) -> None:
        index = x.base + r
        if self.best_ratio is None or _beats((num, den, x.n, index), self.best_ratio):
            g = math.gcd(num, den)
            self.best_ratio = [num // g, den // g, x.n, index, x.text(r)]

    def offer_tight(self, x: _Block, r: int) -> None:
        self.tight_count += 1
        if len(self.tight_witnesses) < 5:
            self.tight_witnesses.append((x.n, x.base + r, x.text(r)))

    def result(self) -> dict[str, Any]:
        # A check with nothing checked or passed has no entry there.
        checked = {}
        for c in self.rows:
            if k := self.generated if c.bound is None else self.deg2:
                checked[c.name] = k
        passed = {k: v - self.failed.get(k, 0) for k, v in checked.items()}
        return {
            "generated": self.generated,
            "checked": checked,
            "passed": {k: v for k, v in passed.items() if v},
            "violations": self.violations,
            "findings": self.findings,
            "best_ratio": self.best_ratio,
            "tight_count": self.tight_count,
            "tight_witnesses": self.tight_witnesses,
        }


def _tail_search(out: tuple[int, ...], limit: int) -> tuple[list[int], int]:
    """A search of D - 0 for two cycles (one counted twice allowed) that
    share at most limit vertices: (cycles, least).

    It stops at the first such pair, and then least <= limit.  Otherwise
    cycles holds every cycle of D - 0 as a vertex mask, and least is the
    fewest vertices two of them share, len(out) + 1 if there is none.  D
    has out-masks out; out[0] is never read, so every digraph of a block
    gives the same answer.
    """
    found: list[int] = []
    for s in range(1, len(out)):
        if _pair_dfs(out, limit, found, 1 << s, s, 1 << s):
            return found, limit
    pairs = ((a & b).bit_count() for i, a in enumerate(found) for b in found[i:])
    return found, min(pairs, default=len(out) + 1)


def _cycle_pair_within(out: tuple[int, ...], limit: int, rest: list[int], least: int) -> bool:
    """True iff some two cycles (one counted twice allowed) share <= limit vertices.

    rest and least are _tail_search(out, l) for some l, all of D - 0's
    cycles if least > l: a pair within D - 0 is settled by least, so only
    the cycles through vertex 0 are enumerated, each compared against
    itself, rest and the earlier ones, exiting on the first qualifying
    pair.  Intended for small bounded-degree graphs.
    """
    return least <= limit or _pair_dfs(out, limit, list(rest), 1, 0, 1)


def _pair_dfs(
    out: tuple[int, ...], limit: int, found: list[int], sbit: int, w: int, used: int
) -> bool:
    """Extend the path on vertex set used, from sbit's vertex to w, by each
    arc out of w: closing a cycle at sbit, or to a larger unused vertex.
    Each closed cycle's mask joins found."""
    m = out[w]
    while m:
        low = m & -m
        m ^= low
        if low == sbit:
            if used.bit_count() <= limit:
                return True
            for pm in found:
                if (pm & used).bit_count() <= limit:
                    return True
            found.append(used)
        elif low > sbit and not (used & low):
            if _pair_dfs(out, limit, found, sbit, low.bit_length() - 1, used | low):
                return True
    return False


# A check runs over the choices rs of a unit and yields (r, failure) for
# each one that fails: a message or a (message, certificate JSON) pair.
_Failure = Union[str, tuple[str, Any]]
_Failures = Iterator[tuple[int, _Failure]]


def _check_eq1(b: _Block, rs: Sequence[int], acc: _Accum) -> _Failures:
    # Summed over v, the right side of (1) adds gains[deg(u)] per arc u -> v:
    # the tail terms hold those of vertices 1.., head.rhs0 vertex 0's.
    scale, phi0, rhs0 = b.head.scale, b.head.phi0, b.head.rhs0
    _, tail_phi, rhs = b.terms()
    tail_rhs = sum(rhs)
    for r in rs:
        rhs_total = tail_rhs + rhs0[r]
        phi_m = tail_phi + phi0[r]
        if rhs_total != phi_m:
            yield r, (
                f"removability right sides sum to {rhs_total}/{scale}, "
                f"phi is {phi_m}/{scale}"
            )


def _check_two_phi(b: _Block, rs: Sequence[int], acc: _Accum) -> _Failures:
    # One peeler serves the block: the choices that remove vertex 0 first
    # share one memo key, D - 0's (see peeling.BlockPeeler).  It gives each
    # choice's cycle; one validator checks each distinct cycle once and each
    # choice's head alone, and a certificate is built only for a cycle that
    # leaves the block, in a violation or a cross-check.
    n, scale, girth, first, phi0 = b.n, b.head.scale, b.girth, b.head.first, b.head.phi0
    peeler = BlockPeeler(n, b.tail, b.tail_inn, b.terms(), acc.peel_memo)
    valid = BlockCycleValidator(n, b.tail).valid
    tail_phi = peeler.tail_phi
    for r in rs:
        g, phi_m = girth[r], tail_phi + phi0[r]
        if g is None or g * scale > 2 * phi_m:
            yield r, f"girth {g} exceeds 2 phi = {2 * phi_m}/{scale}"
            continue
        h = first[r]
        try:
            cyc = peeler.cycle(h)
        except CounterexampleFound as exc:
            yield r, f"{type(exc).__name__}: {exc}"
            continue
        if not valid(h, cyc):
            cert = peeler.certificate(h)
            yield r, ("peeling produced an invalid certificate", cycle_cert_json(cert))
        elif r == b.again and not _peels_alike(b.digraph(r), cert := peeler.certificate(h)):
            yield r, ("block peeling and a run from scratch disagree", cycle_cert_json(cert))
        elif g * scale == 2 * phi_m:
            acc.offer_tight(b, r)


def _peels_alike(d: Digraph, cert: CycleCertificate) -> bool:
    """Whether a run from scratch on d, with no memo, gives cert, and
    validate_cycle accepts it on d."""
    try:
        return short_cycle_via_peeling(d) == cert and validate_cycle(d, cert)
    except CounterexampleFound:
        return False


def _check_two_psi_strict(b: _Block, rs: Sequence[int], acc: _Accum) -> _Failures:
    scale, girth, psi0 = b.head.scale, b.girth, b.head.psi0
    tail_psi = _psi_scaled(scale, b.degs[1:])
    # The block's largest girth/psi, the first on ties, is offered once.
    best: tuple[int, int, int] | None = None
    for r in rs:
        g, psi_m = girth[r], tail_psi + psi0[r]
        if g is not None and (best is None or g * scale * best[1] > best[0] * psi_m):
            best = (g * scale, psi_m, r)
        if g is None or g * scale >= 2 * psi_m:
            yield r, f"girth {g} is not strictly below 2 psi = {2 * psi_m}/{scale}"
    if best is not None:
        num, den, r = best
        acc.offer_ratio(num, den, b, r)


def _check_chc(b: _Block, rs: Sequence[int], acc: _Accum) -> _Failures:
    n, girth, deg0 = b.n, b.girth, b.head.deg0
    tail_min = min(b.degs[1:], default=n)
    for r in rs:
        g = girth[r]
        bound = -(-n // min(tail_min, deg0[r]))
        if g is None or g > bound:
            yield r, f"girth {g} exceeds ceil(n / min out-degree) = {bound}"


def _check_deg2_girth(b: _Block, rs: Sequence[int], acc: _Accum) -> _Failures:
    # Instance again also gets the exhaustive oracle's certificate, from
    # the cycle pair two-cycles reads too, and it must validate on the
    # instance's out-masks.
    n, girth, deg0, again = b.n, b.girth, b.head.deg0, b.again
    tail_p = b.degs.count(1)
    for r in rs:
        g = girth[r]
        bound = (n + tail_p + (deg0[r] == 1) + 1) // 2
        if g is None or g > bound:
            yield r, f"girth {g} exceeds ceil((n + p) / 2) = {bound}"
        elif r == again:
            try:
                cert = deg2_short_cycle(b.digraph(r), b.again_pair())
            except CounterexampleFound as exc:
                yield r, f"{type(exc).__name__}: {exc}"
                continue
            if not validate_cycle_masks(n, b.out(r), cert):
                yield r, ("exhaustive short cycle failed validation", cycle_cert_json(cert))


def _check_two_cycles(b: _Block, rs: Sequence[int], acc: _Accum) -> _Failures:
    """Whether two cycles of each instance share at most p + 1 vertices.

    A head's limit is p + 1 = tail_p + (deg0 == 1) + 1, so D - 0 is first
    searched at the least, tail_p + 1, where tail_p counts the out-degree-1
    vertices among 1...  A pair it finds lies in every instance within
    every limit: each head passes, and only again is walked, for the
    oracle.  Otherwise the search has listed every cycle of D - 0 and
    their least intersection, which each head's scan reads; a head whose
    girth is within its limit needs no scan.  Instance again, and any head
    the scan fails, is searched by the exhaustive oracle too.
    """
    girth, deg0, again = b.girth, b.head.deg0, b.again
    tail_p = b.degs.count(1)
    cycles, least = _tail_search((0,) + b.tail, tail_p + 1)
    settled = least <= tail_p + 1
    if settled:
        rs = () if again is None or again not in rs else (again,)
    for r in rs:
        limit = tail_p + (deg0[r] == 1) + 1
        g = girth[r]
        # A cycle no longer than the limit pairs with itself.
        ok = (
            settled
            or (g is not None and g <= limit)
            or _cycle_pair_within(b.out(r), limit, cycles, least)
        )
        if ok and r != again:
            continue
        try:
            pair = b.again_pair() if r == again else two_cycles_min_intersection(b.digraph(r))
            oracle_ok = len(pair.intersection) <= limit
        except TheoremViolation:
            oracle_ok = False
        if oracle_ok != ok:
            yield r, "fast pair scan disagrees with the exhaustive oracle"
        elif not ok:
            yield r, f"every cycle pair meets in more than p + 1 = {limit} vertices"


def _check_rainbow_bound(x: _RainbowRun, rs: Sequence[int], acc: _Accum) -> _Failures:
    for r in rs:
        inst = x.insts[r]
        cert, why, _ = x.built[r]
        if cert is None:
            yield r, (why, None)
            continue
        bound = (inst.n + inst.p + 1) // 2
        if not validate_rainbow_cycle(inst, cert) or cert.length > bound:
            why = "constructed cycle invalid or longer than ceil((n + p) / 2)"
            yield r, (why, rainbow_cert_json(cert))
            continue
        exact, _ = shortest_rainbow_cycle_exact(inst)
        if exact > cert.length:
            yield r, (
                f"independent search says the shortest rainbow cycle has "
                f"length {exact}, yet one of length {cert.length} validated",
                rainbow_cert_json(cert),
            )
        # Otherwise exact <= cert.length <= ceil((n + p) / 2); at p = 0, where
        # all families have size exactly 2, that is the stronger published
        # ceil(n/2) bound, so it needs no check of its own.


def _check_rd_claim(x: _RainbowRun, rs: Sequence[int], acc: _Accum) -> _Failures:
    # An instance's first failing greedy subgraph is its failure.
    for r in rs:
        for _, h in x.built[r][2]:
            try:
                dists = all_pairs_rainbow_distances(h)
            except CounterexampleFound as exc:
                yield r, f"{type(exc).__name__}: {exc}"
                break
            bound = h.t // 2 + 1
            if any(dv > bound for dv in dists.values()):
                yield r, f"a vertex pair has rainbow distance above {bound}"
                break
            if h.t % 2 == 0:
                extremal = sum(1 for dv in dists.values() if dv == bound)
                if extremal > 1:
                    yield r, (
                        f"{extremal} pairs sit at the extremal distance {bound}; "
                        "at most one may"
                    )
                    break


class _Check(NamedTuple):
    name: str
    run: Callable[[Any, Sequence[int], _Accum], _Failures]
    kind: str  # what a failure records: "violation" (proved) or "finding" (open)
    # Set on the out-degree-2 rows alone (they select _deg2_choices): the
    # least bound of a block's heads, vertex 0's with out-degree 2, from n
    # and p, the out-degree-1 vertices among 1..; see _run_checks.
    bound: Callable[[int, int], int] | None = None


# Run in this order, so what one check derives serves the later ones.  A
# check's name is spelled here alone; the name lists below derive from it.
_DIGRAPH_ROWS = (
    _Check("eq1-identity", _check_eq1, "violation"),
    _Check("two-phi", _check_two_phi, "violation"),
    _Check("two-psi-strict", _check_two_psi_strict, "violation"),
    _Check("chc", _check_chc, "finding"),
    _Check("deg2-girth", _check_deg2_girth, "violation", lambda n, p: (n + p + 1) // 2),
    _Check("two-cycles", _check_two_cycles, "violation", lambda n, p: p + 1),
)
_RAINBOW_ROWS = (
    _Check("rainbow-bound", _check_rainbow_bound, "violation"),
    _Check("rd-claim", _check_rd_claim, "violation"),
)
_CHECKS = _DIGRAPH_ROWS + _RAINBOW_ROWS
DIGRAPH_CHECKS = tuple(c.name for c in _DIGRAPH_ROWS)
RAINBOW_CHECKS = tuple(c.name for c in _RAINBOW_ROWS)
ALL_CHECKS = DIGRAPH_CHECKS + RAINBOW_CHECKS


def _name_of(run: Callable[..., _Failures]) -> str:
    """The name of the check table row whose function is run."""
    return next(c.name for c in _CHECKS if c.run is run)


def _deg2_choices(head: _Head, top: int, rs: Sequence[int]) -> Sequence[int]:
    """The choices of rs the out-degree-2 rows select in a block whose
    tail's largest out-degree, vertex 1's included, is top: those with
    deg0 <= 2, under a tail whose out-degrees are all at most 2 too, and
    none under any other tail."""
    if top > 2:
        return ()
    if head.deg2:  # every choice qualifies
        return rs
    deg0 = head.deg0
    return [r for r in rs if deg0[r] <= 2]


def _least_bounds(rows: Sequence[_Check], n: int) -> list[int] | None:
    """For each p, the out-degree-1 count of vertices 1.., the least bound
    of rows at n: the girth within which a block settles every row.  None
    if some row has no bound, so the sweep counts no block unbuilt."""
    if not rows or any(c.bound is None for c in rows):
        return None
    return [min(c.bound(n, p) for c in rows) for p in range(n)]


def _run_checks(x: _Unit, acc: _Accum) -> None:
    """Run each of acc's rows over the kept choices of x, counting them
    generated, and the ones the out-degree-2 rows (the rows with a bound)
    select once, in acc.deg2.  That selection and p, the bound's
    out-degree-1 count, are made once per block.  Such a row walks only
    again, if selected, of a block whose girths are all within its bound:
    g(D - 0), which none exceeds, or else the table's largest entry, read
    once per block.

    When every selected row has a bound, _run_shard's sweep counts each
    block unbuilt that holds no again and that g(D - 0) settles or no row
    selects anything of, so only the blocks g(D - 0) leaves open and those
    holding again reach here then."""
    rs = x.kept
    acc.generated += len(rs)
    deg2_rs: Sequence[int] | None = None
    for name, run, kind, bound in acc.rows:
        sel = rs
        if bound is not None:  # an out-degree-2 row, so x is a _Block
            if deg2_rs is None:
                deg2_rs = _deg2_choices(x.head, max(x.degs), rs)
                acc.deg2 += len(deg2_rs)
                # p, and the table's largest girth: None if it holds None, 0 until read.
                p, top = x.degs.count(1), 0
            sel = deg2_rs
            if not sel:
                continue
            least, g0 = bound(x.n, p), x.g0
            settled = g0 is not None and g0 <= least
            if not settled:
                if top == 0:
                    girth = x.girth
                    top = None if None in girth else max(girth)
                settled = top is not None and top <= least
            if settled:
                if x.again is None or x.again not in sel:
                    continue
                sel = (x.again,)
        for r, fail in run(x, sel, acc):
            acc.failed[name] = acc.failed.get(name, 0) + 1
            message, certificate = fail if isinstance(fail, tuple) else (fail, None)
            acc.record(kind, name, x, r, message, certificate)


# ---------------------------------------------------------------------------
# Populations


def _sweep_size(cfg: SuiteConfig, n: int) -> int:
    return math.prod(map(len, _POPULATIONS[cfg.generator].sweep(cfg, n)))


def _rainbow_runs(
    cfg: SuiteConfig, n: int, lo: int, hi: int, acc: _Accum | None = None
) -> Iterator[_RainbowRun]:
    # Both rainbow checks read every construction, so each is built here,
    # once.  Rainbow rows have no bound, so acc settles no run.
    for base in range(lo, hi, _RAINBOW_RUN):
        top = min(base + _RAINBOW_RUN, hi)
        insts = [_rainbow_for_index(n, cfg.seed, i) for i in range(base, top)]
        built = []
        for inst in insts:
            grown: Collector = []
            try:
                built.append((find_rainbow_cycle(inst, collect=grown), "", grown))
            except CounterexampleFound as exc:
                built.append((None, f"{type(exc).__name__}: {exc}", grown))
        yield _RainbowRun(n, base, insts, built)


def _check_degrees(cfg: SuiteConfig) -> None:
    if not 1 <= cfg.dmin <= cfg.dmax:
        raise GraphInputError(f"bad degree range {cfg.dmin}..{cfg.dmax}")


def _check_rainbow(cfg: SuiteConfig) -> None:
    if cfg.n_lo < 2:
        raise GraphInputError("rainbow instances need n >= 2")
    if cfg.count < 1:
        raise GraphInputError("count must be >= 1")


class _Population(NamedTuple):
    """All that differs between the populations run_suite can sweep."""

    name: str  # SuiteConfig.generator; on the CLI, --generator NAME[:VALUE...]
    spelling: str  # for CLI help and errors
    cap: int  # the largest n
    # The int SuiteConfig fields the report's config adds; the CLI's VALUEs
    # give them in this order.
    keys: tuple[str, ...]
    checks: tuple[str, ...]  # the checks that apply; the CLI's default
    # A digraph population's out-mask choice lists at n.
    sweep: Callable[[SuiteConfig, int], list[tuple[int, ...]]] | None = None
    size: Callable[[SuiteConfig, int], int] = _sweep_size  # domain indices at n
    # The units over domain indices [lo, hi) at n, each with its kept
    # choices; a digraph population's are its sweep's blocks, less those
    # the sweep counts into the shard's acc unbuilt (see _sweep).
    units: Callable[..., Iterator[_Unit]] = lambda cfg, n, lo, hi, acc=None: _sweep(
        _POPULATIONS[cfg.generator].sweep(cfg, n), lo, hi, acc
    )
    validate: Callable[[SuiteConfig], None] = lambda cfg: None  # raises if out of range

    def parse(self, rest: str) -> dict[str, int]:
        """SuiteConfig keywords from the CLI's VALUEs, none for SuiteConfig's
        defaults; a ValueError if they are malformed."""
        if not rest:
            return {}
        return {k: int(v) for k, v in zip(self.keys, rest.split(":"), strict=True)}


_LABELED = _Population(
    "labeled", "labeled", LABELED_CAP, (), DIGRAPH_CHECKS,
    sweep=lambda cfg, n: _outmap_choices(n, 0, n - 1),
)
_OUTMAPS = _Population(
    "outmaps", "outmaps[:DMIN:DMAX]", OUTMAP_CAP, ("dmin", "dmax"), DIGRAPH_CHECKS,
    sweep=lambda cfg, n: _outmap_choices(n, cfg.dmin, cfg.dmax),
    validate=_check_degrees,
)
_RAINBOW = _Population(
    "rainbow", "rainbow[:COUNT]", RAINBOW_CAP, ("count",), RAINBOW_CHECKS,
    size=lambda cfg, n: cfg.count, units=_rainbow_runs,
    validate=_check_rainbow,
)
_POPULATIONS = {p.name: p for p in (_LABELED, _OUTMAPS, _RAINBOW)}


# ---------------------------------------------------------------------------
# Sharded driver


def _run_shard(cfg: SuiteConfig, n: int, lo: int, hi: int) -> dict[str, Any]:
    """Process raw domain indices [lo, hi) at size n."""
    acc = _Accum([c for c in _CHECKS if c.name in cfg.checks])
    for x in _POPULATIONS[cfg.generator].units(cfg, n, lo, hi, acc):
        _run_checks(x, acc)
    return acc.result()


# A task index, as the parent sends it down a worker's own task pipe.
_INDEX = struct.Struct("=I")


def _serve(tasks: list[tuple[SuiteConfig, int, int, int]], task_r: int, res_w: int) -> None:
    """A forked worker's loop: run each shard whose index comes down its
    task pipe, until that pipe closes, and send back its pickled outcome."""
    with open(res_w, "wb") as out:
        while raw := os.read(task_r, _INDEX.size):
            try:
                res = (True, _run_shard(*tasks[_INDEX.unpack(raw)[0]]))
            except Exception as exc:
                res = (False, exc)
            out.write(pickle.dumps(res, pickle.HIGHEST_PROTOCOL))
            out.flush()


def _forked_results(
    tasks: list[tuple[SuiteConfig, int, int, int]], k: int
) -> Iterator[dict[str, Any]]:
    """Each task's shard result, in task order, from k forked workers.

    Each worker owes one shard at a time: the parent sends it the next
    task index down its own task pipe when its result comes back, so the
    next shard goes to the first free worker, and nothing follows a result
    on its pipe.  Results that arrive early wait here for their turn; a
    shard's exception is raised again in its turn, and a worker that dies
    owing a shard raises ChildProcessError naming it.  The workers leave
    when their task pipes close at the end; on an early exit the ones still
    running are killed.  Either way every worker is reaped.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    opened: set[int] = set()  # pipe ends the parent has yet to close
    # A worker's result pipe -> its pid, its task pipe and a reader of it that
    # leaves closing it to close(), until reaped.
    workers: dict[int, tuple[int, int, BinaryIO]] = {}
    finished = False

    def close(fd: int) -> None:
        opened.discard(fd)
        os.close(fd)

    try:
        for _ in range(k):
            task_r, task_w = os.pipe()
            res_r, res_w = os.pipe()
            opened |= {task_r, task_w, res_r, res_w}
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in opened - {task_r, res_w}:
                        os.close(fd)
                    _serve(tasks, task_r, res_w)
                    code = 0
                finally:
                    os._exit(code)
            close(task_r)
            close(res_w)
            workers[res_r] = (pid, task_w, open(res_r, "rb", closefd=False))
        pending = iter(range(len(tasks)))
        owed: dict[int, int] = {}  # a worker's result pipe -> the shard it owes
        poller = select.poll()

        def feed(fd: int) -> None:
            """Send the worker on result pipe fd its next shard, if one is left;
            if not, it idles until its task pipe closes."""
            j = next(pending, None)
            if j is None:
                poller.unregister(fd)
                return
            owed[fd] = j
            try:
                os.write(workers[fd][1], _INDEX.pack(j))
            except BrokenPipeError:
                pass  # the worker is dead; reading its result pipe says so

        for fd in workers:
            poller.register(fd, select.POLLIN)
            feed(fd)
        done: dict[int, tuple[bool, Any]] = {}
        for i in range(len(tasks)):
            while i not in done:
                for fd, _ in poller.poll():
                    j = owed.pop(fd)
                    try:
                        done[j] = pickle.load(workers[fd][2])
                    except (EOFError, pickle.UnpicklingError):
                        _, status = os.waitpid(workers.pop(fd)[0], 0)
                        raise ChildProcessError(
                            f"a worker exited with code {os.waitstatus_to_exitcode(status)} "
                            f"before returning shard {j + 1}/{len(tasks)} (n={tasks[j][1]})"
                        ) from None
                    feed(fd)
            ok, res = done.pop(i)
            if not ok:
                raise res
            yield res
        finished = True
    finally:
        for fd in list(opened):
            close(fd)
        for pid, _, _ in workers.values():
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _shard_results(
    cfg: SuiteConfig, tasks: list[tuple[SuiteConfig, int, int, int]]
) -> Iterator[dict[str, Any]]:
    """Each task's shard result, in task order, from cfg.workers forked
    workers, or one per task if fewer, when there are several; a progress
    line goes to stderr as each one arrives."""
    k = min(cfg.workers, len(tasks))
    results = _forked_results(tasks, k) if k > 1 else (_run_shard(*t) for t in tasks)
    # Run to its end, not cut off by a zip, so the workers are reaped
    # without a signal.
    for i, res in enumerate(results):
        print(
            f"progress: shard {i + 1}/{len(tasks)} done (n={tasks[i][1]})",
            file=sys.stderr,
            flush=True,
        )
        yield res


def run_suite(cfg: SuiteConfig) -> Report:
    """Run every selected check over the configured population."""
    cfg.validate()
    report = Report(config=cfg.to_json_dict())
    tasks: list[tuple[SuiteConfig, int, int, int]] = []
    pop = _POPULATIONS[cfg.generator]
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        size = pop.size(cfg, n)
        if size == 0:
            continue
        shards = min(cfg.workers * 4, size) if cfg.workers > 1 else 1
        step = -(-size // shards)
        for lo in range(0, size, step):
            tasks.append((cfg, n, lo, min(lo + step, size)))
    best: list[Any] | None = None
    tight_count = 0
    tight_witnesses: list[tuple[int, int, str]] = []
    for res in _shard_results(cfg, tasks):
        report.instances_generated += res["generated"]
        for k, v in res["checked"].items():
            report.checked[k] = report.checked.get(k, 0) + v
        for k, v in res["passed"].items():
            report.passed[k] = report.passed.get(k, 0) + v
        report.violations.extend(res["violations"])
        report.findings.extend(res["findings"])
        cand = res["best_ratio"]
        if cand is not None and (best is None or _beats(cand, best)):
            best = cand
        tight_count += res["tight_count"]
        tight_witnesses.extend((wn, wi, wt) for wn, wi, wt in res["tight_witnesses"])
    extremal: dict[str, Any] = {}
    if best is not None:
        num, den, bn, bi, btext = best
        extremal["max_girth_psi_ratio"] = {
            "ratio": rational_json(Fraction(num, den)),
            "n": bn,
            "index": bi,
            "instance": btext,
        }
    if _name_of(_check_two_phi) in cfg.checks:
        tight_witnesses.sort()
        extremal["tightness"] = {
            "count": tight_count,
            "witnesses": [t for _, _, t in tight_witnesses[:5]],
        }
    report.extremal = extremal
    return report


# ---------------------------------------------------------------------------
# Extremal ratio search


def extremal_ratio_search(n: int, budget: int, seed: int = 0) -> Report:
    """Search sink-less digraphs on n vertices for a large girth/psi ratio.

    Exhaustive when the sink-less population, (2^(n-1) - 1)^n digraphs,
    fits the budget, otherwise seeded random restarts with single-arc-flip
    hill climbing; either way at most budget digraphs are evaluated.  The
    exhaustive mode is a shard of the labeled sink-less population with
    the two-psi-strict check, which reads each block's girth table and
    its tail's psi.  Every evaluated ratio is asserted to stay below 2; the best
    one found is reported with its witness.  This explores; it proves
    nothing about instances it never visits.  Capped at n <= SEARCH_CAP.
    """
    if n < 2:
        raise GraphInputError("need n >= 2 for a sink-less digraph")
    if n > SEARCH_CAP:
        raise LimitExceeded(f"search-ratio is capped at n <= {SEARCH_CAP}, asked for {n}")
    if budget < 0:
        raise GraphInputError("budget must be >= 0")
    report = Report(
        config={"generator": "ratio-search", "n": n, "budget": budget, "seed": seed}
    )
    if budget == 0:
        return report
    if ((1 << (n - 1)) - 1) ** n <= budget:
        report.config["mode"] = "exhaustive"
        cfg = SuiteConfig(n, n, _LABELED.name, (_name_of(_check_two_psi_strict),))
        res = _run_shard(cfg, n, 0, 1 << (n * (n - 1)))
        if res["violations"]:
            v = res["violations"][0]
            raise TheoremViolation(f"{v['message']}, on:\n{v['instance']}")
        evaluated = res["generated"]
        num, den, _, _, text = res["best_ratio"]
        ratio, d = Fraction(num, den), parse_digraph(text)
    else:
        report.config["mode"] = "hill-climb"
        rng = random.Random(seed)
        scale = _scale(n)
        evaluated = 0
        best: tuple[Fraction, tuple[int, ...]] | None = None
        # Each round evaluates one candidate: a fresh random sink-less start
        # in the first round and after 200 flips in a row fell below current,
        # else current with one arc flipped (draws that flip a loop or leave
        # a sink are skipped).
        stale = 200
        while evaluated < budget:
            if stale >= 200:
                cand = []
                for u in range(n):
                    m = 0
                    while not m:
                        m = rng.randrange(1, 1 << n) & ~(1 << u)
                    cand.append(m)
            else:
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                cand = list(current)
                cand[u] ^= 1 << v
                if cand[u] == 0:
                    continue
            out = tuple(cand)
            evaluated += 1
            psi_m = _psi_scaled(scale, [m.bit_count() for m in out])
            hit = _girth_masks(n, out, in_masks_of(out))
            assert hit is not None  # sink-less digraphs always contain a cycle
            r = Fraction(hit[0] * scale, psi_m)
            if r >= 2:
                raise TheoremViolation(
                    f"girth / psi ratio {r} reaches 2 on:\n"
                    + format_digraph(Digraph.from_out_masks(n, out))
                )
            if best is None or r > best[0]:
                best = (r, out)
            if stale >= 200 or r >= current_ratio:
                current, current_ratio, stale = out, r, 0
            else:
                stale += 1
        assert best is not None
        ratio, out = best
        d = Digraph.from_out_masks(n, out)
    psi_d = psi(d)
    report.extremal["max_girth_psi_ratio"] = {
        "ratio": rational_json(ratio),
        "girth": int(ratio * psi_d),  # the ratio is girth / psi exactly
        "psi": rational_json(psi_d),
        "instance": format_digraph(d),
    }
    report.instances_generated = evaluated
    return report
