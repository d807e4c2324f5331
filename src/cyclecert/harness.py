"""Exhaustive and randomized verification harness.

Populations are all labeled digraphs, all bounded-out-degree maps (both
from one mixed-radix generator over per-vertex out-mask choices), or
seeded random rainbow instances.  run_suite streams them through the
named checks of one table and returns a deterministic Report.  Checks of
proved statements record violations, which callers treat as fatal;
checks of open conjectures record findings only.  Reports are
independent of the worker count: shards partition the index space and
merge by sums, concatenation sorted by index, and tie-broken extremes.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from operator import or_
from typing import Any, Callable, Iterator, NamedTuple, Sequence, Union

from .certificates import RainbowCycleCertificate, validate_cycle, validate_rainbow_cycle
from .digraph import Digraph, in_masks_of
from .errors import (
    CapExceeded,
    CounterexampleFound,
    GraphInputError,
    Infeasible,
    TheoremViolation,
)
from .families import RainbowInstance
from .formats import (
    cycle_cert_json,
    format_digraph,
    format_rainbow,
    rainbow_cert_json,
    rational_json,
)
from .oracles import _girth_masks, shortest_rainbow_cycle_exact, two_cycles_min_intersection
from .peeling import (
    PeelMemo,
    _gains,
    _phi_scaled,
    _psi_scaled,
    _rhs_scaled,
    _scale,
    psi,
    short_cycle_via_peeling,
)
from .rainbow import Collector, all_pairs_rainbow_distances, find_rainbow_cycle

LABELED_CAP = 5
OUTMAP_CAP = 7
RAINBOW_CAP = 12
# run_suite starts this many worker processes at most.
WORKERS_CAP = 64

CHECK_TWO_PHI = "two-phi"
CHECK_TWO_PSI_STRICT = "two-psi-strict"
CHECK_CHC = "chc"
CHECK_TWO_CYCLES = "two-cycles"
CHECK_DEG2_GIRTH = "deg2-girth"
CHECK_EQ1 = "eq1-identity"
CHECK_RAINBOW_BOUND = "rainbow-bound"
CHECK_RD_CLAIM = "rd-claim"

DIGRAPH_CHECKS = (
    CHECK_TWO_PHI,
    CHECK_TWO_PSI_STRICT,
    CHECK_CHC,
    CHECK_TWO_CYCLES,
    CHECK_DEG2_GIRTH,
    CHECK_EQ1,
)
RAINBOW_CHECKS = (CHECK_RAINBOW_BOUND, CHECK_RD_CLAIM)
ALL_CHECKS = DIGRAPH_CHECKS + RAINBOW_CHECKS

_GENERATORS = ("labeled", "outmaps", "rainbow")
_FILTERS = ("none", "sinkless", "strong")

# How often the fast pair scan is re-derived through the full oracle.
_CROSS_CHECK_EVERY = 100_000


@dataclass(frozen=True)
class SuiteConfig:
    """What to enumerate and what to check.

    n_lo..n_hi is inclusive.  generator is "labeled" (all labeled
    digraphs, optionally filtered), "outmaps" (every assignment of
    out-neighborhoods with dmin <= out-degree <= dmax), or "rainbow"
    (count seeded random instances per n).  Every check must apply to
    the chosen generator kind.
    """

    n_lo: int
    n_hi: int
    generator: str
    checks: tuple[str, ...]
    filter: str = "sinkless"
    dmin: int = 1
    dmax: int = 2
    count: int = 100
    workers: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.generator not in _GENERATORS:
            raise GraphInputError(f"unknown generator {self.generator!r}")
        if self.filter not in _FILTERS:
            raise GraphInputError(f"unknown filter {self.filter!r}")
        if not self.checks:
            raise GraphInputError("no checks selected")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise GraphInputError(f"unknown check {c!r}")
        allowed = RAINBOW_CHECKS if self.generator == "rainbow" else DIGRAPH_CHECKS
        for c in self.checks:
            if c not in allowed:
                raise GraphInputError(
                    f"check {c!r} does not apply to generator {self.generator!r}"
                )
        if self.n_lo < 1 or self.n_lo > self.n_hi:
            raise GraphInputError(f"bad n range {self.n_lo}..{self.n_hi}")
        if self.workers < 1:
            raise GraphInputError("workers must be >= 1")
        if self.workers > WORKERS_CAP:
            raise CapExceeded(f"workers is capped at {WORKERS_CAP}, asked for {self.workers}")
        cap = {"labeled": LABELED_CAP, "outmaps": OUTMAP_CAP, "rainbow": RAINBOW_CAP}[
            self.generator
        ]
        if self.n_hi > cap:
            raise CapExceeded(
                f"generator {self.generator!r} is capped at n <= {cap}, asked for {self.n_hi}"
            )
        if self.generator == "outmaps" and not 1 <= self.dmin <= self.dmax:
            raise GraphInputError(f"bad degree range {self.dmin}..{self.dmax}")
        if self.generator == "rainbow":
            if self.n_lo < 2:
                raise GraphInputError("rainbow instances need n >= 2")
            if self.count < 1:
                raise GraphInputError("count must be >= 1")

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "generator": self.generator,
            "checks": sorted(self.checks),
            "workers": self.workers,
            "seed": self.seed,
        }
        if self.generator == "labeled":
            d["filter"] = self.filter
        if self.generator == "outmaps":
            d["dmin"] = self.dmin
            d["dmax"] = self.dmax
        if self.generator == "rainbow":
            d["count"] = self.count
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


def _sweep(
    choices: list[tuple[int, ...]], lo: int, hi: int, filter: str = "none"
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(index, out-masks, in-masks) for each mixed-radix index in [lo, hi)
    passing filter.

    Digit u of an index, in radix len(choices[u]) with vertex 0 varying
    fastest, picks vertex u's out-mask from choices[u].  When every
    out-mask is allowed (_outmap_choices(n, 0, n - 1)), the index is the
    arc-bitmask code: arc (u, v) is bit u*(n-1) + v - (v > u).  filter
    "sinkless" drops digraphs with a sink; "strong" keeps only strongly
    connected ones.

    In-masks are carried along the odometer: the part vertices 1.. give
    is derived once per block of vertex-0 choices, and each choice ORs
    in its own column, bit 0 at each of its out-neighbors.  Under a
    filter, a block whose vertices 1.. include a sink is skipped whole,
    as is a vertex-0 choice with no out-arc, before any masks are built.
    """
    if lo >= hi:
        return
    first, later = choices[0], choices[1:]
    r0 = len(first)
    cols = [tuple((m >> v) & 1 for v in range(len(choices))) for m in first]
    sinkless = filter != "none"
    # Vertices 1.. are decoded once per block of r0 consecutive indices.
    for block in range(lo // r0, -(-hi // r0)):
        x = block
        rest = []
        for c in later:
            x, r = divmod(x, len(c))
            rest.append(c[r])
        tail = tuple(rest)
        if sinkless and 0 in tail:
            continue
        tail_inn = in_masks_of((0,) + tail)
        base = block * r0
        for r in range(max(lo - base, 0), min(hi - base, r0)):
            m0 = first[r]
            if sinkless and not m0:
                continue
            out = (m0,) + tail
            # Unpacked rather than tuple(map(...)), which would build a
            # 10-slot tuple and shrink it, filling the interpreter's tuple
            # free lists (about 0.4 MB more peak memory over a sweep).
            inn = (*map(or_, tail_inn, cols[r]),)
            if filter == "strong" and not _is_strongly_connected(out, inn):
                continue
            yield base + r, out, inn


def _is_strongly_connected(out: tuple[int, ...], inn: tuple[int, ...]) -> bool:
    n = len(out)
    for adj in (out, inn):
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~seen
            seen |= frontier
        if seen != (1 << n) - 1:
            return False
    return True


def enumerate_digraphs(n: int, filter: str = "none") -> Iterator[Digraph]:
    """All labeled digraphs on n vertices, in arc-bitmask order.

    filter is "none", "sinkless", or "strong" (strongly connected).
    Capped at n <= LABELED_CAP.
    """
    if n > LABELED_CAP:
        raise CapExceeded(f"labeled enumeration capped at n <= {LABELED_CAP}")
    if filter not in _FILTERS:
        raise GraphInputError(f"unknown filter {filter!r}")
    for _, out, inn in _sweep(_outmap_choices(n, 0, n - 1), 0, 1 << (n * (n - 1)), filter):
        yield Digraph.from_out_masks(n, out, inn)


def enumerate_outmaps(n: int, dmin: int = 1, dmax: int = 2) -> Iterator[Digraph]:
    """All digraphs whose out-degrees all lie in [dmin, dmax].

    There are (sum over d in range of C(n-1, d)) ** n of them; vertex
    0's choice varies fastest.  Capped at n <= OUTMAP_CAP.
    """
    if n > OUTMAP_CAP:
        raise CapExceeded(f"out-degree map enumeration capped at n <= {OUTMAP_CAP}")
    if not 1 <= dmin <= dmax:
        raise GraphInputError(f"bad degree range {dmin}..{dmax}")
    choices = _outmap_choices(n, dmin, dmax)
    for _, out, inn in _sweep(choices, 0, math.prod(map(len, choices))):
        yield Digraph.from_out_masks(n, out, inn)


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
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
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
    """The i-th random instance at size n: mixed p, mixed disjointness."""
    if n < 2:
        raise Infeasible("random rainbow instances need n >= 2")
    rng = random.Random(_instance_seed(seed, n, i))
    feasible = [q for q in range(n + 1) if q == n or math.comb(n, 2) >= 2]
    p = rng.choice(feasible)
    disjoint_ok = 2 * n - p <= math.comb(n, 2)
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
class _Accum:
    """Shard-local tallies; as a dict, a shard's result for run_suite to merge."""

    generated: int = 0
    checked: dict[str, int] = field(default_factory=dict)
    passed: dict[str, int] = field(default_factory=dict)
    violations: list[dict[str, Any]] = field(default_factory=list)
    findings: list[dict[str, Any]] = field(default_factory=list)
    # [num, den, n, index, instance text]: girth/psi is num/den in lowest terms.
    best_ratio: list[Any] | None = None
    tight_count: int = 0
    tight_witnesses: list[tuple[int, int, str]] = field(default_factory=list)

    def hit(self, check: str, ok: bool) -> None:
        self.checked[check] = self.checked.get(check, 0) + 1
        if ok:
            self.passed[check] = self.passed.get(check, 0) + 1

    def record(
        self, kind: str, check: str, case: Any, message: str, certificate: Any = None
    ) -> None:
        rec = {
            "check": check,
            "n": case.n,
            "index": case.index,
            "message": message,
            "instance": case.text,
            "certificate": certificate,
        }
        (self.violations if kind == "violation" else self.findings).append(rec)

    def offer_ratio(self, num: int, den: int, x: _DigraphCase) -> None:
        if self.best_ratio is None or _beats((num, den, x.n, x.index), self.best_ratio):
            g = math.gcd(num, den)
            self.best_ratio = [num // g, den // g, x.n, x.index, x.text]

    def offer_tight(self, x: _DigraphCase) -> None:
        self.tight_count += 1
        if len(self.tight_witnesses) < 5:
            self.tight_witnesses.append((x.n, x.index, x.text))


@dataclass(slots=True)
class _DigraphCase:
    """One digraph under check, given by its out- and in-masks.

    Girth, scaled phi, the Digraph and the text are derived on first
    use, at most once each, so a check pays only for what it reads.
    """

    n: int
    index: int
    out: tuple[int, ...]
    inn: tuple[int, ...]
    scale: int  # lcm(1..n): every potential term scaled by it is an integer
    peel_memo: PeelMemo  # the shard's, for two-phi
    degs: list[int] = field(init=False)
    p: int = field(init=False)  # vertices of out-degree 1
    deg2: bool = field(init=False)  # every out-degree is at most 2
    _girth: int | None = 0  # 0 until computed; None when acyclic
    _phi: int | None = None  # phi times scale, once computed
    _digraph: Digraph | None = None
    _text: str | None = None

    def __post_init__(self) -> None:
        self.degs = degs = [m.bit_count() for m in self.out]
        self.p = degs.count(1)
        self.deg2 = max(degs) <= 2

    @property
    def girth(self) -> int | None:
        if self._girth == 0:
            hit = _girth_masks(self.n, self.out, self.inn)
            self._girth = None if hit is None else hit[0]
        return self._girth

    @property
    def phi(self) -> int:
        if self._phi is None:
            self._phi = _phi_scaled(self.scale, self.degs)
        return self._phi

    @property
    def digraph(self) -> Digraph:
        if self._digraph is None:
            self._digraph = Digraph.from_out_masks(self.n, self.out, self.inn)
        return self._digraph

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = format_digraph(self.digraph)
        return self._text


@dataclass(slots=True)
class _RainbowCase:
    """One rainbow instance under check; the construction runs once, on first use."""

    n: int
    index: int
    inst: RainbowInstance
    _built: tuple[RainbowCycleCertificate | None, str, Collector] | None = None

    @property
    def built(self) -> tuple[RainbowCycleCertificate | None, str, Collector]:
        """(the certificate, or None and why; every greedy subgraph grown)."""
        if self._built is None:
            grown: Collector = []
            try:
                self._built = (find_rainbow_cycle(self.inst, collect=grown), "", grown)
            except CounterexampleFound as exc:
                self._built = (None, f"{type(exc).__name__}: {exc}", grown)
        return self._built

    @property
    def text(self) -> str:
        return format_rainbow(self.inst)


def _cycle_pair_within(n: int, out: tuple[int, ...], limit: int) -> bool:
    """True iff some two cycles (one counted twice allowed) share <= limit vertices.

    Enumerates cycles anchored at their minimum vertex and compares each
    new cycle's vertex mask against all earlier ones, exiting on the
    first qualifying pair.  Intended for small bounded-degree graphs.
    """
    found: list[int] = []

    def dfs(sbit: int, w: int, used: int) -> bool:
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
                if dfs(sbit, low.bit_length() - 1, used | low):
                    return True
        return False

    for s in range(n):
        if dfs(1 << s, s, 1 << s):
            return True
    return False


# A check returns None when the instance passes, else a failure message
# or a (message, certificate JSON) pair.
_Failure = Union[str, tuple[str, Any], None]


def _check_eq1(x: _DigraphCase, acc: _Accum) -> _Failure:
    scale, phi_m, gains = x.scale, x.phi, _gains(x.n, x.n - 1)
    rhs_total = sum(_rhs_scaled(gains, x.degs, mm) for mm in x.inn)
    if rhs_total != phi_m:
        return f"removability right sides sum to {rhs_total}/{scale}, phi is {phi_m}/{scale}"
    return None


def _check_two_phi(x: _DigraphCase, acc: _Accum) -> _Failure:
    scale, phi_m = x.scale, x.phi
    g = x.girth
    if g is None or g * scale > 2 * phi_m:
        return f"girth {g} exceeds 2 phi = {2 * phi_m}/{scale}"
    d = x.digraph
    try:
        cert = short_cycle_via_peeling(d, x.peel_memo)
    except CounterexampleFound as exc:
        return f"{type(exc).__name__}: {exc}"
    if not validate_cycle(d, cert):
        return "peeling produced an invalid certificate", cycle_cert_json(cert)
    if g * scale == 2 * phi_m:
        acc.offer_tight(x)
    return None


def _check_two_psi_strict(x: _DigraphCase, acc: _Accum) -> _Failure:
    scale = x.scale
    psi_m = _psi_scaled(scale, x.degs)
    g = x.girth
    if g is not None:
        acc.offer_ratio(g * scale, psi_m, x)
    if g is None or g * scale >= 2 * psi_m:
        return f"girth {g} is not strictly below 2 psi = {2 * psi_m}/{scale}"
    return None


def _check_chc(x: _DigraphCase, acc: _Accum) -> _Failure:
    g = x.girth
    bound = -(-x.n // min(x.degs))
    if g is None or g > bound:
        return f"girth {g} exceeds ceil(n / min out-degree) = {bound}"
    return None


def _check_deg2_girth(x: _DigraphCase, acc: _Accum) -> _Failure:
    g = x.girth
    bound = (x.n + x.p + 1) // 2
    if g is None or g > bound:
        return f"girth {g} exceeds ceil((n + p) / 2) = {bound}"
    return None


def _check_two_cycles(x: _DigraphCase, acc: _Accum) -> _Failure:
    limit = x.p + 1
    g = x.girth
    # A cycle no longer than the limit pairs with itself.
    ok = (g is not None and g <= limit) or _cycle_pair_within(x.n, x.out, limit)
    if ok and x.index % _CROSS_CHECK_EVERY:
        return None
    try:
        pair = two_cycles_min_intersection(x.digraph)
        oracle_ok = len(pair.intersection) <= limit
    except TheoremViolation:
        oracle_ok = False
    if oracle_ok != ok:
        return "fast pair scan disagrees with the exhaustive oracle"
    if not ok:
        return f"every cycle pair meets in more than p + 1 = {limit} vertices"
    return None


def _check_rainbow_bound(x: _RainbowCase, acc: _Accum) -> _Failure:
    inst = x.inst
    cert, why, _ = x.built
    if cert is None:
        return why, None
    bound = (inst.n + inst.p + 1) // 2
    if not validate_rainbow_cycle(inst, cert) or cert.length > bound:
        why = "constructed cycle invalid or longer than ceil((n + p) / 2)"
        return why, rainbow_cert_json(cert)
    exact, _ = shortest_rainbow_cycle_exact(inst)
    if exact > cert.length:
        return (
            f"independent search says the shortest rainbow cycle has "
            f"length {exact}, yet one of length {cert.length} validated",
            rainbow_cert_json(cert),
        )
    if inst.p == 0 and exact > (inst.n + 1) // 2:
        # All families have size exactly 2, so the stronger published
        # ceil(n/2) bound applies; an exceedance here is a headline event
        # even though this library does not prove that bound itself.
        why = f"rainbow girth {exact} exceeds ceil(n/2) = {(inst.n + 1) // 2}"
        acc.record("finding", CHECK_RAINBOW_BOUND, x, why)
    return None


def _check_rd_claim(x: _RainbowCase, acc: _Accum) -> _Failure:
    for _, h in x.built[2]:
        try:
            dists = all_pairs_rainbow_distances(h)
        except CounterexampleFound as exc:
            return f"{type(exc).__name__}: {exc}"
        bound = h.t // 2 + 1
        if any(dv > bound for dv in dists.values()):
            return f"a vertex pair has rainbow distance above {bound}"
        if h.t % 2 == 0:
            extremal = sum(1 for dv in dists.values() if dv == bound)
            if extremal > 1:
                return (
                    f"{extremal} pairs sit at the extremal distance {bound}; "
                    "at most one may"
                )
    return None


class _Check(NamedTuple):
    name: str
    run: Callable[[Any, _Accum], _Failure]
    kind: str  # what a failure records: "violation" (proved) or "finding" (open)
    deg2_only: bool = False  # applies only when every out-degree is at most 2


# Run in this order, so what one check derives serves the later ones.
_CHECKS = (
    _Check(CHECK_EQ1, _check_eq1, "violation"),
    _Check(CHECK_TWO_PHI, _check_two_phi, "violation"),
    _Check(CHECK_TWO_PSI_STRICT, _check_two_psi_strict, "violation"),
    _Check(CHECK_CHC, _check_chc, "finding"),
    _Check(CHECK_DEG2_GIRTH, _check_deg2_girth, "violation", deg2_only=True),
    _Check(CHECK_TWO_CYCLES, _check_two_cycles, "violation", deg2_only=True),
    _Check(CHECK_RAINBOW_BOUND, _check_rainbow_bound, "violation"),
    _Check(CHECK_RD_CLAIM, _check_rd_claim, "violation"),
)


def _run_checks(case: Any, checks: Sequence[_Check], acc: _Accum) -> None:
    for name, run, kind, deg2_only in checks:
        if deg2_only and not case.deg2:
            continue
        fail = run(case, acc)
        acc.hit(name, fail is None)
        if fail is not None:
            message, certificate = fail if isinstance(fail, tuple) else (fail, None)
            acc.record(kind, name, case, message, certificate)


# ---------------------------------------------------------------------------
# Sharded driver


def _population(cfg: SuiteConfig, n: int) -> tuple[list[tuple[int, ...]], str]:
    """The out-mask choice lists and filter of a digraph population at size n."""
    if cfg.generator == "labeled":
        return _outmap_choices(n, 0, n - 1), cfg.filter
    return _outmap_choices(n, cfg.dmin, cfg.dmax), "none"


def _domain_size(cfg: SuiteConfig, n: int) -> int:
    if cfg.generator == "rainbow":
        return cfg.count
    return math.prod(map(len, _population(cfg, n)[0]))


def _run_shard(cfg: SuiteConfig, n: int, lo: int, hi: int) -> dict[str, Any]:
    """Process raw domain indices [lo, hi) at size n."""
    acc = _Accum()
    checks = [c for c in _CHECKS if c.name in cfg.checks]
    if cfg.generator == "rainbow":
        for idx in range(lo, hi):
            acc.generated += 1
            inst = _rainbow_for_index(n, cfg.seed, idx)
            _run_checks(_RainbowCase(n, idx, inst), checks, acc)
    else:
        choices, flt = _population(cfg, n)
        scale = _scale(n)
        # Peeling outcomes shared by this shard's two-phi runs; bounded by
        # peeling.PEEL_MEMO_CAP and never part of the shard's result.
        memo: PeelMemo = {}
        for idx, out, inn in _sweep(choices, lo, hi, flt):
            acc.generated += 1
            if 0 not in out:  # psi is undefined with a sink: counted, never checked
                _run_checks(_DigraphCase(n, idx, out, inn, scale, memo), checks, acc)
    return asdict(acc)


def run_suite(cfg: SuiteConfig) -> Report:
    """Run every selected check over the configured population."""
    cfg.validate()
    report = Report(config=cfg.to_json_dict())
    tasks: list[tuple[SuiteConfig, int, int, int]] = []
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        size = _domain_size(cfg, n)
        if size == 0:
            continue
        shards = min(cfg.workers * 4, size) if cfg.workers > 1 else 1
        step = -(-size // shards)
        for lo in range(0, size, step):
            tasks.append((cfg, n, lo, min(lo + step, size)))
    if cfg.workers > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=cfg.workers) as pool:
            shard_results = pool.starmap(_run_shard, tasks)
    else:
        shard_results = []
        for i, task in enumerate(tasks):
            shard_results.append(_run_shard(*task))
            print(
                f"progress: shard {i + 1}/{len(tasks)} done (n={task[1]})",
                file=sys.stderr,
                flush=True,
            )
    best: list[Any] | None = None
    tight_count = 0
    tight_witnesses: list[tuple[int, int, str]] = []
    for res in shard_results:
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
    if CHECK_TWO_PHI in cfg.checks and cfg.generator != "rainbow":
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

    Exhaustive when the whole code space fits the budget, otherwise
    seeded random restarts with single-arc-flip hill climbing.  Every
    evaluated ratio is asserted to stay below 2; the best one found is
    reported with its witness.  This explores; it proves nothing about
    instances it never visits.
    """
    if n < 2:
        raise GraphInputError("need n >= 2 for a sink-less digraph")
    if budget < 0:
        raise GraphInputError("budget must be >= 0")
    report = Report(
        config={"generator": "ratio-search", "n": n, "budget": budget, "seed": seed}
    )
    if budget == 0:
        return report
    scale = _scale(n)
    evaluated = 0
    best: tuple[Fraction, tuple[int, ...]] | None = None

    def evaluate(out: tuple[int, ...], inn: tuple[int, ...] | None = None) -> Fraction:
        nonlocal evaluated, best
        evaluated += 1
        psi_m = _psi_scaled(scale, [m.bit_count() for m in out])
        hit = _girth_masks(n, out, in_masks_of(out) if inn is None else inn)
        assert hit is not None  # sink-less digraphs always contain a cycle
        ratio = Fraction(hit[0] * scale, psi_m)
        if ratio >= 2:
            raise TheoremViolation(
                f"girth / psi ratio {ratio} reaches 2 on:\n"
                + format_digraph(Digraph.from_out_masks(n, out))
            )
        if best is None or ratio > best[0]:
            best = (ratio, out)
        return ratio

    space = 1 << (n * (n - 1))
    if space <= budget:
        report.config["mode"] = "exhaustive"
        for _, out, inn in _sweep(_outmap_choices(n, 0, n - 1), 0, space, "sinkless"):
            evaluate(out, inn)
    else:
        report.config["mode"] = "hill-climb"
        rng = random.Random(seed)

        def random_sinkless() -> tuple[int, ...]:
            out = []
            for u in range(n):
                while True:
                    m = rng.randrange(1, 1 << n) & ~(1 << u)
                    if m:
                        out.append(m)
                        break
            return tuple(out)

        current = random_sinkless()
        current_ratio = evaluate(current)
        stale = 0
        while evaluated < budget:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            cand = list(current)
            cand[u] ^= 1 << v
            if cand[u] == 0:
                continue
            cand_t = tuple(cand)
            r = evaluate(cand_t)
            if r >= current_ratio:
                current, current_ratio = cand_t, r
                stale = 0
            else:
                stale += 1
            if stale >= 200 and evaluated < budget:
                current = random_sinkless()
                current_ratio = evaluate(current)
                stale = 0
    assert best is not None
    ratio, out = best
    d = Digraph.from_out_masks(n, out)
    hit = _girth_masks(n, d.out_masks, d.in_masks)
    assert hit is not None
    report.extremal["max_girth_psi_ratio"] = {
        "ratio": rational_json(ratio),
        "girth": hit[0],
        "psi": rational_json(psi(d)),
        "instance": format_digraph(d),
    }
    report.instances_generated = evaluated
    return report
