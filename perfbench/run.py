"""Sweep-throughput benchmark for cyclecert's verification harness.

Times ``cyclecert.harness.run_suite`` end to end on a named workload,
checks every report against a digest pinned from the seed commit, and
prints one JSON result line last on stdout.  With ``--trace 1`` it
instead wraps the layers the harness calls (see TARGETS) and reports
per-layer counts and self times.  End-to-end times are put at a
reference host speed, measured between chunks of each sweep (see
hostspeed.py), so that runs compare across the host's slow and fast
phases.

    python3 perfbench/run.py --workload labeled-n5 --seed 0 --seconds 20 --trace 0

Run it from a checkout; it imports cyclecert from ``src/`` next to this
directory and exits with code 2 when that source is absent.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

from hostspeed import REF_S, HostProbe
from tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

# A seed used by no pin-time tuning, for confirming later claims.
HELD_OUT_SEED = 20261017

SETUP_PROBES = 7

LABELED_CHECKS = ("two-phi", "two-psi-strict", "eq1-identity")
OUTMAP_CHECKS = ("two-cycles", "deg2-girth")
RAINBOW_CHECKS = ("rainbow-bound", "rd-claim")

# The full labeled n = 5 sweep takes 70-110 s on 2 cores, too long for one
# run, so the labeled workloads sweep n = 1..4 in full and a fixed sample
# of n = 5.  Each window fixes the out-masks of vertices 3 and 4 and
# ranges over every out-mask of vertices 0..2 (15^3 = 3375 sink-less
# digraphs).  Vertex 4's mask sets the 2^17-code shard that run_suite
# gives each window under workers=2, so every shard gets one window; the
# 16 fixed masks have out-degrees 1:4, 2:7, 3:4, 4:1, close to the
# 4:6:4:1 mix of the whole population.
N5_WINDOW_MASKS = ((6, 1), (4, 3), (11, 5), (2, 7), (12, 8), (14, 10), (9, 13), (3, 15))


def labeled_window(n: int, a: int, b: int) -> tuple[int, int]:
    """Codes whose vertex n-2 has out-mask slot a and vertex n-1 slot b."""
    w = n - 1
    lo = (b << ((n - 1) * w)) | (a << ((n - 2) * w))
    return lo, lo + (1 << ((n - 2) * w))


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    n_lo: int
    n_hi: int
    checks: tuple[str, ...]
    workers: int = 1
    count: int = 100
    uses_seed: bool = False
    # Domain indices per chunk (see chunked): about 20-50 ms of work.
    chunk: int = 1000
    # n -> code windows swept instead of the whole code space at that n.
    windows: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    # Workloads with the same population share one pinned digest.
    pin: str = ""

    def config(self, harness, seed: int, workers: int | None = None):
        return harness.SuiteConfig(
            n_lo=self.n_lo,
            n_hi=self.n_hi,
            generator=self.generator,
            checks=self.checks,
            count=self.count,
            workers=self.workers if workers is None else workers,
            seed=seed if self.uses_seed else 0,
        )

    def minimal(self, seed: int) -> dict:
        """The smallest sweep of the same generator, for the set-up probe."""
        n_lo, n_hi = (4, 4) if self.generator == "rainbow" else (1, 3)
        return {
            "n_lo": n_lo,
            "n_hi": n_hi,
            "generator": self.generator,
            "checks": list(self.checks),
            "count": 1,
            "workers": self.workers,
            "seed": seed if self.uses_seed else 0,
        }

    def expected_instances(self) -> int:
        """Instance count from closed forms, independent of the program."""
        total = 0
        for n in range(self.n_lo, self.n_hi + 1):
            if self.generator == "labeled":
                nonzero = (1 << (n - 1)) - 1
                if n in self.windows:
                    total += len(self.windows[n]) * nonzero ** (n - 2)
                else:
                    total += nonzero**n
            elif self.generator == "outmaps":
                total += (math.comb(n - 1, 1) + math.comb(n - 1, 2)) ** n
            else:
                total += self.count
        return total

    def codes_visited(self) -> int:
        """Domain indices a sweep walks; only labeled sweeps skip any."""
        if self.generator != "labeled":
            return self.expected_instances()
        return sum(
            sum(hi - lo for lo, hi in self.windows[n]) if n in self.windows else 1 << (n * (n - 1))
            for n in range(self.n_lo, self.n_hi + 1)
        )


N5_WINDOWS = {5: tuple(labeled_window(5, a, b) for a, b in N5_WINDOW_MASKS)}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("labeled-n5", "labeled", 1, 5, LABELED_CHECKS, chunk=512, windows=N5_WINDOWS, pin="labeled-n5"),
        Workload("outmaps-n5", "outmaps", 1, 5, OUTMAP_CHECKS, chunk=2000, pin="outmaps-n5"),
        Workload(
            "rainbow-n4-12",
            "rainbow",
            4,
            12,
            RAINBOW_CHECKS,
            count=1000,
            uses_seed=True,
            chunk=100,
            pin="rainbow-n4-12",
        ),
        Workload(
            "labeled-n5-jobs2",
            "labeled",
            1,
            5,
            LABELED_CHECKS,
            workers=2,
            chunk=512,
            windows=N5_WINDOWS,
            pin="labeled-n5",
        ),
    )
}

# Wrapped at the names harness and rainbow look them up by.
TARGETS = (
    Target("cyclecert.harness", "run_suite", "harness"),
    Target("cyclecert.harness", "short_cycle_via_peeling", "peeling.short_cycle_via_peeling", samples=True),
    Target("cyclecert.harness", "Digraph.from_out_masks", "digraph.from_out_masks"),
    Target("cyclecert.harness", "format_digraph", "formats.format_digraph"),
    Target("cyclecert.harness", "validate_cycle", "certificates.validate_cycle"),
    Target("cyclecert.harness", "_girth_masks", "oracles._girth_masks"),
    Target("cyclecert.harness", "_cycle_pair_within", "harness._cycle_pair_within"),
    Target("cyclecert.harness", "two_cycles_min_intersection", "oracles.two_cycles_min_intersection"),
    Target(
        "cyclecert.harness",
        "find_rainbow_cycle",
        "rainbow.find_rainbow_cycle",
        samples=True,
        nested=("rainbow.build_greedy_subgraph", "oracles.assert_all_size2_bound"),
    ),
    Target("cyclecert.rainbow", "build_greedy_subgraph", "rainbow.build_greedy_subgraph"),
    Target("cyclecert.rainbow", "contract", "rainbow.contract"),
    Target("cyclecert.rainbow", "rainbow_path_in_subgraph", "rainbow.rainbow_path_in_subgraph"),
    Target("cyclecert.rainbow", "assert_all_size2_bound", "oracles.assert_all_size2_bound"),
    Target("cyclecert.harness", "shortest_rainbow_cycle_exact", "oracles.shortest_rainbow_cycle_exact"),
    Target("cyclecert.harness", "all_pairs_rainbow_distances", "rainbow.all_pairs_rainbow_distances"),
    Target("cyclecert.harness", "validate_rainbow_cycle", "certificates.validate_rainbow_cycle"),
    Target("cyclecert.rainbow", "validate_rainbow_cycle", "certificates.validate_rainbow_cycle"),
)
SAMPLED = {t.metric for t in TARGETS if t.samples}
PER_INSTANCE = ("digraph.from_out_masks", "formats.format_digraph", "harness._cycle_pair_within")
DEPTH_BUCKETS = 9  # rainbow.depth_0 .. depth_8, then depth_9plus


class BenchError(Exception):
    """The benchmark cannot run here (no source, bad pins, failed probe)."""


def import_harness():
    src = ROOT / "src"
    if not (src / "cyclecert" / "harness.py").is_file():
        raise BenchError(f"no cyclecert source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from cyclecert import harness

    if Path(harness.__file__).resolve().parent != src / "cyclecert":
        raise BenchError(f"imported cyclecert from {harness.__file__}, not from {src}")
    return harness


def load_pin(wl: Workload, seed: int) -> str | None:
    """The pinned report digest, or None for a rainbow seed never pinned."""
    try:
        entry = json.loads(PINS.read_text())[wl.pin]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no pin for {wl.pin} in {PINS}: {exc!r}") from None
    if wl.uses_seed:
        return entry["digests"].get(str(seed))
    return entry["digest"]


def merge_shards(parts: list[dict]) -> dict:
    """Merge _run_shard results the way run_suite merges them."""
    out = {
        "generated": 0,
        "checked": {},
        "passed": {},
        "violations": [],
        "findings": [],
        "best_ratio": None,
        "tight_count": 0,
        "tight_witnesses": [],
    }
    for p in parts:
        out["generated"] += p["generated"]
        out["tight_count"] += p["tight_count"]
        for key in ("checked", "passed"):
            for k, v in p[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for key in ("violations", "findings", "tight_witnesses"):
            out[key].extend(p[key])
        cand, best = p["best_ratio"], out["best_ratio"]
        # Largest ratio wins; ties go to the smallest (n, index).
        if cand is not None and (
            best is None
            or (Fraction(cand[0], cand[1]), -cand[2], -cand[3]) > (Fraction(best[0], best[1]), -best[2], -best[3])
        ):
            out["best_ratio"] = cand
    return out


@contextlib.contextmanager
def chunked(harness, wl: Workload, probe: HostProbe | None = None):
    """Run run_suite's shards as chunks, within the workload's code windows.

    Replaces harness._run_shard under its own name, so forked pool
    workers unpickle the replacement too.  The replacement runs the
    original on each chunk of at most wl.chunk domain indices of the
    shard (of the shard's part of each code window, where the workload
    has windows) and merges the results the way run_suite merges shards,
    so reports stay byte-identical; the gate checks that on every sweep.
    With a probe, it takes one host-speed sample before each chunk.
    """
    full = harness._run_shard

    @functools.wraps(full)
    def run_shard(cfg, n, lo, hi):
        ranges = [(max(a, lo), min(b, hi)) for a, b in wl.windows[n]] if n in wl.windows else [(lo, hi)]
        parts = []
        for a, b in ranges:
            for c in range(a, b, wl.chunk):
                if probe is not None:
                    probe.sample()
                parts.append(full(cfg, n, c, min(c + wl.chunk, b)))
        return merge_shards(parts)

    harness._run_shard = run_shard
    try:
        yield
    finally:
        harness._run_shard = full


def report_digest(doc: dict) -> str:
    """sha256 of the verify JSON with the worker count normalized to 1."""
    doc = dict(doc, config=dict(doc["config"], workers=1))
    return sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


def gate(doc: dict, wl: Workload, pin: str | None) -> tuple[str, list[str]]:
    """The report's digest and every way it differs from what is pinned."""
    digest = report_digest(doc)
    problems = []
    want = wl.expected_instances()
    if doc["instances_generated"] != want:
        problems.append(f"{doc['instances_generated']} instances, expected {want}")
    if sorted(doc["checked"]) != sorted(wl.checks):
        problems.append(f"checks run {sorted(doc['checked'])}, expected {sorted(wl.checks)}")
    for check, n in doc["checked"].items():
        if doc["passed"].get(check, 0) != n:
            problems.append(f"{check}: {doc['passed'].get(check, 0)} of {n} passed")
    if doc["violations"]:
        problems.append(f"{len(doc['violations'])} violations")
    if pin is not None and digest != pin:
        problems.append(f"report digest {digest} differs from pinned {pin}")
    return digest, problems


def cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclass
class Pass:
    instances: int
    wall_s: float
    cpu_s: float
    child_cpu_s: float
    json_s: float
    failed: int
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    # Host-speed samples taken during the sweep, in any process (see hostspeed).
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    ref_samples: int = 0


def sweep(harness, wl: Workload, cfg, pin: str | None) -> Pass:
    """One run_suite call, its CLI JSON step, and the correctness gate."""
    want = wl.expected_instances()
    c0 = cpu_s()
    k0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        report = harness.run_suite(cfg)
    except Exception as exc:  # a lost sweep fails every instance in it
        wall = time.perf_counter() - t0
        return Pass(want, wall, cpu_s() - c0, 0.0, 0.0, want, problems=[f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    cpu = cpu_s() - c0
    k1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = (k1.ru_utime + k1.ru_stime) - (k0.ru_utime + k0.ru_stime)
    t1 = time.perf_counter()
    doc = report.to_json_dict()
    json.dumps(doc, indent=2, sort_keys=True)
    json_s = time.perf_counter() - t1
    digest, problems = gate(doc, wl, pin)
    return Pass(report.instances_generated, wall, cpu, child, json_s, want if problems else 0, digest, problems)


def sweeps(harness, wl: Workload, cfg, pin: str | None, seconds: float, probe: HostProbe | None = None) -> list[Pass]:
    """Back-to-back sweeps for about `seconds` (at least one).

    No sweep starts that would, at the last sweep's pace, end after the
    deadline, so a run overshoots by less than one sweep.
    """
    passes: list[Pass] = []
    end = time.perf_counter() + seconds
    with chunked(harness, wl, probe):
        while not passes or time.perf_counter() + passes[-1].wall_s <= end:
            passes.append(sweep(harness, wl, cfg, pin))
            if probe is not None:  # only sweeps take samples
                p = passes[-1]
                p.ref_wall_s, p.ref_cpu_s, p.ref_samples = probe.take()
    return passes


def probe_setup(wl: Workload, seed: int) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing the harness and sweeping
    minimally, as measured and at reference speed.

    The probe's own host-speed samples, taken at its end, are not counted.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(wl.minimal(seed))]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.decode(errors='replace')[-500:]}")
    ref = json.loads(done.stdout.decode().splitlines()[-1])
    own = wall - ref["ref_wall_s"]
    return own, own * REF_S * ref["samples"] / ref["ref_wall_s"]


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def at_reference_speed(p: Pass, workers: int) -> tuple[float, float]:
    """(wall_s, cpu_s) of a sweep, without its probe samples, at reference speed.

    The sweep's own time is scaled by REF_S over the mean time of the
    host-speed samples taken during it, so a sweep that ran while the
    host was 1.5x slow counts as if it had run at the reference speed.
    In a pool the samples ran spread over the workers, so 1/workers of
    their time is taken off the wall.
    """
    speed = REF_S * p.ref_samples / p.ref_wall_s if p.ref_samples else 1.0
    return (p.wall_s - p.ref_wall_s / workers) * speed, (p.cpu_s - p.ref_cpu_s) * speed


def end_to_end(wl: Workload, passes: list[Pass], setups: list[tuple[float, float]]) -> dict:
    """Throughput and CPU of the median sweep, at reference speed.

    Each sweep is put at the reference speed (at_reference_speed); the
    median over the run's sweeps is reported.  setup_s is the median of
    the set-up probes at reference speed.
    """
    instances = passes[0].instances
    scaled = [at_reference_speed(p, wl.workers) for p in passes]
    wall = statistics.median(w for w, _ in scaled)
    cpu = statistics.median(c for _, c in scaled)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "instances_per_s": metric(instances / wall, "1/s"),
        "cpu_us_per_instance": metric(cpu / instances * 1e6, "us"),
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": metric(max(own, kids) / 1024, "MB"),
    }


def per_layer(wl: Workload, tracer: Tracer, traced: list[Pass], plain: list[Pass], pool: list[Pass]) -> dict:
    """Per-sweep layer metrics from a traced run.

    Counts are totals over the traced sweeps divided by their number, so
    for a fixed seed they repeat exactly from run to run.  Times are
    per-sweep means, for the reason given in end_to_end.
    """
    k = len(traced)
    instances = traced[0].instances
    out: dict[str, dict] = {}
    for name in sorted(tracer.installed):
        st = tracer.stats[name]
        if name == "harness":
            out["harness.self_s"] = metric(st.self_s / k, "s")
            continue
        out[f"{name}.calls"] = metric(st.calls / k, "count")
        out[f"{name}.self_s"] = metric(st.self_s / k, "s")
        if name in PER_INSTANCE:
            out[f"{name}.per_instance"] = metric(st.calls / k / instances, "calls/instance")
        if name in SAMPLED:
            for q in (50, 99):
                us = percentile(st.samples, q / 100) * 1e6 if st.samples else 0.0
                out[f"{name}.p{q}_us"] = metric(us, "us")
    outer = tracer.stats.get("rainbow.find_rainbow_cycle")
    if outer is not None and {"rainbow.find_rainbow_cycle", "rainbow.build_greedy_subgraph"} <= tracer.installed:
        depth = outer.nested_hist.get("rainbow.build_greedy_subgraph", {})
        for d in range(DEPTH_BUCKETS):
            out[f"rainbow.depth_{d}"] = metric(depth.get(d, 0) / k, "count")
        deep = sum(v for d, v in depth.items() if d >= DEPTH_BUCKETS)
        out[f"rainbow.depth_{DEPTH_BUCKETS}plus"] = metric(deep / k, "count")
        if "oracles.assert_all_size2_bound" in tracer.installed:
            base = outer.nested_hist.get("oracles.assert_all_size2_bound", {})
            resolved = sum(v for d, v in base.items() if d > 0)
            out["rainbow.size2_base_share"] = metric(resolved / outer.calls if outer.calls else 0.0, "ratio")
    out["harness.kept_per_code"] = metric(instances / wl.codes_visited(), "ratio")
    out["harness.report_json_s"] = metric(statistics.mean(p.json_s for p in plain), "s")
    plain_wall = statistics.mean(p.wall_s for p in plain)
    out["tracing.overhead_frac"] = metric(statistics.mean(p.wall_s for p in traced) / plain_wall - 1, "ratio")
    if pool:
        pool_wall = statistics.mean(p.wall_s for p in pool)
        child = statistics.mean(p.child_cpu_s for p in pool)
        parent = statistics.mean(p.cpu_s - p.child_cpu_s for p in pool)
        idle = 1 - child / (wl.workers * pool_wall)
        efficiency = plain_wall / (wl.workers * pool_wall)
    else:  # no pool in a workers=1 workload
        parent = child = idle = efficiency = 0.0
    out["harness.pool.parent_cpu_s"] = metric(parent, "s")
    out["harness.pool.child_cpu_s"] = metric(child, "s")
    out["harness.pool.idle_frac"] = metric(idle, "ratio")
    out["harness.pool.efficiency"] = metric(efficiency, "ratio")
    return out


def run(wl: Workload, seed: int, seconds: float, trace: bool, pin: str | None) -> tuple[dict, list[Pass], dict]:
    """Measure one workload; returns (metrics, every pass, run details)."""
    harness = import_harness()
    details: dict = {"workload": wl.name, "seed": seed, "seed_used": wl.uses_seed, "pinned": pin is not None}
    with open(os.devnull, "w") as quiet, contextlib.redirect_stderr(quiet):  # run_suite's progress lines
        if not trace:
            setups = [probe_setup(wl, seed) for _ in range(SETUP_PROBES)]
            passes = sweeps(harness, wl, wl.config(harness, seed), pin, seconds, HostProbe())
            metrics = end_to_end(wl, passes, setups)
            # As measured, for reading beside the scaled figures.
            details["measured_instances_per_s"] = statistics.median(p.instances / p.wall_s for p in passes)
            samples = max(1, sum(p.ref_samples for p in passes))
            details["host_slowdown"] = sum(p.ref_wall_s for p in passes) / samples / REF_S
            details["measured_setup_s"] = statistics.median(s for s, _ in setups)
        else:
            # Spans in forked workers would be lost, so tracing runs workers=1;
            # a pool workload also times its untraced pool sweep for the pool metrics.
            phases = 3 if wl.workers > 1 else 2
            serial = wl.config(harness, seed, workers=1)
            pool = sweeps(harness, wl, wl.config(harness, seed), pin, seconds / phases) if wl.workers > 1 else []
            plain = sweeps(harness, wl, serial, pin, seconds / phases)
            with Tracer(TARGETS) as tracer:
                traced = sweeps(harness, wl, serial, pin, seconds / phases)
            passes = pool + plain + traced
            metrics = per_layer(wl, tracer, traced, plain, pool)
            details["missing"] = tracer.missing
    details["digests"] = sorted({p.digest for p in passes if p.digest})
    details["passes"] = len(passes)
    details["problems"] = sorted({q for p in passes for q in p.problems})[:10]
    return metrics, passes, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="used only by rainbow-n4-12")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        import_harness()
        metrics, passes, details = run(wl, args.seed, args.seconds, bool(args.trace), load_pin(wl, args.seed))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p.instances for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not details["problems"]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
