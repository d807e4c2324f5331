"""Self-test of the benchmark on tiny configs, in a few seconds.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, that the
digest gate rejects mutated reports, that a worker count of 2 gives the
serial digest, that the tracer restores every wrapped function and
reports a vanished target as missing, that self time excludes wrapped
children, that traced counts repeat exactly for a fixed seed, and that
a host-speed sample is taken before every chunk, in pool workers too.
"""

import contextlib
import copy
import json
import os
import time

import run
from hostspeed import REF_S, HostProbe
from pin import pinned_digest
from tracer import Target, Tracer, resolve

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_WINDOWS = {4: tuple(run.labeled_window(4, a, b) for a, b in ((3, 1), (5, 6)))}
TINY = (
    run.Workload("tiny-labeled", "labeled", 1, 4, run.LABELED_CHECKS, windows=TINY_WINDOWS),
    run.Workload("tiny-labeled-jobs2", "labeled", 1, 4, run.LABELED_CHECKS, workers=2, windows=TINY_WINDOWS),
    run.Workload("tiny-outmaps", "outmaps", 1, 4, run.OUTMAP_CHECKS),
    run.Workload("tiny-rainbow", "rainbow", 4, 6, run.RAINBOW_CHECKS, count=20, uses_seed=True),
)
SEED = 5


def check_metrics_emitted(harness) -> None:
    for wl in TINY:
        pin = pinned_digest(harness, wl, SEED)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            metrics, passes, details = run.run(wl, SEED, 0.01, trace, pin)
            want = {m["name"] for m in BENCH[section]}
            assert set(metrics) == want, (wl.name, section, want ^ set(metrics))
            assert not details["problems"] and not details.get("missing"), details
            assert all(p.failed == 0 for p in passes)
            units = {m["name"]: m["unit"] for m in BENCH[section]}
            assert all(metrics[k]["unit"] == units[k] for k in metrics)


def check_gate(harness) -> None:
    wl = TINY[0]
    with run.chunked(harness, wl):
        doc = harness.run_suite(wl.config(harness, SEED)).to_json_dict()
    pin, problems = run.gate(doc, wl, None)
    assert not problems, problems
    assert run.gate(doc, wl, pin)[1] == []

    def witness(d):
        d["extremal"]["max_girth_psi_ratio"]["instance"] += "0 1\n"

    def passed(d):
        d["passed"]["two-phi"] -= 1

    def instances(d):
        d["instances_generated"] += 1

    def violation(d):
        d["violations"].append({"check": "two-phi", "n": 4, "index": 0})

    for mutate in (witness, passed, instances, violation):
        bad = copy.deepcopy(doc)
        mutate(bad)
        assert run.gate(bad, wl, pin)[1], mutate.__name__

    with run.chunked(harness, wl):
        pooled = harness.run_suite(TINY[1].config(harness, SEED)).to_json_dict()
    assert pooled["config"]["workers"] == 2
    assert run.gate(pooled, TINY[1], pin)[1] == []


def check_tracer_restores() -> None:
    def current(t: Target):
        owner, name = resolve(t)
        return vars(owner)[name]

    before = {t: current(t) for t in run.TARGETS}
    try:
        with Tracer(run.TARGETS):
            assert all(current(t) is not orig for t, orig in before.items())
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    assert all(current(t) is orig for t, orig in before.items())

    gone = Target("cyclecert.harness", "no_such_function", "gone.metric")
    with Tracer((gone,)) as tracer:
        pass
    assert tracer.missing == ["cyclecert.harness.no_such_function"]
    assert "gone.metric" not in tracer.installed


def outer() -> None:
    time.sleep(0.002)
    inner()


def inner() -> None:
    time.sleep(0.003)


def check_self_time() -> None:
    targets = (Target(__name__, "outer", "outer"), Target(__name__, "inner", "inner"))
    with Tracer(targets) as tracer:
        outer()
        outer()
    o, i = tracer.stats["outer"], tracer.stats["inner"]
    assert (o.calls, i.calls) == (2, 2)
    assert abs(o.self_s - (o.total_s - i.total_s)) < 1e-9
    assert i.self_s == i.total_s


def check_counts_repeat(harness) -> None:
    wl = TINY[3]
    pin = pinned_digest(harness, wl, SEED)
    counts = []
    for _ in range(2):
        metrics, _, _ = run.run(wl, SEED, 0.01, True, pin)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["rainbow.find_rainbow_cycle.calls"] == wl.expected_instances()


def check_host_probe(harness) -> None:
    wl = TINY[2]
    probe = HostProbe()
    (p,) = run.sweeps(harness, wl, wl.config(harness, SEED), None, 0.0, probe)
    assert not p.problems, p.problems
    # Out-map domains of n = 2, 3, 4 hold 1, 27 and 1296 indices: 1 + 1 + 2 chunks.
    assert p.ref_samples == 4 and p.ref_wall_s > 0, p
    wall, cpu = run.at_reference_speed(p, 1)
    speed = REF_S * p.ref_samples / p.ref_wall_s
    assert abs(wall - (p.wall_s - p.ref_wall_s) * speed) < 1e-12

    pooled = TINY[1]
    (p,) = run.sweeps(harness, pooled, pooled.config(harness, SEED), None, 0.0, probe)
    assert not p.problems, p.problems
    assert p.ref_samples > 0 and p.child_cpu_s > 0, p  # samples taken in the workers


def main() -> None:
    harness = run.import_harness()
    with open(os.devnull, "w") as quiet, contextlib.redirect_stderr(quiet):
        check_tracer_restores()
        check_self_time()
        check_gate(harness)
        check_metrics_emitted(harness)
        check_counts_repeat(harness)
        check_host_probe(harness)
    print("perfbench selftest: ok")


if __name__ == "__main__":
    main()
