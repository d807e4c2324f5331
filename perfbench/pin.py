"""Re-pin the report digests that every benchmark run is gated on.

    python3 perfbench/pin.py

Writes perfbench/pins.json.  Run it only on a commit whose verify
reports are meant to be the reference: a later change that alters a
report fails the gate until someone re-pins on purpose.
"""

import contextlib
import json
import os
import sys

import run

# Rainbow reports depend on the seed, so a range of seeds is pinned; a
# run with any other seed still gets every gate except the digest.
RAINBOW_SEEDS = (*range(100), run.HELD_OUT_SEED)


def pinned_digest(harness, wl: run.Workload, seed: int) -> str:
    with run.chunked(harness, wl):
        doc = harness.run_suite(wl.config(harness, seed, workers=1)).to_json_dict()
    digest, problems = run.gate(doc, wl, None)
    if problems:
        raise SystemExit(f"{wl.name} seed {seed}: {problems}")
    return digest


def main() -> None:
    harness = run.import_harness()
    pins: dict = {}
    with open(os.devnull, "w") as quiet, contextlib.redirect_stderr(quiet):
        for wl in run.WORKLOADS.values():
            if wl.pin in pins:
                continue
            entry: dict = {"instances": wl.expected_instances()}
            if wl.uses_seed:
                entry["digests"] = {str(s): pinned_digest(harness, wl, s) for s in RAINBOW_SEEDS}
            else:
                entry["digest"] = pinned_digest(harness, wl, 0)
            pins[wl.pin] = entry
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.PINS}", file=sys.stderr)


if __name__ == "__main__":
    main()
