"""Host-speed probe: a fixed piece of pure-Python work timed between chunks.

On a shared host the speed of plain Python code swings by up to 2x
within seconds and can stay slow for minutes, with CPU time moving
with wall time (no steal): the core itself runs slower.  Sweeps timed
back to back then measure the host as much as the program.  The probe
runs ``reference()`` next to every timed chunk of a sweep, in whichever
process runs the chunk, so each sweep carries a sample of how fast the
host was while it ran.  ``reference()`` does the kind of work cyclecert
does (breadth-first search over small digraphs, dict and integer
operations) but imports nothing from it, so no change to cyclecert
moves it.

The totals live in a shared array made before run_suite forks its pool,
so samples taken in forked workers count too.
"""

from __future__ import annotations

import gc
import multiprocessing
import time

# A fixed 48-vertex digraph with out-degree 3.
REF_N = 48
REF_ADJ = tuple(tuple((5 * u + 3 * j + 1) % REF_N for j in range(3)) for u in range(REF_N))

# Seconds one reference() call takes at the speed figures are reported at:
# its time in the fast phase of the 2-vCPU Xeon VM (2.0 GHz, Python 3.11)
# the benchmark was built on.
REF_S = 0.0006


def reference() -> int:
    """Fixed work, about 1 ms: a BFS from every vertex, then dict updates."""
    total = 0
    for s in range(REF_N):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in REF_ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    counts: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7919) & 255
        counts[k] = counts.get(k, 0) + 1
        total ^= (k << 3) | (i & 7)
    return total


def time_reference() -> tuple[float, float]:
    """(wall_s, cpu_s) of one reference() call.

    No collection runs inside it: its cost would follow the program's
    heap, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0, c0 = time.perf_counter(), time.process_time()
    reference()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if enabled:
        gc.enable()
    return wall, cpu


class HostProbe:
    """Sums reference() wall and CPU time over the samples since the last take()."""

    def __init__(self) -> None:
        # [wall_s, cpu_s, samples]; fork-inherited, so pool workers add to it.
        self._acc = multiprocessing.get_context("fork").Array("d", 3)

    def sample(self) -> None:
        wall, cpu = time_reference()
        with self._acc.get_lock():
            self._acc[0] += wall
            self._acc[1] += cpu
            self._acc[2] += 1

    def take(self) -> tuple[float, float, int]:
        """(wall_s, cpu_s, samples) since the last call, and reset."""
        with self._acc.get_lock():
            wall, cpu, samples = self._acc[:]
            self._acc[:] = [0.0, 0.0, 0.0]
        return wall, cpu, int(samples)
