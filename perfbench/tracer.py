"""Outside-in span tracer for cyclecert.

Wraps module attributes from outside the package, at the names the
callers look them up by, so nothing under src/ changes.  Each wrapped
call is a span; a span's self time is its duration minus the time of
the wrapped spans nested inside it.  Aggregates stay in memory until
the caller reads them.  Targets that no longer exist are listed in
``missing`` and get no aggregate, so a renamed function cannot read as
zero work.

Spans only see the current process: callers force workers=1, because
spans recorded in forked pool workers would be lost.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """Wrap ``module.attr`` (attr may be dotted, e.g. a class method)."""

    module: str
    attr: str
    metric: str
    samples: bool = False
    # Metrics whose calls nested inside one span are histogrammed per span.
    nested: tuple[str, ...] = ()


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: list[float] = field(default_factory=list)
    # nested metric -> {nested calls in one span: number of spans}
    nested_hist: dict[str, dict[int, int]] = field(default_factory=dict)


def resolve(t: Target) -> tuple[object, str]:
    """The object holding the target attribute (None if gone), and its name."""
    owner: object = importlib.import_module(t.module)
    *path, name = t.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, name


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, targets: tuple[Target, ...]):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        # Metrics with at least one target in place; only these are reported.
        self.installed: set[str] = set()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for t in self.targets:
                self._install(t)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _install(self, t: Target) -> None:
        owner, name = resolve(t)
        # vars() keeps a classmethod unbound, so it can be put back as is.
        raw = None if owner is None else vars(owner).get(name)
        if raw is None:
            self.missing.append(f"{t.module}.{t.attr}")
            return
        self.installed.add(t.metric)
        stat = self.stats.setdefault(t.metric, Stat())
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, t, stat))
        else:
            wrapped = self._wrap(raw, t, stat)
        self._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def _restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _wrap(self, fn, t: Target, stat: Stat):
        stack = self._stack
        clock = time.perf_counter
        nested = [(m, self.stats.setdefault(m, Stat())) for m in t.nested]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            before = [s.calls for _, s in nested]
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if t.samples:
                    stat.samples.append(dt)
                for (m, s), b in zip(nested, before):
                    hist = stat.nested_hist.setdefault(m, {})
                    k = s.calls - b
                    hist[k] = hist.get(k, 0) + 1

        return span
