"""Exception types shared across the package.

Two groups matter to callers.  Input-domain errors (subclasses of
ValueError) mean the caller handed us something malformed or outside an
operation's stated domain.  CounterexampleFound subclasses mean a
statement this package treats as proved failed on a concrete instance;
they always carry enough context to reproduce the offending input, and
they are never swallowed.
"""


class GraphInputError(ValueError):
    """Malformed graph or edge-family input, or input outside an operation's domain."""


class FormatError(ValueError):
    """Unparseable text-format input."""


class EmptyGraph(ValueError):
    """The operation needs at least one vertex."""


class NotSinkless(ValueError):
    """The operation requires a sink-less digraph (psi, for one, is undefined
    when some vertex has out-degree 0)."""


class SeedNotSingleton(ValueError):
    """The greedy subgraph seed must be a size-1 edge family."""


class Acyclic(ValueError):
    """The operation requires at least one directed cycle."""


class Infeasible(ValueError):
    """The requested random-instance parameters cannot be satisfied."""


class LimitExceeded(RuntimeError):
    """A search or request exceeds a hard resource cap.  Caps refuse; they
    never truncate silently."""


class CounterexampleFound(RuntimeError):
    """A statement held to be proved failed on a concrete instance.

    Raising one of these is headline news: it means either a bug in this
    package or a publishable counterexample.  The message embeds the
    offending instance in text format so it can be replayed.
    """


class LemmaViolation(CounterexampleFound):
    """No removable vertex kept the digraph sink-less, off a union of cycles."""


class ClaimViolation(CounterexampleFound):
    """A claim the rainbow construction rests on failed: a rainbow path
    inside a greedy subgraph exceeded the floor(t/2)+1 bound, or a level's
    contraction broke the length arithmetic, or its lift lost its ends."""


class BoundViolation(CounterexampleFound):
    """A produced cycle exceeded the length bound that comes with its guarantee."""


class TheoremViolation(CounterexampleFound):
    """An exhaustively checked statement failed on an in-hypothesis instance."""
