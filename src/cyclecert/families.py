"""Instances for the rainbow-cycle problem: families of undirected edges.

An instance is a list of m edge families on vertices 0..n-1, each family
holding 1 or 2 undirected edges.  The family index doubles as the color
of its edges.  Instances that model ordinary user input live in a simple
graph (no loops, and a size-2 family holds two distinct vertex pairs);
instances produced internally by contraction may contain loops and
repeated pairs, and are marked simple_origin=False.  The constructor
normalizes, orders and checks every family.  Two internal producers,
whose families hold every rule by construction, build through the
private RainbowInstance._trusted instead, which checks nothing: a
contraction quotient, whose families rainbow.contract has ordered from
endpoints it has checked, and a seeded random instance, whose families
the harness draws in order from the pairs u < v < n without replacement.
"""

from __future__ import annotations

from typing import Iterable, NoReturn

from .errors import GraphInputError

Edge = tuple[int, int]


def normalize_edge(e: Iterable[int]) -> Edge:
    u, v = e
    return (u, v) if u <= v else (v, u)


def _refuse(i: int, edges: tuple[Edge, ...], n: int, simple_origin: bool) -> NoReturn:
    """Raise for family i, whose normalized edges, in order, break a rule:
    the first edge out of range or (if simple) a loop, else a repeated edge."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"family {i} edge ({u}, {v}) outside 0..{n - 1}")
        if simple_origin and u == v:
            raise GraphInputError(f"family {i} holds a loop at {u}")
    raise GraphInputError(f"family {i} repeats the edge {edges[0]}")


class RainbowInstance:
    """Edge families with one color per family, immutable by convention.

    p, the number of size-1 families, is counted once, on construction.
    The constructor stores each family's edges normalized and in order,
    and refuses an edge outside 0..n-1 and, for simple origin, a loop or
    a repeated edge.  Parsed files and user code build through it; only
    the contraction quotient and the seeded generator skip it, through
    _trusted.
    """

    __slots__ = ("n", "families", "simple_origin", "p")

    def __init__(
        self,
        n: int,
        families: Iterable[Iterable[Iterable[int]]],
        simple_origin: bool = True,
    ):
        if n < 0:
            raise GraphInputError("vertex count must be nonnegative")
        fams: list[tuple[Edge, ...]] = []
        p = 0
        for i, fam in enumerate(families):
            fam = tuple(fam)
            if len(fam) == 2:
                (u, v), (x, y) = fam
                e0 = (u, v) if u <= v else (v, u)
                e1 = (x, y) if x <= y else (y, x)
                if e1 < e0:
                    e0, e1 = e1, e0
                # e0 <= e1, so e0 holds the smallest endpoint.
                if e0[0] < 0 or e0[1] >= n or e1[1] >= n or simple_origin and (
                    e0[0] == e0[1] or e1[0] == e1[1] or e0 == e1
                ):
                    _refuse(i, (e0, e1), n, simple_origin)
                fams.append((e0, e1))
            elif len(fam) == 1:
                ((u, v),) = fam
                e0 = (u, v) if u <= v else (v, u)
                if e0[0] < 0 or e0[1] >= n or simple_origin and u == v:
                    _refuse(i, (e0,), n, simple_origin)
                fams.append((e0,))
                p += 1
            else:
                for e in fam:
                    normalize_edge(e)  # a malformed edge raises before the count does
                raise GraphInputError(f"family {i} must hold 1 or 2 edges, got {len(fam)}")
        self.n = n
        self.families = tuple(fams)
        self.simple_origin = simple_origin
        self.p = p

    @classmethod
    def _trusted(
        cls, n: int, families: list[tuple[Edge, ...]], simple_origin: bool
    ) -> RainbowInstance:
        """The instance that the constructor would build from families,
        each already holding 1 or 2 normalized edges in order, every
        endpoint in 0..n-1, and, for simple origin, no loop and no
        repeated edge.  Nothing is checked here: its two callers,
        rainbow.contract and the harness's seeded generator, build
        families that hold those rules.  p is counted from the families."""
        inst = cls.__new__(cls)
        inst.n = n
        inst.families = tuple(families)
        inst.simple_origin = simple_origin
        inst.p = list(map(len, families)).count(1)
        return inst

    @property
    def m(self) -> int:
        """Number of families."""
        return len(self.families)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RainbowInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.families == other.families
            and self.simple_origin == other.simple_origin
        )

    def __hash__(self) -> int:
        return hash((self.n, self.families, self.simple_origin))

    def __repr__(self) -> str:
        return (
            f"RainbowInstance({self.n}, {[list(f) for f in self.families]}, "
            f"simple_origin={self.simple_origin})"
        )
