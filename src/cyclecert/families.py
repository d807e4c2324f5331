"""Instances for the rainbow-cycle problem: families of undirected edges.

An instance is a list of m edge families on vertices 0..n-1, each family
holding 1 or 2 undirected edges.  The family index doubles as the color
of its edges.  Instances that model ordinary user input live in a simple
graph (no loops, and a size-2 family holds two distinct vertex pairs);
instances produced internally by contraction may contain loops and
repeated pairs, and are marked simple_origin=False.
"""

from __future__ import annotations

from typing import Iterable

from .errors import GraphInputError

Edge = tuple[int, int]


def normalize_edge(e: Iterable[int]) -> Edge:
    u, v = e
    return (u, v) if u <= v else (v, u)


class RainbowInstance:
    """Edge families with one color per family, immutable by convention.

    p, the number of size-1 families, is counted once, on construction.
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
        for i, fam in enumerate(families):
            edges = sorted(normalize_edge(e) for e in fam)
            if not 1 <= len(edges) <= 2:
                raise GraphInputError(f"family {i} must hold 1 or 2 edges, got {len(edges)}")
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphInputError(f"family {i} edge ({u}, {v}) outside 0..{n - 1}")
                if simple_origin and u == v:
                    raise GraphInputError(f"family {i} holds a loop at {u}")
            if simple_origin and len(edges) == 2 and edges[0] == edges[1]:
                raise GraphInputError(f"family {i} repeats the edge {edges[0]}")
            fams.append(tuple(edges))
        self.n = n
        self.families = tuple(fams)
        self.simple_origin = simple_origin
        self.p = sum(1 for fam in fams if len(fam) == 1)

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
