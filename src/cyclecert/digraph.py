"""Immutable labeled digraphs on vertices 0..n-1.

Loops and parallel arcs are disallowed.  Adjacency is stored as one
out-neighborhood bitmask per vertex, which keeps the exhaustive sweeps
cheap: degree queries are popcounts and set algebra is integer bitwise
arithmetic.  Python integers are unbounded, so nothing here limits n.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import GraphInputError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def in_masks_of(out_masks: Sequence[int]) -> tuple[int, ...]:
    """In-neighborhood bitmasks of the digraph with these out-neighborhoods."""
    inn = [0] * len(out_masks)
    for u, m in enumerate(out_masks):
        bit_u = 1 << u
        while m:
            low = m & -m
            inn[low.bit_length() - 1] |= bit_u
            m ^= low
    return tuple(inn)


class Digraph:
    """A labeled digraph, immutable by convention.

    Equality and hashing are structural: same n, same arc set.
    """

    __slots__ = ("n", "out_masks", "in_masks", "out_deg", "_arcs")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphInputError("vertex count must be nonnegative")
        out = [0] * n
        for arc in arcs:
            u, v = arc
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"arc ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphInputError(f"loop at vertex {u} is not allowed")
            bit = 1 << v
            if out[u] & bit:
                raise GraphInputError(f"duplicate arc ({u}, {v})")
            out[u] |= bit
        self._init_from_masks(n, out)

    def _init_from_masks(
        self, n: int, out: Sequence[int], inn: tuple[int, ...] | None = None
    ) -> None:
        self.n = n
        self.out_masks = tuple(out)
        self.in_masks = in_masks_of(self.out_masks) if inn is None else inn
        self.out_deg = tuple(m.bit_count() for m in out)
        self._arcs = None

    @classmethod
    def from_out_masks(
        cls, n: int, out_masks: Iterable[int], in_masks: tuple[int, ...] | None = None
    ) -> "Digraph":
        """Build directly from out-neighborhood bitmasks (no loop/range checks).

        in_masks, when given, must be in_masks_of(out_masks), already derived.
        """
        d = cls.__new__(cls)
        d._init_from_masks(n, tuple(out_masks), in_masks)
        return d

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """All arcs (u, v), sorted."""
        if self._arcs is None:
            self._arcs = tuple(
                (u, v) for u in range(self.n) for v in bits(self.out_masks[u])
            )
        return self._arcs

    @property
    def m(self) -> int:
        return sum(self.out_deg)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out_masks == other.out_masks

    def __hash__(self) -> int:
        return hash((self.n, self.out_masks))

    def __repr__(self) -> str:
        return f"Digraph({self.n}, {list(self.arcs)})"


def first_sink(d: Digraph) -> int | None:
    """The smallest vertex with out-degree 0, or None if the digraph is sink-less."""
    for v in range(d.n):
        if d.out_deg[v] == 0:
            return v
    return None
