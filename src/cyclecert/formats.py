"""Text and JSON formats.

Digraph text format::

    digraph <n> <m>
    <u> <v>          (m arc lines)

Rainbow text format::

    rainbow <n> <m>
    u-v[,u-v]        (m family lines, 1 or 2 edges each)

Vertices and family colors are 0-based.  Parsed rainbow instances are
always of simple origin.  Rationals serialize as {"num", "den"} object
pairs; an infinite girth serializes as the string "inf".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .certificates import CycleCertificate, RainbowCycleCertificate
from .digraph import Digraph
from .errors import FormatError
from .families import RainbowInstance


# Largest vertex count a digraph or rainbow header may declare.  Every
# single-instance command finishes in about a second at this size, while
# the searches and recursions behind them do not at a few times it; larger
# headers are refused before any arc or family line is parsed.
MAX_VERTICES = 512


def _header(text: str, keyword: str, items: str) -> tuple[int, list[str]]:
    """The vertex count n and the m item lines of text, whose non-blank
    lines are the header '<keyword> <n> <m>' and then m items."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != keyword:
        raise FormatError(f"bad header {lines[0]!r}, expected '{keyword} <n> <m>'")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError(f"bad header {lines[0]!r}: n and m must be integers") from None
    if n > MAX_VERTICES:
        raise FormatError(f"header declares {n} vertices, more than {MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} {items}, found {len(lines) - 1} lines")
    return n, lines[1:]


def parse_digraph(text: str) -> Digraph:
    n, lines = _header(text, "digraph", "arcs")
    arcs = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad arc line {ln!r}, expected '<u> <v>'")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"bad arc line {ln!r}: endpoints must be integers") from None
    try:
        return Digraph(n, arcs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_digraph(d: Digraph) -> str:
    lines = [f"digraph {d.n} {d.m}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs)
    return "\n".join(lines) + "\n"


def parse_rainbow(text: str) -> RainbowInstance:
    n, lines = _header(text, "rainbow", "families")
    families = []
    for ln in lines:
        edges = []
        for part in ln.split(","):
            part = part.strip()
            ends = part.split("-")
            if len(ends) != 2:
                raise FormatError(f"bad edge {part!r}, expected 'u-v'")
            try:
                edges.append((int(ends[0]), int(ends[1])))
            except ValueError:
                raise FormatError(f"bad edge {part!r}: endpoints must be integers") from None
        families.append(edges)
    try:
        return RainbowInstance(n, families, simple_origin=True)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_rainbow(inst: RainbowInstance) -> str:
    lines = [f"rainbow {inst.n} {inst.m}"]
    lines.extend(",".join(f"{u}-{v}" for u, v in fam) for fam in inst.families)
    return "\n".join(lines) + "\n"


def rational_json(x: Fraction) -> dict[str, int]:
    return {"num": x.numerator, "den": x.denominator}


def rational_from_json(obj: dict[str, int]) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def girth_json(g: int | float) -> Any:
    return "inf" if g == float("inf") else int(g)


def digraph_json(d: Digraph) -> dict[str, Any]:
    return {"n": d.n, "arcs": [list(a) for a in d.arcs]}


def cycle_cert_json(cert: CycleCertificate) -> dict[str, Any]:
    return {
        "kind": cert.bound_kind,
        "vertices": list(cert.vertices),
        "bound": rational_json(cert.bound),
    }


def cycle_cert_from_json(obj: dict[str, Any]) -> CycleCertificate:
    return CycleCertificate(
        vertices=tuple(obj["vertices"]),
        bound=rational_from_json(obj["bound"]),
        bound_kind=obj["kind"],
    )


def rainbow_cert_json(cert: RainbowCycleCertificate) -> dict[str, Any]:
    return {
        "kind": "rainbow",
        "steps": [{"edge": list(e), "color": c} for e, c in cert.steps],
        "length": cert.length,
    }


def rainbow_cert_from_json(obj: dict[str, Any]) -> RainbowCycleCertificate:
    return RainbowCycleCertificate(
        steps=tuple((tuple(step["edge"]), step["color"]) for step in obj["steps"])
    )
