"""Text and JSON round-trips, and rejection of malformed input."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclecert.certificates import (
    BOUND_CEIL_N_PLUS_P,
    BOUND_TWO_PHI,
    CycleCertificate,
    RainbowCycleCertificate,
)
from cyclecert.digraph import Digraph
from cyclecert.errors import FormatError
from cyclecert.families import RainbowInstance
from cyclecert.formats import (
    MAX_VERTICES,
    cycle_cert_from_json,
    cycle_cert_json,
    digraph_json,
    format_digraph,
    format_rainbow,
    girth_json,
    parse_digraph,
    parse_rainbow,
    rainbow_cert_from_json,
    rainbow_cert_json,
    rational_from_json,
    rational_json,
)

from test_core import digraph_strategy


class TestDigraphText:
    def test_round_trip(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        assert parse_digraph(format_digraph(d)) == d

    def test_fixed_rendering(self):
        d = Digraph(3, [(2, 0), (0, 1)])
        assert format_digraph(d) == "digraph 3 2\n0 1\n2 0\n"

    def test_empty_digraph_text(self):
        assert format_digraph(Digraph(0, [])) == "digraph 0 0\n"
        assert parse_digraph("digraph 0 0\n").n == 0

    def test_tolerates_blank_lines_and_padding(self):
        d = parse_digraph("\n  digraph 2 1 \n\n 0 1 \n\n")
        assert d == Digraph(2, [(0, 1)])

    @given(digraph_strategy())
    def test_round_trip_property(self, d):
        assert parse_digraph(format_digraph(d)) == d

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "graph 2 1\n0 1",
            "digraph 2\n0 1",
            "digraph two 1\n0 1",
            "digraph 2 2\n0 1",  # promises 2 arcs, has 1
            "digraph 2 1\n0 1\n1 0",  # promises 1 arc, has 2
            "digraph 2 1\n0 1 2",
            "digraph 2 1\n0 x",
            "digraph 2 1\n0 0",  # loop
            "digraph 2 2\n0 1\n0 1",  # duplicate
            "digraph 2 1\n0 5",  # out of range
        ],
    )
    def test_malformed_digraph_rejected(self, text):
        with pytest.raises(FormatError):
            parse_digraph(text)

    @pytest.mark.parametrize("n", [10**15, 2**20 + 1, MAX_VERTICES + 1])
    def test_oversized_header_refused_before_allocation(self, n):
        with pytest.raises(FormatError, match="vertices"):
            parse_digraph(f"digraph {n} 0\n")

    def test_header_at_the_cap_is_accepted(self):
        assert parse_digraph(f"digraph {MAX_VERTICES} 0\n").n == MAX_VERTICES


class TestRainbowText:
    def test_round_trip(self):
        inst = RainbowInstance(4, [[(0, 1)], [(0, 2), (1, 2)], [(0, 3), (1, 3)]])
        assert parse_rainbow(format_rainbow(inst)) == inst

    def test_fixed_rendering(self):
        inst = RainbowInstance(3, [[(1, 0)], [(2, 1), (0, 2)]])
        assert format_rainbow(inst) == "rainbow 3 2\n0-1\n0-2,1-2\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "rainbow 3\n0-1",
            "digraph 3 1\n0-1",
            "rainbow 3 2\n0-1",  # family count mismatch
            "rainbow 3 1\n0-1,1-2,0-2",  # family too large
            "rainbow 3 1\n0:1",
            "rainbow 3 1\n0-x",
            "rainbow 3 1\n0-0",  # loops need a quotient instance, not text
            "rainbow 3 1\n0-1,0-1",  # repeated edge within a family
            "rainbow 3 1\n0-7",
        ],
    )
    def test_malformed_rainbow_rejected(self, text):
        with pytest.raises(FormatError):
            parse_rainbow(text)

    def test_oversized_header_refused_before_families(self):
        # The family line is malformed, so only the header check can refuse it first.
        with pytest.raises(FormatError, match=f"more than {MAX_VERTICES}"):
            parse_rainbow(f"rainbow {MAX_VERTICES + 1} 1\nnot-a-family\n")
        inst = parse_rainbow(f"rainbow {MAX_VERTICES} 1\n0-1\n")
        assert inst.n == MAX_VERTICES


class TestJson:
    def test_rational_round_trip(self):
        x = Fraction(22, 8)
        obj = rational_json(x)
        assert obj == {"num": 11, "den": 4}
        assert rational_from_json(obj) == x

    def test_girth_json_values(self):
        assert girth_json(3) == 3
        assert girth_json(float("inf")) == "inf"

    def test_digraph_json_shape(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert digraph_json(d) == {"n": 2, "arcs": [[0, 1], [1, 0]]}

    def test_cycle_cert_round_trip(self):
        cert = CycleCertificate(
            vertices=(0, 1, 2), bound=Fraction(7, 2), bound_kind=BOUND_TWO_PHI
        )
        obj = cycle_cert_json(cert)
        assert obj == {
            "kind": "two-phi",
            "vertices": [0, 1, 2],
            "bound": {"num": 7, "den": 2},
        }
        assert cycle_cert_from_json(obj) == cert

    def test_cycle_cert_kinds_preserved(self):
        cert = CycleCertificate((0, 2), Fraction(3), BOUND_CEIL_N_PLUS_P)
        assert cycle_cert_from_json(cycle_cert_json(cert)) == cert

    def test_rainbow_cert_round_trip(self):
        cert = RainbowCycleCertificate(steps=(((0, 2), 2), ((2, 3), 1), ((0, 3), 3)))
        obj = rainbow_cert_json(cert)
        assert obj["kind"] == "rainbow"
        assert obj["length"] == 3
        assert obj["steps"][0] == {"edge": [0, 2], "color": 2}
        assert rainbow_cert_from_json(obj) == cert
