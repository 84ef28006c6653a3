import hashlib
import json
import re

import pytest

from knotquiver.diagram import (
    DiagramError,
    ParseError,
    continued_fraction_value,
    diagram_from_wiring,
    parse_pd,
    parse_valid_pd,
    two_bridge,
)
from knotquiver.oracle import alexander_det
from knotquiver.poly import LaurentPoly

from .conftest import TREFOIL_PD


class TestParse:
    def test_trefoil_counts(self, trefoil):
        assert trefoil.n == 3
        assert len(trefoil.segments) == 6
        assert len(trefoil.regions) == 5
        assert trefoil.components == 1

    def test_fig8_counts_and_labels(self, fig8):
        assert fig8.n == 4
        assert len(fig8.segments) == 8
        assert len(fig8.regions) == 6

    def test_fig8_region_structure(self, fig8):
        faces = sorted(sorted(set(r.boundary)) for r in fig8.regions)
        assert faces == [[1, 3, 6], [1, 4, 7], [2, 5, 7], [2, 6], [3, 5, 8], [4, 8]]

    def test_malformed_arity(self):
        with pytest.raises(ParseError):
            parse_pd("X(1,2,3)")

    def test_malformed_garbage(self):
        with pytest.raises(ParseError):
            parse_pd("hello world")

    def test_arc_count_error(self):
        with pytest.raises(ParseError, match="appears"):
            parse_pd("X(1,2,3,4) X(1,2,3,4) X(1,2,3,4)")

    def test_json_mirror(self, fig8):
        data = json.dumps({"crossings": [[3, 1, 4, 8], [7, 5, 8, 4], [5, 2, 6, 3], [1, 6, 2, 7]]})
        d = parse_pd(data)
        assert d.to_pd() == fig8.to_pd()

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.9, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],  # a float
            [[1, 4, 2, 5], [3, 6, 4, "1"], [5, 2, 6, 3]],  # a numeric string
            [[True, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],  # a bool
            [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3.0]],  # an integral float
            ["1425", "3641", "5263"],  # string rows
            [[-1, 4, 2, 5], [3, 6, 4, -1], [5, 2, 6, 3]],  # a negative label
        ],
    )
    def test_json_mirror_labels_are_non_negative_ints(self, rows):
        # each reads as the trefoil if labels are coerced with int() or may be negative
        with pytest.raises(ParseError, match="4 non-negative integer arcs"):
            parse_pd(json.dumps({"crossings": rows}))

    def test_roundtrip_through_pd(self, fig8, trefoil):
        for d in (fig8, trefoil):
            assert parse_pd(d.to_pd()).to_pd() == d.to_pd()

    def test_relabeling_from_scrambled_arcs(self):
        # same trefoil with arcs renamed; relabeling must restore 1..2n order
        scrambled = "X(10,41,20,50) X(30,60,41,10) X(50,20,60,30)"
        d = parse_pd(scrambled)
        assert d.to_pd() == TREFOIL_PD

    def test_multi_component_numbering(self):
        hopf = two_bridge([2])
        assert hopf.components == 2
        reparsed = parse_pd(hopf.to_pd())
        assert reparsed.components == 2
        comps = {}
        for seg in reparsed.segments.values():
            comps.setdefault(seg.component, []).append(seg.id)
        assert sorted(len(v) for v in comps.values()) == [2, 2]
        for ids in comps.values():
            assert sorted(ids) == list(range(min(ids), min(ids) + len(ids)))


# 2-bridge diagrams that pin the wiring front end, next to the corpus's PD codes
PINNED_CFS = [
    [2], [3], [1, 1], [2, 2], [1, 1, 1], [4, 3], [3, 1, 4], [2, 1, 2, 3],
    [1, 2, 3, 1], [2, 2, 2, 2], [1, 4, 1, 2, 2], [3, 3, 1, 1, 2, 1],
]


def _segment_ends(d):
    return [[j, *s.tail, *s.head, s.component] for j, s in sorted(d.segments.items())]


def _pinned_diagrams(corpus_diagrams):
    return sorted(corpus_diagrams.items()) + [(str(cf), two_bridge(cf)) for cf in PINNED_CFS]


class TestConstruction:
    """What both front ends decide: crossings, segment ends, marked segment."""

    def test_digest(self, corpus_diagrams):
        record = [
            [name, d.canonical_json(), d.marked_segment, _segment_ends(d)]
            for name, d in _pinned_diagrams(corpus_diagrams)
        ]
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        assert digest == "40ff942f4e6e5b98b1996ed8381d000f59d84398b995961612d91cb830d71a7b"

    def test_pd_reproduces_diagram(self, corpus_diagrams):
        # every component of these diagrams passes under somewhere, so the
        # input labels only order the arcs: a strictly increasing relabeling
        # gives the same diagram
        for name, d in _pinned_diagrams(corpus_diagrams):
            relabeled = " ".join(
                "X({},{},{},{})".format(*(j * j + 7 for j in c.segments)) for c in d.crossings
            )
            for text in (d.to_pd(), relabeled):
                got = parse_pd(text)
                assert got.canonical_json() == d.canonical_json(), (name, text)
                assert _segment_ends(got) == _segment_ends(d), (name, text)

    def test_over_only_component(self):
        # the (2,4) torus link with its component 5..8 passing over at every
        # crossing: that component is oriented by the arc numbering, from the
        # wrap-around pair (8, 5), the pair (8, 7) or the pair (6, 7)
        terms = ["X(4,8,1,5)", "X(1,8,2,7)", "X(2,6,3,7)", "X(3,6,4,5)"]
        for k in (0, 1, 2):
            text = " ".join(terms[k:] + terms[:k])
            d = parse_pd(text)
            assert d.to_pd() == text
            # the numbering is read by rank, so labels with gaps orient alike
            relabeled = re.sub(r"\d+", lambda m: str(int(m.group()) ** 2 + 7), text)
            got = parse_pd(relabeled)
            assert got.canonical_json() == d.canonical_json(), relabeled
            assert _segment_ends(got) == _segment_ends(d), relabeled

    def test_notes_follow_input_order(self):
        # segment 2 is listed first in the input, so it is reported first
        with pytest.raises(DiagramError) as info:
            parse_valid_pd("X(2,1,1,2)")
        assert str(info.value) == (
            "invalid diagram: segment 2 begins and ends at crossing 0 (curl); "
            "segment 1 begins and ends at crossing 0 (curl); "
            "region 0 is a monogon (curl); region 2 is a monogon (curl)"
        )

    def test_inconsistent_orientation(self):
        with pytest.raises(ParseError, match="^inconsistent orientation in PD code$"):
            parse_pd("X(5,1,8,6) X(1,5,2,4) X(7,2,8,3) X(3,6,4,7)")

    @pytest.mark.parametrize(
        "wiring, message",
        [
            ([[(0, 2), (0, 3), (0, 0), (0, 3)]], "not an involution"),
            # slots 1 and 3 are wired to themselves: the strand turns back
            ([[(0, 2), (0, 1), (0, 0), (0, 3)]], "does not decompose into closed strands"),
            # ends out of range are rejected before the involution test reads them
            ([[(5, 0), (0, 3), (0, 2), (0, 1)]], r"each a \(crossing, slot\)"),
            ([[(0, 4), (0, 3), (0, 0), (0, 1)]], r"each a \(crossing, slot\)"),
            ([[[0, 2], (0, 3), (0, 0), (0, 1)]], r"each a \(crossing, slot\)"),
            ([[(0, 2), (0, 3), (0, 0)]], "4 entries per crossing"),
        ],
    )
    def test_bad_wiring(self, wiring, message):
        with pytest.raises(DiagramError, match=message):
            diagram_from_wiring(wiring, [0])

    @pytest.mark.parametrize("over_diagonal", [[], [2], [0, 0]])
    def test_bad_over_diagonal(self, over_diagonal):
        with pytest.raises(DiagramError, match="over_diagonal needs 1 entries, each 0 or 1"):
            diagram_from_wiring([[(0, 2), (0, 3), (0, 0), (0, 1)]], over_diagonal)


class TestRegionsAndValidate:
    def test_region_counts(self, trefoil, fig8, corpus_diagrams):
        assert len(trefoil.regions) == 5
        assert len(fig8.regions) == 6
        assert len(corpus_diagrams["10_66"].regions) == 12

    def test_each_side_once(self, fig8):
        # every segment bounds two regions, its left and its right, once each
        sides = sorted(j for r in fig8.regions for j in r.boundary)
        assert sides == sorted(list(fig8.segments) * 2)
        for j in fig8.segments:
            left, right = fig8.regions_at_segment(j)
            assert left != right
            assert j in fig8.regions[left].boundary
            assert j in fig8.regions[right].boundary

    def test_fig8_valid(self, fig8):
        report = fig8.validate()
        assert report.ok and report.curl_free

    def test_curl_detected(self):
        kink = parse_pd("X(1,2,2,1)")
        report = kink.validate()
        assert not report.ok and not report.curl_free

    def test_disconnected_detected(self):
        two_trefoils = TREFOIL_PD + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        d = parse_pd(two_trefoils)
        report = d.validate()
        assert not report.connected and not report.ok


class TestClassify:
    def test_fig8_classes(self, fig8):
        # y_j -> -t (2) from under to over, -1/t (-2) from over to under
        # entry j - 1 is segment j's exponent of s
        assert fig8.specialization_exponents() == (-2, 2, -2, 2, -2, 2, -2, 2)

    def test_alternating_never_same(self, corpus_diagrams):
        # no segment of an alternating diagram passes the same way at both ends
        for name in ("trefoil", "figure-eight", "10_66", "two-bridge-27-10"):
            d = corpus_diagrams[name]
            assert 0 not in d.specialization_exponents()


class TestTwoBridge:
    def test_2123(self):
        d = two_bridge([2, 1, 2, 3])
        assert d.n == 8
        assert continued_fraction_value([2, 1, 2, 3]) == (27, 10)
        assert continued_fraction_value([2, 1, 2, 3])[0] % 2 == 1 and d.components == 1

    def test_single_block_trefoil(self):
        d = two_bridge([3])
        assert d.n == 3
        assert alexander_det(d).dot_eq(LaurentPoly.from_t_coefficients([1, -1, 1]))

    def test_22_is_figure_eight(self):
        d = two_bridge([2, 2])
        assert d.n == 4
        assert continued_fraction_value([2, 2]) == (5, 2)
        assert d.components == 1
        assert alexander_det(d).dot_eq(LaurentPoly.from_t_coefficients([1, -3, 1]))

    def test_errors(self):
        with pytest.raises(DiagramError):
            two_bridge([])
        with pytest.raises(DiagramError):
            two_bridge([2, 0, 1])

    def test_always_validates(self):
        import random

        rng = random.Random(11)
        for _ in range(40):
            cf = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
            if sum(cf) < 2:
                continue
            d = two_bridge(cf)
            report = d.validate()
            assert report.ok, (cf, report.notes)
            assert d.n == sum(cf)
            # a 2-bridge link is a knot iff the numerator is odd
            assert (d.components == 1) == (continued_fraction_value(cf)[0] % 2 == 1)
            assert 0 not in d.specialization_exponents()
            assert d.marked_segment in d.segments
