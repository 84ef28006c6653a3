"""Acceptance criteria, one test per criterion (exact equality throughout).

Each test prints a ``criterion N: PASS/FAIL`` line (run pytest with -s to
see them).  Two sub-assertions are marked strict-xfail: the published
source values they transcribe are internally inconsistent with the
lattice isomorphism that criteria 5 and 9 enforce (see README, section
"Known discrepancies"); the mathematically forced values are asserted by
the regular unit tests.
"""

import random
from collections import Counter

import pytest

from knotquiver.diagram import continued_fraction_value, two_bridge
from knotquiver.poly import LaurentPoly, MultiPoly
from knotquiver.quiver import build_potential, build_quiver
from knotquiver.reps import enumerate_submodules, link_module
from knotquiver.states import build_lattice

from .level_graph import level_sets


def t_poly(coeffs, m=0):
    return LaurentPoly.from_t_coefficients(coeffs, m)


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}{'  (' + detail + ')' if detail else ''}")


def f_poly_of(diagram, i):
    q = build_quiver(diagram)
    lat = build_lattice(diagram, i)
    ml = enumerate_submodules(q, link_module(diagram, q, lat))
    return MultiPoly.from_vectors(2 * diagram.n, ml.elements)


def y_series(nvars, *monomials):
    """Sum of the monomials, each given as {variable: exponent}."""
    return MultiPoly.from_vectors(
        nvars, [[m.get(v, 0) for v in range(1, nvars + 1)] for m in monomials]
    )


def test_criterion_1_figure_eight(fig8):
    f2 = f_poly_of(fig8, 2)
    expected_f2 = y_series(
        8,
        {},
        {8: 1},
        {3: 1, 8: 1},
        {1: 1, 3: 1, 8: 1},
        {1: 1, 3: 1, 4: 1, 8: 1},
    )
    spec2 = f2.specialize(fig8.specialization_exponents())
    ok = f2 == expected_f2 and spec2 == LaurentPoly({-2: -1, 0: 3, 2: -1})
    announce("1", ok, "T(2) series and specialization -1/t + 3 - t")
    assert f2 == expected_f2
    assert spec2.dot_eq(t_poly([1, -3, 1]))
    assert spec2 == LaurentPoly({-2: -1, 0: 3, 2: -1})


@pytest.mark.xfail(
    strict=True,
    reason="published T(1) series contradicts the lattice isomorphism "
    "(quotient-flipped transcription); the forced value is asserted in "
    "tests/test_reps.py",
)
def test_criterion_1_figure_eight_t1_verbatim(fig8):
    f1 = f_poly_of(fig8, 1)
    quoted = y_series(
        8,
        {},
        {2: 1},
        {8: 1},
        {2: 1, 8: 1},
        {2: 1, 5: 1, 8: 1},
    )
    announce("1 (T(1) verbatim)", f1 == quoted, "known transcription inconsistency")
    assert f1 == quoted


def test_criterion_2_10_66(corpus_diagrams):
    from knotquiver.reps import compute_partition

    d = corpus_diagrams["10_66"]
    f = f_poly_of(d, 1)
    spec = f.specialize(d.specialization_exponents())
    target = t_poly([3, -9, 16, -19, 16, -9, 3])
    q = build_quiver(d)
    rep = link_module(d, q, build_lattice(d, 1))
    expected_dims = {j: 1 for j in (2, 3, 4, 6, 7, 9, 10, 12, 16, 17, 19, 20)}
    expected_dims.update({8: 2, 18: 2})
    part = compute_partition(d, 1)
    sets = level_sets(part)
    ok = (
        f.num_terms == 75
        and spec.dot_eq(target)
        and rep.dim_vector() == expected_dims
        and sets[0] == {1, 15, 11, 5, 13, 14}
        and sets[2] == {18, 8}
        and part.levels[1].added == {9, 17}
    )
    announce("2", ok, "75 terms, degree-6 polynomial, levels and eps additions")
    assert f.num_terms == 75
    assert spec.dot_eq(target)
    assert rep.dim_vector() == expected_dims
    assert sets[0] == {1, 15, 11, 5, 13, 14}
    assert sets[2] == {18, 8}
    assert part.levels[1].added == {9, 17}


def test_criterion_3_conway(corpus_diagrams):
    d = corpus_diagrams["conway"]
    q = build_quiver(d)
    w = build_potential(d, q)
    bigons = sorted(
        tuple(sorted({q.arrows[cyc[0]].src, q.arrows[cyc[0]].tgt}))
        for cyc in w.minus
        if len(cyc) == 2
    )
    f = f_poly_of(d, 18)
    spec = f.specialize(d.specialization_exponents())
    ok = (
        len(q.vertices) == 22
        and len(q.arrows) == 44
        and bigons == [(4, 21), (8, 13), (9, 14), (11, 19)]
        and f.num_terms == 131
        and spec.dot_eq(LaurentPoly({2: 1}))
    )
    announce("3", ok, "22 vertices, 44 arrows, printed 2-cycles, 131 terms, Delta = 1")
    assert len(q.vertices) == 22 and len(q.arrows) == 44
    assert bigons == [(4, 21), (8, 13), (9, 14), (11, 19)]
    assert f.num_terms == 131
    assert spec.dot_eq(LaurentPoly({2: 1}))  # trivial Alexander polynomial


@pytest.mark.xfail(
    strict=True,
    reason="published top monomial drops the square of y16; the forced "
    "top monomial (total degree 15) follows from the state lattice and "
    "is asserted alongside",
)
def test_criterion_3_conway_top_monomial_verbatim(corpus_diagrams):
    d = corpus_diagrams["conway"]
    f = f_poly_of(d, 18)
    quoted = tuple(
        (v, 1) for v in (2, 3, 5, 6, 8, 9, 10, 13, 14, 15, 16, 17, 19, 21)
    )
    announce("3 (top monomial verbatim)", f.top_term() == quoted,
             "known transcription inconsistency")
    assert f.top_term() == quoted


def test_criterion_3_conway_top_monomial_forced(corpus_diagrams):
    d = corpus_diagrams["conway"]
    f = f_poly_of(d, 18)
    forced = dict.fromkeys((2, 3, 5, 6, 8, 9, 10, 13, 14, 15, 17, 19, 21), 1)
    forced[16] = 2
    assert f.top_term() == tuple(sorted(forced.items()))


def test_criterion_4_theorem1_sweep(corpus_reports):
    ok = all(
        r.oracles_agree and all(s.alexander_ok for s in r.segments)
        for r in corpus_reports.values()
    )
    announce("4", ok, "specialized F = determinant = state sum on every segment")
    for name, report in corpus_reports.items():
        assert report.oracles_agree, name
        for seg in report.segments:
            assert seg.alexander_ok, (name, seg.segment, seg.notes)


def test_criterion_5_theorem2_sweep(corpus_reports):
    ok = all(all(s.lattice_iso_ok for s in r.segments) for r in corpus_reports.values())
    announce("5", ok, "state lattice isomorphic to submodule lattice everywhere")
    for name, report in corpus_reports.items():
        for seg in report.segments:
            assert seg.lattice_iso_ok, (name, seg.segment)


def test_criterion_6_jacobian_relations(corpus_reports):
    ok = all(
        all(s.relations_ok for s in r.segments) for r in corpus_reports.values()
    )
    announce("6", ok, "every state module satisfies the relations")
    for name, report in corpus_reports.items():
        for seg in report.segments:
            assert seg.relations_ok is True, (name, seg.segment)


def test_criterion_7_height_fuzz():
    rng = random.Random(271828)
    checked = 0
    ok = True
    while checked < 200:
        k = rng.randint(1, 6)
        cf = [rng.randint(1, 6) for _ in range(k)]
        if not 2 <= sum(cf) <= 12:
            continue
        checked += 1
        d = two_bridge(cf)
        q = build_quiver(d)
        i = d.marked_segment
        ml = enumerate_submodules(q, link_module(d, q, build_lattice(d, i)))
        f = MultiPoly.from_vectors(2 * d.n, ml.elements)
        alt = f.evaluate_at_minus_one()
        num, _ = continued_fraction_value(cf)
        if alt not in (-1, 0, 1):
            ok = False
        if (alt == 0) != (ml.size % 2 == 0):
            ok = False
        if (alt == 0) != (d.components == 2):
            ok = False
        assert alt in (-1, 0, 1), cf
        assert (alt == 0) == (ml.size % 2 == 0), cf
        assert (alt == 0) == (d.components == 2), cf
    announce("7", ok, f"{checked} random continued fractions")
    assert checked >= 200


def test_criterion_8_palindrome_and_center(corpus_reports):
    ok = True
    for name, report in corpus_reports.items():
        if not report.palindrome_ok:
            ok = False
        if report.components == 1 and report.centered_ok is not True:
            ok = False
        for seg in report.segments:
            if seg.spec.normalize() != seg.spec.reverse().normalize():
                ok = False
    announce("8", ok, "Delta(t) = Delta(1/t) and odd central coefficient")
    for name, report in corpus_reports.items():
        assert report.palindrome_ok, name
        assert report.centered_ok is True, name
        for seg in report.segments:
            assert seg.spec.normalize() == seg.spec.reverse().normalize(), (name, seg.segment)


def test_criterion_9_structure(corpus_reports, corpus_diagrams):
    ok = all(r.structure_ok for r in corpus_reports.values())
    announce("9", ok, "counts, degrees and coefficient normalizations")
    for name, report in corpus_reports.items():
        assert report.structure_ok, (name, report.notes)
    for name, d in corpus_diagrams.items():
        q = build_quiver(d)
        assert len(d.regions) == d.n + 2, name
        assert len(q.arrows) == 4 * d.n, name
        outdeg = Counter(a.src for a in q.arrows)
        indeg = Counter(a.tgt for a in q.arrows)
        for v in q.vertices:
            assert outdeg[v] == 2 and indeg[v] == 2
        ml = enumerate_submodules(q, link_module(d, q, build_lattice(d, 1)))
        f = MultiPoly.from_vectors(2 * d.n, ml.elements)
        # F's coefficients are 1 and its constant term is 1: one term per
        # submodule (no two share a dimension vector), the zero one among them
        assert f.num_terms == ml.size, name
        assert (0,) * f.nvars in f.terms, name
        assert len(ml.elements) == len(set(ml.elements)), name
