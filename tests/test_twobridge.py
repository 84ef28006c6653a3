import random

from knotquiver.diagram import continued_fraction_value, two_bridge
from knotquiver.poly import MultiPoly
from knotquiver.quiver import build_quiver
from knotquiver.reps import enumerate_submodules, link_module
from knotquiver.states import build_lattice


def _marked_lattice(cf):
    d = two_bridge(cf)
    i = d.marked_segment
    q = build_quiver(d)
    lat = build_lattice(d, i)
    rep = link_module(d, q, lat)
    ml = enumerate_submodules(q, rep)
    return d, q, rep, ml


class TestTypeA:
    def test_marked_segment_gives_type_a_module(self):
        for cf in ([3], [2, 2], [2, 1, 2, 3], [1, 2, 1], [4, 3]):
            d, q, rep, ml = _marked_lattice(cf)
            support = set(rep.dim_vector())
            assert all(v == 1 for v in rep.dim_vector().values()), cf
            assert sum(rep.dims) == sum(cf) - 1, cf
            # the support induces a path: two endpoints, the rest of degree 2
            adj = {v: set() for v in support}
            for a in q.arrows:
                if a.src in support and a.tgt in support and a.src != a.tgt:
                    adj[a.src].add(a.tgt)
                    adj[a.tgt].add(a.src)
            degrees = sorted(len(v) for v in adj.values())
            if len(support) == 1:
                assert degrees == [0]
            else:
                assert degrees == [1, 1] + [2] * (len(support) - 2), cf

    def test_lattice_size_is_continued_fraction_numerator(self):
        # the number of submodules equals the numerator of the fraction
        for cf in ([3], [2, 2], [2, 1, 2, 3], [1, 2, 1], [3, 3], [2, 2, 2]):
            _d, _q, _rep, ml = _marked_lattice(cf)
            num, _ = continued_fraction_value(cf)
            assert ml.size == num, cf


class TestHeightTheorem:
    def test_single_element_lattice(self):
        # sum(cf) = 1 is a curl; the smallest honest case has one crossing
        # more, so check the degenerate statement on the trivial module
        f = MultiPoly(2, {(0, 0): 1})
        assert f.evaluate_at_minus_one() == 1

    def test_examples(self):
        for cf, parity in (([3], 1), ([2, 2], 1), ([2], 0), ([2, 1, 2, 3], 1)):
            d, _q, _rep, ml = _marked_lattice(cf)
            f = MultiPoly.from_vectors(2 * d.n, ml.elements)
            alt = f.evaluate_at_minus_one()
            assert alt in (-1, 0, 1), cf
            assert (abs(alt) == 1) == (ml.size % 2 == 1), cf
            assert (abs(alt) == 1) == (parity == 1), cf

    def test_random_fractions(self):
        rng = random.Random(2024)
        seen = 0
        while seen < 40:
            k = rng.randint(1, 5)
            cf = [rng.randint(1, 5) for _ in range(k)]
            if not 2 <= sum(cf) <= 10:
                continue
            seen += 1
            d, _q, _rep, ml = _marked_lattice(cf)
            f = MultiPoly.from_vectors(2 * d.n, ml.elements)
            alt = f.evaluate_at_minus_one()
            assert alt in (-1, 0, 1), cf
            assert (alt == 0) == (ml.size % 2 == 0), cf
            assert (alt == 0) == (d.components == 2), cf
