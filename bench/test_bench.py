"""Tests of the benchmark's own generators, checks and span arithmetic.

Run from the root of a checkout:  python3 -m pytest bench
"""

import random
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import knotquiver  # noqa: E402
import knotquiver.cli  # noqa: E402,F401
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402


def _pds(seed):
    rng = random.Random(seed)
    cfs = wl.draw_cfs(rng, wl.FPOLY_TWOBRIDGE)
    corpus = wl.corpus_ops(knotquiver)
    ops = wl.two_bridge_ops(knotquiver, cfs, "2b") + wl.variant_ops(knotquiver, rng, corpus)
    return [op.pd for op in ops]


def test_same_seed_same_pd_codes():
    assert _pds(7) == _pds(7)
    assert _pds(7) != _pds(8)


def test_draw_respects_crossings_and_work_band():
    rng = random.Random(3)
    spec = wl.TWOBRIDGE
    cfs = wl.draw_cfs(rng, spec)
    assert len(cfs) == spec["count"]
    for k, cf in enumerate(cfs):
        n = sum(cf)
        assert n == spec["crossings"][k % len(spec["crossings"])] and max(cf) <= spec["max_part"]
        assert spec["work"][0] <= wl.cf_numerator(cf) * n * n <= spec["work"][1]
        assert wl.cf_numerator(cf) == knotquiver.continued_fraction_value(cf)[0]


def test_crossing_change_switches_over_and_under():
    pd = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"  # trefoil
    terms = wl.pd_terms(pd)
    over_in = [c.over_in for c in knotquiver.parse_pd(pd).crossings]
    changed = wl.change_crossings(terms, over_in, [1])
    assert changed[0] == terms[0] and changed[2] == terms[2]
    diagram = knotquiver.parse_pd(wl.pd_text(changed))
    assert diagram.validate().ok
    # the old over strand now passes under: slot 0 holds its incoming arc
    assert changed[1][0] == terms[1][over_in[1]]
    # switching one crossing of the trefoil unknots it
    assert knotquiver.alexander_det(diagram).normalize().t_coefficients() == [1]
    again = [c.over_in for c in diagram.crossings]
    assert wl.change_crossings(changed, again, [1]) == terms


def test_rendered_polynomial_round_trip():
    poly = knotquiver.LaurentPoly.from_t_coefficients([2, -7, 9, -7, 2])
    terms = wl.parse_rendered(poly.normalize().render())
    assert wl.unit_key(terms) == wl.unit_key(dict(poly.terms))
    assert wl.det_of(terms) == 27
    assert wl.unit_key({0: 1, 2: -1}) == wl.unit_key({-2: 1, 0: -1})


def test_self_time_subtracts_child_spans():
    # parent 0..10 with children 1..4 (grandchild 2..3) and 5..9
    recorded = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert spans.self_times(recorded) == {"a": 3.0, "b": 6.0, "c": 1.0}


def test_tracer_records_nesting_counts_and_restores():
    tracer = spans.Tracer()
    original = knotquiver.states.enumerate_states
    tracer.install()
    try:
        d = knotquiver.parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
        lat = knotquiver.states.build_lattice(d, 1)
    finally:
        tracer.uninstall()
    assert knotquiver.states.enumerate_states is original
    names = [s[0] for s in tracer.spans]
    assert names[-2:] == ["states.build_lattice", "states.enumerate_states"]
    assert tracer.spans[-1][3] == len(tracer.spans) - 2
    assert tracer.counts["states.states"] == [lat.size]


def test_missing_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + [("reps", "no_such_function", "reps.x")])
    with pytest.raises(spans.MissingName, match="no_such_function"):
        spans.Tracer().install()
    # nothing stays wrapped after the failed install
    assert knotquiver.cli.main.__name__ == "main" and not hasattr(knotquiver.cli.main, "__wrapped__")


def test_speed_probe_time_is_left_out_of_timings():
    def main(argv):
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        return 0

    kq = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        rc, _out, seconds = run.call(kq, ["busy"], probe)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert rc == 0 and len(probe.samples) >= 2
    assert probe.total == pytest.approx(sum(probe.samples))
    assert seconds == pytest.approx(0.6 - probe.total, abs=0.02)
    assert probe.scale(1) == speed.REFERENCE_S / statistics.median(probe.samples[1:])
    assert probe.scale(len(probe.samples)) == speed.REFERENCE_S / probe.samples[-1]
