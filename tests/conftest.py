import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import knotquiver
from knotquiver.corpus import load_corpus
from knotquiver.diagram import parse_pd

TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8_PD = "X(3,1,4,8) X(7,5,8,4) X(5,2,6,3) X(1,6,2,7)"
# composite diagrams: the closures of the braids s1^3 s2^-3 (trefoil # mirror)
# and s1^2 s2^-2 (Hopf # Hopf)
SQUARE_KNOT_PD = "X(3,1,4,12) X(11,3,12,2) X(1,11,2,10) X(9,6,10,7) X(5,8,6,9) X(7,4,8,5)"
HOPF_HOPF_PD = "X(1,2,5,4) X(4,5,7,1) X(3,9,8,7) X(9,3,2,8)"
# the closure of s1^3 s2 s3^-3: a trefoil and its mirror joined at one
# nugatory crossing, with no curl
NUGATORY_PD = (
    "X(1,2,6,5) X(5,6,8,7) X(7,8,10,1) X(10,3,12,2) X(4,14,13,12) X(14,16,15,13) "
    "X(16,4,3,15)"
)


def rebind(monkeypatch, function, replacement):
    """Bind ``replacement`` wherever a knotquiver module binds ``function``."""
    for name, module in list(sys.modules.items()):
        if name == "knotquiver" or name.startswith("knotquiver."):
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, replacement)


def forbid(monkeypatch, *functions):
    """Make every binding of ``functions`` in the knotquiver modules raise."""
    for function in functions:

        def boom(*args, _name=function.__name__, **kwargs):
            raise AssertionError(f"{_name} called")

        rebind(monkeypatch, function, boom)


def fpoly_json_reference(runs) -> str:
    """What ``fpoly --format json`` prints for ``(segment, F, F|t)`` triples:
    ``json.dumps`` of records built from ``MultiPoly.to_json()``, with the
    top term read off the terms by degree."""
    data = []
    for i, f, spec in runs:
        degrees = sorted(map(sum, f.terms))
        assert degrees.count(degrees[-1]) == 1
        top = max(f.terms, key=sum)
        data.append({
            "segment": i,
            "terms": len(f.terms),
            "top": {v: x for v, x in enumerate(top, 1) if x},
            "f": f.to_json(),
            "specialization": spec.to_json(),
        })
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def compositions(n):
    """Every sequence of positive integers with sum n: a 2-bridge link's twists."""
    if n == 0:
        yield []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield [first, *rest]


@pytest.fixture(scope="session")
def trefoil():
    return parse_pd(TREFOIL_PD)


@pytest.fixture(scope="session")
def fig8():
    return parse_pd(FIG8_PD)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_diagrams(corpus):
    return {entry.name: entry.diagram() for entry in corpus}


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    """Full verification sweep over the bundled corpus, computed once."""
    from knotquiver.verify import verify_diagram

    reports = {}
    for entry in corpus:
        reports[entry.name] = verify_diagram(
            entry.diagram(),
            name=entry.name,
            expected_alexander=entry.alexander,
            check_all_states=True,
        )
    return reports


@pytest.fixture(scope="session")
def crossing_change_diagrams(corpus):
    """The benchmark's seeded crossing-change variants of the corpus, seeds
    1-6, that validate: non-alternating diagrams, as CI verifies them."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    diagrams = {}
    for seed in range(1, 7):
        rng = random.Random(f"crossing-change:{seed}")
        for entry in corpus:
            d = parse_pd(workloads.crossing_change_variant(knotquiver, rng, entry.pd))
            if d.validate().ok:
                diagrams[f"cc{seed}-{entry.name}"] = d
    return diagrams
