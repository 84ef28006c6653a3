"""Inputs, seeded generators and output checks for the knotquiver benchmark.

Every workload is a list of operations, one per diagram.  The generators
take a ``random.Random`` built from the benchmark seed, so the same seed
gives the same PD codes.  The checks parse the CLI's output and compare
it with values the benchmark knows independently of the code under test
(the corpus' expected polynomials, the determinant of a 2-bridge link) or
with the region-matrix oracle, which shares no code with the F-polynomial.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

# 2-bridge draws: crossing counts (taken in turn), the largest twist-region
# size, the band on p * n**2 (p = determinant, n = crossings) and the
# number of diagrams.  Run time grows with p * n**2 (states per segment
# times segments times segment length), so the band holds each diagram's
# work near the same size.
TWOBRIDGE = {"crossings": (13, 14, 15), "max_part": 5, "work": (24_000, 32_000), "count": 6}
FPOLY_TWOBRIDGE = {"crossings": (12, 15), "max_part": 5, "work": (24_000, 32_000), "count": 2}

_PD_TERM = re.compile(r"X\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_VERDICT = re.compile(r"^(\S+): (PASS|FAIL)  \(n=(\d+), Delta = (.*)\)$")


@dataclass
class Op:
    """One diagram's command and what its output must show."""

    name: str
    pd: str
    components: int
    alexander: tuple | None = None  # expected polynomial, as unit_key() gives it
    det: int | None = None  # expected |Delta(-1)|


# -- generators -------------------------------------------------------------------


def cf_numerator(cf: list[int]) -> int:
    """p of the continued fraction [a1, ..., ak] = p/q: the link's determinant."""
    p, q = cf[-1], 1
    for a in reversed(cf[:-1]):
        p, q = a * p + q, p
    return p


def band_fractions(n: int, max_part: int, work: tuple[int, int]) -> list[list[int]]:
    """Every continued fraction with sum n, parts up to max_part and p * n**2 in ``work``."""
    out = []

    def extend(prefix: list[int], left: int) -> None:
        if left == 0:
            if work[0] <= cf_numerator(prefix) * n * n <= work[1]:
                out.append(list(prefix))
            return
        for a in range(1, min(max_part, left) + 1):
            prefix.append(a)
            extend(prefix, left - a)
            prefix.pop()

    extend([], n)
    return out


def draw_cfs(rng: random.Random, spec: dict) -> list[list[int]]:
    """``spec["count"]`` uniform draws from the band, taking the crossing counts in turn."""
    crossings = spec["crossings"]
    pools = {n: band_fractions(n, spec["max_part"], spec["work"]) for n in crossings}
    return [rng.choice(pools[crossings[k % len(crossings)]]) for k in range(spec["count"])]


def pd_terms(pd: str) -> list[tuple[int, int, int, int]]:
    return [tuple(int(x) for x in m) for m in _PD_TERM.findall(pd)]


def pd_text(terms) -> str:
    return " ".join(f"X({a},{b},{c},{d})" for a, b, c, d in terms)


def change_crossings(terms, over_in: list[int], chosen) -> list[tuple[int, int, int, int]]:
    """Switch over and under at the chosen crossings.

    A term X(a,b,c,d) starts at its incoming under end; rotating it to
    start at its incoming over end (slot ``over_in``, 1 or 3) makes the
    over strand the under strand.  Applied twice it gives the term back.
    """
    out = list(terms)
    for c in chosen:
        a, b, cc, d = terms[c]
        out[c] = (b, cc, d, a) if over_in[c] == 1 else (d, a, b, cc)
    return out


def crossing_change_variant(kq, rng: random.Random, pd: str) -> str:
    """A seeded non-alternating variant: switch a random half or less of the crossings."""
    terms = pd_terms(pd)
    diagram = kq.diagram.parse_pd(pd)
    k = rng.randint(1, max(1, len(terms) // 2))
    chosen = sorted(rng.sample(range(len(terms)), k))
    return pd_text(change_crossings(terms, [c.over_in for c in diagram.crossings], chosen))


# -- workload inputs ----------------------------------------------------------------


def _valid(kq, pd: str):
    diagram = kq.diagram.parse_pd(pd)
    report = diagram.validate()
    if not report.ok:
        raise ValueError("generated diagram is invalid: " + "; ".join(report.notes))
    return diagram


def corpus_ops(kq) -> list[Op]:
    ops = []
    for entry in kq.corpus.load_corpus():
        components = _valid(kq, entry.pd).components
        expected = {2 * k: c for k, c in enumerate(entry.alexander or ()) if c}
        key = unit_key(expected) if expected else None
        ops.append(Op(entry.name, entry.pd, components, alexander=key))
    return ops


def two_bridge_ops(kq, cfs: list[list[int]], prefix: str) -> list[Op]:
    ops = []
    for k, cf in enumerate(cfs):
        pd = kq.diagram.two_bridge(cf).to_pd()
        name = f"{prefix}{k}-{'.'.join(map(str, cf))}"
        ops.append(Op(name, pd, _valid(kq, pd).components, det=cf_numerator(cf)))
    return ops


def variant_ops(kq, rng: random.Random, bases: list[Op]) -> list[Op]:
    ops = []
    for base in bases:
        pd = crossing_change_variant(kq, rng, base.pd)
        ops.append(Op(f"cc-{base.name}", pd, _valid(kq, pd).components))
    return ops


def write_corpus(path, ops: list[Op]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for op in ops:
            row = {"name": op.name, "pd": op.pd, "prime": True, "components": op.components}
            fh.write(json.dumps(row) + "\n")


# -- output checks ------------------------------------------------------------------


def unit_key(terms: dict[int, int]) -> tuple:
    """A polynomial in s (s**2 = t), up to a signed power of s and s <-> 1/s."""
    keys = []
    for sign in (1, -1):
        flipped = {sign * e: c for e, c in terms.items() if c}
        low = min(flipped)
        unit = 1 if flipped[low] > 0 else -1
        keys.append(tuple(sorted((e - low, unit * c) for e, c in flipped.items())))
    return min(keys)


def det_of(terms: dict[int, int]) -> int:
    """|Delta(-1)|, evaluating at s = i so that t = s**2 = -1."""
    re_part = im_part = 0
    for e, c in terms.items():
        r = e % 4
        if r == 0:
            re_part += c
        elif r == 1:
            im_part += c
        elif r == 2:
            re_part -= c
        else:
            im_part -= c
    norm = re_part * re_part + im_part * im_part
    root = math.isqrt(norm)
    if root * root != norm:
        raise ValueError("not a unit multiple of an integer at t = -1")
    return root


def parse_rendered(text: str) -> dict[int, int]:
    """The s-exponent terms of a polynomial as the CLI renders it."""
    if text == "0":
        return {}
    terms: dict[int, int] = {}
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        sign = -1 if token.startswith("-") else 1
        token = token.lstrip("+-")
        coef, _, power = token.rpartition("*") if "*" in token else ("", "", token)
        if power[0].isdigit():
            coef, power = power, ""
        exp = 0
        if power:
            var, _, e = power.partition("^")
            exp = (int(e) if e else 1) * (2 if var == "t" else 1)
        terms[exp] = sign * int(coef or 1)
    return terms


def alexander_ok(op: Op, terms: dict[int, int]) -> bool:
    if not terms:
        return False
    if op.alexander is not None and unit_key(terms) != op.alexander:
        return False
    return op.det is None or det_of(terms) == op.det


def verify_lines(ops: list[Op], rc: int, stdout: str) -> dict[str, str | None]:
    """Each op's verdict line, or None where the op failed."""
    lines = {}
    for line in stdout.splitlines():
        m = _VERDICT.match(line)
        if m:
            lines[m.group(1)] = (m, line)
    out: dict[str, str | None] = {}
    for op in ops:
        m, line = lines.get(op.name, (None, None))
        ok = (
            rc == 0
            and m is not None
            and m.group(2) == "PASS"
            and alexander_ok(op, parse_rendered(m.group(4)))
        )
        out[op.name] = line if ok else None
    return out


def fpoly_ok(op: Op, rc: int, stdout: str) -> bool:
    """Every segment's specialization is the same, expected polynomial."""
    if rc != 0:
        return False
    try:
        rows = json.loads(stdout)
        specs = [{e: c for e, c in row["specialization"]["s_terms"]} for row in rows]
    except (ValueError, KeyError, TypeError):
        return False
    if not specs or len({unit_key(s) if s else () for s in specs}) != 1:
        return False
    return all(alexander_ok(op, s) for s in specs)
