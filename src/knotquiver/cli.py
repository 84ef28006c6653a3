"""Command-line front end.

Subcommands: quiver | states | fpoly | alexander | verify | two-bridge.
Inputs are PD codes (inline, ``@file``, or the name of a bundled corpus
entry).  Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cache import RunCache
from .corpus import load_corpus
from .diagram import (
    DiagramError,
    LinkDiagram,
    continued_fraction_value,
    parse_valid_pd,
    two_bridge,
)
from .oracle import alexander_det
from .poly import LaurentPoly, Monomial, MultiPoly, render_monomial
from .quiver import build_potential, build_quiver, export, reduce_two_cycles
from .states import build_lattice, lattice_to_json, state_sum_alexander
from .verify import run_segment, segment_pipeline, verify_diagram


def _resolve_input(text: str) -> LinkDiagram:
    candidate = text.strip()
    if candidate.startswith("@"):
        with open(candidate[1:], encoding="utf-8") as fh:
            candidate = fh.read()
    else:
        for entry in load_corpus():
            if entry.name == candidate:
                candidate = entry.pd
                break
    return parse_valid_pd(candidate)


def _parse_cf(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise DiagramError(f"malformed continued fraction: {text!r}") from None


def cmd_quiver(args: argparse.Namespace) -> int:
    diagram = _resolve_input(args.input)
    q = build_quiver(diagram)
    w = build_potential(diagram, q)
    if args.reduced:  # a reduced quiver has no text form: text prints JSON
        red = reduce_two_cycles(q, w)
        sys.stdout.write(export(red.quiver, red, "dot" if args.format == "dot" else "json"))
        return 0
    if args.format == "text":
        print(f"vertices: {len(q.vertices)}  arrows: {len(q.arrows)}")
        for a in q.arrows:
            print(f"  a{a.id}: {a.src} -> {a.tgt}  (crossing {a.crossing}, region {a.region})")
        return 0
    sys.stdout.write(export(q, w, args.format))
    return 0


def cmd_states(args: argparse.Namespace) -> int:
    diagram = _resolve_input(args.input)
    lat = build_lattice(diagram, args.segment)
    if args.format == "json":
        sys.stdout.write(lattice_to_json(diagram, lat))
        return 0
    print(f"segment {args.segment}: {lat.size} states, {len(lat.covers)} cover edges")
    print(f"max height vector: {lat.height_vector(lat.max_state)}")
    return 0


def cmd_fpoly(args: argparse.Namespace) -> int:
    diagram = _resolve_input(args.input)
    segments = diagram.segment_ids() if args.all else [args.segment]
    if segments == [None]:
        print("fpoly: provide --segment N or --all", file=sys.stderr)
        return 2
    if not args.all and args.segment not in diagram.segments:
        raise DiagramError(f"unknown segment id {args.segment}")
    q = build_quiver(diagram)
    cache = RunCache(args.cache_dir) if args.cache_dir else None
    rows = []
    for i in segments:  # every error is raised before anything is written
        f, spec = segment_pipeline(diagram, q, i, cache)
        rows.append((i, f, spec, f.top_term()))
    if args.format == "json":
        opening = "["
        for row in rows:  # one record's text at a time, never the whole output
            sys.stdout.write(opening + "\n  " + _fpoly_record(*row))
            opening = ","
        sys.stdout.write("\n]\n")
        return 0
    for i, f, spec, top in rows:
        print(f"segment {i}: {f.num_terms} terms, top {render_monomial(top)}")
        print(f"  F = {f.render()}")
        print(f"  F|t = {spec.render()}")
    return 0


def _fpoly_record(i: int, f: MultiPoly, spec: LaurentPoly, top: Monomial) -> str:
    """The text of one segment's record in ``fpoly --format json``'s list:
    ``{"f": f.to_json(), "segment": i, "specialization": spec.to_json(),
    "terms": f.num_terms, "top": dict(top)}`` at indent 2.

    F is written by ``f.to_json_text``, the other fields by ``json.dumps``,
    which escapes every newline inside a string: each newline in its text
    is a line break, and is indented one level deeper.
    """
    rest = {"segment": i, "specialization": spec.to_json(), "terms": f.num_terms, "top": dict(top)}
    text = json.dumps(rest, indent=2, sort_keys=True).replace("\n", "\n  ")
    # "f" sorts before every key of rest, so its field opens the record
    return '{\n    "f": ' + f.to_json_text("\n    ") + "," + text[1:]


def cmd_alexander(args: argparse.Namespace) -> int:
    diagram = _resolve_input(args.input)
    seg = args.segment if args.segment is not None else min(diagram.segment_ids())
    if seg not in diagram.segments:
        raise DiagramError(f"unknown segment id {seg}")
    values: dict[str, LaurentPoly] = {}
    if args.method in ("det", "all"):
        values["det"] = alexander_det(diagram)
    if args.method in ("statesum", "all"):
        values["statesum"] = state_sum_alexander(diagram, seg)
    if args.method in ("spec", "all"):
        values["spec"] = run_segment(diagram, build_quiver(diagram), seg).spec
    polys = list(values.values())
    agree = all(polys[0].dot_eq(p) for p in polys[1:])
    for method, poly in values.items():
        print(f"{method}: {poly.normalize().render()}")
    if not agree:
        print("methods disagree", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    entries = load_corpus(args.corpus)
    if not entries:
        print("warning: empty corpus; nothing verified")
        return 0
    failures = 0
    for entry in entries:
        if not entry.prime:
            print(f"{entry.name}: skipped (not asserted prime)")
            continue
        report = verify_diagram(
            entry.diagram(),
            name=entry.name,
            expected_alexander=entry.alexander,
            check_all_states=not args.fast,
        )
        status = "PASS" if report.ok else "FAIL"
        if not report.ok:
            failures += 1
        print(f"{entry.name}: {status}  (n={report.n}, Delta = {report.det.normalize().render()})")
        if args.verbose or not report.ok:
            print(f"  oracles agree: {report.oracles_agree}")
            print(f"  Delta(1): {report.delta_one_ok}  palindrome: {report.palindrome_ok}"
                  f"  centered: {report.centered_ok}  structure: {report.structure_ok}")
            if report.expected_ok is not None:
                print(f"  expected polynomial: {report.expected_ok}")
            for note in report.notes:
                print(f"  note: {note}")
            for seg in report.segments:
                if not seg.ok or args.verbose:
                    print(
                        f"  segment {seg.segment}: states={seg.states} terms={seg.f_terms}"
                        f" alexander={seg.alexander_ok} lattice_iso={seg.lattice_iso_ok}"
                        f" relations={seg.relations_ok} partition={seg.partition_ok}"
                    )
                    for note in seg.notes:
                        print(f"    note: {note}")
    return 1 if failures else 0


def cmd_two_bridge(args: argparse.Namespace) -> int:
    cf = _parse_cf(args.cf)
    diagram = two_bridge(cf).require_valid()
    num, den = continued_fraction_value(cf)
    kind = "knot" if diagram.components == 1 else f"link ({diagram.components} components)"
    print(f"K{cf}: {diagram.n} crossings, continued fraction {num}/{den}, {kind}")
    print(f"pd: {diagram.to_pd()}")
    if args.report_theorem3:
        i = diagram.marked_segment
        assert i is not None
        rep, ml, f, _spec = run_segment(diagram, build_quiver(diagram), i)
        total = sum(cf)
        ells = [sum(cf[: k + 1]) for k in range(len(cf))]
        alt = f.evaluate_at_minus_one()
        dims = rep.dim_vector()
        print(f"base segment: {i} (the long arc joining the first and last block)")
        print(f"type-A dims: {sorted(dims.items())} (total {sum(rep.dims)} = {total - 1})")
        print(f"block boundaries l_j: {ells}")
        print(f"submodule lattice size: {ml.size} ({'odd' if ml.size % 2 else 'even'})")
        print(f"alternating height sum: {alt}")
        ok = (abs(alt) == 1) == (ml.size % 2 == 1) and alt in (-1, 0, 1)
        print(f"height theorem check: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="knotquiver",
        description="Quivers with potential, Kauffman state lattices and Alexander polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="build the quiver with potential of a diagram")
    p.add_argument("input", help="PD code, @file, or bundled corpus name")
    p.add_argument("--reduced", action="store_true", help="remove bigon 2-cycles")
    p.add_argument("--format", choices=("dot", "json", "text"), default="json")
    p.set_defaults(handler="cmd_quiver")

    p = sub.add_parser("states", help="Kauffman state lattice relative to a segment")
    p.add_argument("input")
    p.add_argument("--segment", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler="cmd_states")

    p = sub.add_parser("fpoly", help="F-polynomial of the link module T(i)")
    p.add_argument("input")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--segment", type=int)
    which.add_argument("--all", action="store_true", help="all segments")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--cache-dir", help="store each segment's F here; later runs read it back")
    p.set_defaults(handler="cmd_fpoly")

    p = sub.add_parser("alexander", help="Alexander polynomial")
    p.add_argument("input")
    p.add_argument("--method", choices=("spec", "statesum", "det", "all"), default="all")
    p.add_argument("--segment", type=int)
    p.set_defaults(handler="cmd_alexander")

    p = sub.add_parser("verify", help="run all cross-checks over a corpus")
    p.add_argument("corpus", nargs="?", help="JSON-lines corpus file (default: bundled)")
    p.add_argument("--fast", action="store_true", help="skip every relation check, T(i)'s too")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler="cmd_verify")

    p = sub.add_parser("two-bridge", help="build a 2-bridge diagram from a continued fraction")
    p.add_argument("cf", help="comma separated positive integers, e.g. 2,1,2,3")
    p.add_argument("--report-theorem3", action="store_true")
    p.set_defaults(handler="cmd_two_bridge")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the parser names each handler, looked up here on every call: the parser
    # outlives any rebinding of a cmd_* function
    handler = globals()[args.handler]
    try:
        return handler(args)
    except (DiagramError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
