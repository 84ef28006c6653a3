"""Command-line front end.

Subcommands: quiver | states | fpoly | alexander | verify | two-bridge.
Inputs are PD codes (inline, ``@file``, or the name of a bundled corpus
entry).  Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
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
from .jsontext import json_text
from .oracle import alexander_det
from .poly import LaurentPoly, render_monomial
from .quiver import build_potential, build_quiver, export, reduce_two_cycles
from .states import build_lattice, enumerate_states, lattice_to_json, state_sum_alexander
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
    q = build_quiver(diagram)
    cache = RunCache.from_env(args.cache_dir)
    segments = diagram.segment_ids() if args.all else [args.segment]
    if segments == [None]:
        print("fpoly: provide --segment N or --all", file=sys.stderr)
        return 2
    rows = [(i, *segment_pipeline(diagram, q, i, cache)) for i in segments]
    if args.format == "json":
        data = [
            {
                "segment": i,
                "terms": f.num_terms,
                "top": dict(f.top_term()),
                "f": f.to_json(),
                "specialization": spec.to_json(),
            }
            for i, f, spec in rows
        ]
        sys.stdout.write(json_text(data) + "\n")
        return 0
    for i, f, spec in rows:
        print(f"segment {i}: {f.num_terms} terms, top {render_monomial(f.top_term())}")
        print(f"  F = {f.render()}")
        print(f"  F|t = {spec.render()}")
    return 0


def cmd_alexander(args: argparse.Namespace) -> int:
    diagram = _resolve_input(args.input)
    cache = RunCache.from_env(args.cache_dir)
    seg = args.segment if args.segment is not None else min(diagram.segment_ids())
    if seg not in diagram.segments:
        raise DiagramError(f"unknown segment id {seg}")
    values: dict[str, LaurentPoly] = {}
    if args.method in ("det", "all"):
        values["det"] = alexander_det(diagram)
    if args.method in ("statesum", "all"):
        values["statesum"] = state_sum_alexander(diagram, enumerate_states(diagram, seg))
    if args.method in ("spec", "all"):
        q = build_quiver(diagram)
        values["spec"] = segment_pipeline(diagram, q, seg, cache)[1]
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
        _lat, rep, ml, f, _spec = run_segment(diagram, build_quiver(diagram), i)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotquiver",
        description="Quivers with potential, Kauffman state lattices and Alexander polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="build the quiver with potential of a diagram")
    p.add_argument("input", help="PD code, @file, or bundled corpus name")
    p.add_argument("--reduced", action="store_true", help="remove bigon 2-cycles")
    p.add_argument("--format", choices=("dot", "json", "text"), default="json")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("states", help="Kauffman state lattice relative to a segment")
    p.add_argument("input")
    p.add_argument("--segment", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("fpoly", help="F-polynomial of the link module T(i)")
    p.add_argument("input")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--segment", type=int)
    which.add_argument("--all", action="store_true", help="all segments")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--cache-dir")
    p.set_defaults(func=cmd_fpoly)

    p = sub.add_parser("alexander", help="Alexander polynomial")
    p.add_argument("input")
    p.add_argument("--method", choices=("spec", "statesum", "det", "all"), default="all")
    p.add_argument("--segment", type=int)
    p.add_argument("--cache-dir")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("verify", help="run all cross-checks over a corpus")
    p.add_argument("corpus", nargs="?", help="JSON-lines corpus file (default: bundled)")
    p.add_argument("--fast", action="store_true", help="skip every relation check, T(i)'s too")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("two-bridge", help="build a 2-bridge diagram from a continued fraction")
    p.add_argument("cf", help="comma separated positive integers, e.g. 2,1,2,3")
    p.add_argument("--report-theorem3", action="store_true")
    p.set_defaults(func=cmd_two_bridge)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
