import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotquiver
import knotquiver.cli as cli
from knotquiver.cli import build_parser, main
from knotquiver.diagram import ValidationReport, two_bridge
from knotquiver.quiver import build_quiver
from knotquiver.states import lattice_to_json
from knotquiver.verify import run_segment

from .conftest import (
    FIG8_PD,
    HOPF_HOPF_PD,
    SQUARE_KNOT_PD,
    TREFOIL_PD,
    compositions,
    forbid,
    fpoly_json_reference,
    rebind,
)
from .lattice_reference import reference_lattice


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).hexdigest().encode()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuiverCmd:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "quiver", FIG8_PD)
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 8 and len(data["arrows"]) == 16
        assert len(data["potential"]["plus"]) == 4

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "quiver", "figure-eight", "--format", "dot")
        assert code == 0 and out.count("->") == 16

    def test_reduced(self, capsys):
        code, out, _ = run(capsys, "quiver", FIG8_PD, "--reduced")
        assert code == 0
        data = json.loads(out)
        assert len(data["arrows"]) == 12
        assert len(data["substitutions"]) == 4

    def test_reduced_trefoil(self, capsys):
        # the trefoil's crossing term vanishes: W reduces to minus its triangles
        code, out, _ = run(capsys, "quiver", "trefoil", "--reduced")
        assert code == 0
        assert json.loads(out)["potential"] == {"plus": [], "minus": [[1, 5, 9], [3, 11, 7]]}

    def test_reduced_text_prints_json(self, capsys):
        _, as_json, _ = run(capsys, "quiver", FIG8_PD, "--reduced")
        code, out, _ = run(capsys, "quiver", FIG8_PD, "--reduced", "--format", "text")
        assert code == 0 and out == as_json

    def test_input_path_not_a_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "quiver", f"@{tmp_path}")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_json_nested_past_the_recursion_limit_exit_2(self, capsys, tmp_path):
        pd = tmp_path / "deep.json"
        pd.write_text('{"crossings": ' + "[" * 200000)
        code, out, err = run(capsys, "quiver", f"@{pd}")
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed PD JSON: maximum recursion depth exceeded")

    def test_corpus_name_conway(self, capsys):
        code, out, _ = run(capsys, "quiver", "conway")
        data = json.loads(out)
        assert code == 0 and len(data["vertices"]) == 22 and len(data["arrows"]) == 44

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "quiver", "X(1,2,3)")
        assert code == 2 and "error" in err

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "quiver", FIG8_PD)
        _, out2, _ = run(capsys, "quiver", FIG8_PD)
        assert out1 == out2


class TestStatesCmd:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "states", FIG8_PD, "--segment", "1")
        assert code == 0 and "5 states" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "states", FIG8_PD, "--segment", "1", "--format", "json")
        data = json.loads(out)
        assert code == 0 and len(data["states"]) == 5

    def test_json_is_the_reference_lattice(self, capsys, corpus):
        # every segment of every corpus diagram, against the lattice whose
        # heights come from a search up the covers
        checked = 0
        for entry in corpus:
            d = entry.diagram()
            for i in d.segment_ids():
                argv = ("states", entry.name, "--segment", str(i), "--format", "json")
                code, out, _ = run(capsys, *argv)
                assert code == 0 and out == lattice_to_json(d, reference_lattice(d, i)), argv
                checked += 1
        assert checked == 72


class TestFpolyCmd:
    def test_single_segment(self, capsys):
        code, out, _ = run(capsys, "fpoly", FIG8_PD, "--segment", "1")
        assert code == 0
        assert "5 terms" in out
        assert "y2*y5*y8" in out

    def test_all_segments_json(self, capsys):
        code, out, _ = run(capsys, "fpoly", TREFOIL_PD, "--all", "--format", "json")
        data = json.loads(out)
        assert code == 0 and len(data) == 6
        assert all(row["terms"] == 3 for row in data)

    def test_requires_segment(self, capsys):
        code, _, err = run(capsys, "fpoly", FIG8_PD)
        assert code == 2

    def test_segment_and_all_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fpoly", "figure-eight", "--segment", "1", "--all"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "not allowed with argument" in err

    def test_cache_round_trip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code1, out1, _ = run(capsys, "fpoly", "10_66", "--segment", "1",
                             "--format", "json", "--cache-dir", cache_dir)
        code2, out2, _ = run(capsys, "fpoly", "10_66", "--segment", "1",
                             "--format", "json", "--cache-dir", cache_dir)
        assert code1 == code2 == 0
        assert out1 == out2
        files = list((tmp_path / "cache").iterdir())
        assert len(files) == 1 and files[0].suffix == ".bin"

    def test_corrupt_cache_entry_is_a_miss(self, capsys, tmp_path):
        cold_dir, cache_dir = str(tmp_path / "cold"), tmp_path / "cache"
        code, cold, _ = run(capsys, "fpoly", TREFOIL_PD, "--all", "--format", "json",
                            "--cache-dir", cold_dir)
        assert code == 0
        run(capsys, "fpoly", TREFOIL_PD, "--segment", "1", "--format", "json",
            "--cache-dir", str(cache_dir))
        (entry,) = cache_dir.iterdir()
        good = entry.read_bytes()
        digest, _, body = good.partition(b"\n")
        assert digest == _sha256(body) and len(body) == 3 * 6  # 3 terms over 6 segments
        entry.write_bytes(good[:-10])  # a truncated write
        code, out, err = run(capsys, "fpoly", TREFOIL_PD, "--all", "--format", "json",
                             "--cache-dir", str(cache_dir))
        assert code == 0, err
        assert out == cold
        assert entry.read_bytes() == good
        # not whole rows, a repeated row, no zero row, the format-4 JSON
        # body: a miss with or without a matching checksum
        rejected = (b"\xff\xfe garbage", body * 2, body[6:],
                    b'{"nvars":6,"terms":[{"coef":1,"exp":[0,0,0,0,0,0]}]}')
        variants = [c for p in rejected for c in (p, _sha256(p) + b"\n" + p)]
        # whole, distinct rows with the zero row, holding the wrong
        # polynomial, under no checksum or the checksum of another body
        wrong = bytes(6) + b"\x01" * 6
        variants += [wrong, good[:64] + b"\n" + wrong]
        for contents in variants:
            entry.write_bytes(contents)
            assert run(capsys, "fpoly", TREFOIL_PD, "--all", "--format", "json",
                       "--cache-dir", str(cache_dir))[:2] == (0, cold), contents
            assert entry.read_bytes() == good, contents

    def test_cache_hit_skips_computation(self, tmp_path, monkeypatch, corpus_diagrams):
        from knotquiver.cache import RunCache
        from knotquiver.quiver import build_quiver
        from knotquiver.reps import enumerate_submodules
        from knotquiver.states import build_lattice, clock_walk
        from knotquiver.verify import segment_pipeline

        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        cache = RunCache(tmp_path / "c")
        first = segment_pipeline(d, q, 1, cache)
        forbid(monkeypatch, clock_walk, enumerate_submodules, build_lattice)
        second = segment_pipeline(d, q, 1, cache)
        assert first[0] == second[0] and first[1] == second[1]
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 0)

    def test_cold_run_builds_no_state_lattice(self, tmp_path, monkeypatch, corpus_diagrams):
        # F reads T(i) alone, which the clock walk finds without listing the states
        from knotquiver.cache import RunCache
        from knotquiver.poly import MultiPoly
        from knotquiver.quiver import build_quiver
        from knotquiver.states import build_lattice, enumerate_states
        from knotquiver.verify import segment_pipeline

        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        expected = MultiPoly.from_vectors(2 * d.n, build_lattice(d, 1).heights)
        forbid(monkeypatch, build_lattice, enumerate_states)
        cache = RunCache(tmp_path)
        f, spec = segment_pipeline(d, q, 1, cache)
        assert f == expected and spec == f.specialize(d.specialization_exponents())
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 0)

    def test_unknown_segment_writes_no_entry(self, capsys, tmp_path):
        code, out, err = run(capsys, "fpoly", "figure-eight", "--segment", "99",
                             "--cache-dir", str(tmp_path))
        assert (code, out, err) == (2, "", "error: unknown segment id 99\n")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fpoly", "figure-eight"], "fpoly: provide --segment N or --all\n"),
            (["fpoly", "figure-eight", "--segment", "99"], "error: unknown segment id 99\n"),
        ],
        ids=["fpoly-no-segment", "fpoly-unknown-segment"],
    )
    def test_input_error_creates_no_cache_dir(self, capsys, tmp_path, argv, message):
        cache_dir = tmp_path / "cache"
        assert run(capsys, *argv, "--cache-dir", str(cache_dir)) == (2, "", message)
        assert not cache_dir.exists()

    def test_rejected_entry_counts_as_a_miss(self, tmp_path, corpus_diagrams):
        from knotquiver.cache import RunCache
        from knotquiver.quiver import build_quiver
        from knotquiver.verify import segment_pipeline

        d = corpus_diagrams["figure-eight"]
        q = build_quiver(d)
        cold = segment_pipeline(d, q, 1, RunCache(tmp_path))
        (entry,) = tmp_path.iterdir()
        for payload in (b"{}", b"garbage", b""):
            entry.write_bytes(_sha256(payload) + b"\n" + payload)
            cache = RunCache(tmp_path)
            assert segment_pipeline(d, q, 1, cache) == cold
            assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 1), payload
            assert segment_pipeline(d, q, 1, cache) == cold
            assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 1), payload

    def test_wrong_entry_is_not_a_verification_failure(self, capsys, monkeypatch, tmp_path):
        # no environment variable names a cache: a wrong entry in the directory
        # that $KNOTQUIVER_CACHE_DIR names is neither read nor rewritten
        commands = [
            ("fpoly", "figure-eight", "--all"),
            ("fpoly", "figure-eight", "--all", "--format", "json"),
            ("alexander", "figure-eight"),
        ]
        expected = [run(capsys, *argv) for argv in commands]
        code, out, err = expected[-1]
        assert code == 0, err
        assert out.count("1 - 3*t + t^2") == 3
        cache_dir = tmp_path / "cache"
        run(capsys, "fpoly", "figure-eight", "--segment", "1", "--cache-dir", str(cache_dir))
        (entry,) = cache_dir.iterdir()
        wrong = b'{"f": {"nvars": 8, "terms": []}, "spec": {"s_terms": [[0, 5]]}}'
        entry.write_bytes(wrong)
        monkeypatch.setenv("KNOTQUIVER_CACHE_DIR", str(cache_dir))
        for argv, result in zip(commands, expected):
            assert run(capsys, *argv) == result, argv
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == {entry.name: wrong}


class TestFpolyJson:
    """``fpoly --format json`` writes F's rows with no row dict: its text is
    ``json.dumps`` of the records that ``MultiPoly.to_json()`` builds."""

    @staticmethod
    def _check(capsys, diagram):
        q = build_quiver(diagram)
        runs = [(i, *run_segment(diagram, q, i)[2:]) for i in diagram.segment_ids()]
        code, out, err = run(capsys, "fpoly", diagram.to_pd(), "--all", "--format", "json")
        assert (code, err) == (0, "")
        assert out == fpoly_json_reference(runs)

    def test_corpus(self, capsys, corpus_diagrams):
        for diagram in corpus_diagrams.values():
            self._check(capsys, diagram)

    def test_two_bridge(self, capsys):
        for n in range(2, 8):
            for cf in compositions(n):
                self._check(capsys, two_bridge(cf).require_valid())


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_a_valid_call_prints_what_a_fresh_process_prints(self, capsys):
        """The one parser is not changed by a call that argparse ends with
        exit code 2."""
        argv = ["fpoly", "figure-eight", "--all", "--format", "json"]
        src = str(Path(knotquiver.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = subprocess.run([sys.executable, "-m", "knotquiver", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert fresh.returncode == 0 and fresh.stdout
        for bad in (["fpoly", "figure-eight", "--segment", "1", "--all"],
                    ["fpoly", "figure-eight", "--format", "xml"],
                    ["states", "figure-eight"],
                    ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2 and capsys.readouterr().out == ""
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_a_rebound_command_is_the_one_that_runs(self, capsys, monkeypatch):
        main(["alexander", "trefoil"])  # the parser exists before the rebinding
        capsys.readouterr()
        calls = []
        rebind(monkeypatch, cli.cmd_alexander, lambda args: calls.append(args.input) or 7)
        assert run(capsys, "alexander", "trefoil") == (7, "", "")
        assert calls == ["trefoil"]


class TestAlexanderCmd:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "alexander", FIG8_PD)
        assert code == 0
        assert out.count("1 - 3*t + t^2") == 3

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "alexander", "conway", "--method", "det")
        assert code == 0 and out.strip() == "det: 1"

    def test_10_66(self, capsys):
        code, out, _ = run(capsys, "alexander", "10_66", "--method", "spec")
        assert code == 0 and "16*t^2" in out

    def test_disconnected_diagram_names_the_unreachable_crossings(self, capsys):
        # a genus-1 two-crossing piece beside a trefoil: the Euler count holds
        pd = "X(2,4,1,3) X(4,1,3,2) X(5,8,6,9) X(7,10,8,5) X(9,6,10,7)"
        code, out, err = run(capsys, "alexander", pd)
        assert (code, out) == (2, "")
        assert err == "error: invalid diagram: crossings [2, 3, 4] are unreachable from crossing 0\n"

    def test_json_mirror_with_a_float_label_exit_2(self, capsys):
        pd = json.dumps({"crossings": [[1.9, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]})
        code, out, err = run(capsys, "alexander", pd, "--method", "det")
        assert (code, out) == (2, "")
        assert err == "error: malformed PD JSON: every crossing needs 4 non-negative integer arcs\n"

    @pytest.mark.parametrize("method", ["det", "statesum", "spec", "all"])
    def test_unknown_segment_exit_2(self, capsys, method):
        code, out, err = run(capsys, "alexander", "figure-eight", "--method", method,
                             "--segment", "99")
        assert (code, out, err) == (2, "", "error: unknown segment id 99\n")

    def test_statesum_lists_no_state(self, capsys, monkeypatch, corpus, corpus_diagrams):
        # the same lines as the per-state sum over the listed states printed
        from knotquiver.oracle import alexander_det
        from knotquiver.quiver import build_quiver
        from knotquiver.states import build_lattice, enumerate_states
        from knotquiver.verify import segment_pipeline

        from .matchings_reference import reference_states
        from .statesum_reference import reference_state_sum

        expected = {}
        for entry in corpus:
            d = corpus_diagrams[entry.name]
            det = alexander_det(d).normalize().render()
            for i in d.segment_ids():
                ssum = reference_state_sum(d, reference_states(d, i)).normalize().render()
                spec = segment_pipeline(d, build_quiver(d), i)[1].normalize().render()
                expected[entry.name, i] = (
                    f"statesum: {ssum}\n",
                    f"det: {det}\nstatesum: {ssum}\nspec: {spec}\n",
                )
        forbid(monkeypatch, enumerate_states, build_lattice)
        for (name, i), (statesum_out, all_out) in expected.items():
            seg = str(i)
            assert run(capsys, "alexander", name, "--method", "statesum", "--segment", seg) == (
                0, statesum_out, "")
            assert run(capsys, "alexander", name, "--method", "all", "--segment", seg) == (
                0, all_out, "")
        assert len(expected) == 72

    @pytest.mark.parametrize("method", ["spec", "statesum", "det", "all"])
    def test_a_method_that_reads_no_cache_creates_no_cache_dir(self, capsys, tmp_path, method):
        # no method reads the cache, so alexander takes no --cache-dir
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main(["alexander", "figure-eight", "--method", method, "--cache-dir", str(cache_dir)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "unrecognized arguments: --cache-dir" in err
        assert not cache_dir.exists()


class TestVerifyCmd:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--fast")
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_corrupted_expectation_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(
                {"name": "trefoil", "pd": TREFOIL_PD, "prime": True,
                 "components": 1, "alexander": [1, -5, 1]}
            )
            + "\n"
        )
        code, out, _ = run(capsys, "verify", str(bad), "--fast")
        assert code == 1 and "FAIL" in out
        assert "expected polynomial: False" in out

    def test_invalid_corpus_diagram_exit_2(self, capsys, tmp_path):
        # the same curl that `quiver "X(1,2,2,1)"` rejects
        corpus = tmp_path / "curl.jsonl"
        corpus.write_text('{"name": "k", "pd": "X(1,2,2,1)", "prime": true}\n')
        code, out, err = run(capsys, "verify", str(corpus))
        assert code == 2 and "PASS" not in out
        assert err.startswith("error: k: invalid diagram: ")
        code, _, quiver_err = run(capsys, "quiver", "X(1,2,2,1)")
        assert code == 2 and quiver_err == err.replace("error: k: ", "error: ")

    def test_row_not_asserted_prime_is_skipped_unvalidated(self, capsys, tmp_path):
        """A split diagram (two trefoils, not connected) without ``prime``
        is skipped before it is built, so it does not abort the run."""
        split = TREFOIL_PD + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        corpus = tmp_path / "split.jsonl"
        corpus.write_text(
            json.dumps({"name": "split", "pd": split}) + "\n"
            + json.dumps({"name": "trefoil", "pd": TREFOIL_PD, "prime": True}) + "\n"
        )
        code, out, err = run(capsys, "verify", str(corpus))
        assert (code, err) == (0, "")
        assert out == (
            "split: skipped (not asserted prime)\n"
            "trefoil: PASS  (n=3, Delta = 1 - t + t^2)\n"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("[1, 2]", "expected a JSON object, got list"),
            (json.dumps({"name": "k", "pd": TREFOIL_PD, "prime": True, "alexander": "abc"}),
             "'alexander' must be a list of integers"),
            (json.dumps({"name": "k", "pd": TREFOIL_PD, "prime": True, "components": "1"}),
             "'components' must be a positive integer"),
        ],
        ids=["not-an-object", "alexander-string", "components-string"],
    )
    def test_malformed_corpus_row_exit_2(self, capsys, tmp_path, row, message):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("# one comment line\n" + row + "\n")
        code, out, err = run(capsys, "verify", str(corpus), "--fast")
        assert (code, out) == (2, "")
        assert err == f"error: corpus line 2: {message}\n"

    def test_corpus_line_nested_past_the_recursion_limit_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text('{"name": "k", "pd": ' + "[" * 200000 + "\n")
        code, out, err = run(capsys, "verify", str(corpus))
        assert (code, out) == (2, "")
        assert err.startswith("error: corpus line 1: maximum recursion depth exceeded")

    def test_empty_corpus_warns(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, _ = run(capsys, "verify", str(empty))
        assert code == 0 and "warning" in out


class TestCompositeInput:
    """A composite diagram has no one state lattice, so the clock walk
    would give a wrong T(i): every command rejects it."""

    @pytest.mark.parametrize("pd", [SQUARE_KNOT_PD, HOPF_HOPF_PD])
    def test_exit_2(self, capsys, tmp_path, pd):
        for argv in (("fpoly", pd, "--segment", "3"), ("alexander", pd, "--method", "spec")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: invalid diagram: ") and "composite diagram" in err
        corpus = tmp_path / "composite.jsonl"
        corpus.write_text(json.dumps({"name": "c", "pd": pd, "prime": True}) + "\n")
        code, out, err = run(capsys, "verify", str(corpus))
        assert (code, out) == (2, "") and err.startswith("error: c: invalid diagram: ")

    def test_walk_is_wrong_without_the_rule(self, capsys, monkeypatch):
        # mutant: validation without the primality rule lets the walk stop
        # at a local maximum, and the specialized F is not Delta
        monkeypatch.setattr(
            ValidationReport, "ok", property(lambda r: r.curl_free and r.connected and r.euler_ok)
        )
        code, spec, _ = run(
            capsys, "alexander", SQUARE_KNOT_PD, "--method", "spec", "--segment", "3"
        )
        assert code == 0
        code, det, _ = run(capsys, "alexander", SQUARE_KNOT_PD, "--method", "det")
        assert code == 0
        assert spec.split(": ")[1] != det.split(": ")[1]
        assert det == "det: 1 - 2*t + 3*t^2 - 2*t^3 + t^4\n"


class TestHeightBound:
    """Every height of T(i) fits in a byte, so F's exponents do: a walk
    that reaches a height above 255 is refused before any module is built,
    with the message and exit code of ``states``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fpoly", "figure-eight", "--all"],
            ["fpoly", "figure-eight", "--all", "--format", "json"],
            ["fpoly", "figure-eight", "--all", "--cache-dir"],
            ["fpoly", "figure-eight", "--all", "--format", "json", "--cache-dir"],
            ["alexander", "figure-eight", "--method", "spec"],
            ["verify"],
        ],
        ids=["fpoly-text", "fpoly-json", "fpoly-text-cached", "fpoly-json-cached",
             "alexander-spec", "verify"],
    )
    def test_a_height_above_255_exit_2(self, capsys, monkeypatch, tmp_path, argv):
        from knotquiver.states import clock_walk

        def high(diagram, i):
            bottom, top, heights = clock_walk(diagram, i)
            return bottom, top, (256, *heights[1:])

        rebind(monkeypatch, clock_walk, high)
        cache_dir = tmp_path / "cache"
        if argv[-1] == "--cache-dir":
            argv = [*argv, str(cache_dir)]
        if argv == ["verify"]:
            corpus_file = tmp_path / "fig8.jsonl"
            corpus_file.write_text(json.dumps({"name": "k", "pd": FIG8_PD, "prime": True}) + "\n")
            argv = [*argv, str(corpus_file)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: a height above 255 relative to segment 1\n")
        assert not cache_dir.exists() or list(cache_dir.iterdir()) == []


class TestTwoBridgeCmd:
    def test_2123(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "2,1,2,3", "--report-theorem3")
        assert code == 0
        assert "8 crossings" in out and "27/10" in out and "knot" in out
        assert "lattice size: 27 (odd)" in out
        assert "PASS" in out

    def test_link_case(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "2,2,2", "--report-theorem3")
        assert code == 0
        assert "link (2 components)" in out
        assert "alternating height sum: 0" in out

    def test_invalid_cf(self, capsys):
        code, _, err = run(capsys, "two-bridge", "2,x")
        assert code == 2
        code, _, err = run(capsys, "two-bridge", "0,2")
        assert code == 2

    @pytest.mark.parametrize("argv", [(), ("--report-theorem3",)])
    def test_invalid_diagram_exit_2(self, capsys, argv):
        # [1] wires one crossing into a curl: the only composition of at
        # most 8 crossings whose diagram fails validation, as fpoly says too
        code, out, err = run(capsys, "two-bridge", "1", *argv)
        assert (code, out) == (2, "")
        assert "invalid diagram" in err and "curl" in err
        assert run(capsys, "fpoly", "X(1,2,2,1)", "--all")[0] == 2


class TestByteOutput:
    """The CLI's stdout stays byte-identical across refactors."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("verify", "--fast", "--verbose"),
             "3404d0ba6d767e43545cefb933c2bd9f23195812624e8f1d49f66cc6a33718c6"),
            (("verify", "--verbose"),
             "693f8f26a00576ea745cc6a2371a11d084cdb44667f0e216426c123f25473584"),
            (("fpoly", "10_66", "--all", "--format", "json"),
             "9fbc0ea17e25547088564f6744c4e1b08d8807e9851195ab4f5db77619027883"),
            (("fpoly", "10_66", "--all"),
             "e037f03b8a84b54eda850cf7eca1c0bb67f62a0e0c78b7277882cf10045b77fe"),
            # two_bridge([2, 1, 2, 3]).to_pd()
            (("fpoly", "X(9,1,10,16) X(1,9,2,8) X(15,2,16,3) X(7,14,8,15) X(13,6,14,7) "
                       "X(3,12,4,13) X(11,4,12,5) X(5,10,6,11)", "--all", "--format", "json"),
             "e58b008c6a2f5f52c01b24c8a2b0a077105519b3141f8a399b05ee17ba37315e"),
            (("two-bridge", "2,1,2,3", "--report-theorem3"),
             "ac31938010af420f24b13a9205df1d9dd9d5cb7fe03a748d0d03d910c43d4f7b"),
            (("states", "10_66", "--segment", "1", "--format", "json"),
             "1d2d15a6a89f716de2f97791b99ce128cffefd5fad1dfe6ef11eb9871ae8d8cf"),
            # two_bridge([3] * 5).to_pd(): 360 states, each keyed "0".."14", in string order
            (("states", two_bridge([3] * 5).to_pd(), "--segment", "1", "--format", "json"),
             "82ca1ff6cf5d9058689f7c7aa8c433bd86ddc13c19152acd3c3f815865de459a"),
            (("quiver", "10_66"),
             "c880f527ad0f38cff8cb8c30b8bbd9e9a924f4f50878c0bd314a6ebb9a5548f7"),
            (("quiver", "10_66", "--reduced"),
             "711378dd83837dca39e1defadfba1de86a5693bb77e6b1c8ca69572d0aed5b07"),
            (("alexander", "conway"),
             "8b614d447c523e98af7ff0832e5ec25aea976bdedcb3f3f37491ede22ed0e46c"),
        ],
        ids=["verify-fast", "verify-full", "fpoly-10_66", "fpoly-10_66-text", "fpoly-2123-json",
             "two-bridge-2123", "states-10_66-json", "states-3x5-json",
             "quiver-10_66", "quiver-10_66-reduced", "alexander-conway"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
