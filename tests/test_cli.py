import hashlib
import json

import pytest

from knotquiver.cli import main

from .conftest import FIG8_PD, TREFOIL_PD


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
        files = list((tmp_path / "cache").glob("*.json"))
        assert len(files) == 1

    def test_corrupt_cache_entry_is_a_miss(self, capsys, tmp_path):
        cold_dir, cache_dir = str(tmp_path / "cold"), tmp_path / "cache"
        code, cold, _ = run(capsys, "fpoly", TREFOIL_PD, "--all", "--format", "json",
                            "--cache-dir", cold_dir)
        assert code == 0
        run(capsys, "fpoly", TREFOIL_PD, "--segment", "1", "--format", "json",
            "--cache-dir", str(cache_dir))
        (entry,) = cache_dir.glob("*.json")
        good = entry.read_bytes()
        digest, _, body = good.partition(b"\n")
        assert digest == _sha256(body) and set(json.loads(body)) == {"f", "spec"}
        entry.write_bytes(good[:-10])  # a truncated write
        code, out, err = run(capsys, "fpoly", TREFOIL_PD, "--all", "--format", "json",
                             "--cache-dir", str(cache_dir))
        assert code == 0, err
        assert out == cold
        assert entry.read_bytes() == good
        # not UTF-8, an object without the fields, fields of the wrong
        # types: a miss with or without a matching checksum
        wrong = b'{"f": {"nvars": 8, "terms": []}, "spec": {"s_terms": [[0, 5]]}}'
        rejected = (b"\xff\xfe garbage", b"{}", b'{"f": 1, "spec": 2, "vectors": 3}')
        variants = [c for p in rejected for c in (p, _sha256(p) + b"\n" + p)]
        # well-formed fields holding the wrong polynomials, under no
        # checksum or the checksum of another body
        variants += [wrong, good[:64] + b"\n" + wrong]
        for contents in variants:
            entry.write_bytes(contents)
            assert run(capsys, "fpoly", TREFOIL_PD, "--all", "--format", "json",
                       "--cache-dir", str(cache_dir))[:2] == (0, cold), contents
            assert entry.read_bytes() == good, contents

    def test_cache_hit_skips_computation(self, tmp_path, monkeypatch, corpus_diagrams):
        from knotquiver.cache import RunCache
        from knotquiver.quiver import build_quiver
        from knotquiver.verify import segment_pipeline

        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        cache = RunCache(tmp_path / "c")
        first = segment_pipeline(d, q, 1, cache)

        import knotquiver.verify as verify_mod

        def boom(*args, **kwargs):
            raise AssertionError("lattice rebuilt despite warm cache")

        monkeypatch.setattr(verify_mod, "build_lattice", boom)
        second = segment_pipeline(d, q, 1, cache)
        assert first[0] == second[0] and first[1] == second[1]
        assert cache.hits == 1

    def test_rejected_entry_counts_as_a_miss(self, tmp_path, corpus_diagrams):
        from knotquiver.cache import RunCache
        from knotquiver.quiver import build_quiver
        from knotquiver.verify import segment_pipeline

        d = corpus_diagrams["figure-eight"]
        q = build_quiver(d)
        cold = segment_pipeline(d, q, 1, RunCache(tmp_path))
        (entry,) = tmp_path.glob("*.json")
        for payload in (b"{}", b"garbage"):
            entry.write_bytes(_sha256(payload) + b"\n" + payload)
            cache = RunCache(tmp_path)
            assert segment_pipeline(d, q, 1, cache) == cold
            assert (cache.hits, cache.misses) == (0, 1), payload
            assert segment_pipeline(d, q, 1, cache) == cold
            assert (cache.hits, cache.misses) == (1, 1), payload

    def test_wrong_entry_is_not_a_verification_failure(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        run(capsys, "fpoly", "figure-eight", "--segment", "1", "--cache-dir", str(cache_dir))
        (entry,) = cache_dir.glob("*.json")
        entry.write_bytes(b'{"f": {"nvars": 8, "terms": []}, "spec": {"s_terms": [[0, 5]]}}')
        code, out, err = run(capsys, "alexander", "figure-eight", "--cache-dir", str(cache_dir))
        assert code == 0, err
        assert out.count("1 - 3*t + t^2") == 3


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

    def test_empty_corpus_warns(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, _ = run(capsys, "verify", str(empty))
        assert code == 0 and "warning" in out


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
            (("fpoly", "10_66", "--all", "--format", "json"),
             "9fbc0ea17e25547088564f6744c4e1b08d8807e9851195ab4f5db77619027883"),
            (("two-bridge", "2,1,2,3", "--report-theorem3"),
             "ac31938010af420f24b13a9205df1d9dd9d5cb7fe03a748d0d03d910c43d4f7b"),
            (("states", "10_66", "--segment", "1", "--format", "json"),
             "1d2d15a6a89f716de2f97791b99ce128cffefd5fad1dfe6ef11eb9871ae8d8cf"),
            (("quiver", "10_66", "--reduced"),
             "711378dd83837dca39e1defadfba1de86a5693bb77e6b1c8ca69572d0aed5b07"),
            (("alexander", "conway"),
             "8b614d447c523e98af7ff0832e5ec25aea976bdedcb3f3f37491ede22ed0e46c"),
        ],
        ids=["verify-fast", "fpoly-10_66", "two-bridge-2123", "states-10_66-json",
             "quiver-10_66-reduced", "alexander-conway"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
