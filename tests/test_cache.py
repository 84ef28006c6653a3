import hashlib
import json

import pytest

import knotquiver.cache as cache_mod
import knotquiver.poly as poly_mod
from knotquiver.cache import RunCache
from knotquiver.cli import main
from knotquiver.quiver import build_quiver
from knotquiver.verify import run_segment, segment_pipeline


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def _f_spec(diagram, segment):
    run = run_segment(diagram, build_quiver(diagram), segment)
    return run.f, run.spec


def test_round_trip_and_counters(tmp_path, fig8):
    f, spec = _f_spec(fig8, 1)
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) is None
    cache.put(fig8, 1, f, spec)
    assert cache.get(fig8, 1) == (f, spec)
    assert cache.get(fig8, 2) is None
    assert (cache.hits, cache.misses) == (1, 2)
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]


def test_writers_of_one_key_use_their_own_temp_files(tmp_path, monkeypatch, fig8):
    """Writer A is paused while it fills its temporary file; writer B
    writes the same key meanwhile.  Both complete, the last rename wins,
    and no temporary file is left behind."""
    f_a, spec = _f_spec(fig8, 1)
    f_b = _f_spec(fig8, 2)[0]
    assert f_a != f_b
    a, b = RunCache(tmp_path), RunCache(tmp_path)
    real_dumps = json.dumps
    paused = []

    def dumps(value, **kwargs):
        if value.get("f") is f_a.to_json() and not paused:
            paused.append(_names(tmp_path))
            b.put(fig8, 1, f_b, spec)
        return real_dumps(value, **kwargs)

    monkeypatch.setattr(cache_mod.json, "dumps", dumps)
    a.put(fig8, 1, f_a, spec)
    monkeypatch.undo()
    assert len(paused) == 1 and paused[0][0].endswith(".tmp")  # A's file existed
    assert a.get(fig8, 1) == (f_a, spec)
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, fig8):
    f, spec = _f_spec(fig8, 1)
    cache = RunCache(tmp_path)
    cache.put(fig8, 1, f, spec)
    made = []
    real_mkstemp, real_dumps = cache_mod.tempfile.mkstemp, json.dumps

    def mkstemp(**kwargs):
        made.append(real_mkstemp(**kwargs))
        return made[-1]

    def dumps(value, **kwargs):
        if made:  # the key is serialized before the temporary file is made
            raise TypeError("not serializable")
        return real_dumps(value, **kwargs)

    monkeypatch.setattr(cache_mod.tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(cache_mod.json, "dumps", dumps)
    with pytest.raises(TypeError):
        cache.put(fig8, 1, *_f_spec(fig8, 2))
    monkeypatch.undo()
    assert len(made) == 1
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]
    assert cache.get(fig8, 1) == (f, spec)


# The figure-eight segment-1 entry as the sparse-keyed MultiPoly wrote it
# (format version 3): the checksum line and the body, byte for byte.
FIG8_SEG1_NAME = "ea358000416795e3453145f32bf013ec296296876cb7a3a1fb64ff9fd764b5a5.json"
FIG8_SEG1_BODY = (
    b'{"f":{"nvars":8,"terms":[{"coef":1,"exp":[0,0,0,0,0,0,0,0]},'
    b'{"coef":1,"exp":[0,0,0,0,1,0,0,0]},{"coef":1,"exp":[0,1,0,0,1,0,0,0]},'
    b'{"coef":1,"exp":[0,0,0,0,1,0,0,1]},{"coef":1,"exp":[0,1,0,0,1,0,0,1]}]},'
    b'"spec":{"s_terms":[[-2,-1],[0,3],[2,-1]]}}'
)
FIG8_SEG1_ENTRY = (
    b"963c234f34041b5fe8a667c3b11682693fe6e69b4e060d89c2158da7691bb328\n" + FIG8_SEG1_BODY
)


def _fpoly(capsys, *argv):
    code = main(["fpoly", "figure-eight", *argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_committed_entry_still_hits_and_is_rewritten_identically(tmp_path, capsys, corpus_diagrams):
    d = corpus_diagrams["figure-eight"]
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    old.mkdir()
    (old / FIG8_SEG1_NAME).write_bytes(FIG8_SEG1_ENTRY)
    cache = RunCache(old)
    f, spec = segment_pipeline(d, build_quiver(d), 1, cache)
    assert (cache.hits, cache.misses) == (1, 0)
    assert f.num_terms == 5 and spec.render() == "-t^-1 + 3 - t"
    cold = _fpoly(capsys, "--segment", "1")
    assert _fpoly(capsys, "--segment", "1", "--cache-dir", str(old)) == cold
    assert _fpoly(capsys, "--segment", "1", "--cache-dir", str(fresh)) == cold
    assert _names(fresh) == [FIG8_SEG1_NAME]
    assert (fresh / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY


def _forge(body: bytes, old: bytes, new: bytes) -> bytes:
    assert body.count(old) == 1
    forged = body.replace(old, new)
    return hashlib.sha256(forged).hexdigest().encode() + b"\n" + forged


@pytest.mark.parametrize(
    "old, new",
    [
        (b"[0,1,0,0,1,0,0,1]", b"[0,1,0,0,1,0,0,true]"),
        (b"[0,1,0,0,1,0,0,1]", b"[0,1,0,0,1,0,0,1.0]"),
        (b"[0,1,0,0,1,0,0,1]", b"[0,1,0,0,1,0,0,-1]"),
        (b"[0,1,0,0,1,0,0,1]", b'[0,1,0,0,1,0,0,"1"]'),
        (b"[0,1,0,0,1,0,0,1]", b"[0,1,0,0,1,0,0,null]"),
        (b'{"coef":1,"exp":[0,1,0,0,1,0,0,1]}', b'{"coef":true,"exp":[0,1,0,0,1,0,0,1]}'),
        (b'{"coef":1,"exp":[0,1,0,0,1,0,0,1]}', b'{"coef":1.0,"exp":[0,1,0,0,1,0,0,1]}'),
        (b'{"coef":1,"exp":[0,1,0,0,1,0,0,1]}', b'{"coef":"1","exp":[0,1,0,0,1,0,0,1]}'),
        # an int, but every coefficient of F is 1
        (b'{"coef":1,"exp":[0,1,0,0,1,0,0,1]}', b'{"coef":2,"exp":[0,1,0,0,1,0,0,1]}'),
        (b'"nvars":8', b'"nvars":8.0'),
        (b"[2,-1]", b"[2,-1.0]"),
        (b"[2,-1]", b"[true,-1]"),
        (b"[2,-1]", b"[0,3]"),
        # F's last row repeats the exponent of the row before it
        (b"[0,1,0,0,1,0,0,1]", b"[0,1,0,0,1,0,0,0]"),
        # F without the zero exponent vector, which every F holds
        (b'{"coef":1,"exp":[0,0,0,0,0,0,0,0]},', b""),
    ],
    ids=["exp-true", "exp-float", "exp-negative", "exp-str", "exp-null",
         "coef-true", "coef-float", "coef-str", "coef-two", "nvars-float", "spec-float", "spec-true",
         "spec-repeated-exp", "f-repeated-exp", "f-no-zero-vector"],
)
def test_forged_rows_with_a_valid_checksum_are_misses(tmp_path, capsys, fig8, old, new):
    """A row that is not made of ints, that has a coefficient other than
    1, or that repeats an exponent, or an F without the zero exponent
    vector, is a miss even under its own checksum; the recomputed entry
    replaces it and the output is the cold one."""
    cold = _fpoly(capsys, "--all")
    (tmp_path / FIG8_SEG1_NAME).write_bytes(_forge(FIG8_SEG1_BODY, old, new))
    assert _fpoly(capsys, "--all", "--cache-dir", str(tmp_path)) == cold
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY
    (tmp_path / FIG8_SEG1_NAME).write_bytes(_forge(FIG8_SEG1_BODY, old, new))
    assert RunCache(tmp_path).get(fig8, 1) is None


def test_cold_fpoly_sorts_each_f_once(tmp_path, capsys, monkeypatch):
    """The cache entry and the output of a cold run share one sorted list
    of term rows per F."""
    keyed = []
    order_key = poly_mod._order_key
    monkeypatch.setattr(poly_mod, "_order_key", lambda term: keyed.append(term) or order_key(term))
    out = json.loads(_fpoly(capsys, "--all", "--cache-dir", str(tmp_path)))
    assert len(keyed) == sum(seg["terms"] for seg in out) == 40


def test_entry_over_the_wrong_number_of_variables_is_a_miss(tmp_path, capsys, corpus_diagrams):
    """An F over 2 variables for the 4-crossing figure-eight (8 variables),
    under its own checksum, is a miss; the recomputed entry replaces it."""
    d = corpus_diagrams["figure-eight"]
    f8 = FIG8_SEG1_BODY[len(b'{"f":'):FIG8_SEG1_BODY.index(b',"spec":')]
    f2 = b'{"nvars":2,"terms":[{"coef":1,"exp":[0,0]},{"coef":1,"exp":[1,1]}]}'
    forged = _forge(FIG8_SEG1_BODY, f8, f2)
    (tmp_path / FIG8_SEG1_NAME).write_bytes(forged)
    cache = RunCache(tmp_path)
    f, _spec = segment_pipeline(d, build_quiver(d), 1, cache)
    assert (cache.hits, cache.misses) == (0, 1)
    assert f.nvars == 8 and f.num_terms == 5
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY
    cold = _fpoly(capsys, "--segment", "1")
    (tmp_path / FIG8_SEG1_NAME).write_bytes(forged)
    assert _fpoly(capsys, "--segment", "1", "--cache-dir", str(tmp_path)) == cold
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY


ZERO_BODY = b'{"f":{"nvars":8,"terms":[]},"spec":{"s_terms":[]}}'


@pytest.mark.parametrize(
    "argv",
    [
        ["fpoly", "--segment", "1"],
        ["alexander", "--method", "spec", "--segment", "1"],
        ["alexander", "--method", "all", "--segment", "1"],
    ],
    ids=["fpoly", "alexander-spec", "alexander-all"],
)
def test_zero_polynomial_entry_is_a_miss(tmp_path, capsys, argv):
    """The zero F and zero specialization under their own checksum: F
    lacks the zero exponent vector, so the entry is a miss, the output is
    the cold one, and the recomputed entry replaces it."""
    command, *rest = argv
    assert main([command, "figure-eight", *rest]) == 0
    cold = capsys.readouterr().out
    (tmp_path / FIG8_SEG1_NAME).write_bytes(
        hashlib.sha256(ZERO_BODY).hexdigest().encode() + b"\n" + ZERO_BODY
    )
    assert main([command, "figure-eight", *rest, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == cold
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY
