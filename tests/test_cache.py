import hashlib
import json

import pytest

import knotquiver.cache as cache_mod
import knotquiver.poly as poly_mod
from knotquiver.cache import RunCache
from knotquiver.cli import main
from knotquiver.quiver import build_quiver
from knotquiver.verify import _decode_entry, segment_pipeline


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_round_trip_and_counters(tmp_path, fig8):
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1, dict) is None
    cache.put(fig8, 1, {"a": [1, 2]})
    assert cache.get(fig8, 1, dict) == {"a": [1, 2]}
    assert cache.get(fig8, 2, dict) is None
    assert (cache.hits, cache.misses) == (1, 2)
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]


def test_writers_of_one_key_use_their_own_temp_files(tmp_path, monkeypatch, fig8):
    """Writer A is paused while it fills its temporary file; writer B
    writes the same key meanwhile.  Both complete, the last rename wins,
    and no temporary file is left behind."""
    a, b = RunCache(tmp_path), RunCache(tmp_path)
    real_dumps = json.dumps
    paused = []

    def dumps(value, **kwargs):
        if value == {"writer": "A"} and not paused:
            paused.append(_names(tmp_path))
            b.put(fig8, 1, {"writer": "B"})
        return real_dumps(value, **kwargs)

    monkeypatch.setattr(cache_mod.json, "dumps", dumps)
    a.put(fig8, 1, {"writer": "A"})
    monkeypatch.undo()
    assert len(paused) == 1 and paused[0][0].endswith(".tmp")  # A's file existed
    assert a.get(fig8, 1, dict) == {"writer": "A"}
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]


def test_failed_write_leaves_no_temp_file(tmp_path, fig8):
    cache = RunCache(tmp_path)
    cache.put(fig8, 1, {"kept": True})
    with pytest.raises(TypeError):
        cache.put(fig8, 1, {"bad": object()})
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]
    assert cache.get(fig8, 1, dict) == {"kept": True}


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
    ],
    ids=["exp-true", "exp-float", "exp-negative", "exp-str", "exp-null",
         "coef-true", "coef-float", "coef-str", "coef-two", "nvars-float", "spec-float", "spec-true",
         "spec-repeated-exp", "f-repeated-exp"],
)
def test_forged_rows_with_a_valid_checksum_are_misses(tmp_path, capsys, fig8, old, new):
    """A row that is not made of ints, that has a coefficient other than
    1, or that repeats an exponent, is a miss even under its own checksum; the recomputed entry replaces it and
    the output is the cold one."""
    cold = _fpoly(capsys, "--all")
    (tmp_path / FIG8_SEG1_NAME).write_bytes(_forge(FIG8_SEG1_BODY, old, new))
    assert _fpoly(capsys, "--all", "--cache-dir", str(tmp_path)) == cold
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY
    with pytest.raises(ValueError):
        _decode_entry(fig8, json.loads(_forge(FIG8_SEG1_BODY, old, new).split(b"\n", 1)[1]))


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
