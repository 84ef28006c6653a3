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


def _f(diagram, segment):
    return run_segment(diagram, build_quiver(diagram), segment).f


def test_round_trip_and_counters(tmp_path, fig8):
    f = _f(fig8, 1)
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) is None
    cache.put(fig8, 1, f)
    assert cache.get(fig8, 1) == f
    assert cache.get(fig8, 2) is None
    assert (cache.hits, cache.misses) == (1, 2)
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]


def test_writers_of_one_key_use_their_own_temp_files(tmp_path, monkeypatch, fig8):
    """Writer A is paused while it fills its temporary file; writer B
    writes the same key meanwhile.  Both complete, the last rename wins,
    and no temporary file is left behind."""
    f_a, f_b = _f(fig8, 1), _f(fig8, 2)
    assert f_a != f_b
    a, b = RunCache(tmp_path), RunCache(tmp_path)
    real_dumps = json.dumps
    paused = []

    def dumps(value, **kwargs):
        if value is f_a.to_json() and not paused:
            paused.append(_names(tmp_path))
            b.put(fig8, 1, f_b)
        return real_dumps(value, **kwargs)

    monkeypatch.setattr(cache_mod.json, "dumps", dumps)
    a.put(fig8, 1, f_a)
    monkeypatch.undo()
    assert len(paused) == 1 and paused[0][0].endswith(".tmp")  # A's file existed
    assert a.get(fig8, 1) == f_a
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, fig8):
    f = _f(fig8, 1)
    cache = RunCache(tmp_path)
    cache.put(fig8, 1, f)
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
        cache.put(fig8, 1, _f(fig8, 2))
    monkeypatch.undo()
    assert len(made) == 1
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.json"]
    assert cache.get(fig8, 1) == f


# The figure-eight segment-1 entry (format version 4, F alone): the
# checksum line and the body, byte for byte.
FIG8_SEG1_NAME = "4c381fe3df4715d0acd2b453afc273b8a98c3ec546fd0776cc6a2545a8cbe19c.json"
FIG8_SEG1_BODY = (
    b'{"nvars":8,"terms":[{"coef":1,"exp":[0,0,0,0,0,0,0,0]},'
    b'{"coef":1,"exp":[0,0,0,0,1,0,0,0]},{"coef":1,"exp":[0,1,0,0,1,0,0,0]},'
    b'{"coef":1,"exp":[0,0,0,0,1,0,0,1]},{"coef":1,"exp":[0,1,0,0,1,0,0,1]}]}'
)
FIG8_SEG1_ENTRY = (
    b"5ef38222d00758a27d812d04b61de74b0969f9a26af8f94b49a9a0edc5bc25d1\n" + FIG8_SEG1_BODY
)
# The same entry as format version 3 wrote it, F beside its specialization.
FIG8_SEG1_V3_NAME = "ea358000416795e3453145f32bf013ec296296876cb7a3a1fb64ff9fd764b5a5.json"
FIG8_SEG1_V3_ENTRY = (
    b"963c234f34041b5fe8a667c3b11682693fe6e69b4e060d89c2158da7691bb328\n"
    b'{"f":' + FIG8_SEG1_BODY + b',"spec":{"s_terms":[[-2,-1],[0,3],[2,-1]]}}'
)


def _fpoly(capsys, *argv, fmt="json"):
    code = main(["fpoly", "figure-eight", *argv, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    return out


def _signed(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest().encode() + b"\n" + body


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


def test_version_3_entry_is_a_miss_that_gains_the_version_4_entry(tmp_path, capsys, fig8):
    """The format version is part of the key, so a version-3 file is never
    opened: a directory that holds only it misses, and the run writes the
    version-4 entry beside it."""
    cold = _fpoly(capsys, "--segment", "1")
    (tmp_path / FIG8_SEG1_V3_NAME).write_bytes(FIG8_SEG1_V3_ENTRY)
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) is None and (cache.hits, cache.misses) == (0, 1)
    assert _fpoly(capsys, "--segment", "1", "--cache-dir", str(tmp_path)) == cold
    assert _names(tmp_path) == sorted([FIG8_SEG1_NAME, FIG8_SEG1_V3_NAME])
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY


def test_a_stored_specialization_is_never_read(tmp_path, capsys, fig8):
    """F's true body with a forged ``spec`` beside it, under its own
    checksum: the entry is a hit for F, and every printed specialization is
    F's, so ``fpoly`` prints the cold output, its ``F|t`` lines too."""
    cold_text = _fpoly(capsys, "--segment", "1", fmt="text")
    cold_json = _fpoly(capsys, "--segment", "1")
    forged = FIG8_SEG1_BODY[:-1] + b',"spec":{"s_terms":[[0,5]]}}'
    (tmp_path / FIG8_SEG1_NAME).write_bytes(_signed(forged))
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) == _f(fig8, 1) and cache.hits == 1
    argv = ("--segment", "1", "--cache-dir", str(tmp_path))
    assert _fpoly(capsys, *argv, fmt="text") == cold_text
    assert _fpoly(capsys, *argv) == cold_json
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == _signed(forged)  # a hit, not rewritten


def test_json_nested_past_the_recursion_limit_is_a_miss(tmp_path, capsys, fig8):
    """A checksum-valid body of 200000 nested arrays makes ``json.loads``
    raise RecursionError: a miss, and the recomputed entry replaces it."""
    cold = _fpoly(capsys, "--all")
    entry = tmp_path / f"{RunCache.key(fig8, 1)}.json"
    entry.write_bytes(_signed(b"[" * 200000 + b"]" * 200000))
    assert RunCache(tmp_path).get(fig8, 1) is None
    assert _fpoly(capsys, "--all", "--cache-dir", str(tmp_path)) == cold
    assert RunCache(tmp_path).get(fig8, 1) == _f(fig8, 1)


def _forge(body: bytes, old: bytes, new: bytes) -> bytes:
    assert body.count(old) == 1
    return _signed(body.replace(old, new))


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
        # F's last row repeats the exponent of the row before it
        (b"[0,1,0,0,1,0,0,1]", b"[0,1,0,0,1,0,0,0]"),
        # F without the zero exponent vector, which every F holds
        (b'{"coef":1,"exp":[0,0,0,0,0,0,0,0]},', b""),
    ],
    ids=["exp-true", "exp-float", "exp-negative", "exp-str", "exp-null",
         "coef-true", "coef-float", "coef-str", "coef-two", "nvars-float",
         "f-repeated-exp", "f-no-zero-vector"],
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
    f2 = b'{"nvars":2,"terms":[{"coef":1,"exp":[0,0]},{"coef":1,"exp":[1,1]}]}'
    forged = _signed(f2)
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


ZERO_BODY = b'{"nvars":8,"terms":[]}'


@pytest.mark.parametrize("argv", [["fpoly", "--segment", "1"]], ids=["fpoly"])
def test_zero_polynomial_entry_is_a_miss(tmp_path, capsys, argv):
    """The zero F under its own checksum: F lacks the zero exponent vector,
    so the entry is a miss, the output is the cold one, and the recomputed
    entry replaces it."""
    command, *rest = argv
    assert main([command, "figure-eight", *rest]) == 0
    cold = capsys.readouterr().out
    (tmp_path / FIG8_SEG1_NAME).write_bytes(_signed(ZERO_BODY))
    assert main([command, "figure-eight", *rest, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == cold
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY
