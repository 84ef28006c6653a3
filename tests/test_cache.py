import errno
import hashlib
import json
import os

import pytest

import knotquiver.cache as cache_mod
import knotquiver.diagram as diagram_mod
import knotquiver.poly as poly_mod
import knotquiver.verify as verify_mod
from knotquiver.cache import RunCache
from knotquiver.cli import main
from knotquiver.poly import MultiPoly
from knotquiver.quiver import build_quiver
from knotquiver.verify import run_segment, segment_pipeline

from .conftest import forbid, fpoly_json_reference


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def _f(diagram, segment):
    return run_segment(diagram, build_quiver(diagram), segment).f


def _counters(cache):
    return cache.hits, cache.misses, cache.corrupt


def test_round_trip_and_counters(tmp_path, fig8):
    f = _f(fig8, 1)
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) is None
    cache.put(fig8, 1, f)
    assert cache.get(fig8, 1) == f
    assert cache.get(fig8, 2) is None
    assert _counters(cache) == (1, 2, 0)  # both misses were absent entries
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.bin"]


def test_writers_of_one_key_use_their_own_temp_files(tmp_path, monkeypatch, fig8):
    """Writer A is paused with its temporary file filled, before it renames
    it into place; writer B writes the same key meanwhile.  Both complete,
    the last rename wins, and no temporary file is left behind."""
    f_a, f_b = _f(fig8, 1), _f(fig8, 2)
    assert f_a != f_b
    a, b = RunCache(tmp_path), RunCache(tmp_path)
    real_replace = os.replace
    paused = []

    def replace(src, dst):
        if not paused:
            paused.append(_names(tmp_path))
            b.put(fig8, 1, f_b)
        real_replace(src, dst)

    monkeypatch.setattr(cache_mod.os, "replace", replace)
    a.put(fig8, 1, f_a)
    monkeypatch.undo()
    assert len(paused) == 1 and paused[0][0].endswith(".tmp")  # A's file existed
    assert a.get(fig8, 1) == f_a
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.bin"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, fig8):
    f = _f(fig8, 1)
    cache = RunCache(tmp_path)
    cache.put(fig8, 1, f)
    made = []
    real_mkstemp, real_fdopen = cache_mod.tempfile.mkstemp, os.fdopen

    def mkstemp(**kwargs):
        made.append(real_mkstemp(**kwargs))
        return made[-1]

    class FullDisk:
        """The temporary file, on a disk with no room left."""

        def __init__(self, fd, mode):
            self.fh = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cache_mod.tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(cache_mod.os, "fdopen", FullDisk)
    with pytest.raises(OSError):
        cache.put(fig8, 1, _f(fig8, 2))
    monkeypatch.undo()
    assert len(made) == 1
    assert _names(tmp_path) == [f"{RunCache.key(fig8, 1)}.bin"]
    assert cache.get(fig8, 1) == f


# The figure-eight segment-1 entry (format version 5, F's rows as bytes):
# the checksum line and the body, byte for byte.  F has 5 terms over the
# 8 segments of the 4-crossing diagram, so the body is 5 rows of 8 bytes.
FIG8_SEG1_NAME = "62176e9f15b76a9b9b8101c776bd67dbfa5fd8a0832b873f5f8cf6edce27d318.bin"
FIG8_SEG1_ROWS = [
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 1),
    (0, 1, 0, 0, 1, 0, 0, 1),
]
FIG8_SEG1_BODY = (
    b"\x00\x00\x00\x00\x00\x00\x00\x00"
    b"\x00\x00\x00\x00\x01\x00\x00\x00"
    b"\x00\x01\x00\x00\x01\x00\x00\x00"
    b"\x00\x00\x00\x00\x01\x00\x00\x01"
    b"\x00\x01\x00\x00\x01\x00\x00\x01"
)
FIG8_SEG1_ENTRY = (
    b"5e20b56bed85e402a3ed8ebda46c593a40d73c0ad9fa9da30cb11d2c84cf9496\n" + FIG8_SEG1_BODY
)
# The same entry as format version 4 wrote it, F as JSON.
FIG8_SEG1_V4_NAME = "4c381fe3df4715d0acd2b453afc273b8a98c3ec546fd0776cc6a2545a8cbe19c.json"
FIG8_SEG1_V4_ENTRY = (
    b"5ef38222d00758a27d812d04b61de74b0969f9a26af8f94b49a9a0edc5bc25d1\n"
    b'{"nvars":8,"terms":[{"coef":1,"exp":[0,0,0,0,0,0,0,0]},'
    b'{"coef":1,"exp":[0,0,0,0,1,0,0,0]},{"coef":1,"exp":[0,1,0,0,1,0,0,0]},'
    b'{"coef":1,"exp":[0,0,0,0,1,0,0,1]},{"coef":1,"exp":[0,1,0,0,1,0,0,1]}]}'
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
    assert FIG8_SEG1_BODY == bytes(v for row in FIG8_SEG1_ROWS for v in row)
    assert FIG8_SEG1_ROWS == [row["exp"] for row in _f(d, 1).to_json()["terms"]]
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    old.mkdir()
    (old / FIG8_SEG1_NAME).write_bytes(FIG8_SEG1_ENTRY)
    cache = RunCache(old)
    f, spec = segment_pipeline(d, build_quiver(d), 1, cache)
    assert _counters(cache) == (1, 0, 0)
    assert f.num_terms == 5 and spec.render() == "-t^-1 + 3 - t"
    cold = _fpoly(capsys, "--segment", "1")
    assert _fpoly(capsys, "--segment", "1", "--cache-dir", str(old)) == cold
    assert _fpoly(capsys, "--segment", "1", "--cache-dir", str(fresh)) == cold
    assert _names(fresh) == [FIG8_SEG1_NAME]
    assert (fresh / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY


def test_version_4_entry_is_a_miss_that_gains_the_version_5_entry(tmp_path, capsys, fig8):
    """The format version is part of the key, so a version-4 file is never
    opened: a directory that holds only it misses on an absent entry, not a
    corrupt one, and the run writes the version-5 entry beside it."""
    cold = _fpoly(capsys, "--segment", "1")
    (tmp_path / FIG8_SEG1_V4_NAME).write_bytes(FIG8_SEG1_V4_ENTRY)
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) is None and _counters(cache) == (0, 1, 0)
    assert _fpoly(capsys, "--segment", "1", "--cache-dir", str(tmp_path)) == cold
    assert _names(tmp_path) == sorted([FIG8_SEG1_NAME, FIG8_SEG1_V4_NAME])
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY
    assert (tmp_path / FIG8_SEG1_V4_NAME).read_bytes() == FIG8_SEG1_V4_ENTRY


def test_a_stored_specialization_is_never_read(tmp_path, capsys, fig8):
    """The body holds F's rows alone, so bytes appended to F's true body
    under their own checksum are read as one more row of F: a hit for that
    forged F, and every printed specialization is the printed F's, its
    ``F|t`` lines too."""
    forged_row = (0, 5, 0, 0, 0, 0, 0, 0)
    (tmp_path / FIG8_SEG1_NAME).write_bytes(_signed(FIG8_SEG1_BODY + bytes(forged_row)))
    forged = MultiPoly(8, [*FIG8_SEG1_ROWS, forged_row])
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) == forged and _counters(cache) == (1, 0, 0)
    spec = forged.specialize(fig8.specialization_exponents())
    assert spec != _f(fig8, 1).specialize(fig8.specialization_exponents())
    argv = ("--segment", "1", "--cache-dir", str(tmp_path))
    assert f"  F|t = {spec.render()}\n" in _fpoly(capsys, *argv, fmt="text")
    (row,) = json.loads(_fpoly(capsys, *argv))
    assert row["f"] == json.loads(json.dumps(forged.to_json()))
    assert row["specialization"] == spec.to_json()
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == _signed(FIG8_SEG1_BODY + bytes(forged_row))


def _assert_corrupt_is_recomputed(tmp_path, capsys, fig8, contents: bytes) -> None:
    """``contents`` in the segment-1 entry is a corrupt entry: a miss, the
    output is the cold one, and the recomputed entry replaces it."""
    cold = _fpoly(capsys, "--all")
    entry = tmp_path / FIG8_SEG1_NAME
    entry.write_bytes(contents)
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) is None and _counters(cache) == (0, 1, 1)
    assert _fpoly(capsys, "--all", "--cache-dir", str(tmp_path)) == cold
    assert entry.read_bytes() == FIG8_SEG1_ENTRY
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) == _f(fig8, 1) and _counters(cache) == (1, 0, 0)


def test_checksum_mismatch_is_a_miss(tmp_path, capsys, fig8):
    """F's body with its last exponent changed from 1 to 2, under F's true
    checksum: whole, distinct rows with the zero row among them, but not
    the rows that were written."""
    altered = FIG8_SEG1_ENTRY[:-1] + b"\x02"
    _assert_corrupt_is_recomputed(tmp_path, capsys, fig8, altered)


def test_json_nested_past_the_recursion_limit_is_a_miss(tmp_path, capsys, fig8):
    """A checksum-valid body of 200000 nested JSON arrays is never parsed:
    read as 8-byte rows, it repeats the row ``[[[[[[[[``, so it is corrupt."""
    _assert_corrupt_is_recomputed(tmp_path, capsys, fig8, _signed(b"[" * 200000 + b"]" * 200000))


def _forge_v4(old: bytes, new: bytes) -> bytes:
    """F's format-4 JSON body with one field forged."""
    body = FIG8_SEG1_V4_ENTRY.partition(b"\n")[2]
    assert body.count(old) == 1
    return body.replace(old, new)


EXP = b"[0,1,0,0,1,0,0,1]"
TERM = b'{"coef":1,"exp":[0,1,0,0,1,0,0,1]}'


@pytest.mark.parametrize(
    "body",
    [
        # F's format-4 JSON rows with a field that is not an int, a
        # coefficient other than 1, or a float variable count: format 4 had
        # to parse them to reject them, format 5 reads them as bytes
        _forge_v4(EXP, b"[0,1,0,0,1,0,0,true]"),
        _forge_v4(EXP, b"[0,1,0,0,1,0,0,1.0]"),
        _forge_v4(EXP, b"[0,1,0,0,1,0,0,-1]"),
        _forge_v4(EXP, b'[0,1,0,0,1,0,0,"1"]'),
        _forge_v4(EXP, b"[0,1,0,0,1,0,0,null]"),
        _forge_v4(TERM, TERM.replace(b'"coef":1', b'"coef":true')),
        _forge_v4(TERM, TERM.replace(b'"coef":1', b'"coef":1.0')),
        _forge_v4(TERM, TERM.replace(b'"coef":1', b'"coef":"1"')),
        _forge_v4(TERM, TERM.replace(b'"coef":1', b'"coef":2')),
        _forge_v4(b'"nvars":8', b'"nvars":8.0'),
        # F's last row repeats the row before it
        FIG8_SEG1_BODY[:-8] + FIG8_SEG1_BODY[-16:-8],
        # F without the zero exponent vector, which every F holds
        FIG8_SEG1_BODY[8:],
        # a truncated write: the last row lacks its last byte
        FIG8_SEG1_BODY[:-1],
    ],
    ids=["exp-true", "exp-float", "exp-negative", "exp-str", "exp-null",
         "coef-true", "coef-float", "coef-str", "coef-two", "nvars-float",
         "f-repeated-exp", "f-no-zero-vector", "truncated"],
)
def test_forged_rows_with_a_valid_checksum_are_misses(tmp_path, capsys, fig8, body):
    """A row that repeats, an F without the zero exponent vector, a body
    that is not a whole number of rows, or format-4 JSON rows with a forged
    field (never parsed: ASCII text holds no zero row) is a miss even under
    its own checksum; the recomputed entry replaces it and the output is
    the cold one."""
    _assert_corrupt_is_recomputed(tmp_path, capsys, fig8, _signed(body))


def test_cold_fpoly_sorts_each_f_once(tmp_path, capsys, monkeypatch):
    """The cache entry and the output of a cold run share one sorted list
    of term rows per F, and a warm run sorts each F it reads once: the
    byte keys are built in one call per F, over all of its terms, and no
    term takes ``_order_key``."""
    keyed = []
    byte_keys = poly_mod._byte_keys
    monkeypatch.setattr(poly_mod, "_byte_keys", lambda terms: keyed.append(len(terms)) or byte_keys(terms))
    forbid(monkeypatch, poly_mod._order_key)
    outputs = []
    for _ in ("cold", "warm"):
        keyed.clear()
        outputs.append(_fpoly(capsys, "--all", "--cache-dir", str(tmp_path)))
        out = json.loads(outputs[-1])
        assert keyed == [seg["terms"] for seg in out] and sum(keyed) == 40
    assert len(_names(tmp_path)) == 8 and outputs[0] == outputs[1]


def test_one_fpoly_command_serializes_its_diagram_once(tmp_path, capsys, monkeypatch):
    """Every cache key of a command hashes the diagram's canonical JSON,
    which ``json.dumps`` builds once per command, cold and warm.  The
    records that ``fpoly --format json`` prints go through ``json.dumps``
    too, so only the dumps of a diagram's mirror are counted."""
    mirrors = []
    real_dumps = diagram_mod.json.dumps

    def dumps(obj, *a, **k):
        if isinstance(obj, dict) and "crossings" in obj:
            mirrors.append(obj)
        return real_dumps(obj, *a, **k)

    monkeypatch.setattr(diagram_mod.json, "dumps", dumps)
    for _ in ("cold", "warm"):
        mirrors.clear()
        _fpoly(capsys, "--all", "--cache-dir", str(tmp_path))
        assert len(mirrors) == 1


def test_entry_over_the_wrong_number_of_variables_is_a_miss(tmp_path, capsys, fig8):
    """An F over 2 variables for the 4-crossing figure-eight (8 variables),
    under its own checksum: its 4 bytes are not a whole number of 8-byte
    rows, so it is a miss, and the recomputed entry replaces it."""
    _assert_corrupt_is_recomputed(tmp_path, capsys, fig8, _signed(bytes([0, 0, 1, 1])))


@pytest.mark.parametrize("argv", [["fpoly", "--segment", "1"]], ids=["fpoly"])
def test_zero_polynomial_entry_is_a_miss(tmp_path, capsys, argv):
    """The zero F, an empty body, under its own checksum: F lacks the zero
    exponent vector, so the entry is a miss, the output is the cold one,
    and the recomputed entry replaces it."""
    command, *rest = argv
    assert main([command, "figure-eight", *rest]) == 0
    cold = capsys.readouterr().out
    (tmp_path / FIG8_SEG1_NAME).write_bytes(_signed(b""))
    assert main([command, "figure-eight", *rest, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == cold
    assert (tmp_path / FIG8_SEG1_NAME).read_bytes() == FIG8_SEG1_ENTRY


def test_an_exponent_above_255_writes_no_entry(tmp_path, capsys, monkeypatch, fig8):
    """An exponent does not fit in a byte above 255, so ``put`` stores no
    entry for such an F, and ``fpoly`` prints what it prints with no cache:
    for JSON, ``json.dumps`` of the records built from ``to_json``."""
    real_run_segment = verify_mod.run_segment

    def run_segment(diagram, q, i):
        run = real_run_segment(diagram, q, i)
        f = MultiPoly(run.f.nvars, run.f.terms | {(0,) * (run.f.nvars - 1) + (256,)})
        return run._replace(f=f, spec=f.specialize(diagram.specialization_exponents()))

    monkeypatch.setattr(verify_mod, "run_segment", run_segment)
    q = build_quiver(fig8)
    runs = [(i, *run_segment(fig8, q, i)[2:]) for i in fig8.segment_ids()]
    for fmt in ("json", "text"):
        uncached = _fpoly(capsys, "--all", fmt=fmt)
        assert "256" in uncached
        assert _fpoly(capsys, "--all", "--cache-dir", str(tmp_path), fmt=fmt) == uncached
        assert _names(tmp_path) == []
    # F is sorted without byte keys and its entries are written through str
    assert _fpoly(capsys, "--all") == fpoly_json_reference(runs)
    cache = RunCache(tmp_path)
    assert cache.get(fig8, 1) is None and _counters(cache) == (0, 1, 0)


@pytest.mark.parametrize("name", ["trefoil", "figure-eight", "two-bridge-27-10", "10_66", "conway"])
def test_every_corpus_segment_hits_with_its_cold_f(tmp_path, capsys, corpus_diagrams, name):
    """Rows of every width in the corpus (2n = 6 to 22 bytes) read back as
    the F that was stored, and a warm run prints the cold bytes."""
    d = corpus_diagrams[name]
    argv = ["fpoly", name, "--all", "--format", "json"]
    assert main(argv) == 0
    uncached = capsys.readouterr().out
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached
    segments = d.segment_ids()
    assert len(_names(tmp_path)) == len(segments)
    cache = RunCache(tmp_path)
    assert all(cache.get(d, i) == _f(d, i) for i in segments)
    assert _counters(cache) == (len(segments), 0, 0)
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached
