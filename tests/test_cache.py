import json

import pytest

import knotquiver.cache as cache_mod
from knotquiver.cache import RunCache


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
