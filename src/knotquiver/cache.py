"""On-disk cache of the per-(diagram, segment) F-polynomial.

Keys hash the canonical serialization of the diagram, the segment and
``_FORMAT_VERSION`` (5), so an entry of another version is never opened:
version-4 entries, which held F as JSON in ``<key>.json``, are misses.
The diagram builds its serialization once, so the keys of one command
share it.  An entry file, ``<key>.bin``, is the sha256 of the body in
hex, a newline, and the body: F's exponent rows as raw bytes, one byte
per variable, 2n bytes per row for the diagram's n crossings, no
separators, in F's printed order, ``MultiPoly.rows()``.  A hit does not
trust that order: F is built from the rows as a set and sorted again
when it is printed, so a checksum-valid entry with its rows permuted
prints the bytes of the true one.  Every coefficient of F is 1, so the
rows are all of F.  ``put`` stores nothing when an exponent is above
255, which does not fit in a byte.  The specialization is not stored:
it is a function of F and the diagram, and a stored copy could disagree
with F.  ``fpoly --cache-dir`` is the cache's only caller; ``alexander``
and ``verify`` read no cache.

An absent entry and a corrupt one are misses, and the recomputed F
overwrites them.  An entry is corrupt when its checksum does not match
the body, the body is not a whole number of 2n-byte rows, a row repeats,
or no row is the zero exponent vector, which every F holds because every
module has the zero submodule (so an empty body is corrupt too).
``RunCache.misses`` counts both kinds and ``RunCache.corrupt`` the
second.  Each writer fills its own temporary file and renames it into
place, so concurrent writers of one key do not clash.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from itertools import chain
from pathlib import Path

from .diagram import LinkDiagram
from .poly import MultiPoly

_FORMAT_VERSION = 5


class RunCache:
    def __init__(self, directory: str | os.PathLike[str]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0  # absent and corrupt entries
        self.corrupt = 0

    @staticmethod
    def key(diagram: LinkDiagram, segment: int) -> str:
        payload = f"v{_FORMAT_VERSION}:{diagram.canonical_json()}:{segment}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.bin"

    def get(self, diagram: LinkDiagram, segment: int) -> MultiPoly | None:
        """The stored F, or None on a miss (see the module docstring)."""
        try:
            data = self._path(self.key(diagram, segment)).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        digest, _, body = data.partition(b"\n")
        width = 2 * diagram.n
        rows = list(zip(*[iter(body)] * width))  # whole rows; a short last one is dropped
        terms = frozenset(rows)
        if (
            hashlib.sha256(body).hexdigest().encode() != digest
            or len(body) != width * len(rows)
            or len(terms) != len(rows)
            or (0,) * width not in terms
        ):
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return MultiPoly(width, terms)

    def put(self, diagram: LinkDiagram, segment: int, f: MultiPoly) -> None:
        """Store F under the key of (diagram, segment), replacing any entry
        there; store nothing if an exponent is above 255."""
        try:
            body = bytes(chain.from_iterable(f.rows()))
        except ValueError:  # bytes must be in range(0, 256)
            return
        path = self._path(self.key(diagram, segment))
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{path.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
