"""On-disk cache of the per-(diagram, segment) F-polynomial.

Keys hash the canonical serialization of the diagram, the segment and
``_FORMAT_VERSION`` (4), so an entry of another version is never opened:
version-3 entries, which held F beside its specialization, are misses.
An entry file is the sha256 of the body in hex, a newline, and the body,
F's deterministic JSON ``MultiPoly.to_json()``.  The specialization is
not stored: it is a function of F and the diagram, and a stored copy
could disagree with F.  ``fpoly --cache-dir`` is the cache's only
caller; ``alexander`` and ``verify`` read no cache.

An entry is a miss, and the recomputed F overwrites it, when its
checksum does not match the body, the body is not JSON or nests deeper
than the recursion limit, ``MultiPoly.from_json`` rejects it (it rejects
every row that ``to_json`` does not write), F is not over the 2n
variables of the diagram's n crossings, or F lacks the zero exponent
vector, which every F holds because every module has the zero
submodule.  Each writer fills its own temporary file and renames it into
place, so concurrent writers of one key do not clash.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

from .diagram import LinkDiagram
from .poly import MultiPoly

_FORMAT_VERSION = 4


class RunCache:
    def __init__(self, directory: str | os.PathLike[str]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(diagram: LinkDiagram, segment: int) -> str:
        payload = f"v{_FORMAT_VERSION}:{diagram.canonical_json()}:{segment}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, diagram: LinkDiagram, segment: int) -> MultiPoly | None:
        """The stored F, or None on a miss (see the module docstring)."""
        try:
            data = self._path(self.key(diagram, segment)).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        digest, _, body = data.partition(b"\n")
        try:
            if hashlib.sha256(body).hexdigest().encode() != digest:
                raise ValueError("checksum mismatch")
            f = MultiPoly.from_json(json.loads(body))
            if f.nvars != 2 * diagram.n:
                raise ValueError(f"F over {f.nvars} variables, expected {2 * diagram.n}")
            if (0,) * f.nvars not in f.terms:
                raise ValueError("F lacks the zero exponent vector")
        except (KeyError, TypeError, ValueError, RecursionError):  # includes a body not in UTF-8
            self.misses += 1
            return None
        self.hits += 1
        return f

    def put(self, diagram: LinkDiagram, segment: int, f: MultiPoly) -> None:
        """Store F under the key of (diagram, segment), replacing any entry there."""
        path = self._path(self.key(diagram, segment))
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{path.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                body = json.dumps(f.to_json(), sort_keys=True, separators=(",", ":")).encode()
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
