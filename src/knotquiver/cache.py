"""On-disk cache for per-(diagram, segment) pipeline results.

Keys hash the canonical serialization of the diagram together with the
segment; values hold the F-polynomial and its specialization as
deterministic JSON, so that cache hits reproduce byte-identical command
output.  ``fpoly`` and ``alexander`` use the cache; ``verify`` does not.

An entry file is the sha256 of the JSON body in hex, a newline, and the
body.  An entry whose checksum does not match the body, whose body is not
JSON, or whose fields the caller's decoder rejects is a miss, and the
recomputed result overwrites it.  Each writer fills its own temporary file
and renames it into place, so concurrent writers of one key do not clash.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, TypeVar

from .diagram import LinkDiagram

ENV_CACHE_DIR = "KNOTQUIVER_CACHE_DIR"
_FORMAT_VERSION = 3

T = TypeVar("T")


class RunCache:
    def __init__(self, directory: str | os.PathLike[str]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_env(cls, override: str | None = None) -> "RunCache | None":
        directory = override or os.environ.get(ENV_CACHE_DIR)
        return cls(directory) if directory else None

    @staticmethod
    def key(diagram: LinkDiagram, segment: int) -> str:
        payload = f"v{_FORMAT_VERSION}:{diagram.canonical_json()}:{segment}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, diagram: LinkDiagram, segment: int, decode: Callable[[Any], T]) -> T | None:
        """``decode`` of the stored JSON value, or None on a miss.

        ``decode`` signals a malformed value by raising KeyError, TypeError
        or ValueError; only an entry that it accepts counts as a hit.
        """
        try:
            data = self._path(self.key(diagram, segment)).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        digest, _, body = data.partition(b"\n")
        try:
            if hashlib.sha256(body).hexdigest().encode() != digest:
                raise ValueError("checksum mismatch")
            value = decode(json.loads(body))
        except (KeyError, TypeError, ValueError):  # includes a body that is not UTF-8
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, diagram: LinkDiagram, segment: int, value: dict) -> None:
        path = self._path(self.key(diagram, segment))
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{path.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                body = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
