"""On-disk cache for per-(diagram, segment) pipeline results.

Keys hash the canonical serialization of the diagram together with the
segment; values hold the F-polynomial and its specialization as
deterministic JSON, so that cache hits reproduce byte-identical command
output.  ``fpoly`` and ``alexander`` use the cache; ``verify`` does not.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .diagram import LinkDiagram

ENV_CACHE_DIR = "KNOTQUIVER_CACHE_DIR"
_FORMAT_VERSION = 2


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

    def get(self, diagram: LinkDiagram, segment: int) -> dict | None:
        path = self._path(self.key(diagram, segment))
        if not path.exists():
            self.misses += 1
            return None
        try:
            with path.open(encoding="utf-8") as fh:
                value = json.load(fh)
        except ValueError:  # truncated or not JSON: recompute and overwrite
            value = None
        if not isinstance(value, dict):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, diagram: LinkDiagram, segment: int, value: dict) -> None:
        path = self._path(self.key(diagram, segment))
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(value, fh, sort_keys=True, separators=(",", ":"))
        tmp.replace(path)
