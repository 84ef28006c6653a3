"""Bundled test corpus and the JSON-lines corpus format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .diagram import DiagramError, LinkDiagram, parse_valid_pd


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    pd: str
    prime: bool
    components: int | None
    # normalized coefficient list of the expected Alexander polynomial,
    # lowest degree 0 (optional)
    alexander: tuple[int, ...] | None

    def diagram(self) -> LinkDiagram:
        try:
            d = parse_valid_pd(self.pd)
        except DiagramError as exc:
            raise DiagramError(f"{self.name}: {exc}") from None
        if self.components is not None and d.components != self.components:
            raise ValueError(
                f"{self.name}: expected {self.components} components, got {d.components}"
            )
        return d


def _int_list(row: dict, key: str) -> tuple[int, ...] | None:
    value = row.get(key)
    if value is None or value == []:
        return None
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"{key!r} must be a list of integers")
    return tuple(value)


def _entry(row: object) -> CorpusEntry:
    """The corpus entry of one decoded row; ValueError names a malformed field."""
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    for key in ("name", "pd"):
        if not isinstance(row.get(key), str):
            raise ValueError(f"{key!r} must be a string")
    prime = row.get("prime", False)
    if not isinstance(prime, bool):
        raise ValueError("'prime' must be true or false")
    components = row.get("components")
    if components is not None and not (type(components) is int and components > 0):
        raise ValueError("'components' must be a positive integer")
    return CorpusEntry(
        name=row["name"],
        pd=row["pd"],
        prime=prime,
        components=components,
        alexander=_int_list(row, "alexander"),
    )


def parse_corpus(text: str) -> list[CorpusEntry]:
    entries = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            entries.append(_entry(json.loads(line)))
        except (ValueError, RecursionError) as exc:  # includes json.JSONDecodeError
            raise ValueError(f"corpus line {line_no}: {exc}") from None
    return entries


def load_corpus(path: str | None = None) -> list[CorpusEntry]:
    """Entries from a corpus file, or the bundled corpus by default."""
    if path is None:
        text = resources.files("knotquiver.data").joinpath("corpus.jsonl").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_corpus(text)
