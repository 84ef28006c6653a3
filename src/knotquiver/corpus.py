"""Bundled test corpus and the JSON-lines corpus format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .diagram import LinkDiagram, parse_pd


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    pd: str
    prime: bool = True
    components: int | None = None
    # normalized coefficient list of the expected Alexander polynomial,
    # lowest degree 0 (optional)
    alexander: tuple[int, ...] | None = None
    cf: tuple[int, ...] | None = None

    def diagram(self) -> LinkDiagram:
        d = parse_pd(self.pd)
        if self.components is not None and d.components != self.components:
            raise ValueError(
                f"{self.name}: expected {self.components} components, got {d.components}"
            )
        return d


def parse_corpus(text: str) -> list[CorpusEntry]:
    entries = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corpus line {line_no}: {exc}") from None
        entries.append(
            CorpusEntry(
                name=row["name"],
                pd=row["pd"],
                prime=bool(row.get("prime", False)),
                components=row.get("components"),
                alexander=tuple(row["alexander"]) if row.get("alexander") else None,
                cf=tuple(row["cf"]) if row.get("cf") else None,
            )
        )
    return entries


def load_corpus(path: str | None = None) -> list[CorpusEntry]:
    """Entries from a corpus file, or the bundled corpus by default."""
    if path is None:
        text = resources.files("knotquiver.data").joinpath("corpus.jsonl").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_corpus(text)
