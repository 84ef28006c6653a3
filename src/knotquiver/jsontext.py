"""Indented JSON text in one pass.

``json.dumps`` with ``indent`` set falls back to the pure-Python encoder,
which walks the value through one generator per container.  ``json_text``
writes the same text straight into a list of parts, and joins a list of
plain ints in one step.

A list of records -- dicts with one set of str keys, each column all plain
ints or all int lists of one nonzero length -- is written through one
``%``-template, built once per list from the sorted keys and the indent:
the ``states`` and ``quiver`` JSON hold such lists.  Its shape is checked
column by column, not row by row.  Any other list, including one whose
records break the shape anywhere, takes the generic walk, so the text is
the same either way.

The F-polynomial is not written through records: ``fpoly_text`` writes
the text of ``MultiPoly.to_json()`` straight from F's sorted rows of
ints, with no row dict and no type check, in one join over a table of
the entries' digits.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Callable, Sequence

# The text of each entry that fits in a byte, the entries of nearly every F.
_DIGITS = {k: str(k) for k in range(256)}


def _records_text(rows: list | tuple, nl: str) -> str | None:
    """The text of a non-empty list of dicts if its records share one shape,
    else None."""
    keys = sorted(rows[0])
    if not keys or set(map(type, keys)) != {str} or set(map(len, rows)) != {len(keys)}:
        return None
    try:
        columns = [list(map(itemgetter(k), rows)) for k in keys]
    except KeyError:
        return None
    item, field = nl + "  ", nl + "    "
    entry = field + "  "
    fields = []
    slots = []  # the values of one "%d" of the row template, one per row
    for key, column in zip(keys, columns):
        name = _quote(key).replace("%", "%%")
        kinds = set(map(type, column))
        if kinds == {int}:
            fields.append(f"{name}: %d")
            slots.append(column)
            continue
        if kinds - {list, tuple}:
            return None
        lengths = set(map(len, column))
        if len(lengths) != 1 or 0 in lengths:
            return None
        if set(map(type, chain.from_iterable(column))) != {int}:
            return None
        fields.append(f"{name}: [{entry}" + f",{entry}".join(["%d"] * lengths.pop()) + f"{field}]")
        slots.extend(zip(*column))
    row = "{" + field + f",{field}".join(fields) + item + "}"
    values = tuple(chain.from_iterable(zip(*slots)))
    return "[" + item + f",{item}".join([row] * len(rows)) % values + nl + "]"


def fpoly_text(rows: Sequence[tuple[int, ...]], nvars: int, nl: str = "\n") -> str:
    """``json_text({"nvars": nvars, "terms": [{"coef": 1, "exp": row}, ...]}, nl)``.

    ``rows`` are one or more tuples of ``nvars`` > 0 ints, as a nonzero
    F's ``MultiPoly.rows()``; they are not checked.  Their entries are
    flattened, looked up in the digit table, regrouped ``nvars`` at a time
    and joined, each group and then the groups, with the text between two
    entries and between two rows.  An entry outside 0..255 sends every
    entry through ``str``.
    """
    field, item, inner, entry = (nl + "  " * k for k in (1, 2, 3, 4))
    opening = item + "{" + inner + '"coef": 1,' + inner + '"exp": [' + entry
    closing = inner + "]" + item + "}"
    between = "," + entry

    def body(text: Callable[[int], str]) -> str:
        texts = map(text, chain.from_iterable(rows))
        return (closing + "," + opening).join(map(between.join, zip(*[texts] * nvars)))

    try:
        terms = body(_DIGITS.__getitem__)
    except KeyError:
        terms = body(str)
    head = "{" + field + f'"nvars": {nvars},' + field + '"terms": [' + opening
    return head + terms + closing + field + "]" + nl + "}"


def json_text(obj: object, nl: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``.

    Handles dict, list, tuple, str, int, bool and None.  Dict keys may be
    str, int, bool or None; they are sorted before they become strings,
    as ``json`` does.  Any other type raises TypeError.  ``nl`` opens
    each new line of the text: a newline and 2k spaces write ``obj`` as it
    is written nested k levels deep.
    """
    parts: list[str] = []
    put = parts.append

    def scalar(o: object) -> str:
        if isinstance(o, str):
            return _quote(o)
        if o is None:
            return "null"
        if o is True or o is False:
            return "true" if o else "false"
        if isinstance(o, int):
            return int.__repr__(o)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def write(o: object, nl: str) -> None:
        inner = nl + "  "
        if isinstance(o, dict):
            if not o:
                return put("{}")
            opening = "{" + inner
            for key, v in sorted(o.items()):
                put(opening + _quote(key if isinstance(key, str) else scalar(key)) + ": ")
                write(v, inner)
                opening = "," + inner
            put(nl + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                return put("[]")
            kinds = set(map(type, o))
            if kinds == {int}:
                return put("[" + inner + ("," + inner).join(map(str, o)) + nl + "]")
            text = _records_text(o, nl) if kinds == {dict} else None
            if text is not None:
                return put(text)
            opening = "[" + inner
            for v in o:
                put(opening)
                write(v, inner)
                opening = "," + inner
            put(nl + "]")
        else:
            put(scalar(o))

    write(obj, nl)
    return "".join(parts)
