"""Indented JSON text in one pass.

``json.dumps`` with ``indent`` set falls back to the pure-Python encoder,
which walks the value through one generator per container.  ``json_text``
writes the same text straight into a list of parts, and joins a list of
plain ints in one step: the F-polynomial's exponent rows are such lists.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


def json_text(obj: object) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``.

    Handles dict, list, tuple, str, int, bool and None.  Dict keys may be
    str, int, bool or None; they are sorted before they become strings,
    as ``json`` does.  Any other type raises TypeError.
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
            if set(map(type, o)) == {int}:
                return put("[" + inner + ("," + inner).join(map(str, o)) + nl + "]")
            opening = "[" + inner
            for v in o:
                put(opening)
                write(v, inner)
                opening = "," + inner
            put(nl + "]")
        else:
            put(scalar(o))

    write(obj, "\n")
    return "".join(parts)
