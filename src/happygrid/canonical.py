"""Canonical JSON text: sorted keys, two-space indent, byte for byte the stdlib's.

`cli` binds dumps_canonical and writes every `--json` record through it
or through `render`, a value at a given depth.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii


def dumps_canonical(record: dict) -> str:
    """One canonical JSON record: sorted keys, two-space indent, newline.

    Byte for byte json.dumps(record, sort_keys=True, indent=2) + "\\n", joined
    from strings instead of run through the stdlib's pure-Python encoder.
    Any other JSON value renders the same way.
    """
    return render(record, "\n") + "\n"


class Json(str):
    """Canonical JSON text rendered at the depth where it is written: render
    copies it as it is."""


def render(value, newline: str) -> str:
    """One value of a canonical record; newline ends a line at its depth."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is Json:
        return value
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is dict and value and all(type(key) is str for key in value):
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + render(item, inner)
            for key, item in sorted(value.items())) + newline + "}"
    if (kind is list or kind is tuple) and value:
        kinds = set(map(type, value))
        items = (map(repr, value) if kinds == {int} else value if kinds == {Json}
                 else (render(item, inner) for item in value))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    # floats, empty containers, other keys and types: the stdlib, indented to
    # this depth (a JSON string holds no raw newline)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)
