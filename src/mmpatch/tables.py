"""Text renderings of exported reports and tables.

:func:`json_text` is exactly ``json.dumps(obj, indent=2, sort_keys=True)``
and :func:`csv_text` writes every value as ``%.10g``. Both render a table
in one formatting pass over its values instead of one encoder call per
sample.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

import numpy as np

_INDENT = "  "


def _record_table(value) -> tuple[list[str], list[float]] | None:
    # Sorted keys and row-major values of a non-empty list of dicts that
    # share one non-empty set of str keys and hold only floats; None for
    # anything else.
    if type(value) is not list or not value or set(map(type, value)) != {dict}:
        return None
    keys = value[0].keys()
    if not keys or set(map(type, keys)) != {str}:
        return None
    if not all(map(keys.__eq__, map(dict.keys, value))):
        return None
    names = sorted(keys)
    rows = map(itemgetter(*names), value)
    flat = list(chain.from_iterable(rows)) if len(names) > 1 else list(rows)
    return (names, flat) if set(map(type, flat)) == {float} else None


def _lift(value, tables: list[tuple[list[str], list[float]]]):
    # Copy of the container tree with each record list replaced by a
    # numbered placeholder string.
    if isinstance(value, dict):
        return {k: _lift(v, tables) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        table = _record_table(value)
        if table is None:
            return [_lift(v, tables) for v in value]
        tables.append(table)
        return f"\0table{len(tables) - 1}\0"
    return value


def _records_text(keys: list[str], values: list[float], base: str) -> str:
    # The stdlib rendering of a record list whose opening bracket sits on a
    # line indented by ``base``: one prefix per value, interleaved with the
    # value tokens of the C encoder.
    row = "\n" + base + _INDENT
    names = [row + _INDENT + json.dumps(k) + ": " for k in keys]
    prefixes = [row + "}," + row + "{" + names[0]] + ["," + name for name in names[1:]]
    parts = [""] * (2 * len(values))
    parts[0::2] = prefixes * (len(values) // len(keys))
    parts[1::2] = json.dumps(values)[1:-1].split(", ")
    parts[0] = "[" + row + "{" + names[0]
    parts.append(row + "}\n" + base + "]")
    return "".join(parts)


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, with every list of
    float-valued records that share one key set rendered in one pass over
    its values; float tokens come from the C encoder."""
    tables: list[tuple[list[str], list[float]]] = []
    skeleton = json.dumps(_lift(obj, tables), indent=2, sort_keys=True)
    if not tables:
        return skeleton
    spans = []
    for i, (keys, values) in enumerate(tables):
        token = json.dumps(f"\0table{i}\0")
        if skeleton.count(token) != 1:
            # a payload string collides with the placeholder
            return json.dumps(obj, indent=2, sort_keys=True)
        at = skeleton.find(token)
        line = skeleton[skeleton.rfind("\n", 0, at) + 1:at]
        base = line[:len(line) - len(line.lstrip(" "))]
        spans.append((at, at + len(token), _records_text(keys, values, base)))
    parts, pos = [], 0
    for start, stop, text in sorted(spans):
        parts += (skeleton[pos:start], text)
        pos = stop
    parts.append(skeleton[pos:])
    return "".join(parts)


def csv_text(header: str, table) -> str:
    """Header line, then one line per row of ``table`` (n x columns, where
    columns is the header's field count) with every value as ``%.10g``."""
    width = header.count(",") + 1
    values = np.asarray(table, dtype=float).ravel().tolist()
    row = "%.10g," * (width - 1) + "%.10g\n"
    return header + "\n" + (row * (len(values) // width)) % tuple(values)
