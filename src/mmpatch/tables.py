"""Text renderings of exported reports and tables.

A table travels as :class:`Records`, its key names and one float column per
key, from the computation to the writer; nothing builds a dict per row.
:func:`json_text` is exactly ``json.dumps(obj, indent=2, sort_keys=True)``
with each ``Records`` standing for its list of row dicts, and
:func:`csv_text` writes a ``Records`` as a header line and one ``%.10g``
line per row. Both render a table in one formatting pass over its values
instead of one encoder call per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_INDENT = "  "
_TOKEN = "\0records{}\0"


@dataclass(frozen=True)
class Records:
    """A table as columns: row i is ``{keys[k]: columns[k][i]}``, with every
    value read as a float. Keys are unique strings; CSV keeps their order,
    JSON sorts them like any dict."""

    keys: tuple[str, ...]
    columns: tuple[Sequence[float], ...]

    def __post_init__(self) -> None:
        if not self.keys or len(set(self.keys)) != len(self.keys) \
                or len(self.columns) != len(self.keys):
            raise ValueError("records need unique keys, one column per key")

    def flat(self, order: Sequence[int]) -> list[float]:
        """Row-major values of the columns at ``order``."""
        return np.column_stack([np.asarray(self.columns[k], dtype=float)
                                for k in order]).ravel().tolist()


def _as_records(value) -> Records:
    # The argument of a ``json.dumps`` default hook: only Records pass.
    if type(value) is not Records:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return value


def _row_dicts(value) -> list[dict]:
    table = _as_records(value)
    width = len(table.keys)
    values = table.flat(range(width))
    return [dict(zip(table.keys, values[i:i + width])) for i in range(0, len(values), width)]


def _records_text(keys: list[str], values: list[float], base: str) -> str:
    # The stdlib rendering of a record list whose opening bracket sits on a
    # line indented by ``base``: one prefix per value, interleaved with the
    # value tokens of the C encoder.
    if not values:
        return "[]"
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
    """``json.dumps(obj, indent=2, sort_keys=True)`` with every
    :class:`Records` rendered as its list of row dicts, in one pass over its
    values; float tokens come from the C encoder."""
    tables: list[Records] = []

    def hold(value) -> str:
        tables.append(_as_records(value))
        return _TOKEN.format(len(tables) - 1)

    skeleton = json.dumps(obj, indent=2, sort_keys=True, default=hold)
    spans = []
    for i, table in enumerate(tables):
        token = json.dumps(_TOKEN.format(i))
        if skeleton.count(token) != 1:
            # a payload string collides with the placeholder
            return json.dumps(obj, indent=2, sort_keys=True, default=_row_dicts)
        at = skeleton.find(token)
        line = skeleton[skeleton.rfind("\n", 0, at) + 1:at]
        base = line[:len(line) - len(line.lstrip(" "))]
        order = sorted(range(len(table.keys)), key=table.keys.__getitem__)
        text = _records_text([table.keys[k] for k in order], table.flat(order), base)
        spans.append((at, at + len(token), text))
    parts, pos = [], 0
    for start, stop, text in sorted(spans):
        parts += (skeleton[pos:start], text)
        pos = stop
    parts.append(skeleton[pos:])
    return "".join(parts)


def csv_text(table: Records) -> str:
    """The keys as a header line, then one line per row with every value as
    ``%.10g``."""
    width = len(table.keys)
    values = table.flat(range(width))
    row = "%.10g," * (width - 1) + "%.10g\n"
    return ",".join(table.keys) + "\n" + (row * (len(values) // width)) % tuple(values)
