"""Canonical text for the output files: the one JSON encoder and the
cells' CSV texts.

``canonical_json`` gives ``json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=False)``'s text; a list of records or of leaves is encoded a
column at a time (``json_texts``), a 2-D float array a block of rows at a
time from one fixed-width bytes array of its cells' texts, and
``write_json`` streams the text to a file a chunk at a time. A writer that
needs the same numbers in a CSV file formats them once: ``csv_texts``
reads a number's CSV text off its JSON text. The module stands apart from
``io``: run without bytecode, every command compiles both, and compiling
one larger module raises each command's peak memory.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class Encoded(NamedTuple):
    """JSON encoded ahead: ``canonical_json`` writes what ``chunks(newline)``
    yields, ending on the line ``newline`` starts, in its place."""

    chunks: Callable[[str], Iterable[str]]


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) +
    "\\n"``, without the pure-Python encoder ``indent`` forces on it:
    containers are indented by hand around C-encoded leaves, and a list of
    records or of leaves is encoded a column at a time (``json_texts``).
    It also writes a 2-D float array as its ``tolist()`` with NaN as null,
    and an ``Encoded`` value as its chunks."""
    return "".join(_chunks(obj, "\n")) + "\n"


def write_json(path: str | Path, obj) -> None:
    """``canonical_json(obj)`` written a chunk at a time (an object's
    items, a block of an array's rows): no string of the file exists."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chain(_chunks(obj, "\n"), "\n"))


_NON_FINITE = frozenset(map(repr, (math.nan, math.inf, -math.inf)))


def json_texts(values: Sequence, newline: str = "\n") -> list[str]:
    """The JSON text of each of ``values``, a container's lines after
    ``newline``: all str, or all int and finite float, by one C loop; any
    other column a value at a time."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring, values))
    if kinds <= {int, float}:
        texts = list(map(repr, values))
        if _NON_FINITE.isdisjoint(texts):
            return texts
    return ["".join(_chunks(value, newline)) for value in values]


def json_list(texts: list[str], newline: str) -> Iterator[str]:
    """The list whose items' JSON ``texts`` holds."""
    inner = newline + "  "
    yield f"[{inner}{(',' + inner).join(texts)}{newline}]" if texts else "[]"


def record_table(rows, newline: str) -> tuple[dict[str, list], dict[str, list[str]]] | None:
    """The one record-table rule: a non-empty list or tuple of dicts sharing
    one non-empty set of str keys, as its values and their JSON texts a
    column at a time by key, for ``json_records``; else None."""
    keys = rows[0].keys() if type(rows) in (list, tuple) and rows and type(rows[0]) is dict else ()
    if not (keys and {*map(type, rows)} == {dict} and {*map(type, keys)} == {str}
            and sum(map(len, rows)) == len(keys) * len(rows)):
        return None
    try:  # rows the first's size that each hold its keys hold no other key
        values = {key: [row[key] for row in rows] for key in keys}
    except KeyError:
        return None
    return values, {key: json_texts(column, newline + "    ") for key, column in values.items()}


def json_records(columns: dict[str, list[str]], newline: str) -> Iterator[str]:
    """The list of records whose values' JSON texts ``columns`` holds by
    key, each record one format of the sorted keys applied to its texts."""
    keys, inner = sorted(columns), newline + "    "
    row = "{" + ",".join(f"{inner}{encode_basestring(key).replace('%', '%%')}: %s" for key in keys) + newline + "  }"
    return json_list(list(map(row.__mod__, zip(*map(columns.get, keys)))), newline)


def json_cells(values: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """The JSON text of each defined (not NaN) cell of a 2-D float array,
    b"" where it is NaN, in one fixed-width bytes array (never a Python
    object per cell); the upper triangle of a ``symmetric`` one is
    formatted once, a block of rows at a time, and mirrored."""
    defined = np.triu(values == values) if symmetric else values == values
    step = max(1, _GRID_CELLS // max(values.shape[1], 1))
    blocks = [slice(lo, lo + step) for lo in range(0, len(values), step)]
    texts = [np.array(json_texts(values[rows][defined[rows]].tolist()), dtype=bytes) for rows in blocks]
    cells = np.zeros(values.shape, dtype=f"S{max((block.itemsize for block in texts), default=1)}")
    for rows, block in zip(blocks, texts):
        cells[rows][defined[rows]] = block
        if symmetric:
            cells.T[rows][defined[rows]] = block
    return cells


_GRID_CELLS = 1 << 16  # cells per block of a grid's or a table's rows


def grid_rows(cells: np.ndarray, null: str, sep: str, heads: Sequence[str], tail: str) -> Iterator[str]:
    """The text of a grid of ``json_cells`` a block of rows at a time: row i
    is ``heads[i]``, its cells (``null`` where b"") joined by ``sep``, and
    ``tail``. Each block is laid out as fixed-width cells and separators
    and read off as one bytes value a row, its padding removed."""
    n, m = cells.shape
    step = max(1, _GRID_CELLS // max(m, 1))
    for lo in range(0, n, step):
        block = np.where(cells[lo:lo + step] == b"", null.encode(), cells[lo:lo + step])
        laid = np.empty((*block.shape, 2), dtype=np.promote_types(block.dtype, f"S{len(sep)}"))
        laid[..., 0], laid[..., 1] = block, sep.encode()
        rows = laid.reshape(len(block), -1).view(f"S{laid.itemsize * 2 * m}").ravel().tolist()
        yield "".join([head + row.translate(None, b"\0").decode()[:-len(sep)] + tail
                       for head, row in zip(heads[lo:lo + step], rows)])


def json_grid(cells: np.ndarray, newline: str) -> Iterator[str]:
    """The 2-D list of ``json_cells``, null where NaN."""
    (n, m), inner = cells.shape, newline + "  "
    if not (n and m):
        yield from _chunks([[]] * n, newline)
        return
    heads = [f"[{inner}[{inner}  "] + [f",{inner}[{inner}  "] * (n - 1)
    yield from grid_rows(cells, "null", f",{inner}  ", heads, f"{inner}]")
    yield newline + "]"


def _chunks(obj, newline: str) -> Iterator[str]:
    """Canonical JSON of ``obj`` in pieces, ending on the line ``newline``
    starts: an object a key at a time, records and other lists a column at
    a time, a 2-D float array a block of rows at a time."""
    kind, inner = type(obj), newline + "  "
    if kind is Encoded:
        yield from obj.chunks(newline)
    elif kind is dict and obj and all(type(key) is str for key in obj):
        for sep, key in zip(chain("{", repeat(",")), sorted(obj)):
            yield f"{sep}{inner}{encode_basestring(key)}: "
            yield from _chunks(obj[key], inner)
        yield newline + "}"
    elif kind in (list, tuple) and obj:
        table = record_table(obj, newline)
        if table:
            yield from json_records(table[1], newline)
        else:
            yield from json_list(json_texts(obj, inner), newline)
    elif kind is np.ndarray and obj.ndim == 2 and obj.dtype == float:
        yield from json_grid(json_cells(obj), newline)
    elif kind is str:
        yield encode_basestring(obj)
    elif kind is int or (kind is float and math.isfinite(obj)):
        yield kind.__repr__(obj)
    elif obj is None or kind is bool:
        yield "null" if obj is None else "true" if obj else "false"
    else:  # enums, non-finite floats, empty containers, other keys; a JSON string holds no raw newline
        yield json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", newline)


_QUOTED = re.compile('[,"\r\n]').search  # a cell the csv module quotes, doubling each quote
_CSV_LEAVES = {"null": "", "true": "True", "false": "False", **{json.dumps(x): repr(x) for x in (math.nan, math.inf, -math.inf)}}


def csv_texts(values: Sequence, texts: Sequence[str] | None = None) -> list[str]:
    """What the csv module writes for each of a column's ``values`` beside
    another cell (alone, "" is quoted): a column of numbers, bools and None
    read off its JSON texts (``texts``, else ``json_texts``'s), a finite
    number alike, None empty, other floats and bools by str(); any other
    column each value's str() (None empty), quoted as the module quotes it."""
    kinds = {*map(type, values)}
    if kinds <= {int, float, bool, type(None)}:
        texts = json_texts(values) if texts is None else texts
        return list(map(_CSV_LEAVES.get, texts, texts))
    cells = values if kinds == {str} else ["" if value is None else str(value) for value in values]
    return ['"' + cell.replace('"', '""') + '"' if _QUOTED(cell) else cell for cell in cells]


def csv_lines(columns: Sequence[Sequence[str]], codes: Sequence[np.ndarray] | None = None) -> Iterator[str]:
    """The rows of a table whose columns hold their cells' ``csv_texts``, a
    block of rows per string: row i holds each column's text at i, or at
    the column's code for row i in ``codes``. A block is one join of an
    object array of the texts, each with the separator after it, so a
    text repeated across rows is joined by reference."""
    ends = [","] * (len(columns) - 1) + ["\n"]
    texts = [np.array([cell + end for cell in column], dtype=object) for column, end in zip(columns, ends)]
    codes = [np.arange(len(text)) for text in texts] if codes is None else codes
    step = max(1, _GRID_CELLS // max(len(texts), 1))
    for lo in range(0, len(codes[0]) if codes else 0, step):
        rows = np.stack([text[code[lo:lo + step]] for text, code in zip(texts, codes)], axis=1)
        yield "".join(rows.ravel().tolist())
