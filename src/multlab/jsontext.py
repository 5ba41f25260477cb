"""Indented JSON text, byte for byte that of json.dumps(value, indent=2).

With an indent, CPython encodes in pure Python, item by item, which for a
long list of ints costs several times what json's C encoder takes.  The
writer is a module of its own, not part of cli.py, because without cached
bytecode each module is compiled whole on import, and compiling it inside
cli.py raised the peak memory of processes importing the CLI by about
0.4 MiB.
"""

from __future__ import annotations

import json
from itertools import chain, starmap

# Items per piece of a flat list; bounds the strings alive at once.
_FLAT_SLICE = 4096
_SCALARS = frozenset({str, int, float, bool, type(None)})
_INTS = frozenset({int})
_ROWS = frozenset({list, tuple})


def json_chunks(value, indent: str = ""):
    """Pieces whose concatenation is json.dumps(value, indent=2).

    A non-empty list of scalars is encoded slice by slice by json's C
    encoder, with the indented item separator as its separator.  A list of
    exact-int lists, such as [prime, class] pairs, is written in one pass.
    Other containers recurse; keys and other values go to json.dumps.
    indent is the indentation of the line the value ends on.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{\n" + inner
        for key, item in value.items():
            # json's own key text: strings escaped, numbers, bools and None quoted
            yield sep + json.dumps({key: None})[1:-7] + ": "
            yield from json_chunks(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        sep = ",\n" + inner
        yield "[\n" + inner
        types = set(map(type, value))
        if _ROWS.issuperset(types) and (rows := _int_rows(value, inner)) is not None:
            yield rows
        elif not _SCALARS.issuperset(types):
            for i, item in enumerate(value):
                if i:
                    yield sep
                yield from json_chunks(item, inner)
        else:
            for i in range(0, len(value), _FLAT_SLICE):
                if i:
                    yield sep
                yield json.dumps(value[i : i + _FLAT_SLICE], separators=(sep, ": "))[1:-1]
        yield "\n" + indent + "]"
    else:
        yield json.dumps(value)


def _int_rows(rows, indent: str) -> str | None:
    """The items of a list of exact-int lists, as json_chunks writes them
    at indent, or None if some item is not such a list.

    Rows of one nonzero length, such as [prime, class] pairs, are each
    written by one format string.
    """
    if not _INTS.issuperset(map(type, chain.from_iterable(rows))):
        return None
    deeper = indent + "  "
    sep = ",\n" + deeper
    head, tail = "[\n" + deeper, "\n" + indent + "]"
    lengths = set(map(len, rows))
    if len(lengths) == 1 and 0 not in lengths:
        write_row = (head + sep.join(["{}"] * lengths.pop()) + tail).format
        return (",\n" + indent).join(starmap(write_row, rows))
    return (",\n" + indent).join(
        head + sep.join(map(int.__repr__, row)) + tail if row else "[]" for row in rows
    )
