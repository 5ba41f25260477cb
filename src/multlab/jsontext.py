"""Indented JSON text, byte for byte that of json.dumps(value, indent=2).

With an indent, CPython encodes in pure Python, item by item, which for a
long list of ints costs several times what json's C encoder takes.  A
list of the indices of a byte mask's 1 bytes, such as run starts, is
written from the mask itself, with no int object per index.  The
writer is a module of its own, not part of cli.py, because without cached
bytecode each module is compiled whole on import, and compiling it inside
cli.py raised the peak memory of processes importing the CLI by about
0.4 MiB.
"""

from __future__ import annotations

import json
from itertools import chain, compress, starmap

# Items per piece of a flat list; bounds the strings alive at once.
_FLAT_SLICE = 4096
# Indices per block of a mask, a power of ten: one digit table covers a block.
_MASK_BLOCK = 1000
_SCALARS = frozenset({str, int, float, bool, type(None)})
_INTS = frozenset({int})
_ROWS = frozenset({list, tuple})


class MaskIndices:
    """The indices of the 1 bytes of a 0/1 byte mask, in increasing order.

    json_chunks writes it as json.dumps would write the list of those
    indices, without making that list.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: bytes):
        self.mask = mask


def json_chunks(value, indent: str = ""):
    """Pieces whose concatenation is json.dumps(value, indent=2), where a
    MaskIndices stands for the list of its indices.

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
    elif isinstance(value, MaskIndices):
        if 1 not in value.mask:
            yield "[]"
            return
        yield "[\n" + inner
        yield from mask_index_chunks(value.mask, ",\n" + inner)
        yield "\n" + indent + "]"
    else:
        yield json.dumps(value)


def mask_index_chunks(mask: bytes, sep: str):
    """Pieces whose concatenation is sep.join(map(str, indices)) over the
    indices of the 1 bytes of the 0/1 byte mask.

    An index in block b >= 1 of _MASK_BLOCK = 10^w indices is str(b)
    followed by w zero-padded digits.  One compress over a table of those
    digit strings picks a block's, and one join with sep + str(b) writes
    them, so no int object is made per index.
    """
    width = len(str(_MASK_BLOCK)) - 1
    digits = [str(i) for i in range(_MASK_BLOCK)]
    padded = [s.zfill(width) for s in digits]
    first = True
    for lo in range(0, len(mask), _MASK_BLOCK):
        block = mask[lo : lo + _MASK_BLOCK]
        if 1 not in block:
            continue
        if lo:
            head = str(lo // _MASK_BLOCK)
            text = head + (sep + head).join(compress(padded, block))
        else:
            text = sep.join(compress(digits, block))
        if first:
            first = False
        else:
            yield sep
        yield text


def mask_index_lines(mask: bytes) -> str:
    """The indices of the 1 bytes of the 0/1 byte mask, one per line."""
    return "".join((*mask_index_chunks(mask, "\n"), "\n")) if 1 in mask else ""


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
