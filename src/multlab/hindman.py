"""Finite monochromatic finite-union search over colored index sets.

Given a coloring of the nonempty subsets of {1..n} with finitely many
colors, look for blocks A_1 < A_2 < ... < A_m (each block entirely below
the next) whose finite-union closure, every union of a nonempty
subcollection, is monochromatic.  Infinite universes always admit such
families; here the universe is finite, so the search can genuinely fail.

Blocks are scanned in a fixed canonical order, by maximum element and then
lexicographically, which makes the first family found a deterministic
function of the coloring.  Inside the search a block is an integer
bitmask, a union is a bitwise or, and colors are read by mask: from the
coloring's table when it has one, else asked once per subset and
memoized.  The node count, and so the meaning of a node budget, is that
of the plain search over tuples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import chain
from typing import Callable, Sequence

from .blockseq import normalize_index_set, precedes

Block = tuple[int, ...]

# Largest universe random_coloring tabulates: 2^20 colors (~8 MiB, ~0.6 s).
MAX_RANDOM_N = 20


class SearchBudgetExceeded(RuntimeError):
    """Raised when a search hits its node budget before deciding."""


def node_limit(node_budget: int | None) -> float:
    """The node budget as a limit (infinite for None); every search checks it here."""
    if node_budget is None:
        return math.inf
    if node_budget < 1:
        raise ValueError(f"node budget must be >= 1, got {node_budget}")
    return node_budget


@dataclass(frozen=True)
class SubsetColoring:
    """Coloring of the nonempty subsets of {1..n} with colors 1..classes.

    color maps a block (a sorted tuple) to its color.  table, when given,
    gives the same colors by block mask (element i is bit n - i, see
    _block_masks), already in 1..classes: a list, or an object that
    computes them from the mask and stores nothing.  The search then reads
    it directly and never calls color_of.
    """

    n: int
    classes: int
    color: Callable[[Block], int]
    table: Sequence[int] | _ComputedTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"universe size must be >= 1, got {self.n}")
        if self.classes < 1:
            raise ValueError(f"need at least one color class, got {self.classes}")

    def color_of(self, block: Sequence[int]) -> int:
        b = normalize_index_set(block)
        if b[0] < 1 or b[-1] > self.n:
            raise ValueError(f"block {b} is not inside 1..{self.n}")
        c = self.color(b)
        if not isinstance(c, int) or not 1 <= c <= self.classes:
            raise ValueError(f"coloring returned {c!r} for {b}, expected 1..{self.classes}")
        return c


@dataclass(frozen=True)
class BlockFamily:
    """Blocks A_1, ..., A_m with max(A_i) < min(A_{i+1}) throughout."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        blocks = tuple(normalize_index_set(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("family needs at least one block")
        for a, b in zip(blocks, blocks[1:]):
            if not precedes(a, b):
                raise ValueError(f"blocks {a} and {b} are not separated")

    @property
    def m(self) -> int:
        return len(self.blocks)


def fu_closure(family: BlockFamily) -> list[Block]:
    """Unions of nonempty subcollections, in subcollection-bitmask order.

    Bit i of the mask selects block A_{i+1}; separation makes the unions
    pairwise distinct and concatenation-in-order already sorted.
    """
    blocks = family.blocks
    out = []
    for mask in range(1, 1 << len(blocks)):
        parts = (blocks[i] for i in range(len(blocks)) if mask >> i & 1)
        out.append(tuple(chain.from_iterable(parts)))
    return out


def _block_masks(lo: int, mx: int, n: int) -> range:
    """Masks of the subsets of {lo..mx} containing mx, in lexicographic order.

    Element i is bit n - i, so the smallest element is the highest bit and
    lexicographic order on blocks sharing their max is descending order of
    the masks: a step of 2 * bit(mx) through every choice of {lo..mx - 1}.
    """
    low = 1 << (n - mx)
    step = low << 1
    return range(low + ((1 << (mx - lo)) - 1) * step, low - 1, -step)


def _mask_of(block: Sequence[int], n: int) -> int:
    return sum(map((1 << n).__rshift__, block))


def _block_of(mask: int, n: int) -> Block:
    out = []
    while mask:
        low = mask & -mask
        out.append(n + 1 - low.bit_length())
        mask ^= low
    out.reverse()
    return tuple(out)


class _ComputedTable:
    """A coloring table whose entry for a mask is computed on each read."""

    def __init__(self, entry: Callable[[int], int]):
        self.entry = entry

    def __getitem__(self, mask: int) -> int:
        return self.entry(mask)


def monochromatic_fu_search(
    coloring: SubsetColoring,
    m: int,
    *,
    node_budget: int | None = None,
) -> BlockFamily | None:
    """First family of m separated blocks with monochromatic union closure.

    Depth-first over blocks in canonical order; a partial family is
    extended only while every union formed so far has the color of A_1,
    which is exactly the hereditary restriction of the final condition.
    A candidate is checked alone first, then joined to each earlier union
    in turn, and dropped at the first other color.  Blocks and unions are
    bitmasks (see _block_masks), so a union is one `|`.  A coloring with a
    table is read from it by mask, and color_of is not called during the
    search.  Otherwise each subset is colored through coloring.color_of at
    most once, and memory grows with the subsets actually colored, never
    with 2^n up front.

    Returns None when the finite universe is exhausted; raises
    SearchBudgetExceeded if node_budget candidate blocks were examined
    before either outcome.
    """
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    limit = node_limit(node_budget)
    n = coloring.n
    color = coloring.table
    if color is None:
        color = _ComputedTable(cache(lambda mask: coloring.color_of(_block_of(mask, n))))
    nodes = 0

    def extend(chosen: list[int], unions: list[int], target: int, lo: int):
        nonlocal nodes
        if len(chosen) == m:
            return chosen
        for mx in range(lo, n + 1):
            for block in _block_masks(lo, mx, n):
                nodes += 1
                if nodes > limit:
                    raise SearchBudgetExceeded(
                        f"monochromatic family search exceeded {node_budget} nodes"
                    )
                if not chosen:
                    target = color[block]
                elif color[block] != target:
                    continue
                for u in unions:
                    if color[u | block] != target:
                        break
                else:
                    grown = [block] + [u | block for u in unions]
                    found = extend(chosen + [block], unions + grown, target, mx + 1)
                    if found is not None:
                        return found
        return None

    found = extend([], [], 0, 1)
    if found is None:
        return None
    family = BlockFamily(tuple(_block_of(block, n) for block in found))
    colors = {color[_mask_of(u, n)] for u in fu_closure(family)}
    if len(colors) != 1:
        raise RuntimeError(f"search returned a non-monochromatic family {family.blocks}")
    return family


def size_parity_coloring(n: int) -> SubsetColoring:
    """Two colors by parity of the block size: the bit count of its mask."""
    table = _ComputedTable(lambda mask: 1 + mask.bit_count() % 2)
    return SubsetColoring(n, 2, lambda b: table[_mask_of(b, n)], table)


def max_parity_coloring(n: int) -> SubsetColoring:
    """Two colors by parity of the largest element: the lowest set bit of its mask."""
    table = _ComputedTable(lambda mask: 1 + (n + 1 - (mask & -mask).bit_length()) % 2)
    return SubsetColoring(n, 2, lambda b: table[_mask_of(b, n)], table)


def random_coloring(n: int, classes: int, seed: int) -> SubsetColoring:
    """Seeded uniform coloring, fixed by drawing subsets in canonical order.

    The colors are tabulated in a list indexed by block mask, 2^n entries,
    so n is capped at MAX_RANDOM_N and refused before anything is drawn.
    The list is the coloring's table, which the search reads directly.
    """
    if n > MAX_RANDOM_N:
        raise ValueError(
            f"random coloring tabulates 2^n - 1 subsets; n = {n} exceeds the cap {MAX_RANDOM_N}"
        )
    # Built first so n and classes are validated before the table exists;
    # the lookup reads table only when called.
    coloring = SubsetColoring(n, classes, lambda b: table[_mask_of(b, n)])
    table = [0] * (1 << n)
    draw = random.Random(seed).randint
    for mx in range(1, n + 1):
        for mask in _block_masks(1, mx, n):
            table[mask] = draw(1, classes)
    return replace(coloring, table=table)
