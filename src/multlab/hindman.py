"""Finite monochromatic finite-union search over colored index sets.

Given a coloring of the nonempty subsets of {1..n} with finitely many
colors, look for blocks A_1 < A_2 < ... < A_m (each block entirely below
the next) whose finite-union closure, every union of a nonempty
subcollection, is monochromatic.  Infinite universes always admit such
families; here the universe is finite, so the search can genuinely fail.

Blocks are scanned in a fixed canonical order, by maximum element and then
lexicographically, which makes the first family found a deterministic
function of the coloring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from .blockseq import nonempty_subsets_in_block_order, normalize_index_set, precedes

Block = tuple[int, ...]

# Largest universe random_coloring tabulates: 2^20 - 1 subsets (~180 MiB).
MAX_RANDOM_N = 20


class SearchBudgetExceeded(RuntimeError):
    """Raised when a search hits its node budget before deciding."""


@dataclass(frozen=True)
class SubsetColoring:
    """Coloring of the nonempty subsets of {1..n} with colors 1..classes."""

    n: int
    classes: int
    color: Callable[[Block], int]

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
    Returns None when the finite universe is exhausted; raises
    SearchBudgetExceeded if node_budget candidate blocks were examined
    before either outcome.
    """
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    nodes = 0

    def extend(chosen: list[Block], unions: list[Block], target: int, lo: int):
        nonlocal nodes
        if len(chosen) == m:
            return tuple(chosen)
        if lo > coloring.n:
            return None
        for block in nonempty_subsets_in_block_order(lo, coloring.n):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise SearchBudgetExceeded(
                    f"monochromatic family search exceeded {node_budget} nodes"
                )
            if chosen:
                grown = [block] + [u + block for u in unions]
                if any(coloring.color_of(u) != target for u in grown):
                    continue
            else:
                target = coloring.color_of(block)
                grown = [block]
            found = extend(chosen + [block], unions + grown, target, block[-1] + 1)
            if found is not None:
                return found
        return None

    found = extend([], [], 0, 1)
    if found is None:
        return None
    family = BlockFamily(found)
    colors = {coloring.color_of(u) for u in fu_closure(family)}
    if len(colors) != 1:
        raise RuntimeError(f"search returned a non-monochromatic family {family.blocks}")
    return family


def size_parity_coloring(n: int) -> SubsetColoring:
    """Two colors by parity of the block size."""
    return SubsetColoring(n, 2, lambda b: 1 + len(b) % 2)


def max_parity_coloring(n: int) -> SubsetColoring:
    """Two colors by parity of the largest element."""
    return SubsetColoring(n, 2, lambda b: 1 + b[-1] % 2)


def random_coloring(n: int, classes: int, seed: int) -> SubsetColoring:
    """Seeded uniform coloring, fixed by drawing subsets in canonical order.

    The coloring is tabulated, 2^n - 1 entries, so n is capped at
    MAX_RANDOM_N and refused before anything is drawn.
    """
    if n > MAX_RANDOM_N:
        raise ValueError(
            f"random coloring tabulates 2^n - 1 subsets; n = {n} exceeds the cap {MAX_RANDOM_N}"
        )
    rng = random.Random(seed)
    table = {
        block: rng.randint(1, classes)
        for block in nonempty_subsets_in_block_order(1, n)
    }
    return SubsetColoring(n, classes, table.__getitem__)
