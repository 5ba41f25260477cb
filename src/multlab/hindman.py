"""Finite monochromatic finite-union search over colored index sets.

Given a coloring of the nonempty subsets of {1..n} with finitely many
colors, look for blocks A_1 < A_2 < ... < A_m (each block entirely below
the next) whose finite-union closure, every union of a nonempty
subcollection, is monochromatic.  Infinite universes always admit such
families; here the universe is finite, so the search can genuinely fail.

Blocks are scanned in a fixed canonical order, by maximum element and then
lexicographically, which makes the first family found a deterministic
function of the coloring.  Inside the search a block is an integer
bitmask and a union is a bitwise or.  A coloring tabulated in a
bytearray (random_coloring, at most 255 colors) is searched on candidate
bitsets: a first block reads its candidates from windows of its color's
digit string (a 1 at each mask of that color), and one shift and AND per
further block leaves the candidates that keep every union monochromatic.
There a subtree holding no family is counted in any order, the odd
candidates and those = 2 (mod 4), whose subtrees hold at most mask 1, in
bulk by bit counts, and only a subtree holding one is visited in canonical
order.  With two colors and m = 5 that refutes n = 15 in about 0.02 s,
n = 18 in 0.2 s and n = 20 in 1.5 s.  Any other coloring is scanned one
candidate at a time, its colors read by mask: computed from the mask (the
parity colorings, block_sum_coloring's), or asked once per subset and
memoized.  Those universes go up to n = 60, far past any table.  The
node count, and so the meaning of a node budget, is that of the plain
search over tuples on both paths: a candidate the bitsets rule out still
counts as examined, and an unordered count adds what the ordered scan
would.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import compress
from typing import Callable, Sequence

from .blockseq import all_subset_sums, normalize_index_set, precedes

Block = tuple[int, ...]

# Largest universe random_coloring tabulates: 2^20 colors (~8 MiB, ~0.06 s).
MAX_RANDOM_N = 20
# Most colors random_coloring draws: one 32-bit word holds one draw.
MAX_RANDOM_CLASSES = (1 << 32) - 1
# Words per getrandbits call in random_coloring: 256 KiB of draws at a time.
_DRAW_WORDS = 1 << 16


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
    _block_masks), already in 1..classes: a bytearray or a list, or an
    object that computes them from the mask and stores nothing.  The
    search then reads it directly and never calls color_of.
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

    Bit i of the mask selects block A_{i+1}.  The unions are the subset
    sums of the blocks as tuples: separation makes them pairwise distinct,
    and concatenation in block order already sorted.
    """
    return all_subset_sums(family.blocks, ())[1:]


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
    A coloring whose table is a bytearray (random_coloring, at most 255
    colors) is searched on candidate bitsets (_bitset_search); any other
    is scanned one candidate at a time (_scan_search), colors read by mask
    as the module docstring says, so a computed coloring costs memory for the
    subsets colored, never 2^n up front.  Both find the same family in the
    same number of nodes; the bitset search counts a subtree holding no
    family without ordering it, and that count is the scan's.  The family
    found is rechecked on the subset sums of its masks.

    Returns None when the finite universe is exhausted; raises
    SearchBudgetExceeded if node_budget candidate blocks were examined
    before either outcome.
    """
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    limit = node_limit(node_budget)
    n = coloring.n
    color = coloring.table
    if isinstance(color, bytearray):
        found = _bitset_search(color, n, m, limit)
    else:
        if color is None:
            color = _ComputedTable(cache(lambda mask: coloring.color_of(_block_of(mask, n))))
        found = _scan_search(color, n, m, limit)
    if found is None:
        return None
    family = BlockFamily(tuple(_block_of(block, n) for block in found))
    if len({color[u] for u in all_subset_sums(found)[1:]}) != 1:
        raise RuntimeError(f"search returned a non-monochromatic family {family.blocks}")
    return family


def _over_budget(limit: float) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(f"monochromatic family search exceeded {limit} nodes")


def _scan_search(color, n: int, m: int, limit: float) -> list[int] | None:
    """The search, one candidate at a time.

    A candidate is checked alone first, then joined to each earlier union
    in turn, and dropped at the first other color.
    """
    nodes = 0

    def extend(chosen: list[int], unions: list[int], target: int, lo: int):
        nonlocal nodes
        if len(chosen) == m:
            return chosen
        for mx in range(lo, n + 1):
            for block in _block_masks(lo, mx, n):
                nodes += 1
                if nodes > limit:
                    raise _over_budget(limit)
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

    return extend([], [], 0, 1)


# bin() digits to 0/1 flags, which itertools.compress reads as truth values.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits_descending(bits: int):
    """Positions of the set bits of bits > 0, largest first."""
    text = bin(bits)[2:].encode().translate(_FLAGS)
    return compress(range(len(text) - 1, -1, -1), text)


def _digits_where(values: bytes, value: int) -> bytes:
    """Binary digits, digit i "1" exactly where values[i] == value."""
    digits = bytearray(b"0" * 256)
    digits[value] = ord("1")
    return values.translate(digits)


def bits_where(values: bytes, value: int) -> int:
    """The int with bit i set exactly where values[i] == value."""
    return int(_digits_where(values, value)[::-1], 2)


def _bitset_search(table: bytearray, n: int, m: int, limit: float) -> list[int] | None:
    """The search on candidate bitsets over a byte table.

    After blocks A_1..A_j of color t, the next block is a mask x below
    the lowest bit of A_j with x | u of color t for every union u of the
    chosen blocks and for u = 0.  Masks of separated blocks are disjoint,
    so x | u = x + u, and those x are the set bits of an int C: C starts
    as the masks of color t, and choosing g makes it C & (C >> g), cut
    below the lowest bit of g.  A first block reads its C, the masks of
    its color below its lowest bit 2^w, and the 2^w masks from itself up,
    as windows of one digit string per color (built the first time a
    first block has that color), not by shifting a 2^n-bit int.

    Survivors are visited in canonical order.  Among the masks below 2^w
    (the blocks over {lo..n}, w = n - lo + 1), the mask x of lowest bit
    2^b is number 2^(w - b) - 1 - (x >> (b + 1)) in that order, and the
    node count adds the gaps between survivors, so every candidate skipped
    counts as examined, as in the scan.

    That order matters only for a subtree holding a family.  So each level
    first settles its subtree unordered (settle): 2^w - 1 for its own
    candidates, plus, for each survivor x of lowest bit 2^b, 2^b - 1 if
    nothing can follow x, else the count below x.  Only a mask y < 2^b
    with y and x + y candidates can follow x, so two classes of survivors
    are counted in bulk: an odd x adds 0, and an x = 2 (mod 4) adds 1,
    which is also the count below it (mask 1 alone) unless that is the
    last block of a family.  One AND with a pattern of 0x44 bytes and one
    bit_count take them all; only survivors = 0 (mod 4), picked by a
    pattern of 0x11 bytes, are walked, in any order.  settle gives up at a
    family, or once the count passes the room left in the budget; then the
    ordered visit runs.  Counts only grow, so a settled count within the
    room means no budget check inside the subtree could have raised.
    """
    digits = {}
    nodes = 0
    size = ((1 << n) + 7) >> 3
    twos = int.from_bytes(b"\x44" * size, "little")
    fours = int.from_bytes(b"\x11" * size, "little")

    def settle(depth: int, cands: int, w: int, room: float) -> int | None:
        if depth == m - 1:
            return None
        leaves = cands & twos
        # Mask 1 follows a survivor x = 2 (mod 4) when 1 and x + 1 are
        # candidates; one level from the end that completes a family.
        if depth == m - 2 and cands & 2 and leaves & (cands >> 1):
            return None
        count = (1 << w) - 1 + leaves.bit_count()
        if count > room:
            return None
        walk = cands & fours
        while walk:
            x = walk.bit_length() - 1
            walk ^= 1 << x
            low = x & -x
            inner = cands & (cands >> x) & ((1 << low) - 1)
            if inner:
                below = settle(depth + 1, inner, low.bit_length() - 1, room - count)
                if below is None:
                    return None
                count += below
            else:
                count += low - 1
            if count > room:
                return None
        return count

    def extend(chosen: list[int], cands: int, w: int):
        nonlocal nodes
        count = settle(len(chosen), cands, w, limit - nodes)
        if count is not None:
            nodes += count
            return None
        last = len(chosen) == m - 1
        seen = 0
        for x in sorted(_bits_descending(cands), key=lambda x: x & -x, reverse=True):
            low = x & -x
            index = (1 << w) // low - 1 - x // (low << 1)
            nodes += index - seen
            seen = index
            if nodes > limit:
                raise _over_budget(limit)
            if last:
                return chosen + [x]
            inner = cands & (cands >> x) & ((1 << low) - 1)
            if inner:
                found = extend(chosen + [x], inner, low.bit_length() - 1)
                if found is not None:
                    return found
            else:
                nodes += low - 1
        nodes += (1 << w) - 1 - seen
        return None

    if m == 1:
        return [1 << (n - 1)]
    # No block follows one that contains n: the 2^(n - 1) of them are one
    # node each, taken last.
    for mx in range(1, n):
        # Every block here has lowest bit low, so its candidates lie below
        # low in the bits of its color: cut once per color.
        low = 1 << (n - mx)
        below = {}
        for block in _block_masks(1, mx, n):
            nodes += 1
            if nodes > limit:
                raise _over_budget(limit)
            t = table[block]
            if t not in below:
                if t not in digits:
                    digits[t] = _digits_where(table, t)
                below[t] = int(digits[t][:low][::-1], 2)
            inner = below[t] & int(digits[t][block:block + low][::-1], 2)
            if inner:
                found = extend([block], inner, n - mx)
                if found is not None:
                    return found
            else:
                nodes += low - 1
    nodes += 1 << (n - 1)
    if nodes > limit:
        raise _over_budget(limit)
    return None


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

    The colors are tabulated by block mask, 2^n entries, so n is capped at
    MAX_RANDOM_N and refused before anything is drawn.  The table is the
    coloring's, which the search reads directly: a bytearray up to 255
    classes (1 MiB at n = 20), else a list.

    Block i in canonical order gets the i-th value of
    Random(seed).randint(1, classes), drawn in bulk (_randint_draws).  The
    blocks whose largest element is mx are the masks low, 3 * low, ...
    below 2^n, low = 2^(n - mx), drawn in descending order, so each block
    size mx takes its colors with one reversed slice.
    """
    if n > MAX_RANDOM_N:
        raise ValueError(
            f"random coloring tabulates 2^n - 1 subsets; n = {n} exceeds the cap {MAX_RANDOM_N}"
        )
    if classes > MAX_RANDOM_CLASSES:
        raise ValueError(
            "random coloring draws each color from one 32-bit word; "
            f"classes = {classes} exceeds the cap {MAX_RANDOM_CLASSES}"
        )
    # Built first so n and classes are validated before the table exists;
    # the lookup reads table only when called.
    coloring = SubsetColoring(n, classes, lambda b: table[_mask_of(b, n)])
    colors = _randint_draws(random.Random(seed), classes, (1 << n) - 1)
    table = bytearray(1 << n) if classes < 256 else [0] * (1 << n)
    for mx in range(1, n + 1):
        low, size = 1 << (n - mx), 1 << (mx - 1)
        table[low::2 * low] = colors[2 * size - 2:size - 2 if size > 1 else None:-1]
    return replace(coloring, table=table)


def _randint_draws(rng: random.Random, classes: int, count: int) -> bytearray | list[int]:
    """The next count values of rng.randint(1, classes), drawn in bulk.

    On CPython 3.10-3.13, randint(1, classes) is 1 + r for the first r <
    classes among the top k = classes.bit_length() bits of successive
    32-bit Mersenne Twister words, and getrandbits(32 * w) holds the next w
    words, the first lowest.  So the words are drawn in chunks of at most
    _DRAW_WORDS, read as little-endian bytes, and filtered.  Up to 255
    classes (k <= 8) the colors are a bytearray: the top byte of each word
    is translated to its color and the rejected bytes are deleted, in one
    bytes.translate per chunk.  More classes give a list, one comprehension
    per chunk over the words unpacked as little-endian.  A draw is kept
    with probability at least 1/2, so a chunk asks for twice the colors
    still missing, plus a few; the draws past count are discarded.
    """
    k = classes.bit_length()
    if classes < 256:
        colors = bytearray()
        keep = bytes(min(255, 1 + (b >> (8 - k))) for b in range(256))
        drop = bytes(b for b in range(256) if b >> (8 - k) >= classes)
    else:
        colors = []
    while len(colors) < count:
        words = min(_DRAW_WORDS, 2 * (count - len(colors)) + 64)
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        if classes < 256:
            colors += raw[3::4].translate(keep, drop)
        else:
            tops = (w >> (32 - k) for (w,) in struct.iter_unpack("<I", raw))
            colors += [r + 1 for r in tops if r < classes]
    del colors[count:]
    return colors
