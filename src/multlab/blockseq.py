"""Block-divisible integer sequences and index-set (block) utilities.

The generated sequence starts s_0 = 1 and satisfies

    s_{n+1} = product over all nonempty A subseteq {0..n} of s_A,

where s_A denotes the sum of the terms indexed by A.  Every s_A with
max(A) <= n divides s_{n+1}, so whenever A precedes B (max A < min B) the
sum s_B is a sum of multiples of s_A and s_A | s_B.  Growth is doubly
exponential, hence the digit limit on every term built.  The same
recurrence taken mod q gives s_0..s_n mod q (term_residues) without
forming any term, which is all a p-adic valuation of a block sum needs.
Every finite-sum or finite-union closure in multlab is all_subset_sums,
but for fs_closure (it drops repeats) and the searches (they grow theirs).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from typing import Iterable, Sequence

# Most decimal digits of a term built here, and of a decimal string a
# witness document may hold.  s_7 has 710 086 digits; s_8 would have about
# 8.7 * 10^7, and parsing 10^6 digits takes about a second.
MAX_DECIMAL_DIGITS = 1_000_000

# Decimal digit counts of s_0..s_5; later terms multiply digits by ~2^n.
_DIGIT_TABLE = [1, 1, 1, 3, 20, 332]

# Last index whose digit estimate is formed as a number (n = 10^6 would take ~62 GB).
_LAST_ESTIMATE = 11


def normalize_index_set(indices: Iterable[int]) -> tuple[int, ...]:
    """Sorted tuple of distinct nonnegative indices; rejects empty input."""
    out = tuple(sorted(indices))
    if not out:
        raise ValueError("index set must be nonempty")
    if out[0] < 0:
        raise ValueError(f"index set {out} contains a negative index")
    if any(map(eq, out, out[1:])):
        raise ValueError(f"index set {out} repeats an index")
    return out


def precedes(a: Sequence[int], b: Sequence[int]) -> bool:
    """Separation order on nonempty index sets: every element of a is below b."""
    if not a or not b:
        raise ValueError("separation order is defined on nonempty index sets")
    return max(a) < min(b)


def _term_text(t: int) -> str:
    """A term for messages: in full up to 64 bits, else by its bit length.

    s_6 is already past Python's int -> str digit limit, and s_7 has
    710 086 digits, so a repr or error message never spells those out.
    """
    bits = t.bit_length()
    return str(t) if bits <= 64 else f"<{bits}-bit integer>"


@dataclass(frozen=True, repr=False)
class BlockSequence:
    """Terms s_0..s_n; s_0 = 1 and the terms increase strictly from s_1 on."""

    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("sequence needs at least the term s_0")
        if self.terms[0] != 1:
            raise ValueError(f"s_0 must be 1, got {_term_text(self.terms[0])}")
        if any(t < 1 for t in self.terms):
            raise ValueError("all terms must be positive")
        for i in range(1, len(self.terms) - 1):
            if self.terms[i] >= self.terms[i + 1]:
                raise ValueError(
                    f"terms must increase strictly from s_1 on; "
                    f"s_{i} = {_term_text(self.terms[i])} >= "
                    f"s_{i + 1} = {_term_text(self.terms[i + 1])}"
                )

    def __repr__(self) -> str:
        shown = ", ".join(map(_term_text, self.terms))
        return f"BlockSequence(terms=({shown}{',' if len(self.terms) == 1 else ''}))"

    @property
    def n(self) -> int:
        return len(self.terms) - 1


def subset_sum(seq: BlockSequence, indices: Iterable[int]) -> int:
    """s_A: sum of the terms indexed by the nonempty set A."""
    block = normalize_index_set(indices)
    if block[-1] > seq.n:
        raise ValueError(f"index {block[-1]} exceeds last term index {seq.n}")
    return sum(seq.terms[i] for i in block)


def all_subset_sums(items: Sequence, empty=0) -> list:
    """sums[mask] = empty plus the items[i] at the set bits i of mask, added
    by increasing i: tuples concatenate in order, disjoint bitmasks unite."""
    sums = [empty]
    for item in items:
        sums += [s + item for s in sums]
    return sums


def _balanced_product(values: Sequence[int]) -> int:
    """Product via a balanced tree; keeps bignum factor sizes comparable."""
    if not values:
        return 1
    layer = list(values)
    while len(layer) > 1:
        nxt = [layer[i] * layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def estimated_digits(n: int) -> int:
    """Rough decimal digit count of s_n (exact for n <= 5), for n <= 11."""
    if n < 0:
        raise ValueError(f"term index must be >= 0, got {n}")
    if n > _LAST_ESTIMATE:
        raise ValueError(f"digit estimates stop at s_{_LAST_ESTIMATE}, got n = {n}")
    if n < len(_DIGIT_TABLE):
        return _DIGIT_TABLE[n]
    return _DIGIT_TABLE[5] * 2 ** (n * (n - 1) // 2 - 10)


def _digits_text(n: int) -> str:
    """estimated_digits(n) for messages; past n = 11 as a power of two, so
    refusing a huge n never forms the estimate itself."""
    if n <= _LAST_ESTIMATE:
        return str(estimated_digits(n))
    return f"{_DIGIT_TABLE[5]} * 2^{n * (n - 1) // 2 - 10}"


# Last index whose term fits the digit limit: s_7 (710 086 digits).
_LAST_TERM = max(
    n for n in range(_LAST_ESTIMATE + 1) if estimated_digits(n) <= MAX_DECIMAL_DIGITS
)


def check_term_size(n: int) -> None:
    """Refuse s_n, before any product is formed, past MAX_DECIMAL_DIGITS digits."""
    if n > _LAST_TERM:
        raise ValueError(
            f"refusing s_{n}: it would have roughly {_digits_text(n)} decimal digits, "
            f"over the cap of {MAX_DECIMAL_DIGITS} decimal digits"
        )


def term_residues(n: int, q: int) -> list[int]:
    """s_0..s_n mod q from the recurrence, forming no term.

    Each s_j mod q is the product, mod q, of the nonempty subset sums of
    the residues before it.  The work is about 2^(n+1) sums and products
    of numbers below (n + 1) * q, so callers bound n.
    """
    residues = [1 % q]
    for _ in range(n):
        top = 1
        for s in all_subset_sums(residues)[1:]:
            top = top * s % q
        residues.append(top)
    return residues


def generate_block_sequence(n: int) -> BlockSequence:
    """Terms s_0..s_n of the product-over-blocks recurrence.

    Refuses any s_n past MAX_DECIMAL_DIGITS decimal digits (s_8 has about
    8.7 * 10^7) before any product is formed.  This is the only place
    terms are built; the proof pipeline colors blocks from term_residues.
    """
    if n < 0:
        raise ValueError(f"term count index must be >= 0, got {n}")
    check_term_size(n)
    terms = [1]
    for _ in range(n):
        terms.append(_balanced_product(all_subset_sums(terms)[1:]))
    return BlockSequence(terms)


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of a check over every separated pair; truthy exactly when it passed."""

    ok: bool
    checked: int
    counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_block_divisibility(seq: BlockSequence) -> DivisibilityReport:
    """Check s_A | s_B for every separated pair A, B of index sets.

    The proof takes one product per cut.  For lo = 1..n, Q_lo is the
    product of s_A over every nonempty A within {0..lo-1}, and the check is
    Q_lo | s_lo.  Together these prove every pair: if max A < lo = min B,
    then s_A is a factor of Q_lo, and each j in B has j >= lo, so
    Q_lo | Q_j | s_j and Q_lo | s_B.  So n checks stand for all
    (n - 1) * 2^n + 1 pairs (769 at n = 7), and the report counts those.
    A generated sequence has s_lo = Q_lo, which needs no division.

    The products are a stronger condition than the pairs they cover.  When
    one check fails, the pairs are scanned one by one with A, then B, in
    block order (max element, then lex), and the first failing pair is
    reported, or the pass if none fails.
    """
    terms = seq.terms
    head = all_subset_sums(terms[:-1])
    for lo in range(1, len(terms)):
        q = _balanced_product(head[1 : 1 << lo])
        if terms[lo] != q and terms[lo] % q:
            return _pairwise_divisibility(seq)
    return DivisibilityReport(True, ((seq.n - 1) << seq.n) + 1)


def _pairwise_divisibility(seq: BlockSequence) -> DivisibilityReport:
    """Scan the pairs in block order, up to the first failure; each A keeps
    only the blocks starting above max A for B."""
    blocks = all_subset_sums([(i,) for i in range(len(seq.terms))], ())
    order = sorted(zip(blocks[1:], all_subset_sums(seq.terms)[1:]), key=lambda e: (e[0][-1], e[0]))
    checked = 0
    later = order
    for a, sa in order:
        later = [e for e in later if e[0][0] > a[-1]]
        for b, sb in later:
            checked += 1
            if sb % sa:
                return DivisibilityReport(False, checked, (a, b))
    return DivisibilityReport(True, checked)
