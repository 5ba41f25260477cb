"""Finite-sums witnesses that a kernel meets its own shift.

An IP-witness for a completely multiplicative function f consists of
generators a_1 < ... < a_t such that every nonempty subset sum s
satisfies f(s) = 1 and f(s + 1) = 1 (classes 0 in the additive encoding):
all finite sums land in the kernel intersected with the kernel shifted
down by one.

Two producers are provided.  The constructive pipeline colors the blocks
of a block-divisible sequence by the class of their term sum, extracts a
monochromatic finite-union family A_1 < ... < A_m, and divides the block
sums b_i by b_1; divisibility of the sums and constancy of the class on
the union closure make every quotient sum plus the implicit 1 collapse
back into the monochromatic family.  The colors come from residues of
the terms alone; the terms themselves are built only up to the largest
index the family found uses.  The direct search instead looks among the
kernel pairs f(a) = f(a + 1) = 1 below a bound for a subset-sum-closed
subfamily, with the pairs, and the candidates left at each depth, held
as bits of one int.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import compress

from .arith import decimal_to_int, int_to_decimal, valuation
from .blockseq import (
    MAX_DECIMAL_DIGITS,
    all_subset_sums,
    check_term_size,
    generate_block_sequence,
    term_residues,
)
from .hindman import (
    BlockFamily,
    SearchBudgetExceeded,
    SubsetColoring,
    bits_where,
    fu_closure,
    monochromatic_fu_search,
    node_limit,
)
from .multfunc import (
    FINITE_SUPPORT,
    MultiplicativeFunction,
    function_from_dict,
    function_to_dict,
    run_mask,
)

PROOF_PIPELINE = "proof-pipeline"
DIRECT_SEARCH = "direct-search"

# Most generators of a witness: 2^20 subset sums, random_coloring's bound.
MAX_GENERATORS = 20


@dataclass(frozen=True)
class IPWitness:
    """Generators plus the function they witness and how they were found.

    b1 is the normalizing divisor used by the pipeline (1 for direct
    searches); blocks, when present, are the finite-union family the
    generators came from, A_1 first.
    """

    func: MultiplicativeFunction
    b1: int
    generators: tuple[int, ...]
    provenance: str
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.provenance not in (PROOF_PIPELINE, DIRECT_SEARCH):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.b1 < 1:
            raise ValueError(f"normalizing divisor must be >= 1, got {self.b1}")
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("witness needs at least one generator")
        if len(gens) > MAX_GENERATORS:
            raise ValueError(f"{len(gens)} generators exceed the cap {MAX_GENERATORS}")
        if gens[0] < 1 or any(a >= b for a, b in zip(gens, gens[1:])):
            raise ValueError(f"generators must be positive and strictly increasing: {gens}")
        if self.blocks is not None:
            object.__setattr__(self, "blocks", BlockFamily(self.blocks).blocks)


def fs_closure(generators: tuple[int, ...]) -> list[int]:
    """Distinct nonempty subset sums of the generators, sorted."""
    if not generators:
        raise ValueError("finite-sums closure needs at least one generator")
    return sorted(set(all_subset_sums(generators)[1:]))


def first_violation(witness: IPWitness) -> int | None:
    """Least subset sum s with f(s) or f(s + 1) outside class 0, else None.

    Raises ValueError when the function cannot evaluate some s or s + 1.
    """
    f = witness.func
    for s in fs_closure(witness.generators):
        if f.evaluate(s) != 0 or f.evaluate(s + 1) != 0:
            return s
    return None


def verify_witness(witness: IPWitness) -> bool:
    """Recheck the claim: every subset sum s has f(s) = f(s + 1) = class 0."""
    return first_violation(witness) is None


def block_sum_coloring(f: MultiplicativeFunction, n: int) -> SubsetColoring:
    """Color each block A of {1..n} by 1 + the class of its term sum s_A.

    No term is formed.  v_p(s_A) is read from the window
    x = (sum of s_i mod p^w over i in A) mod p^w, with w doubled from 64
    until x is nonzero: p^w divides s_A - x, so v_p(s_A) = v_p(x).  The
    residues s_0..s_n mod p^w (term_residues) are computed once per
    (p, w).  Needs a finite-support function, and keeps the digit limit of
    the terms before s_n, so n <= 8.
    """
    if f.mode != FINITE_SUPPORT:
        raise ValueError(f"block sums need a finite-support function, got mode {f.mode!r}")
    check_term_size(n - 1)
    support = [(p, c) for p, c in f.assignment.items() if c]

    @cache
    def window(p: int, w: int) -> tuple[int, list[int]]:
        q = p**w
        return q, term_residues(n, q)

    def color(block: tuple[int, ...]) -> int:
        total = 0
        for p, c in support:
            w = 64
            while True:
                q, residues = window(p, w)
                if x := sum(map(residues.__getitem__, block)) % q:
                    break
                w <<= 1
            total += valuation(x, p) * c
        return 1 + total % f.k

    return SubsetColoring(n, f.k, color)


def ip_witness_direct(
    f: MultiplicativeFunction,
    m: int,
    bound: int,
    *,
    node_budget: int | None = None,
) -> IPWitness | None:
    """Lexicographically least m generators taken from kernel pairs <= bound.

    Picks elements of S = {a <= bound : f(a) = f(a + 1) = class 0} in
    increasing order so every subset sum stays inside S.  The next
    generator must lie in C = {x : x + s in S for every subset sum s of the
    generators chosen, and s = 0}.  With S as the bits of an int, C starts
    as S, and choosing g makes it C & (C >> g), cut to x > g: one shift and
    AND per generator, however many candidates it rules out.  A node is a
    candidate generator examined in order; the candidates C skips between
    two survivors count too, by their ranks among the pairs, so the count
    is that of testing each candidate in turn.

    Returns None when no such m-subset exists below the bound; raises
    SearchBudgetExceeded if node_budget candidate generators were examined
    before either outcome.
    """
    if m < 1:
        raise ValueError(f"generator count must be >= 1, got {m}")
    if m > MAX_GENERATORS:
        raise ValueError(f"generator count m = {m} exceeds the cap {MAX_GENERATORS}")
    limit = node_limit(node_budget)
    flags = run_mask(f, 2, bound)
    pairs = list(compress(range(bound + 1), flags))  # for the ranks only
    nodes = 0

    def extend(chosen: tuple[int, ...], cands: int, start: int):
        # cands holds this depth's candidates, all of rank start or more.
        nonlocal nodes
        last = len(chosen) == m - 1
        rest = cands
        seen = start
        while rest:
            low = rest & -rest
            rest ^= low
            g = low.bit_length() - 1
            rank = bisect_left(pairs, g, seen)
            nodes += rank + 1 - seen
            seen = rank + 1
            if nodes > limit:
                raise SearchBudgetExceeded(f"direct witness search exceeded {node_budget} nodes")
            if last:
                return (*chosen, g)
            inner = rest & (cands >> g)
            if inner:
                found = extend((*chosen, g), inner, seen)
                if found is not None:
                    return found
            else:
                nodes += len(pairs) - seen
        nodes += len(pairs) - seen
        return None

    gens = extend((), bits_where(flags, 1), 0)
    if nodes > limit:
        raise SearchBudgetExceeded(f"direct witness search exceeded {node_budget} nodes")
    if gens is None:
        return None
    witness = IPWitness(f, 1, gens, DIRECT_SEARCH)
    if not verify_witness(witness):
        raise RuntimeError(f"direct search produced an invalid witness {gens}")
    return witness


def ip_witness_from_proof(
    f: MultiplicativeFunction,
    m: int,
    n_prefix: int,
    *,
    node_budget: int | None = None,
) -> IPWitness | None:
    """Witness from a monochromatic block family over s_1..s_{n_prefix}.

    Colors each block A of {1..n_prefix} by the class of s_A, searches for
    m separated blocks with monochromatic union closure, and normalizes
    the block sums by the first one.  For separated blocks b_1 divides
    every union sum, and constancy of the class on the closure forces
    every generator subset sum s to satisfy f(s) = f(s + 1) = class 0:
    s and s + 1 are quotients by b_1 of two closure sums.

    Blocks are colored from residues of s_0..s_{n_prefix} (see
    block_sum_coloring).  Terms are built once, up to the largest index
    the family found uses, and are refused past MAX_DECIMAL_DIGITS digits
    there.  The checks sum block sums into union sums, so the first sum
    b_1 fails to divide is a block's.

    Needs a finite-support function: the block sums are far too large for
    any sieve.  Returns None when the finite prefix admits no family;
    raises SearchBudgetExceeded when the block search runs out of nodes.
    """
    if f.mode != FINITE_SUPPORT:
        raise ValueError(f"pipeline needs a finite-support function, got mode {f.mode!r}")
    if m < 2:
        raise ValueError(f"pipeline needs m >= 2 blocks (m - 1 generators), got {m}")
    if n_prefix < 1:
        raise ValueError(f"prefix length must be >= 1, got {n_prefix}")
    family = monochromatic_fu_search(block_sum_coloring(f, n_prefix), m, node_budget=node_budget)
    if family is None:
        return None
    terms = generate_block_sequence(family.blocks[-1][-1]).terms
    sums = [sum(map(terms.__getitem__, block)) for block in family.blocks]
    b1 = sums[0]
    base = f.evaluate(b1)
    for union, s in zip(fu_closure(family), all_subset_sums(sums)[1:]):
        if s % b1:
            raise RuntimeError(
                f"block divisibility failed: s_{family.blocks[0]} does not divide s_{union}"
            )
        if f.evaluate(s) != base:
            raise RuntimeError(f"class not constant on the union closure at {union}")
    witness = IPWitness(f, b1, tuple(b // b1 for b in sums[1:]), PROOF_PIPELINE, family.blocks)
    if not verify_witness(witness):
        raise RuntimeError("pipeline produced an invalid witness")
    return witness


def witness_to_dict(witness: IPWitness) -> dict:
    """JSON-ready form; big integers travel as decimal strings of any length."""
    doc = {
        "k": witness.func.k,
        "function": function_to_dict(witness.func),
        "provenance": witness.provenance,
        "b1": int_to_decimal(witness.b1),
        "generators": [int_to_decimal(g) for g in witness.generators],
    }
    if witness.blocks is not None:
        doc["blocks"] = [list(block) for block in witness.blocks]
    return doc


def _parse_big(value: object, where: str) -> int:
    """An integer, or a decimal string of at most MAX_DECIMAL_DIGITS digits."""
    if type(value) is int:  # bool is an int subclass; JSON true is no number
        return value
    if isinstance(value, str):
        if len(value) > MAX_DECIMAL_DIGITS:
            raise ValueError(
                f"witness field {where!r} has {len(value)} characters, over the "
                f"cap of {MAX_DECIMAL_DIGITS} decimal digits"
            )
        try:
            return decimal_to_int(value)
        except ValueError:
            pass
    raise ValueError(f"witness field {where!r} must be a decimal string or integer")


def witness_from_dict(doc: object) -> IPWitness:
    if not isinstance(doc, dict):
        raise ValueError("witness must be a JSON object")
    func = function_from_dict(doc.get("function"))
    k = doc.get("k")
    if k is not None and (type(k) is not int or k != func.k):
        raise ValueError(f"witness field 'k' is {k!r} but the function has k = {func.k}")
    provenance = doc.get("provenance")
    if provenance not in (PROOF_PIPELINE, DIRECT_SEARCH):
        raise ValueError(
            f"witness field 'provenance' must be {PROOF_PIPELINE!r} or {DIRECT_SEARCH!r}"
        )
    b1 = _parse_big(doc.get("b1", 1), "b1")
    raw = doc.get("generators")
    if not isinstance(raw, list) or not raw:
        raise ValueError("witness field 'generators' must be a nonempty list")
    generators = tuple(_parse_big(g, "generators") for g in raw)
    blocks = doc.get("blocks")
    if blocks is not None:
        if not isinstance(blocks, list) or not all(
            isinstance(b, list) and all(type(i) is int for i in b) for b in blocks
        ):
            raise ValueError("witness field 'blocks' must be a list of integer lists")
        blocks = tuple(tuple(b) for b in blocks)
    try:
        return IPWitness(func, b1, generators, provenance, blocks)
    except ValueError as exc:
        raise ValueError(f"witness invalid: {exc}") from exc
