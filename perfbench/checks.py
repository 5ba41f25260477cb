"""Independent checks of multlab answers; nothing here imports multlab.

Function values are recomputed by trial division (sieve-bounded functions)
or by valuations found through repeated squaring (finite-support functions
on bignums), so a defect in multlab's sieve, valuation or evaluator cannot
hide itself by also passing its own check.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations


class CheckFailed(Exception):
    """An answer is wrong, or differs from the recorded one."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def digest(obj) -> str:
    """Short hash of a JSON-able value, for answers too long to record."""
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def int_digest(values) -> str:
    """Short hash of nonnegative integers of any size, without str()."""
    h = hashlib.sha256()
    for v in values:
        h.update(v.to_bytes((v.bit_length() + 7) // 8 or 1, "big"))
        h.update(b"|")
    return h.hexdigest()[:16]


def trial_division_classes(limit: int, k: int, prime_class) -> tuple[list[int], list[int]]:
    """Classes of 0..limit and the primes up to limit, by trial division."""
    vals = [0] * (limit + 1)
    primes: list[int] = []
    for n in range(2, limit + 1):
        m, total = n, 0
        for p in primes:
            if p * p > m:
                break
            while m % p == 0:
                m //= p
                total += prime_class(p)
        if m > 1:
            if m == n:
                primes.append(n)
            total += prime_class(m)
        vals[n] = total % k
    return vals, primes


def naive_class(n: int, k: int, prime_class) -> int:
    """Class of one n >= 1 by trial division."""
    total, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            total += prime_class(d)
        d += 1 if d == 2 else 2
    if n > 1:
        total += prime_class(n)
    return total % k


def check_certificate(cert: dict):
    """The assignment covers exactly the primes <= B + r - 1 and avoids r-runs."""
    k, r, B = cert["k"], cert["r"], cert["B"]
    classes = dict(cert["assignment"])
    require(len(classes) == len(cert["assignment"]), "certificate repeats a prime")
    require(all(0 <= c < k for c in classes.values()), "certificate class out of range")
    vals, primes = trial_division_classes(B + r - 1, k, classes.get)
    require(sorted(classes) == primes, f"certificate keys are not the primes up to {B + r - 1}")
    for a in range(1, B + 1):
        if all(vals[n] == 0 for n in range(a, a + r)):
            raise CheckFailed(f"certificate has a kernel run at {a}")


def fs_sums(generators) -> set[int]:
    sums = {0}
    for g in generators:
        sums |= {s + g for s in sums}
    sums.discard(0)
    return sums


def check_sieve_witness(func: dict, generators: list[int]):
    """Every subset sum s of the generators has f(s) = f(s + 1) = class 0."""
    require(func["mode"] == "sieve-bounded", "expected a sieve-bounded function")
    require(all(a < b for a, b in zip(generators, generators[1:])) and generators[0] >= 1,
            "generators are not positive and increasing")
    k, default = func["k"], func["default"]
    classes = dict(func["assignment"])

    def prime_class(p):
        return classes.get(p, default)

    for s in sorted(fs_sums(generators)):
        require(s + 1 <= func["limit"], f"subset sum {s} is beyond the function's limit")
        require(naive_class(s, k, prime_class) == 0 and naive_class(s + 1, k, prime_class) == 0,
                f"subset sum {s} is not a kernel pair")


def valuation(n: int, p: int) -> int:
    """Exponent of p in n >= 1, dividing out p^(2^j) in large steps."""
    e = 0
    while n % p == 0:
        q, step = p, 1
        while n % (q * q) == 0:
            q, step = q * q, step * 2
        n //= q
        e += step
    return e


def finite_support_class(n: int, k: int, assignment: dict[int, int]) -> int:
    return sum(valuation(n, p) * c for p, c in assignment.items() if c) % k


def check_proof_witness(terms, k: int, assignment: dict[int, int],
                        blocks, b1: int, generators):
    """Blocks are separated, block sums scale to the generators, the class is
    constant on the union closure, and every subset sum is a kernel pair."""
    require(all(max(a) < min(b) for a, b in zip(blocks, blocks[1:])), "blocks are not separated")
    sums = [sum(terms[i] for i in block) for block in blocks]
    require(sums[0] == b1, "b1 is not the first block sum")
    require(list(generators) == [s // b1 for s in sums[1:]]
            and all(s % b1 == 0 for s in sums[1:]), "generators are not block sums over b1")
    colors = {finite_support_class(sum(sums[i] for i in range(len(sums)) if mask >> i & 1),
                                   k, assignment)
              for mask in range(1, 1 << len(sums))}
    require(len(colors) == 1, "class is not constant on the union closure")
    for s in fs_sums(generators):
        require(finite_support_class(s, k, assignment) == 0
                and finite_support_class(s + 1, k, assignment) == 0,
                "a generator subset sum is not a kernel pair")


def random_coloring_table(n: int, classes: int, seed: int) -> dict[tuple[int, ...], int]:
    """Colors 1..classes drawn for the subsets of {1..n} by max element, then lex."""
    rng = random.Random(seed)
    table = {}
    for mx in range(1, n + 1):
        below = range(1, mx)
        blocks = sorted(c + (mx,) for size in range(mx) for c in combinations(below, size))
        for block in blocks:
            table[block] = rng.randint(1, classes)
    return table


def check_family(blocks, m: int, n: int, table: dict, color: int):
    """m separated blocks in 1..n whose unions all have the given color."""
    blocks = [tuple(b) for b in blocks]
    require(len(blocks) == m, f"family has {len(blocks)} blocks, expected {m}")
    require(all(b and list(b) == sorted(set(b)) for b in blocks), "a block is not a sorted set")
    require(blocks[0][0] >= 1 and blocks[-1][-1] <= n, "a block leaves the universe")
    require(all(a[-1] < b[0] for a, b in zip(blocks, blocks[1:])), "blocks are not separated")
    for mask in range(1, 1 << m):
        union = tuple(x for i, b in enumerate(blocks) if mask >> i & 1 for x in b)
        require(table[union] == color, f"union {union} is not colored {color}")


def family_exists(m: int, n: int, table: dict) -> bool:
    """Whether some m separated blocks in 1..n have a monochromatic union closure.

    An exhaustive search over blocks as bitmasks (bit i - 1 for element i):
    a block is tried only above the previous one, with room left for the
    blocks still to come, and only while every union formed so far keeps
    the first block's color.
    """
    color = [0] * (1 << n)
    for block, c in table.items():
        color[sum(1 << (x - 1) for x in block)] = c

    def extend(unions: list[int], target: int, lo: int, left: int) -> bool:
        if left == 0:
            return True
        step = 1 << (lo - 1)
        for b in range(step, 1 << (n - left + 1), step):
            c = color[b]
            if target and c != target:
                continue
            if all(color[u | b] == c for u in unions):
                grown = unions + [u | b for u in unions] + [b]
                if extend(grown, c, b.bit_length() + 1, left - 1):
                    return True
        return False

    return extend([], 0, 1, m)


def separated_pairs(n: int) -> int:
    """Pairs A < B of nonempty subsets of {0..n}: 2^j choices of A with max j,
    times 2^(n-j) - 1 choices of B above j."""
    return sum(2 ** j * (2 ** (n - j) - 1) for j in range(n + 1))
