"""Completely multiplicative functions into the k-th roots of unity.

Values are encoded additively: the residue class c in Z/kZ stands for the
root e^(2*pi*i*c/k), so class 0 marks the kernel (function value 1) and
multiplying values becomes adding classes mod k.  A function is pinned down
by the classes it gives the primes; composites evaluate by summing
exponent-weighted prime classes.

Two storage modes:

* ``finite-support`` -- all but the listed primes map to class 0.  Such a
  function is evaluable at arbitrarily large integers, because only the
  valuations at the support primes matter.
* ``sieve-bounded`` -- every prime up to ``limit`` carries a class (listed
  explicitly or falling back to ``default_class``); evaluation is restricted
  to 1..limit and runs off a smallest-prime-factor sieve, built on
  construction when some prime is listed (the keys are checked on it) and
  otherwise at the first evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .arith import FactorizationSieve, build_sieve, is_prime, valuation

FINITE_SUPPORT = "finite-support"
SIEVE_BOUNDED = "sieve-bounded"


@dataclass(frozen=True)
class MultiplicativeFunction:
    k: int
    assignment: Mapping[int, int] = field(default_factory=dict)
    mode: str = FINITE_SUPPORT
    limit: int | None = None
    default_class: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"modulus k must be >= 1, got {self.k}")
        if self.mode not in (FINITE_SUPPORT, SIEVE_BOUNDED):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "assignment", dict(self.assignment))
        if self.mode == SIEVE_BOUNDED:
            if self.limit is None or self.limit < 2:
                raise ValueError("sieve-bounded mode needs limit >= 2")
            if not 0 <= self.default_class < self.k:
                raise ValueError(
                    f"default class {self.default_class} outside 0..{self.k - 1}"
                )
        else:
            if self.limit is not None:
                raise ValueError("finite-support mode takes no limit")
            if self.default_class != 0:
                raise ValueError("finite-support mode forces default class 0")
        # A sieve-bounded function checks its keys on the sieve it evaluates
        # with; keys outside 2..limit fail either way and take trial division.
        spf = self._sieve.spf if self.mode == SIEVE_BOUNDED and self.assignment else None
        for p, c in self.assignment.items():
            on_sieve = spf is not None and 2 <= p <= self.limit
            if not (spf[p] == p if on_sieve else is_prime(p)):
                raise ValueError(f"assignment key {p} is not prime")
            if not 0 <= c < self.k:
                raise ValueError(f"class {c} for prime {p} outside 0..{self.k - 1}")
            if self.mode == SIEVE_BOUNDED and p > self.limit:
                raise ValueError(f"assigned prime {p} exceeds limit {self.limit}")

    @classmethod
    def finite_support(cls, k: int, assignment: Mapping[int, int]) -> "MultiplicativeFunction":
        return cls(k, assignment, mode=FINITE_SUPPORT)

    @classmethod
    def sieve_bounded(
        cls,
        k: int,
        assignment: Mapping[int, int],
        limit: int,
        default_class: int = 0,
    ) -> "MultiplicativeFunction":
        return cls(k, assignment, mode=SIEVE_BOUNDED, limit=limit, default_class=default_class)

    @cached_property
    def _sieve(self) -> FactorizationSieve:
        return build_sieve(self.limit)

    def prime_class(self, p: int) -> int:
        return self.assignment.get(p, self.default_class)

    def evaluate(self, n: int) -> int:
        """Class of n: sum of e_p * class(p) mod k over n = prod p^e_p."""
        if n < 1:
            raise ValueError(f"evaluate needs n >= 1, got {n}")
        if self.k == 1:
            return 0
        if self.mode == FINITE_SUPPORT:
            total = 0
            for p, c in self.assignment.items():
                if c:
                    total += valuation(n, p) * c
            return total % self.k
        if n > self.limit:
            raise ValueError(f"{n} exceeds evaluable range 1..{self.limit}")
        total = 0
        spf = self._sieve.spf
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            total += e * self.prime_class(p)
        return total % self.k


def function_to_dict(f: MultiplicativeFunction) -> dict:
    """JSON-ready function spec; assignment sorted by prime."""
    return {
        "k": f.k,
        "mode": f.mode,
        "limit": f.limit,
        "default": f.default_class,
        "assignment": [[p, c] for p, c in sorted(f.assignment.items())],
    }


def assignment_from_pairs(raw: object, field: str) -> dict[int, int]:
    """Prime classes from a JSON list of [prime, class] pairs.

    field names the document field in error messages; values are range
    checked by the constructor the caller feeds the result to.
    """
    if not isinstance(raw, list):
        raise ValueError(f"{field} must be a list of [prime, class] pairs")
    assignment = {}
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, int) for x in entry)
        ):
            raise ValueError(f"{field} must contain [prime, class] integer pairs")
        p, c = entry
        if p in assignment:
            raise ValueError(f"{field} repeats prime {p}")
        assignment[p] = c
    return assignment


def function_from_dict(doc: object) -> MultiplicativeFunction:
    """Parse a function spec document, naming the offending field on error."""
    if not isinstance(doc, dict):
        raise ValueError("function spec must be a JSON object")
    k = doc.get("k")
    if not isinstance(k, int) or k < 1:
        raise ValueError("function spec field 'k' must be a positive integer")
    mode = doc.get("mode", FINITE_SUPPORT)
    if mode not in (FINITE_SUPPORT, SIEVE_BOUNDED):
        raise ValueError(
            f"function spec field 'mode' must be {FINITE_SUPPORT!r} or {SIEVE_BOUNDED!r}"
        )
    limit = doc.get("limit")
    if limit is not None and not isinstance(limit, int):
        raise ValueError("function spec field 'limit' must be an integer or null")
    default = doc.get("default", 0)
    if not isinstance(default, int):
        raise ValueError("function spec field 'default' must be an integer")
    assignment = assignment_from_pairs(
        doc.get("assignment", []), "function spec field 'assignment'"
    )
    try:
        return MultiplicativeFunction(
            k, assignment, mode=mode, limit=limit, default_class=default
        )
    except ValueError as exc:
        raise ValueError(f"function spec invalid: {exc}") from exc


def class_table(f: MultiplicativeFunction, upto: int) -> list[int]:
    """Classes of 0..upto in one sieve pass (entry 0 is padding).

    For finite-support functions a transient sieve is built, so this is only
    meant for desk-scale scans; bignum arguments go through ``evaluate``.
    """
    if upto < 1:
        raise ValueError(f"class_table needs upto >= 1, got {upto}")
    if f.mode == SIEVE_BOUNDED:
        if upto > f.limit:
            raise ValueError(f"{upto} exceeds evaluable range 1..{f.limit}")
        sieve = f._sieve
    else:
        sieve = build_sieve(max(upto, 2))
    k = f.k
    val = [0] * (upto + 1)
    if k == 1:
        return val
    spf = sieve.spf
    prime_class = f.assignment.get
    default = f.default_class
    for n in range(2, upto + 1):
        p = spf[n]
        val[n] = (val[n // p] + prime_class(p, default)) % k
    return val


def find_runs(f: MultiplicativeFunction, r: int, bound: int) -> list[int]:
    """All a <= bound with f(a), f(a+1), ..., f(a+r-1) in the kernel.

    Exhaustive increasing scan; needs bound + r - 1 evaluable.
    """
    if r < 1:
        raise ValueError(f"run length must be >= 1, got {r}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    vals = class_table(f, bound + r - 1)
    runs = []
    length = 0  # kernel values ending at n
    for n in range(1, bound + r):
        length = 0 if vals[n] else length + 1
        if length >= r:
            runs.append(n - r + 1)
    return runs
