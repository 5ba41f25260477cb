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
  to 1..limit.  Nothing is allocated by ``limit``: listed keys are checked
  on a byte sieve up to the largest of them, a single value is found by
  trial division, and a table of values up to some bound by byte-slice
  arithmetic up to that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import methodcaller, not_
from typing import Callable, Mapping

from .arith import PRIME_TEST_BOUND, is_prime, prime_flags, valuation

FINITE_SUPPORT = "finite-support"
SIEVE_BOUNDED = "sieve-bounded"
# Most entries of a class table; runs --bound 10**7 peaks at 170-320 MiB.
MAX_TABLE_UPTO = 10**8


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
        # Sieve-bounded keys in 2..limit are checked on byte flags up to the
        # largest of them, unless is_prime is cheaper: a sieve to top costs
        # about 6 ns per entry, is_prime about 26 us per prime key (13
        # modular powers; Python 3.11, one core of a shared 2-CPU host).
        # Keys outside 2..limit fail either way and go to is_prime.
        on_sieve = (
            [p for p in self.assignment if 2 <= p <= self.limit]
            if self.mode == SIEVE_BOUNDED
            else []
        )
        top = max(on_sieve, default=1)
        flags = prime_flags(top) if top <= 4096 * len(on_sieve) else None
        for p, c in self.assignment.items():
            if not (flags[p] if flags is not None and 2 <= p <= top else _key_is_prime(p)):
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

    def prime_class(self, p: int) -> int:
        return self.assignment.get(p, self.default_class)

    def evaluate(self, n: int) -> int:
        """Class of n: sum of e_p * class(p) mod k over n = prod p^e_p.

        A finite-support function takes one valuation per listed prime, so n
        may be any size; a sieve-bounded one factors n <= limit by trial
        division, in O(sqrt(n)).  Tables of many values come from
        ``class_table``.
        """
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
        p = 2
        while p * p <= n:
            if not n % p:
                e = 0
                while not n % p:
                    n //= p
                    e += 1
                total += e * self.prime_class(p)
            p += 1 if p == 2 else 2
        if n > 1:
            total += self.prime_class(n)
        return total % self.k


def _key_is_prime(p: int) -> bool:
    try:
        return is_prime(p)
    except ValueError:
        raise ValueError(
            f"assignment key {p} is too large to test for primality; "
            f"keys must be below {PRIME_TEST_BOUND}"
        ) from None


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


def class_table(f: MultiplicativeFunction, upto: int) -> bytearray | list[int]:
    """Classes of 0..upto (entry 0 is padding): a bytearray for k <= 256,
    else a list[int].

    The table starts at class 0 and every power q = p^j <= upto of a prime
    of nonzero class c adds c to every multiple of q, with one slice read
    and one slice write: a byte translation for bytearrays, a map for
    lists.  The primes are the listed ones when the default class is 0
    (every finite-support function), else those flagged by a byte sieve to
    upto.  Nothing is sized by the function's limit.
    """
    if upto < 1:
        raise ValueError(f"class_table needs upto >= 1, got {upto}")
    if upto > MAX_TABLE_UPTO:
        raise ValueError(f"class table up to {upto} exceeds the cap {MAX_TABLE_UPTO}")
    if f.mode == SIEVE_BOUNDED and upto > f.limit:
        raise ValueError(f"{upto} exceeds evaluable range 1..{f.limit}")
    k = f.k
    val = bytearray(upto + 1) if k <= 256 else [0] * (upto + 1)
    if k == 1:
        return val
    default = f.default_class
    if default:
        primes = compress(range(upto + 1), prime_flags(upto))
    else:
        primes = (p for p in f.assignment if p <= upto)
    prime_class = f.assignment.get
    shifts = {}
    for p in primes:
        c = prime_class(p, default)
        if not c:
            continue
        shift = shifts.get(c)
        if shift is None:
            shift = shifts[c] = _class_shift(k, c)
        q = p
        while q <= upto:
            val[q::q] = shift(val[q::q])
            q *= p
    return val


def _class_shift(k: int, c: int) -> Callable:
    """Slice primitive adding class c mod k to every entry of a table slice."""
    if k <= 256:
        return methodcaller("translate", bytes(range(c, k)) + bytes(range(c)) + bytes(256 - k))
    return lambda part: list(map(k.__rmod__, map(c.__add__, part)))


# Byte translation sending class 0 to 1 and every other class to 0.
_KERNEL_FLAG = bytes([1]) + bytes(255)


def find_runs(f: MultiplicativeFunction, r: int, bound: int) -> list[int]:
    """All a <= bound with f(a), f(a+1), ..., f(a+r-1) in the kernel.

    The kernel flags of 0..bound + r - 1 become one little-endian int, a
    byte per integer; ANDing it with itself shifted down by whole bytes
    leaves a 1 in byte a exactly when a starts a run.  Needs bound + r - 1
    evaluable.
    """
    if r < 1:
        raise ValueError(f"run length must be >= 1, got {r}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    upto = bound + r - 1
    vals = class_table(f, upto)
    flags = vals.translate(_KERNEL_FLAG) if isinstance(vals, bytearray) else bytes(map(not_, vals))
    hits = int.from_bytes(flags, "little")
    covered = 1  # byte a of hits: the kernel holds a..a + covered - 1
    while covered < r:
        step = min(covered, r - covered)
        hits &= hits >> (8 * step)
        covered += step
    return list(compress(range(1, bound + 1), hits.to_bytes(upto + 1, "little")[1 : bound + 1]))
