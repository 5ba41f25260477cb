"""Prime sieving, p-adic valuation, and decimal conversion.

The decimal converters lift Python's int <-> str digit limit (4300 digits
by default) without touching it: the limit is process-wide, and the
sequence terms and witness generators run far past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


@dataclass(frozen=True)
class FactorizationSieve:
    """Smallest-prime-factor table for every n in 2..limit.

    spf[n] is the least prime dividing n; entries at 0 and 1 are unused.
    Immutable after construction, safe to share across threads.
    """

    limit: int
    spf: list[int]

    def primes(self) -> list[int]:
        return [n for n in range(2, self.limit + 1) if self.spf[n] == n]


def build_sieve(limit: int) -> FactorizationSieve:
    """Eratosthenes-style smallest-prime-factor sieve up to limit (>= 2)."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return FactorizationSieve(limit, spf)


def prime_flags(limit: int) -> bytearray:
    """Byte flags of 0..limit: flags[n] is 1 exactly when n is prime.

    Each prime up to isqrt(limit) strikes its multiples from p*p on with
    one slice assignment, so the Python loop runs over isqrt(limit) values.
    """
    if limit < 0:
        raise ValueError(f"prime flags need limit >= 0, got {limit}")
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"[: limit + 1]  # 0 and 1 are not prime
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n may be arbitrarily large.

    n is first cut to a low window, n mod p^w, with w doubled from 64 until
    the window is nonzero; then e = v_p(window) < w.  For p = 2 the window
    is a bit mask and e its lowest set bit.  Otherwise the binary digits of
    e are read from w/2 down, dividing the window by p^(w/2), p^(w/4), ...
    where they divide.  That is O(log e) divisions, and none but the window
    cuts touches a number the size of n.
    """
    if n < 1:
        raise ValueError(f"valuation needs n >= 1, got {n}")
    if p < 2:
        raise ValueError(f"valuation needs a prime p >= 2, got {p}")
    if p == 2:
        width = 64
        while not (low := n & ((1 << width) - 1)):
            width <<= 1
        return (low & -low).bit_length() - 1
    if n % p:
        return 0
    width = 64
    while not (low := n % p**width):
        width <<= 1
    e = 0
    step = width >> 1
    while step:
        quot, rem = divmod(low, p**step)
        if not rem:
            low = quot
            e += step
        step >>= 1
    return e


# Below 640, the least nonzero int <-> str digit limit Python accepts, so
# every piece converts natively whatever the limit is set to.
_DECIMAL_CHUNK = 600


def int_to_decimal(n: int) -> str:
    """Decimal string of any int, split by powers 10^(600 * 2^j)."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    powers = [10**_DECIMAL_CHUNK]
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])
    return _decimal_digits(n, powers, len(powers) - 1, False)


def _decimal_digits(n: int, powers: list[int], j: int, pad: bool) -> str:
    """Digits of n < powers[j], zero-padded to 600 * 2^j digits when pad."""
    if j == 0:
        return str(n).zfill(_DECIMAL_CHUNK) if pad else str(n)
    hi, lo = divmod(n, powers[j - 1])
    if not (hi or pad):
        return _decimal_digits(lo, powers, j - 1, False)
    return _decimal_digits(hi, powers, j - 1, pad) + _decimal_digits(lo, powers, j - 1, True)


def decimal_to_int(text: str) -> int:
    """Inverse of int_to_decimal: an optional '-', then ASCII digits only.

    Parsing is subquadratic but not linear, so callers taking outside input
    cap its length first.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal string: {text[:20]!r}")
    value = _parse_digits(digits)
    return -value if len(digits) < len(text) else value


def _parse_digits(digits: str) -> int:
    if len(digits) <= _DECIMAL_CHUNK:
        return int(digits)
    low = len(digits) // 2
    return _parse_digits(digits[:-low]) * 10**low + _parse_digits(digits[-low:])


# Miller-Rabin with the primes up to 41 as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
# The primes up to 37 alone admit 318665857834031151167461.
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality of n below PRIME_TEST_BOUND, and of composites above it.

    n is first divided by the primes up to 41, which settles every n below
    41^2; a larger n then goes through Miller-Rabin with the same primes as
    bases.  A base that proves n composite settles it at any size, but at
    or above PRIME_TEST_BOUND a number every base passes may still be
    composite, and is refused with a ValueError rather than guessed.
    """
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIME_TEST_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: the test is exact only below {PRIME_TEST_BOUND}"
        )
    return True
