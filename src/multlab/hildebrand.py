"""Adversarial search for kernel-run avoidance and minimal forcing bounds.

A completely multiplicative function into the k-th roots of unity has a
kernel run of length r at a when a, a+1, ..., a+r-1 all map to 1.  The
avoidance problem asks for prime classes under which no run of length r
starts at 1..B; the least B where avoidance becomes impossible (for
r = 2) is the forcing constant of k, and the value for k = 2 is 9.

Primes receive classes in increasing order.  A window of r consecutive
integers has final values once the largest prime factor over its elements
is assigned, so every window is checked exactly once, at that moment.
Classes are tried in increasing order, which makes the first satisfying
assignment found the lexicographically least one (prime-major,
class-minor).  Relabeling classes by a unit of Z/kZ preserves the kernel,
so the first prime may optionally be restricted to the least class of
each unit orbit; the restriction keeps both satisfiability and the
lex-least answer.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Mapping

from .arith import build_sieve
from .multfunc import MultiplicativeFunction, assignment_from_pairs, find_runs

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
FOUND = "found"

_CHECK_MASK = 0xFF


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by the avoidance and constant searches.

    Searches are sequential, so the answer and node count depend only on
    the problem.  deterministic selects no code path here; front ends use
    it to leave machine-dependent fields out of their output.  threads is
    validated (>= 1) and otherwise ignored, for interface uniformity.
    node_budget bounds assignments tried, time_budget bounds wall-clock
    seconds; exceeding either yields an unknown outcome instead of an
    answer.
    """

    deterministic: bool = False
    symmetry_reduction: bool = False
    threads: int = 1
    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node budget must be >= 1, got {self.node_budget}")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time budget must be positive, got {self.time_budget}")


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    backtracks: int
    depth_reached: int
    wall_time: float


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Complete prime classes under which no r-run starts at 1..B.

    The assignment must cover exactly the primes up to B + r - 1; anything
    less cannot be checked and anything more cannot matter.
    """

    k: int
    r: int
    B: int
    assignment: Mapping[int, int]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"modulus k must be >= 1, got {self.k}")
        if self.r < 2:
            raise ValueError(f"run length must be >= 2, got {self.r}")
        if self.B < 1:
            raise ValueError(f"avoidance bound must be >= 1, got {self.B}")
        object.__setattr__(self, "assignment", dict(self.assignment))
        required = set(build_sieve(self.limit).primes())
        missing = sorted(required - set(self.assignment))
        extra = sorted(set(self.assignment) - required)
        if missing:
            raise ValueError(f"certificate misses classes for primes {missing}")
        if extra:
            raise ValueError(
                f"certificate keys {extra} are not primes in 2..{self.limit}"
            )
        bad = sorted(p for p, c in self.assignment.items() if not 0 <= c < self.k)
        if bad:
            raise ValueError(f"classes for primes {bad} fall outside 0..{self.k - 1}")

    @property
    def limit(self) -> int:
        return self.B + self.r - 1

    def function(self) -> MultiplicativeFunction:
        return MultiplicativeFunction.sieve_bounded(self.k, self.assignment, self.limit)


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    certificate: AvoidanceCertificate | None
    stats: SearchStats
    reason: str | None = None


@dataclass(frozen=True)
class ConstantResult:
    status: str
    c: int | None
    certificate: AvoidanceCertificate | None
    certificate_for: int | None
    stats: SearchStats
    reason: str | None = None


def verify_certificate(cert: AvoidanceCertificate) -> bool:
    """Recheck the certificate by exhaustive run scan; True when it holds."""
    return not find_runs(cert.function(), cert.r, cert.B)


def certificate_to_dict(cert: AvoidanceCertificate) -> dict:
    return {
        "k": cert.k,
        "r": cert.r,
        "B": cert.B,
        "assignment": [[p, c] for p, c in sorted(cert.assignment.items())],
    }


def certificate_from_dict(doc: object) -> AvoidanceCertificate:
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    for name in ("k", "r", "B"):
        if not isinstance(doc.get(name), int):
            raise ValueError(f"certificate field {name!r} must be an integer")
    assignment = assignment_from_pairs(doc.get("assignment"), "certificate field 'assignment'")
    try:
        return AvoidanceCertificate(doc["k"], doc["r"], doc["B"], assignment)
    except ValueError as exc:
        raise ValueError(f"certificate invalid: {exc}") from exc


def _orbit_representatives(k: int) -> list[int]:
    """Least element of each unit orbit in Z/kZ: the divisors gcd(c, k) % k."""
    return sorted({math.gcd(c, k) % k for c in range(k)})


class _Tables:
    """The sieve and the windows of each prime, for every B up to a bound.

    windows[i] lists the windows whose values become final when primes[i]
    is set (primes[i] is the largest prime factor over their elements),
    each stored as its elements >= 2 (the integer 1 is always kernel).
    Windows are appended in increasing start order, so the tables of any
    B <= bound are a prefix of these; view(B) cuts them out.
    """

    def __init__(self, r: int, bound: int):
        self.r = r
        self.bound = bound
        limit = bound + r - 1
        sieve = build_sieve(limit)
        self.primes = sieve.primes()
        self.spf = spf = sieve.spf
        lp = [0] * (limit + 1)
        for n in range(2, limit + 1):
            lp[n] = max(spf[n], lp[n // spf[n]])
        index = {p: i for i, p in enumerate(self.primes)}
        self.windows: list[list[tuple[int, ...]]] = [[] for _ in self.primes]
        for a in range(1, bound + 1):
            elems = tuple(range(max(a, 2), a + r))
            self.windows[index[max(map(lp.__getitem__, elems))]].append(elems)

    def view(self, B: int) -> tuple[list[int], list[list[tuple[int, ...]]]]:
        """(primes, windows) of the problem at B <= bound.

        Those are the primes up to B + r - 1 and, for each, the windows
        starting at or before B, i.e. ending at or before B + r - 1.
        """
        if B == self.bound:
            return self.primes, self.windows
        limit = B + self.r - 1
        primes = self.primes[: bisect_right(self.primes, limit)]
        windows = []
        for ws in self.windows[: len(primes)]:
            end = bisect_right(ws, limit, key=itemgetter(-1))
            windows.append(ws if end == len(ws) else ws[:end])
        return primes, windows


def _run_dfs(
    k: int,
    spf: list[int],
    primes: list[int],
    windows: list[list[tuple[int, ...]]],
    first_classes: list[int],
    node_budget: int | None,
    deadline: float | None,
):
    """Backtracking scan; returns (status, classes, reason, nodes, backtracks, depth)."""
    nprimes = len(primes)
    # cls[p]: class last tried for the prime p.  A window is checked only
    # once its largest prime is set, and primes are set in increasing
    # order, so every prime it reads holds its current class.
    cls = [0] * (primes[-1] + 1)
    later = tuple(range(k))
    pos = [0] * nprimes
    nodes = backtracks = depth_reached = 0

    def is_run(window: tuple[int, ...]) -> bool:
        for n in window:
            total = 0
            while n > 1:
                p = spf[n]
                total += cls[p]
                n //= p
            if total % k:
                return False
        return True

    i = 0
    while i < nprimes:
        classes = first_classes if i == 0 else later
        while pos[i] < len(classes):
            c = classes[pos[i]]
            pos[i] += 1
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return UNKNOWN, None, "node-budget", nodes, backtracks, depth_reached
            if nodes & _CHECK_MASK == 0 and deadline is not None and time.monotonic() > deadline:
                return UNKNOWN, None, "time-budget", nodes, backtracks, depth_reached
            cls[primes[i]] = c
            if any(map(is_run, windows[i])):
                backtracks += 1
                continue
            i += 1
            depth_reached = max(depth_reached, i)
            if i < nprimes:
                pos[i] = 0
            break
        else:
            if i == 0:
                return UNSAT, None, None, nodes, backtracks, depth_reached
            i -= 1
            backtracks += 1
    return SAT, [cls[p] for p in primes], None, nodes, backtracks, depth_reached


def _check_problem(k: int, r: int) -> None:
    if k < 1:
        raise ValueError(f"modulus k must be >= 1, got {k}")
    if r < 2:
        raise ValueError(f"run length must be >= 2, got {r}")


def avoidance_search(
    k: int,
    r: int,
    B: int,
    options: SearchOptions = SearchOptions(),
    *,
    _tables: _Tables | None = None,
) -> SearchOutcome:
    """Decide whether some assignment avoids all r-runs starting at 1..B.

    The scan is sequential, so a sat outcome carries the lexicographically
    least certificate.  Every returned certificate is re-verified by
    exhaustive run scan before it leaves the search.  _tables, built for
    the same r and a bound >= B, replaces building tables for B alone.
    """
    _check_problem(k, r)
    if B < 1:
        raise ValueError(f"avoidance bound must be >= 1, got {B}")
    tables = _Tables(r, B) if _tables is None else _tables
    primes, windows = tables.view(B)
    first = _orbit_representatives(k) if options.symmetry_reduction else list(range(k))
    t0 = time.monotonic()
    deadline = t0 + options.time_budget if options.time_budget is not None else None
    status, classes, reason, nodes, backtracks, depth = _run_dfs(
        k, tables.spf, primes, windows, first, options.node_budget, deadline
    )
    stats = SearchStats(nodes, backtracks, depth, time.monotonic() - t0)
    if status != SAT:
        return SearchOutcome(status, None, stats, reason)
    cert = AvoidanceCertificate(k, r, B, dict(zip(primes, classes)))
    if not verify_certificate(cert):
        raise RuntimeError("internal error: satisfying assignment failed re-verification")
    return SearchOutcome(SAT, cert, stats)


def hildebrand_constant(
    k: int, B_max: int, r: int = 2, options: SearchOptions = SearchOptions()
) -> ConstantResult:
    """Least B <= B_max where no assignment avoids r-runs, by deepening.

    The avoidance constraints grow with B, so satisfiability is monotone
    and the first unsatisfiable bound is the forcing constant.  The
    certificate for the preceding bound witnesses minimality.  Budgets in
    options are cumulative across the whole deepening; running out gives
    an unknown result carrying the deepest certificate obtained.

    All probes read prefix views of one set of tables, rebuilt for twice
    the probed bound (at least 64, at most B_max) whenever B passes the
    bound it covers, so the builds cost at most about twice one build at
    the final bound and a huge B_max allocates nothing up front.
    """
    _check_problem(k, r)
    if B_max < 1:
        raise ValueError(f"deepening bound must be >= 1, got {B_max}")
    nodes = backtracks = depth = 0
    t0 = time.monotonic()
    prev_cert = None
    tables = None

    def tally() -> SearchStats:
        return SearchStats(nodes, backtracks, depth, time.monotonic() - t0)

    for B in range(1, B_max + 1):
        opts = options
        if options.node_budget is not None:
            left = options.node_budget - nodes
            if left < 1:
                return ConstantResult(
                    UNKNOWN, None, prev_cert, B - 1 if prev_cert else None,
                    tally(), "node-budget",
                )
            opts = replace(opts, node_budget=left)
        if options.time_budget is not None:
            left_t = options.time_budget - (time.monotonic() - t0)
            if left_t <= 0:
                return ConstantResult(
                    UNKNOWN, None, prev_cert, B - 1 if prev_cert else None,
                    tally(), "time-budget",
                )
            opts = replace(opts, time_budget=left_t)
        if tables is None or B > tables.bound:
            tables = _Tables(r, min(B_max, max(2 * B, 64)))
        out = avoidance_search(k, r, B, opts, _tables=tables)
        nodes += out.stats.nodes
        backtracks += out.stats.backtracks
        depth = max(depth, out.stats.depth_reached)
        if out.status == UNKNOWN:
            return ConstantResult(
                UNKNOWN, None, prev_cert, B - 1 if prev_cert else None,
                tally(), out.reason,
            )
        if out.status == UNSAT:
            return ConstantResult(FOUND, B, prev_cert, B - 1, tally())
        prev_cert = out.certificate
    return ConstantResult(UNKNOWN, None, prev_cert, B_max, tally(), "sat-at-bmax")
