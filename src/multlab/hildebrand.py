"""Adversarial search for kernel-run avoidance and minimal forcing bounds.

A completely multiplicative function into the k-th roots of unity has a
kernel run of length r at a when a, a+1, ..., a+r-1 all map to 1.  The
avoidance problem asks for prime classes under which no run of length r
starts at 1..B; the least B where avoidance becomes impossible (for
r = 2) is the forcing constant of k, and the value for k = 2 is 9.

Primes receive classes in increasing order.  A window of r consecutive
integers has final values once the largest prime factor over its elements
is assigned, so every window is checked exactly once per entry into that
prime, for the classes it forbids there.  The search keeps a table of the
classes of the integers, grown prime by prime: the class of n is the class
of n with its largest prime stripped, already final, plus that prime's
exponent times its class.  The class kept at a prime writes only the
integers it owns in its windows; every other integer is written when the
search reaches the first prime that reads it.
Classes are tried in increasing order, which makes the first satisfying
assignment found the lexicographically least one (prime-major,
class-minor).  Relabeling classes by a unit of Z/kZ preserves the kernel,
so the first prime may optionally be restricted to the least class of
each unit orbit; the restriction keeps both satisfiability and the
lex-least answer.

A sat outcome's certificate is built and rechecked by run scan when first
read; the deepening reads only the one it reports (see hildebrand_constant).
The deepening resumes each probe where the scan first departs from the
previous probe's, with every count as if the probe had scanned afresh;
the table of classes spans every integer the tables cover, so one pass
over a prime's windows finds both its forbidden classes and that point.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import compress, islice
from typing import Mapping

from .arith import prime_flags
from .hindman import node_limit
from .multfunc import MultiplicativeFunction, assignment_from_pairs, run_mask

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
FOUND = "found"

_CHECK_MASK = 0xFF
# The search builds k-entry tuples and k-bit masks per prime; refuse larger
# k before any of them is made.
MAX_MODULUS = 2**16
# Most of 1..B + r - 1 the search tables cover; avoid --k 6 --B 10**6 takes 115 MiB.
MAX_TABLE_LIMIT = 10**7
# Starts per chunk of _Tables' owner and first-reader passes; a chunk takes
# at least r starts, so the r - 1 it shares with the next cost at most half.
_CHUNK = 4096


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by the avoidance and constant searches.

    Searches are sequential, so the answer and node count depend only on
    the problem and these knobs.  node_budget bounds assignments tried,
    time_budget bounds wall-clock seconds; exceeding either yields an
    unknown outcome instead of an answer.
    """

    symmetry_reduction: bool = False
    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        node_limit(self.node_budget)
        t = self.time_budget
        if t is not None and not 0 < t < math.inf:  # nan would never expire
            raise ValueError(f"time budget must be {'positive' if t <= 0 else 'finite'}, got {t}")


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
        # Rosser: 2..x holds over x / ln x primes for x >= 17, so a shorter
        # assignment misses some; refuse it before sieving to x.
        x, n = self.limit, len(self.assignment)
        if x >= 17 and n < (fewest := math.floor(x / math.log(x))):
            raise ValueError(
                f"certificate misses classes: {n} given, but 2..{x} holds at least {fewest} primes"
            )
        # One comparison each for the keys and the classes; the sets and the
        # sorted bad classes are built only to word an error.
        primes = list(compress(range(self.limit + 1), prime_flags(self.limit)))
        if sorted(self.assignment) != primes:
            required = set(primes)
            missing = sorted(required - set(self.assignment))
            if missing:
                raise ValueError(f"certificate misses classes for primes {missing}")
            extra = sorted(set(self.assignment) - required)
            raise ValueError(f"certificate keys {extra} are not primes in 2..{self.limit}")
        classes = self.assignment.values()
        if not 0 <= min(classes) <= max(classes) < self.k:
            bad = sorted(p for p, c in self.assignment.items() if not 0 <= c < self.k)
            raise ValueError(f"classes for primes {bad} fall outside 0..{self.k - 1}")

    @property
    def limit(self) -> int:
        return self.B + self.r - 1

    def function(self) -> MultiplicativeFunction:
        return MultiplicativeFunction.sieve_bounded(self.k, self.assignment, self.limit)


@dataclass(frozen=True)
class SearchOutcome:
    """An avoidance search's answer; found is (k, r, B, primes, classes) if sat.

    The certificate is built and rechecked by run scan when first read, and
    a failed recheck raises RuntimeError.  found never holds the tables.
    """

    status: str
    stats: SearchStats
    reason: str | None = None
    found: tuple | None = field(default=None, repr=False)

    @cached_property
    def certificate(self) -> AvoidanceCertificate | None:
        if self.found is None:
            return None
        k, r, B, primes, classes = self.found
        cert = AvoidanceCertificate(k, r, B, dict(zip(primes, classes)))
        if not verify_certificate(cert):
            raise RuntimeError("internal error: satisfying assignment failed re-verification")
        return cert


@dataclass(frozen=True)
class ConstantResult:
    status: str
    c: int | None
    certificate: AvoidanceCertificate | None
    certificate_for: int | None
    stats: SearchStats
    reason: str | None = None


def verify_certificate(cert: AvoidanceCertificate) -> bool:
    """Recheck the certificate by exhaustive run scan; True when it holds,
    that is when the run mask up to B has no 1 byte."""
    return 1 not in run_mask(cert.function(), cert.r, cert.B)


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
        if type(doc.get(name)) is not int:
            raise ValueError(f"certificate field {name!r} must be an integer")
    assignment = assignment_from_pairs(doc.get("assignment"), "certificate field 'assignment'")
    try:
        return AvoidanceCertificate(doc["k"], doc["r"], doc["B"], assignment)
    except ValueError as exc:
        raise ValueError(f"certificate invalid: {exc}") from exc


def _window_extremes(xs: list, r: int, least: bool = False) -> list:
    """max(xs[j : j + r]), or with least min(xs[j : j + r]), for every j.

    Each pass extends the span of every entry by up to its own width, as
    run_mask does, so ceil(log2 r) passes of one comparison per entry do
    the work of r - 1 builtin max or min arguments per entry.  The entries
    returned are the given xs's own objects.
    """
    covered = 1  # xs[j] is the extreme of the given xs[j : j + covered]
    while covered < r:
        step = min(covered, r - covered)
        if least:
            xs = [x if x < y else y for x, y in zip(xs, islice(xs, step, None))]
        else:
            xs = [x if x > y else y for x, y in zip(xs, islice(xs, step, None))]
        covered += step
    return xs


def _orbit_representatives(k: int) -> list[int]:
    """Least element of each unit orbit in Z/kZ: the divisors gcd(c, k) % k."""
    return sorted({math.gcd(c, k) % k for c in range(k)})


class _Tables:
    """Factor splits and per-prime work lists, for every B up to a bound.

    For 2 <= n <= bound + r - 1, lpi[n] is the index of the largest prime
    factor of n, cof[n] is n with that prime stripped and ex[n] is its
    exponent, so the class of n is the class of cof[n] plus ex[n] times the
    class of primes[lpi[n]], and cof[n] involves only smaller primes.  Per
    prime index i, three increasing int lists:

    * windows[i]: the starts a of the windows a..a+r-1 whose largest prime
      factor over their elements is primes[i], so their values become
      final when primes[i] is set;
    * fresh[i]: the n with lpi[n] = i that lie in one of those windows;
      the search writes their classes for the class it keeps at i;
    * due[i]: the n with lpi[n] < i that the search first reads at i, in
      a window of primes[i] or as the cofactor of an integer written at
      i; it writes their classes once on entering i.

    Each n >= 2 is in exactly one fresh or due list, so an integer no
    window reads until deep in the search costs nothing before then.  The
    lists are appended in increasing order, so the windows of any B <= bound
    are a prefix of each windows[i].  A search at any such B writes fresh
    and due whole: the integers past B + r - 1 change none of its decisions,
    and once it enters i every element of every window of i is written.

    Slices write the split, with no factor sieve: each prime p in increasing
    order, then each power q = p**e, writes its index, e and n / q at its
    multiples n, so n's largest prime and that prime's full power write last.
    ex is a bytearray; every int entry is taken from one list, nums, of
    0..limit, so an integer held by several lists is one object.

    The owner of the window at a, its largest lpi, is the max of r
    consecutive entries of lpi, and where the search first reads n is the
    least owner of the r windows holding n.  _window_extremes finds both by
    comparisons in doubling passes, one chunk of starts at a time, so no
    list of all owners is held.  On Python 3.11 a builtin max or min call
    costs about 150 ns and a conditional expression about 60 ns, and the r
    iterators per start that builtins need made a build O(r B); the
    doubling passes make it O(B log r).
    """

    def __init__(self, r: int, bound: int):
        self.r = r
        self.bound = bound
        limit = bound + r - 1
        if limit > MAX_TABLE_LIMIT:
            raise ValueError(f"B + r - 1 = {limit} exceeds the search table cap {MAX_TABLE_LIMIT}")
        flags, nums = prime_flags(limit), list(range(limit + 1))
        self.primes = primes = list(compress(nums, flags))
        self.lpi = lpi = [0] * (limit + 1)  # 0 pads the entries 0 and 1
        self.cof = cof = [1] * (limit + 1)
        self.ex = ex = bytearray([1]) * (limit + 1)
        for j, p in zip(nums, primes):
            if p > limit // 2:  # p is its only multiple
                lpi[p] = j
                continue
            lpi[p::p] = [j] * (limit // p)
            q, e = p, 1
            while q <= limit:
                ex[q::q] = bytes([e]) * (limit // q)
                cof[q::q] = nums[1 : limit // q + 1]
                q, e = q * p, e + 1
        # For the starts a = lo..hi - 1, own[a - lo] is the owner of the window
        # at a.  first[n], where the search first reads n, is the least owner
        # of the windows at n - r + 1..n, so held puts the r - 1 owners before
        # the chunk (len(primes) where no window starts) ahead of own.
        self.windows = windows = [[] for _ in primes]
        first, chunk = [len(primes)], max(_CHUNK, r)
        before = [len(primes)] * (r - 1)
        for lo in range(1, bound + 1, chunk):
            hi = min(lo + chunk, bound + 1)
            own = _window_extremes(lpi[lo : hi + r - 1], r)
            for a, i in zip(nums[lo:hi], own):
                windows[i].append(a)
            held = before + own
            first += _window_extremes(held, r, least=True)
            before = held[len(held) - r + 1 :]
        first += _window_extremes(before + [len(primes)] * (r - 1), r, least=True)
        # n is written at first[n], and reads its cofactor then; cof[n] < n,
        # so a downward pass sees every reader of an integer before it.
        for n in range(limit, 3, -1):
            if first[n] < first[cof[n]]:
                first[cof[n]] = first[n]
        self.fresh = fresh = [[] for _ in primes]
        self.due = due = [[] for _ in primes]
        for n, i, own in zip(islice(nums, 2, None), islice(first, 2, None), islice(lpi, 2, None)):
            (fresh if i == own else due)[i].append(n)


class _ZeroMasks(dict):
    """zero[b][e]: the k-bit mask of the classes c with (b + e*c) % k == 0.

    That is the set of classes at a prime p under which n = m * p**e, with
    m of class b, lands in the kernel: with g = gcd(e, k), none unless g
    divides b, else c0 + t*k/g for t < g.  A row is built when first read,
    so a large k costs only the rows the search reads.  _zero_masks shares
    one table per (k, e_max) between the probes of a deepening.
    """

    def __init__(self, k: int, e_max: int):
        self.k, self.e_max = k, e_max

    def __missing__(self, b: int) -> list[int]:
        k, row = self.k, []
        for e in range(self.e_max + 1):
            g = math.gcd(e, k)
            step = k // g
            c0 = -(b // g) * pow(e // g, -1, step) % step
            # Bit c0 and every step-th bit above it: 1 << c0 times a repunit.
            row.append(0 if b % g else ((1 << k) - 1) // ((1 << step) - 1) << c0)
        self[b] = row
        return row


_zero_masks = lru_cache(maxsize=16)(_ZeroMasks)


def _run_dfs(
    k: int,
    tables: _Tables,
    B: int,
    first_classes: list[int],
    node_budget: int | None,
    deadline: float | None,
    stack: list | None = None,
):
    """Backtracking scan at B; returns (status, classes, reason, nodes, backtracks, depth).

    The tables are read in place: the primes up to B + r - 1, the windows
    of each up to B, and every fresh and due list whole.  val[n] holds the
    class of n under the classes currently set, for every n the tables
    cover, and 0 for the n in fresh[i] while prime index i holds none.
    Entering i writes val for due[i], then passes once over the windows of
    i for forbidden[i], the mask of the classes making one of them a kernel
    run: a window whose values all read 0 forbids those putting its element
    owned by i in the kernel.  Trying class c tests bit c; the class kept
    writes val for fresh[i], and exhausting i clears it.  So every value
    read was written on the current path, and every window is tested once
    per entry into its largest prime.  Nodes and backtracks count classes
    tried and rejected (plus primes exhausted), as in a search testing the
    windows of every class tried from scratch.

    With stack, a deepening over B = 1, 2, ... resumes each probe rather
    than rescanning.  val depends on the classes set and not on B, so the
    scan at a > B repeats the scan at B, counters and all, up to the first
    entry into a prime whose forbidden mask gains a class from a window in
    (B, a].  Every element of a window of i is written by the time i is
    entered, so the forbidden pass of a deepening reads on past B, up to
    the bound at the top of the stack.  The first window a there whose
    values all read 0, and whose owned element's kernel classes are not all
    in the mask, is where the scan first departs: the entry pushes a with a
    copy of its state.  A sat scan pushes its final state for B + 1 unless
    that bound is already there.  The bounds fall toward the top, and the
    probe at B pops the entry for B and resumes it.  A probe whose node
    budget runs out inside the skipped prefix (state[5] holds its nodes)
    starts from scratch, so its counts stay exact; it ends unknown, and
    with it the deepening.
    """
    r, lpi, cof, ex = tables.r, tables.lpi, tables.cof, tables.ex
    primes, fresh, due, windows = tables.primes, tables.fresh, tables.due, tables.windows
    nprimes = bisect_right(primes, B + r - 1)
    zero = _zero_masks(k, (len(cof) - 1).bit_length())
    every, last, middle = (1 << k) - 1, r - 1, r > 2
    later = tuple(range(k))
    state = stack.pop()[1] if stack and stack[-1][0] == B else None
    if state is None or node_budget is not None and state[5] > node_budget:
        val = [0] * len(cof)
        cls, forbidden, pos = [0] * len(primes), [0] * len(primes), [0] * (len(primes) + 1)
        i = nodes = backtracks = depth_reached = 0
    else:
        i, val, cls, pos, forbidden, nodes, backtracks, depth_reached = state

    while i < nprimes:
        classes = first_classes if i == 0 else later
        if not pos[i]:
            for n in due[i]:
                val[n] = (val[cof[n]] + ex[n] * cls[lpi[n]]) % k
            ban, p = 0, primes[i]
            # A deepening reads on, up to the bound at the top of the stack.
            stop = B if stack is None else (stack[-1][0] - 1 if stack else math.inf)
            for a in windows[i]:
                if a > stop:
                    break
                # Most windows hold a value outside the kernel for good.
                if val[a] or val[a + last] or middle and any(val[a + 1 : a + last]):
                    continue
                # Its one element owned by i is its one multiple of p: a second
                # would bring in all of pm..pm + p, which has a prime factor
                # above p (Bertrand for m = 1, Sylvester's theorem for m > 1).
                n = a + -a % p
                kernel = zero[val[cof[n]]][ex[n]]
                if a <= B:
                    ban |= kernel
                    if ban == every:
                        break
                elif kernel & ~ban:
                    copies = val[:], cls[:], pos[:], forbidden[:]
                    stack.append((a, (i, *copies, nodes, backtracks, depth_reached)))
                    break
            forbidden[i] = ban
        ban = forbidden[i]
        while pos[i] < len(classes):
            c = classes[pos[i]]
            pos[i] += 1
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return UNKNOWN, None, "node-budget", nodes, backtracks, depth_reached
            if nodes & _CHECK_MASK == 0 and deadline is not None and time.monotonic() > deadline:
                return UNKNOWN, None, "time-budget", nodes, backtracks, depth_reached
            if ban >> c & 1:
                backtracks += 1
                continue
            cls[i] = c
            for n in fresh[i]:
                val[n] = (val[cof[n]] + ex[n] * c) % k
            i += 1
            if i > depth_reached:
                depth_reached = i
            pos[i] = 0
            break
        else:
            if i == 0:
                return UNSAT, None, None, nodes, backtracks, depth_reached
            if ban != every:  # some class was kept, so fresh[i] was written
                for n in fresh[i]:
                    val[n] = 0
            i -= 1
            backtracks += 1
    if stack is not None and (not stack or stack[-1][0] > B + 1):
        stack.append((B + 1, (i, val, cls, pos, forbidden, nodes, backtracks, depth_reached)))
    return SAT, cls[:nprimes], None, nodes, backtracks, depth_reached


def _check_problem(k: int, r: int) -> None:
    if k < 1:
        raise ValueError(f"modulus k must be >= 1, got {k}")
    if k > MAX_MODULUS:
        raise ValueError(f"modulus k = {k} exceeds the search cap {MAX_MODULUS}")
    if r < 2:
        raise ValueError(f"run length must be >= 2, got {r}")


def avoidance_search(
    k: int,
    r: int,
    B: int,
    options: SearchOptions = SearchOptions(),
    *,
    _tables: _Tables | None = None,
    _stack: list | None = None,
) -> SearchOutcome:
    """Decide whether some assignment avoids all r-runs starting at 1..B.

    The scan is sequential, so a sat outcome carries the lexicographically
    least certificate, built and rechecked when first read (SearchOutcome).
    _tables, built for the same r and a bound >= B, replaces building
    tables for B alone; the probe reads it in place and writes the class
    of every integer it covers.  _stack, kept by a
    deepening with those tables, resumes the probe (see _run_dfs).
    """
    _check_problem(k, r)
    if B < 1:
        raise ValueError(f"avoidance bound must be >= 1, got {B}")
    tables = _Tables(r, B) if _tables is None else _tables
    first = _orbit_representatives(k) if options.symmetry_reduction else list(range(k))
    t0 = time.monotonic()
    deadline = t0 + options.time_budget if options.time_budget is not None else None
    status, classes, reason, nodes, backtracks, depth = _run_dfs(
        k, tables, B, first, options.node_budget, deadline, _stack
    )
    stats = SearchStats(nodes, backtracks, depth, time.monotonic() - t0)
    found = (k, r, B, tables.primes[: len(classes)], classes) if status == SAT else None
    return SearchOutcome(status, stats, reason, found)


def hildebrand_constant(
    k: int, B_max: int, r: int = 2, options: SearchOptions = SearchOptions()
) -> ConstantResult:
    """Least B <= B_max where no assignment avoids r-runs, by deepening.

    The avoidance constraints grow with B, so satisfiability is monotone
    and the first unsatisfiable bound is the forcing constant.  The
    certificate for the preceding bound witnesses minimality.  Budgets in
    options are cumulative across the whole deepening; running out gives
    an unknown result carrying the deepest certificate obtained.

    Only the certificate returned is built and rechecked.  That loses no
    check: a probe falsely reporting sat at some B at or past the true
    constant pushes the first unsat bound c' past it, so the certificate
    for c' - 1 cannot hold and its recheck raises RuntimeError; probes
    below the true constant are truly sat.

    All probes read one set of tables in place, rebuilt for twice the
    probed bound (at least 64, at most B_max) whenever B passes the bound
    it covers, so the builds cost at most about twice one build at the
    final bound and a huge B_max allocates nothing up front.

    Each probe resumes the previous one's scan where the new window first
    changes a decision (see _run_dfs), or scans afresh after a rebuild.
    Its stats still count the nodes and backtracks of the prefix it skips,
    so every count, budget cut and answer is that of a probe from scratch.
    """
    _check_problem(k, r)
    if B_max < 1:
        raise ValueError(f"deepening bound must be >= 1, got {B_max}")
    nodes = backtracks = depth = 0
    t0 = time.monotonic()
    last_sat = tables = None
    reason = "sat-at-bmax"

    def tally() -> SearchStats:
        return SearchStats(nodes, backtracks, depth, time.monotonic() - t0)

    for B in range(1, B_max + 1):
        opts = options
        if options.node_budget is not None:
            left = options.node_budget - nodes
            if left < 1:
                reason = "node-budget"
                break
            opts = replace(opts, node_budget=left)
        if options.time_budget is not None:
            left_t = options.time_budget - (time.monotonic() - t0)
            if left_t <= 0:
                reason = "time-budget"
                break
            opts = replace(opts, time_budget=left_t)
        if tables is None or B > tables.bound:
            tables = _Tables(r, max(B, min(B_max, max(2 * B, 64), MAX_TABLE_LIMIT - r + 1)))
            stack = []  # the first-reader lists change, so the next probe starts afresh
        out = avoidance_search(k, r, B, opts, _tables=tables, _stack=stack)
        nodes += out.stats.nodes
        backtracks += out.stats.backtracks
        depth = max(depth, out.stats.depth_reached)
        if out.status == UNKNOWN:
            reason = out.reason
            break
        if out.status == UNSAT:
            return ConstantResult(FOUND, B, last_sat and last_sat.certificate, B - 1, tally())
        last_sat = out
    cert = last_sat and last_sat.certificate
    return ConstantResult(UNKNOWN, None, cert, cert.B if cert else None, tally(), reason)
