"""Independent naive reimplementations used to cross-check the fast paths.

Everything here favors obviousness over speed: trial division instead of
sieves, full enumeration instead of backtracking, and leaf-only checks
instead of incremental pruning.  Test modules compare package results
against these.
"""

import math
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product

from multlab.arith import build_sieve
from multlab.blockseq import generate_block_sequence, subset_sum
from multlab.hildebrand import FOUND, SAT, UNKNOWN, UNSAT, avoidance_search


def trial_division_factors(n):
    """(prime, exponent) pairs of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_class(k, prime_class, n):
    """Class of n from scratch: factor, then sum exponent-weighted classes."""
    total = 0
    for p, e in trial_division_factors(n):
        total += e * prime_class(p)
    return total % k


def naive_runs(k, prime_class, r, bound):
    """Kernel-run starts by direct evaluation of every window element."""
    return [
        a
        for a in range(1, bound + 1)
        if all(naive_class(k, prime_class, a + i) == 0 for i in range(r))
    ]


def primes_upto(m):
    return [p for p in range(2, m + 1) if all(p % d for d in range(2, p))]


def brute_force_avoidance(k, r, B):
    """(satisfiable, lex-least assignment) over every class assignment."""
    ps = primes_upto(B + r - 1)
    for classes in product(range(k), repeat=len(ps)):
        assignment = dict(zip(ps, classes))
        if not naive_runs(k, assignment.__getitem__, r, B):
            return True, assignment
    return False, None


def block_order(lo, hi):
    """Nonempty subsets of {lo..hi} sorted by (max element, tuple content)."""
    out = []
    for size in range(1, hi - lo + 2):
        out.extend(combinations(range(lo, hi + 1), size))
    return sorted(out, key=lambda b: (max(b), b))


def all_blocks(n):
    """Nonempty subsets of {1..n} in block order."""
    return block_order(1, n)


def union_closure(blocks):
    """All unions of nonempty subcollections, as a set of sorted tuples."""
    out = set()
    for mask in range(1, 1 << len(blocks)):
        u = set()
        for i, b in enumerate(blocks):
            if mask >> i & 1:
                u |= set(b)
        out.add(tuple(sorted(u)))
    return out


def brute_force_family(color, n, m):
    """First m separated blocks with monochromatic closure, no pruning."""
    blocks = all_blocks(n)

    def extend(chosen):
        if len(chosen) == m:
            colors = {color(u) for u in union_closure(chosen)}
            return tuple(chosen) if len(colors) == 1 else None
        lo = max(chosen[-1]) if chosen else 0
        for b in blocks:
            if min(b) > lo:
                found = extend(chosen + [b])
                if found is not None:
                    return found
        return None

    return extend([])


def naive_fu_search(color, n, m):
    """(family or None, nodes) of the depth-first family search on tuples.

    Candidates come in block order (max element, then lex); a candidate
    is checked alone, then joined to each earlier union in turn, and every
    check asks color again.  nodes counts the candidates examined, which
    is what a node budget limits.
    """
    nodes = 0

    def extend(chosen, unions, target, lo):
        nonlocal nodes
        if len(chosen) == m:
            return tuple(chosen)
        for block in block_order(lo, n):
            nodes += 1
            if chosen:
                grown = [block] + [u + block for u in unions]
                if any(color(u) != target for u in grown):
                    continue
            else:
                target = color(block)
                grown = [block]
            found = extend(chosen + [block], unions + grown, target, block[-1] + 1)
            if found is not None:
                return found
        return None

    family = extend([], [], 0, 1)
    return family, nodes


def set_scan_direct_witness(f, m, bound):
    """(generators or None, nodes) of the direct witness scan on a set.

    The kernel pairs f(a) = f(a + 1) = 0 up to bound are found by
    evaluating f, and candidates are tried in increasing order: each is
    joined to every subset sum chosen so far, and kept only if all of the
    new sums are pairs too.  nodes counts the candidates examined, which
    is what a node budget limits.
    """
    pairs = [a for a in range(1, bound + 1) if f.evaluate(a) == 0 and f.evaluate(a + 1) == 0]
    inside = set(pairs)
    nodes = 0

    def extend(chosen, sums, start):
        nonlocal nodes
        if len(chosen) == m:
            return tuple(chosen)
        for idx in range(start, len(pairs)):
            nodes += 1
            g = pairs[idx]
            grown = [g] + [s + g for s in sums]
            if any(s not in inside for s in grown):
                continue
            found = extend(chosen + [g], sums + grown, idx + 1)
            if found is not None:
                return found
        return None

    return extend([], [], 0), nodes


@lru_cache(maxsize=None)
def _sequence(n):
    return generate_block_sequence(n)


def eager_block_sum_color(f, n):
    """Color of a block A of {1..n}: 1 + f(s_A), s_n and all, materialized."""
    return lambda block: 1 + f.evaluate(subset_sum(_sequence(n), block))


def powerset_sums(generators):
    """Multiset of nonempty subset sums, enumerated set by set."""
    sums = []
    for size in range(1, len(generators) + 1):
        for combo in combinations(generators, size):
            sums.append(sum(combo))
    return sums


def naive_valuation(n, p):
    """Exponent of p in n >= 1 by dividing out one factor at a time."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def naive_block_divisibility(terms):
    """(ok, checked, counterexample) of a pair-by-pair divisibility scan.

    Index sets are visited by (max element, tuple): A over all nonempty
    subsets of 0..n, then B over the nonempty subsets of max(A)+1..n; the
    scan stops at the first B whose sum is not a multiple of A's sum.
    """
    n = len(terms) - 1
    checked = 0
    for a in block_order(0, n):
        sa = sum(terms[i] for i in a)
        for b in block_order(max(a) + 1, n):
            checked += 1
            if sum(terms[i] for i in b) % sa:
                return False, checked, (a, b)
    return True, checked, None


def fresh_probe_deepening(k, r, B_max, options):
    """hildebrand_constant's answer from one fresh avoidance_search per B.

    Returns (status, c, certificate, certificate_for, nodes, backtracks,
    depth, reason); a node budget is shared by all probes.
    """
    nodes = backtracks = depth = 0
    cert = None

    def unknown(B, reason):
        return UNKNOWN, None, cert, B - 1 if cert else None, nodes, backtracks, depth, reason

    for B in range(1, B_max + 1):
        opts = options
        if options.node_budget is not None:
            if options.node_budget - nodes < 1:
                return unknown(B, "node-budget")
            opts = replace(options, node_budget=options.node_budget - nodes)
        out = avoidance_search(k, r, B, opts)
        nodes += out.stats.nodes
        backtracks += out.stats.backtracks
        depth = max(depth, out.stats.depth_reached)
        if out.status == UNKNOWN:
            return unknown(B, out.reason)
        if out.status == UNSAT:
            return FOUND, B, cert, B - 1, nodes, backtracks, depth, None
        cert = out.certificate
    return UNKNOWN, None, cert, B_max, nodes, backtracks, depth, "sat-at-bmax"


def spf_walk_avoidance(k, r, B, symmetry=False, node_budget=None):
    """(status, assignment, nodes, backtracks, depth, reason) of the avoidance scan.

    The same depth-first search as avoidance_search, with no class table:
    each window is filed under the largest prime factor of its elements,
    and testing it walks the smallest-prime-factor sieve of every element,
    summing the current classes of the primes met.  Node, backtrack and
    depth counts follow the same rules, so the two must agree exactly.
    """
    limit = B + r - 1
    spf = build_sieve(limit).spf
    primes = [n for n in range(2, limit + 1) if spf[n] == n]
    largest = [0] * (limit + 1)
    for n in range(2, limit + 1):
        largest[n] = max(spf[n], largest[n // spf[n]])
    index = {p: i for i, p in enumerate(primes)}
    windows = [[] for _ in primes]
    for a in range(1, B + 1):
        elems = tuple(range(max(a, 2), a + r))
        windows[index[max(largest[n] for n in elems)]].append(elems)

    cls = [0] * (limit + 1)

    def is_run(window):
        for n in window:
            total = 0
            while n > 1:
                p = spf[n]
                total += cls[p]
                n //= p
            if total % k:
                return False
        return True

    first = sorted({math.gcd(c, k) % k for c in range(k)}) if symmetry else list(range(k))
    pos = [0] * len(primes)
    nodes = backtracks = depth = 0
    i = 0
    while i < len(primes):
        classes = first if i == 0 else range(k)
        while pos[i] < len(classes):
            c = classes[pos[i]]
            pos[i] += 1
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return UNKNOWN, None, nodes, backtracks, depth, "node-budget"
            cls[primes[i]] = c
            if any(map(is_run, windows[i])):
                backtracks += 1
                continue
            i += 1
            depth = max(depth, i)
            if i < len(primes):
                pos[i] = 0
            break
        else:
            if i == 0:
                return UNSAT, None, nodes, backtracks, depth, None
            i -= 1
            backtracks += 1
    return SAT, {p: cls[p] for p in primes}, nodes, backtracks, depth, None


def spf_class_table(f, upto):
    """Classes of 0..upto as a list, one smallest-prime-factor step per n.

    The table engine multlab used before byte-slice arithmetic:
    val[n] = val[n // spf[n]] + class(spf[n]) mod k, over a sieve to upto.
    """
    spf = build_sieve(max(upto, 2)).spf
    val = [0] * (upto + 1)
    for n in range(2, upto + 1):
        p = spf[n]
        val[n] = (val[n // p] + f.prime_class(p)) % f.k
    return val


def spf_find_runs(f, r, bound):
    """Run starts from spf_class_table by counting kernel streaks."""
    vals = spf_class_table(f, bound + r - 1)
    runs = []
    length = 0  # kernel values ending at n
    for n in range(1, bound + r):
        length = 0 if vals[n] else length + 1
        if length >= r:
            runs.append(n - r + 1)
    return runs
