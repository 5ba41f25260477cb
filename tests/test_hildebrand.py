import json
import math
import time
import tracemalloc
from bisect import bisect_right
from itertools import chain, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import cli, hildebrand
from multlab.arith import build_sieve
from multlab.hildebrand import (
    FOUND,
    MAX_MODULUS,
    SAT,
    UNKNOWN,
    UNSAT,
    AvoidanceCertificate,
    SearchOptions,
    avoidance_search,
    certificate_from_dict,
    certificate_to_dict,
    hildebrand_constant,
    _Tables,
    _window_extremes,
    _zero_masks,
    verify_certificate,
)

from oracles import (
    brute_force_avoidance,
    fresh_probe_deepening,
    spf_tables,
    spf_walk_avoidance,
    trial_division_factors,
)

def test_forcing_constant_for_two_classes():
    res = hildebrand_constant(2, 20)
    assert res.status == FOUND
    assert res.c == 9
    assert res.certificate_for == 8
    assert res.certificate.assignment == {2: 1, 3: 1, 5: 1, 7: 1}
    assert verify_certificate(res.certificate)


def test_trivial_modulus_forces_immediately():
    res = hildebrand_constant(1, 5)
    assert res.status == FOUND
    assert res.c == 1
    assert res.certificate is None
    assert res.certificate_for == 0


def test_avoidance_matches_brute_force_for_two_classes():
    for B in range(1, 11):
        sat, least = brute_force_avoidance(2, 2, B)
        out = avoidance_search(2, 2, B)
        assert (out.status == SAT) == sat
        if sat:
            assert out.certificate.assignment == least
            assert verify_certificate(out.certificate)


def test_avoidance_matches_brute_force_for_three_classes():
    for B in range(1, 9):
        sat, least = brute_force_avoidance(3, 2, B)
        out = avoidance_search(3, 2, B)
        assert (out.status == SAT) == sat
        if sat:
            assert out.certificate.assignment == least


def test_triple_runs_avoidable_far_beyond_pair_bound():
    out = avoidance_search(2, 3, 50)
    assert out.status == SAT
    assert verify_certificate(out.certificate)


def test_constant_gives_up_when_all_bounds_satisfiable():
    res = hildebrand_constant(2, 6)
    assert res.status == UNKNOWN
    assert res.reason == "sat-at-bmax"
    assert res.certificate_for == 6
    assert verify_certificate(res.certificate)


def test_deepening_rechecks_only_the_certificate_it_returns(monkeypatch):
    calls, verify = [], hildebrand.verify_certificate

    def counting(cert):
        calls.append(cert)
        return verify(cert)

    monkeypatch.setattr(hildebrand, "verify_certificate", counting)
    res = hildebrand_constant(4, 1300)
    assert (res.status, res.c, res.certificate_for) == (FOUND, 1224, 1223)
    assert (res.stats.nodes, res.stats.backtracks) == (199554, 66141)
    assert calls == [res.certificate]
    assert res.certificate == avoidance_search(4, 2, 1223).certificate
    calls.clear()
    res = hildebrand_constant(2, 6)
    assert (res.status, res.certificate_for) == (UNKNOWN, 6)
    assert calls == [res.certificate]
    calls.clear()
    res = hildebrand_constant(1, 5)
    assert (res.status, res.certificate, calls) == (FOUND, None, [])


def test_a_false_sat_fails_the_one_recheck(monkeypatch):
    def all_kernel(k, tables, B, *rest):
        n = bisect_right(tables.primes, B + tables.r - 1)
        return SAT, [0] * n, None, n, 0, n

    monkeypatch.setattr(hildebrand, "_run_dfs", all_kernel)
    out = avoidance_search(2, 2, 8)
    assert out.status == SAT
    with pytest.raises(RuntimeError, match="failed re-verification"):
        out.certificate
    with pytest.raises(RuntimeError, match="failed re-verification"):
        hildebrand_constant(2, 20)


def test_symmetry_reduction_preserves_lex_least_answers():
    red = SearchOptions(symmetry_reduction=True)
    for k in (2, 3, 4):
        for B in range(1, 8):
            full = avoidance_search(k, 2, B)
            reduced = avoidance_search(k, 2, B, red)
            assert full.status == reduced.status
            if full.status == SAT:
                assert full.certificate.assignment == reduced.certificate.assignment


def test_node_budget_yields_unknown():
    out = avoidance_search(2, 2, 8, SearchOptions(node_budget=2))
    assert out.status == UNKNOWN
    assert out.reason == "node-budget"
    assert out.certificate is None
    res = hildebrand_constant(2, 20, options=SearchOptions(node_budget=3))
    assert res.status == UNKNOWN
    assert res.reason == "node-budget"


def test_time_budget_yields_unknown():
    out = avoidance_search(5, 2, 7888, SearchOptions(time_budget=1e-9))
    assert out.status == UNKNOWN
    assert out.reason == "time-budget"
    assert out.certificate is None
    res = hildebrand_constant(4, 1300, options=SearchOptions(time_budget=1e-9))
    assert res.status == UNKNOWN
    assert res.reason == "time-budget"


def test_huge_deepening_bound_allocates_nothing_up_front():
    t0 = time.monotonic()
    res = hildebrand_constant(2, 10**9)
    assert time.monotonic() - t0 < 2.0
    assert res.status == FOUND
    assert res.c == 9


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
@pytest.mark.parametrize("r", [2, 3, 4, 12])
@pytest.mark.parametrize("symmetry", [False, True])
def test_shared_tables_match_fresh_probes(k, r, symmetry):
    # B_max 80 makes the tables grow from 64; 150 and 300 make them grow again.
    # At r = 12, k = 2 pushes windows that start at or below B + r - 1.
    runs = [(B_max, budget) for B_max in (1, 8, 64, 80, 150, 300) for budget in (None, 5, 40, 1000)]
    if (k, r) == (3, 2):
        # Every small budget: some run out inside a resumed probe, some
        # inside the prefix a probe would skip, which it then scans afresh.
        runs += [(200, budget) for budget in range(1, 401)]
    for B_max, node_budget in runs:
        opts = SearchOptions(symmetry_reduction=symmetry, node_budget=node_budget)
        res = hildebrand_constant(k, B_max, r=r, options=opts)
        got = (
            res.status, res.c, res.certificate, res.certificate_for,
            res.stats.nodes, res.stats.backtracks, res.stats.depth_reached,
            res.reason,
        )
        assert got == fresh_probe_deepening(k, r, B_max, opts), (B_max, node_budget)


@pytest.mark.parametrize(
    "k, r, b_max, snapshots, nodes, backtracks",
    [(4, 2, 1300, 136, 199554, 66141), (3, 3, 1500, 100, 385733, 191557)],
)
def test_deepening_snapshots_come_from_the_forbidden_pass(
    monkeypatch, k, r, b_max, snapshots, nodes, backtracks
):
    # A probe at B pushes (a, state) at an entry into prime index i: a window
    # snapshot has i below nprimes and a window a > B of i, and the final sat
    # push has i == nprimes and a == B + 1.  Each entry is checked once, right
    # after the probe that pushed it, and kept so that no id is reused.
    run_dfs, seen, window_starts = hildebrand._run_dfs, {}, []

    def watched(modulus, tables, B, first, node_budget, deadline, stack=None):
        out = run_dfs(modulus, tables, B, first, node_budget, deadline, stack)
        nprimes = bisect_right(tables.primes, B + r - 1)
        for entry in stack:
            if id(entry) in seen:
                continue
            seen[id(entry)] = entry
            a, (i, val, *_) = entry
            if i == nprimes:
                assert (out[0], a) == (SAT, B + 1)
                continue
            assert i < nprimes and a > B and a in tables.windows[i]
            # The element i owns in window a reads 0: i holds no class yet.
            assert val[a + -a % tables.primes[i]] == 0
            window_starts.append(a)
        return out

    monkeypatch.setattr(hildebrand, "_run_dfs", watched)
    res = hildebrand_constant(k, b_max, r=r)
    assert (len(window_starts), res.stats.nodes, res.stats.backtracks) == (
        snapshots, nodes, backtracks,
    )


@pytest.mark.parametrize(
    "k, b_max, c, nodes, backtracks",
    [
        (2, 100, 9, 51, 28),
        (3, 200, 77, 1655, 729),
        (4, 1300, 1224, 199554, 66141),
        (5, 10000, 7888, 5976661, 1770514),
    ],
)
def test_cli_constant_pins_answer_and_counts(capsys, k, b_max, c, nodes, backtracks):
    code = cli.main(["constant", "--k", str(k), "--b-max", str(b_max), "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (doc["status"], doc["c"], doc["certificate_for"]) == ("found", c, c - 1)
    assert doc["certificate_verified"] is True
    assert (doc["stats"]["nodes"], doc["stats"]["backtracks"]) == (nodes, backtracks)


def test_stats_are_populated():
    out = avoidance_search(2, 2, 8)
    assert out.stats.nodes > 0
    assert out.stats.depth_reached == 4
    assert out.stats.wall_time >= 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        avoidance_search(0, 2, 5)
    with pytest.raises(ValueError):
        avoidance_search(2, 1, 5)
    with pytest.raises(ValueError):
        avoidance_search(2, 2, 0)
    with pytest.raises(ValueError):
        hildebrand_constant(2, 0)
    with pytest.raises(ValueError, match="modulus k must be >= 1, got 0"):
        hildebrand_constant(0, 5)
    with pytest.raises(ValueError, match="run length must be >= 2, got 1"):
        hildebrand_constant(2, 5, r=1)
    with pytest.raises(ValueError):
        SearchOptions(node_budget=0)


def test_modulus_past_the_cap_is_refused_before_any_table(monkeypatch):
    def no_tables(*args):
        raise AssertionError("tables built for a refused modulus")

    monkeypatch.setattr(hildebrand, "_Tables", no_tables)
    message = f"modulus k = {MAX_MODULUS + 1} exceeds the search cap {MAX_MODULUS}"
    with pytest.raises(ValueError, match=message):
        avoidance_search(MAX_MODULUS + 1, 2, 10**9)
    with pytest.raises(ValueError, match=message):
        hildebrand_constant(MAX_MODULUS + 1, 10**9)
    monkeypatch.undo()
    assert avoidance_search(MAX_MODULUS, 2, 10).status == SAT


def test_tables_past_the_cap_are_refused_before_any_sieve(monkeypatch):
    # prime_flags is the table build's first allocation sized by B + r - 1.
    def no_sieve(*args):
        raise AssertionError("sieve built")

    monkeypatch.setattr(hildebrand, "prime_flags", no_sieve)
    cap = hildebrand.MAX_TABLE_LIMIT
    for k, r, B in [(2, 2, cap), (2, 3, cap - 1), (2, 10**11, 5), (2, 2, 10**11)]:
        with pytest.raises(ValueError, match=f"^B \\+ r - 1 = {B + r - 1} exceeds the search "
                                             f"table cap {cap}$"):
            avoidance_search(k, r, B)
    with pytest.raises(ValueError, match="exceeds the search table cap"):
        hildebrand_constant(2, 5, r=cap + 1)
    # B + r - 1 at the cap itself passes the check and reaches the sieve.
    with pytest.raises(AssertionError, match="sieve built"):
        avoidance_search(2, 3, cap - 2)
    with pytest.raises(AssertionError, match="sieve built"):
        hildebrand_constant(2, 10**11, r=cap)


def test_certificate_requires_complete_assignment():
    with pytest.raises(ValueError, match="misses"):
        AvoidanceCertificate(2, 2, 8, {2: 1, 3: 1, 5: 1})
    with pytest.raises(ValueError, match="not primes"):
        AvoidanceCertificate(2, 2, 8, {2: 1, 3: 1, 5: 1, 7: 1, 11: 1})
    with pytest.raises(ValueError, match="outside"):
        AvoidanceCertificate(2, 2, 8, {2: 1, 3: 1, 5: 1, 7: 2})


def test_certificate_dict_round_trip():
    cert = avoidance_search(2, 2, 8).certificate
    doc = certificate_to_dict(cert)
    assert certificate_from_dict(doc) == cert
    with pytest.raises(ValueError, match="'k'"):
        certificate_from_dict({"k": None, "r": 2, "B": 8, "assignment": []})
    with pytest.raises(ValueError, match="repeats"):
        certificate_from_dict(
            {"k": 2, "r": 2, "B": 2, "assignment": [[2, 1], [2, 1], [3, 1]]}
        )


def test_certificate_from_dict_refuses_booleans():
    # bool is an int subclass, so JSON true would otherwise read as 1.
    doc = {"k": 2, "r": 2, "B": 1, "assignment": [[2, 0]]}
    assert certificate_from_dict(doc).k == 2
    for name in ("k", "r", "B"):
        with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
            certificate_from_dict(dict(doc, **{name: True}))
    with pytest.raises(ValueError, match="'assignment' must contain"):
        certificate_from_dict(dict(doc, assignment=[[2, False]]))


def test_known_triple_avoider_verifies_at_scale():
    primes = build_sieve(1002).primes()
    cert = AvoidanceCertificate(
        2, 3, 1000, {p: 0 if p % 3 == 1 else 1 for p in primes}
    )
    assert verify_certificate(cert)


def test_invalid_certificate_detected():
    # all primes in the kernel: every window is a kernel run
    primes = build_sieve(9).primes()
    cert = AvoidanceCertificate(2, 2, 8, {p: 0 for p in primes})
    assert not verify_certificate(cert)


@settings(max_examples=25)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 8))
def test_search_decision_matches_brute_force(k, r, B):
    sat, least = brute_force_avoidance(k, r, B)
    out = avoidance_search(k, r, B)
    assert (out.status == SAT) == sat
    if sat:
        assert out.certificate.assignment == least


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([2, 3, 4]),
    st.integers(1, 400),
    st.booleans(),
    st.sampled_from([None, 5, 40]),
)
def test_class_table_engine_matches_spf_walk(k, r, B, symmetry, node_budget):
    opts = SearchOptions(symmetry_reduction=symmetry, node_budget=node_budget)
    out = avoidance_search(k, r, B, opts)
    got = (
        out.status,
        out.certificate.assignment if out.certificate else None,
        out.stats.nodes, out.stats.backtracks, out.stats.depth_reached, out.reason,
    )
    assert got == spf_walk_avoidance(k, r, B, symmetry, node_budget)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from([2, 3, 4]),
    st.integers(1, 300).flatmap(lambda B: st.tuples(st.just(B), st.integers(B, 4 * B))),
    st.booleans(),
    st.sampled_from([None, 5, 40]),
)
def test_a_probe_reads_larger_tables_as_its_own(k, r, B_bound, symmetry, node_budget):
    B, bound = B_bound
    opts = SearchOptions(symmetry_reduction=symmetry, node_budget=node_budget)

    def answer(out):
        stats = out.stats
        return (out.status, out.certificate, stats.nodes, stats.backtracks,
                stats.depth_reached, out.reason)

    shared = avoidance_search(k, r, B, opts, _tables=_Tables(r, bound))
    assert answer(shared) == answer(avoidance_search(k, r, B, opts))


def test_large_modulus_reads_only_the_mask_rows_it_needs():
    # A full table of k * k masks would take seconds to build at this k.
    t0 = time.monotonic()
    out = avoidance_search(3000, 2, 300)
    assert time.monotonic() - t0 < 2.0
    got = (out.status, out.certificate.assignment, out.stats.nodes, out.stats.backtracks)
    assert got == spf_walk_avoidance(3000, 2, 300, False, None)[:4]


def test_zero_masks_match_brute_force():
    for k in range(1, 13):
        zero = _zero_masks(k, 20)
        for b in range(k):
            for e in range(21):
                kernel = set()
                for c in range(k):
                    total = b
                    for _ in range(e):
                        total = (total + c) % k
                    if total == 0:
                        kernel.add(c)
                assert zero[b][e] == sum(1 << c for c in kernel), (k, b, e)
                # e*c = -b (mod k) has gcd(e, k) solutions when that divides b, else none.
                g = math.gcd(e, k)
                assert len(kernel) == (g if b % g == 0 else 0), (k, b, e)


@pytest.mark.parametrize(
    "k, B, status, nodes, backtracks, depth",
    [
        (5, 7887, SAT, 1522, 525, 997),
        (5, 7888, UNSAT, 29825, 29825, 25),
        (6, 10**5, SAT, 12367, 2775, 9592),
    ],
)
def test_large_probes_pin_status_and_counts(k, B, status, nodes, backtracks, depth):
    out = avoidance_search(k, 2, B)
    assert out.status == status
    stats = out.stats
    assert (stats.nodes, stats.backtracks, stats.depth_reached) == (nodes, backtracks, depth)
    assert (out.certificate is not None) == (status == SAT)


# Windows of three integers starting at 1..2998 reach up to 3000.
SPLIT = _Tables(3, 2998)


@given(st.integers(min_value=2, max_value=3000))
def test_tables_split_matches_trial_division(n):
    *smaller, (p, e) = trial_division_factors(n)
    assert SPLIT.primes[SPLIT.lpi[n]] == p
    assert SPLIT.ex[n] == e
    assert trial_division_factors(SPLIT.cof[n]) == smaller


@given(st.integers(min_value=2, max_value=3000))
def test_tables_split_reconstructs_argument(n):
    p = SPLIT.primes[SPLIT.lpi[n]]
    assert SPLIT.cof[n] * p ** SPLIT.ex[n] == n
    assert all(q < p for q, _ in trial_division_factors(SPLIT.cof[n]))


def assert_tables_match_the_spf_walk(r, bound):
    tables, walk = _Tables(r, bound), spf_tables(r, bound)
    for name in ("primes", "lpi", "cof", "windows", "fresh", "due"):
        assert getattr(tables, name) == getattr(walk, name), (bound, name)
    assert list(tables.ex) == walk.ex, bound


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 9, 17])
def test_tables_match_the_spf_walk(r):
    # Bounds 1..600 meet p**2 - 1, p**2 + 1, higher prime powers and primes
    # just above limit // 2 for every small p; 4095..4097 and 8193 end
    # just before, at and after a chunk of starts.
    for bound in [*range(1, 601), 4095, 4096, 4097, 5003, 8193, 10**4]:
        assert_tables_match_the_spf_walk(r, bound)


@pytest.mark.parametrize("r, bound", [(600, 5000), (5000, 50)])
def test_tables_match_the_spf_walk_for_long_windows(r, bound):
    # A window of 600 spans a chunk edge; one of 5000 is longer than a
    # chunk of 4096 starts, and than every start.
    assert_tables_match_the_spf_walk(r, bound)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
def test_window_extremes_match_max_and_min_of_each_slice(xs):
    for r in range(1, len(xs) + 1):
        starts = range(len(xs) - r + 1)
        assert _window_extremes(xs, r) == [max(xs[j : j + r]) for j in starts]
        assert _window_extremes(xs, r, least=True) == [min(xs[j : j + r]) for j in starts]


def test_tables_hold_one_int_object_per_integer():
    tables = _Tables(3, 5000)
    lists = [tables.primes, tables.lpi, tables.cof, *tables.windows, *tables.fresh, *tables.due]
    seen = {}
    for n in chain.from_iterable(lists):
        assert seen.setdefault(n, n) is n


def test_table_memory_is_pinned():
    # 8.5 MiB traced with one int object per integer; 13.0 MiB when every
    # list held its own ints and the exponents were a list.
    tracemalloc.start()
    try:
        tables = _Tables(2, 10**5)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tables.cof) == 10**5 + 2
    assert live < 10 * 2**20


@pytest.mark.parametrize("r", [2, 3, 6, 12, 30])
def test_each_window_holds_one_multiple_of_its_prime(r):
    # The search reads only that multiple as the window's element owned by
    # its prime; r > p is where a second one could fit.
    tables = _Tables(r, 5000)
    for i, ws in enumerate(tables.windows):
        p = tables.primes[i]
        for a in ws:
            assert [n for n in range(a, a + r) if n % p == 0] == [a + -a % p]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("bound, B", [(300, 300), (300, 7), (300, 150), (300, 299)])
def test_tables_write_each_integer_before_its_first_read(r, bound, B):
    tables = _Tables(r, bound)
    lpi, cof = tables.lpi, tables.cof
    limit = B + r - 1
    # What a probe at B reads: each list up to its first entry past the bound.
    primes = tables.primes[: bisect_right(tables.primes, limit)]

    def read(lists, top):
        return [list(takewhile(top.__ge__, xs)) for xs in lists[: len(primes)]]

    fresh, due, windows = read(tables.fresh, limit), read(tables.due, limit), read(tables.windows, B)
    assert primes == [p for p in tables.primes if p <= limit]
    for xs in (*tables.fresh, *tables.due, *tables.windows):
        assert xs == sorted(xs)
    assert sorted(a for ws in windows for a in ws) == list(range(1, B + 1))
    written = {}
    for i, (ns, ds) in enumerate(zip(fresh, due)):
        assert all(lpi[n] == i for n in ns) and all(lpi[n] < i for n in ds)
        for n in ds + ns:
            assert n not in written
            written[n] = i
    # Integers no window at B reads may sit past its last prime.
    assert set(written) <= set(range(2, limit + 1))
    for i, ws in enumerate(windows):
        for a in ws:
            elems = range(max(a, 2), a + r)
            assert max(lpi[n] for n in elems) == i
            assert all(written[n] <= i for n in elems)
            assert all(n in fresh[i] for n in elems if lpi[n] == i)
    for n, i in written.items():
        if cof[n] > 1:
            assert written[cof[n]] <= i
    if B == bound:
        # A due integer is read where it is due: in a window there, or as
        # the cofactor of an integer written there.
        for i, ds in enumerate(due):
            readers = {n for a in windows[i] for n in range(a, a + r)}
            readers |= {cof[m] for m in fresh[i] + ds}
            assert set(ds) <= readers
        assert sorted(written) == list(range(2, limit + 1))
