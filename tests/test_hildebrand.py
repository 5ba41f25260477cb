import json
import math
import time

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
    _zero_masks,
    verify_certificate,
)

from oracles import (
    brute_force_avoidance,
    fresh_probe_deepening,
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
    def all_kernel(k, tables, primes, *rest):
        return SAT, [0] * len(primes), None, len(primes), 0, len(primes)

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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("symmetry", [False, True])
def test_shared_tables_match_fresh_probes(k, r, symmetry):
    # B_max 80 makes the tables grow from 64; 150 makes them grow twice.
    for B_max in (1, 8, 64, 80, 150):
        for node_budget in (None, 5, 40):
            opts = SearchOptions(symmetry_reduction=symmetry, node_budget=node_budget)
            res = hildebrand_constant(k, B_max, r=r, options=opts)
            got = (
                res.status, res.c, res.certificate, res.certificate_for,
                res.stats.nodes, res.stats.backtracks, res.stats.depth_reached,
                res.reason,
            )
            assert got == fresh_probe_deepening(k, r, B_max, opts), (B_max, node_budget)


@pytest.mark.parametrize(
    "k, b_max, c, nodes, backtracks",
    [(2, 100, 9, 51, 28), (3, 200, 77, 1655, 729)],
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
    def no_sieve(*args):
        raise AssertionError("sieve built")

    monkeypatch.setattr(hildebrand, "build_sieve", no_sieve)
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
    primes, fresh, due, windows = tables.view(B)
    lpi, cof = tables.lpi, tables.cof
    limit = B + r - 1
    assert primes == [p for p in tables.primes if p <= limit]
    assert sorted(a for ws in windows for a in ws) == list(range(1, B + 1))
    written = {}
    for i, (ns, ds) in enumerate(zip(fresh, due)):
        assert ns == sorted(ns) and ds == sorted(ds)
        assert all(lpi[n] == i for n in ns) and all(lpi[n] < i for n in ds)
        for n in ds + ns:
            assert n not in written
            written[n] = i
    # Integers no window of the view reads may sit past its last prime.
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
