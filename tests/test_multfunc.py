import hashlib
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlab import multfunc
from multlab.arith import build_sieve
from multlab.multfunc import (
    FINITE_SUPPORT,
    SIEVE_BOUNDED,
    MultiplicativeFunction,
    class_table,
    find_runs,
    function_from_dict,
    function_to_dict,
    run_mask,
)

from oracles import naive_class, naive_runs, primes_upto, spf_class_table, spf_find_runs

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def finite_support_functions(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    support = draw(st.sets(st.sampled_from(SMALL_PRIMES)))
    assignment = {p: draw(st.integers(0, k - 1)) for p in support}
    return MultiplicativeFunction.finite_support(k, assignment)


@st.composite
def sieve_bounded_functions(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    limit = draw(st.integers(min_value=10, max_value=80))
    primes = [p for p in build_sieve(limit).primes()]
    chosen = draw(st.sets(st.sampled_from(primes)))
    assignment = {p: draw(st.integers(0, k - 1)) for p in chosen}
    default = draw(st.integers(0, k - 1))
    return MultiplicativeFunction.sieve_bounded(k, assignment, limit, default)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MultiplicativeFunction(0, {})
    with pytest.raises(ValueError):
        MultiplicativeFunction(2, {4: 1})
    with pytest.raises(ValueError):
        MultiplicativeFunction(2, {3: 2})
    with pytest.raises(ValueError):
        MultiplicativeFunction(2, {}, mode="bounded")
    with pytest.raises(ValueError):
        MultiplicativeFunction(2, {}, mode=FINITE_SUPPORT, limit=10)
    with pytest.raises(ValueError):
        MultiplicativeFunction(2, {}, mode=FINITE_SUPPORT, default_class=1)
    with pytest.raises(ValueError):
        MultiplicativeFunction(2, {}, mode=SIEVE_BOUNDED)
    with pytest.raises(ValueError):
        MultiplicativeFunction(2, {13: 1}, mode=SIEVE_BOUNDED, limit=10)


@pytest.mark.parametrize(
    "assignment, message",
    [
        ({2: 1, 9: 1}, "assignment key 9 is not prime"),
        ({-3: 1}, "assignment key -3 is not prime"),
        ({0: 1}, "assignment key 0 is not prime"),
        ({1: 1}, "assignment key 1 is not prime"),
        ({21: 1}, "assignment key 21 is not prime"),
        ({13: 1}, "assigned prime 13 exceeds limit 10"),
        ({13: 5}, "class 5 for prime 13 outside 0..1"),
        ({7: 2, 4: 1}, "class 2 for prime 7 outside 0..1"),
        ({4: 2, 7: 1}, "assignment key 4 is not prime"),
    ],
)
def test_sieve_bounded_key_errors_keep_their_messages(assignment, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MultiplicativeFunction.sieve_bounded(2, assignment, 10)


@pytest.mark.parametrize("mode_args", [{}, {"mode": SIEVE_BOUNDED, "limit": 100}])
def test_keys_past_the_primality_test_are_refused(mode_args):
    key = 2**89 - 1  # prime, but above PRIME_TEST_BOUND
    with pytest.raises(ValueError, match=f"^assignment key {key} is too large to test"):
        MultiplicativeFunction(2, {key: 1}, **mode_args)
    # earlier keys still fail first, and composites keep their message
    with pytest.raises(ValueError, match="^assignment key 9 is not prime$"):
        MultiplicativeFunction(2, {9: 1, key: 1}, **mode_args)
    with pytest.raises(ValueError, match=f"^assignment key {2**100} is not prime$"):
        MultiplicativeFunction(2, {2**100: 1}, **mode_args)


def test_key_checks_and_tables_never_allocate_by_limit():
    # Any table or sieve sized by the 10^7 limit would take 10 MB or more.
    tracemalloc.start()
    try:
        liouville = MultiplicativeFunction.sieve_bounded(2, {}, 10**7, default_class=1)
        f = MultiplicativeFunction.sieve_bounded(3, {2: 1, 7: 2}, 10**7, default_class=1)
        lone = MultiplicativeFunction.sieve_bounded(2, {9_999_991: 1}, 10**7)
        assert find_runs(liouville, 2, 30) == [9, 14, 15, 21, 24, 25]
        assert list(class_table(f, 50)) == spf_class_table(f, 50)
        assert class_table(lone, 10) == bytearray(11)
        assert lone.evaluate(9_999_991) == 1
        assert f.evaluate(10**7) == naive_class(3, f.prime_class, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_class_table_past_the_cap_is_refused_before_any_allocation(monkeypatch):
    def no_table(*args):
        raise AssertionError("table allocated")

    cap = multfunc.MAX_TABLE_UPTO
    monkeypatch.setattr(multfunc, "bytearray", no_table, raising=False)
    monkeypatch.setattr(multfunc, "prime_flags", no_table)
    liouville = MultiplicativeFunction.sieve_bounded(2, {}, 10**12, default_class=1)
    for upto in (cap + 1, 10**11):
        with pytest.raises(ValueError, match=f"^class table up to {upto} exceeds the cap {cap}$"):
            class_table(liouville, upto)
    with pytest.raises(ValueError, match=f"^class table up to {10**11 + 1} exceeds the cap"):
        find_runs(liouville, 2, 10**11)
    with pytest.raises(AssertionError, match="table allocated"):
        class_table(liouville, cap)


def test_evaluate_at_one_is_kernel():
    f = MultiplicativeFunction.finite_support(5, {2: 3})
    assert f.evaluate(1) == 0


@given(finite_support_functions(), st.integers(min_value=1, max_value=400))
def test_finite_support_matches_naive_evaluation(f, n):
    assert f.evaluate(n) == naive_class(f.k, f.prime_class, n)


@given(sieve_bounded_functions(), st.data())
def test_sieve_bounded_matches_naive_evaluation(f, data):
    n = data.draw(st.integers(min_value=1, max_value=f.limit))
    assert f.evaluate(n) == naive_class(f.k, f.prime_class, n)


@given(
    finite_support_functions(),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_complete_multiplicativity(f, a, b):
    assert f.evaluate(a * b) == (f.evaluate(a) + f.evaluate(b)) % f.k


def test_finite_support_evaluates_huge_arguments():
    f = MultiplicativeFunction.finite_support(7, {2: 3, 3: 5})
    n = 2**1000 * 3**400 * 101**9
    assert f.evaluate(n) == (1000 * 3 + 400 * 5) % 7


def test_sieve_bounded_rejects_out_of_range():
    f = MultiplicativeFunction.sieve_bounded(2, {}, limit=30, default_class=1)
    with pytest.raises(ValueError):
        f.evaluate(31)
    with pytest.raises(ValueError):
        find_runs(f, 2, 30)


TABLE_MODULI = [1, 2, 3, 4, 5, 6, 255, 256, 257, 1000]


@st.composite
def table_cases(draw):
    """(function, limit): finite support or sieve-bounded with either kind of
    default, and listed primes anywhere up to limit, so often above the
    bound a table is asked for."""
    k = draw(st.sampled_from(TABLE_MODULI))
    limit = draw(st.integers(min_value=4, max_value=300))
    chosen = draw(st.sets(st.sampled_from(primes_upto(limit))))
    assignment = {p: draw(st.integers(0, k - 1)) for p in chosen}
    mode = draw(st.sampled_from(["finite", "zero-default", "default"]))
    if mode == "finite":
        return MultiplicativeFunction.finite_support(k, assignment), limit
    default = draw(st.integers(1, k - 1)) if mode == "default" and k > 1 else 0
    return MultiplicativeFunction.sieve_bounded(k, assignment, limit, default), limit


@given(table_cases(), st.data())
def test_class_table_matches_spf_oracle(case, data):
    f, limit = case
    upto = data.draw(st.one_of(st.just(limit), st.integers(1, limit)))
    table = class_table(f, upto)
    assert isinstance(table, bytearray if f.k <= 256 else list)
    assert list(table) == spf_class_table(f, upto)


TABLE_EDGE = 2000  # covers upto = p*p - 1, p*p and p*p + 1 for every prime p <= 43
EDGE_PRIMES = [p for p in primes_upto(TABLE_EDGE) if p * p > TABLE_EDGE]


@pytest.mark.parametrize(
    "f",
    [
        MultiplicativeFunction.sieve_bounded(2, {}, TABLE_EDGE, default_class=1),
        # Only primes above sqrt(upto) listed, about half of them with class 0.
        MultiplicativeFunction.sieve_bounded(3, {p: p // 2 % 3 for p in EDGE_PRIMES}, TABLE_EDGE),
        # The list path, with classes past a byte.
        MultiplicativeFunction.sieve_bounded(
            257, {2: 256, 3: 0, 43: 1, 47: 0, 1999: 255}, TABLE_EDGE, default_class=200
        ),
        # Fewer primes above sqrt(upto) than strides: each takes a translate.
        MultiplicativeFunction.finite_support(5, {2: 1, 3: 4, 43: 2, 1009: 3, 1999: 1}),
        MultiplicativeFunction.sieve_bounded(257, {2: 256, 1009: 3, 1999: 100}, TABLE_EDGE),
    ],
    ids=["liouville", "zero-default-large-primes", "k257-default", "sparse", "k257-sparse"],
)
def test_class_table_matches_spf_oracle_at_every_bound(f):
    # The oracle's table to TABLE_EDGE holds every shorter one as a prefix.
    oracle = spf_class_table(f, TABLE_EDGE)
    for upto in range(1, TABLE_EDGE + 1):
        table = class_table(f, upto)
        assert isinstance(table, bytearray if f.k <= 256 else list)
        assert list(table) == oracle[: upto + 1], upto


def test_liouville_table_at_a_million_is_unchanged():
    upto = 10**6 + 1
    f = MultiplicativeFunction.sieve_bounded(2, {}, limit=upto, default_class=1)
    table = class_table(f, upto)
    # sha256 of the table built with one slice translation per prime power.
    digest = "bc4527a2d737d752feb151634f9f50d55a2eb8feb0c26882ea95a2f0511737d1"
    assert hashlib.sha256(table).hexdigest() == digest
    assert len(find_runs(f, 2, 10**6)) == 249_458


@given(table_cases(), st.integers(1, 4), st.data())
def test_find_runs_matches_spf_oracle(case, r, data):
    f, limit = case
    edge = limit - r + 1  # the scan reads up to limit exactly
    bound = data.draw(st.one_of(st.just(edge), st.integers(1, edge)))
    runs = find_runs(f, r, bound)
    assert runs == spf_find_runs(f, r, bound)
    mask = run_mask(f, r, bound)
    assert (len(mask), mask[0], set(mask) <= {0, 1}) == (bound + 1, 0, True)
    assert [a for a in range(bound + 1) if mask[a]] == runs


@pytest.mark.parametrize("k", [2, 257, 1000])
@pytest.mark.parametrize("r", [3, 4, 5])
def test_long_runs_on_byte_and_list_tables(k, r):
    # Three primes off the kernel leave it dense enough for runs of 5;
    # k > 256 takes the list table.
    f = MultiplicativeFunction.sieve_bounded(k, {7: 1, 11: k - 1, 13: 2 % k}, 3000)
    assert isinstance(class_table(f, 10), bytearray if k <= 256 else list)
    bound = 3000 - r + 1
    runs = find_runs(f, r, bound)
    assert runs and runs == spf_find_runs(f, r, bound)
    assert run_mask(f, r, bound)[0] == 0
    # 75, 76 and 77 = 7 * 11 are in the kernel for every k
    assert run_mask(f, 3, 100)[75] == 1


@pytest.mark.parametrize(
    "n",
    [999_983, 999_979, 997**2, 991**2, 2**19, 3**12, 999_983 - 1, 10**6 - 1, 10**6],
)
def test_sieve_bounded_evaluates_near_a_large_limit(n):
    f = MultiplicativeFunction.sieve_bounded(5, {2: 1, 997: 4, 999_983: 2}, 10**6, 3)
    assert f.evaluate(n) == naive_class(5, f.prime_class, n)


@given(sieve_bounded_functions())
def test_class_table_agrees_with_evaluate(f):
    upto = f.limit
    table = class_table(f, upto)
    assert all(table[n] == f.evaluate(n) for n in range(1, upto + 1))


@given(finite_support_functions(), st.integers(2, 4), st.integers(1, 60))
def test_find_runs_matches_naive_scan(f, r, bound):
    assert find_runs(f, r, bound) == naive_runs(f.k, f.prime_class, r, bound)


def test_all_primes_nontrivial_has_frozen_kernel_pairs():
    # k = 2 with every prime in class 1: value is the parity of Omega(n)
    f = MultiplicativeFunction.sieve_bounded(2, {}, limit=31, default_class=1)
    assert find_runs(f, 2, 30) == [9, 14, 15, 21, 24, 25]


def test_quadratic_mod3_function_avoids_every_triple_run():
    primes = build_sieve(1002).primes()
    f = MultiplicativeFunction.sieve_bounded(
        2, {p: 0 if p % 3 == 1 else 1 for p in primes}, limit=1002
    )
    assert find_runs(f, 3, 1000) == []
    assert find_runs(f, 2, 1000) != []


@given(finite_support_functions())
def test_function_dict_round_trip(f):
    doc = function_to_dict(f)
    back = function_from_dict(doc)
    assert back == f
    assert function_to_dict(back) == doc


@given(sieve_bounded_functions())
def test_sieve_bounded_dict_round_trip(f):
    assert function_from_dict(function_to_dict(f)) == f


def test_assignment_from_pairs_refuses_booleans():
    assert multfunc.assignment_from_pairs([[2, 1]], "pairs") == {2: 1}
    for pair in ([2, True], [True, 0], [2, False]):
        with pytest.raises(ValueError, match="pairs must contain"):
            multfunc.assignment_from_pairs([pair], "pairs")


def test_function_from_dict_refuses_booleans():
    doc = {"k": 2, "mode": SIEVE_BOUNDED, "limit": 31, "default": 1, "assignment": []}
    assert function_from_dict(doc).k == 2
    for name, value in (("k", True), ("limit", True), ("default", False)):
        with pytest.raises(ValueError, match=f"'{name}'"):
            function_from_dict(dict(doc, **{name: value}))
    with pytest.raises(ValueError, match="'assignment'"):
        function_from_dict(dict(doc, assignment=[[2, True]]))


def test_function_from_dict_names_offending_field():
    with pytest.raises(ValueError, match="'k'"):
        function_from_dict({"k": "two"})
    with pytest.raises(ValueError, match="'mode'"):
        function_from_dict({"k": 2, "mode": "weird"})
    with pytest.raises(ValueError, match="'assignment'"):
        function_from_dict({"k": 2, "assignment": [[2, 1, 3]]})
    with pytest.raises(ValueError, match="repeats"):
        function_from_dict({"k": 2, "assignment": [[2, 1], [2, 0]]})
    with pytest.raises(ValueError):
        function_from_dict([1, 2, 3])
