import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlab.arith import build_sieve, factorize, is_prime, valuation

from oracles import naive_valuation, primes_upto, trial_division_factors


def test_sieve_primes_match_trial_division():
    sieve = build_sieve(500)
    assert sieve.primes() == primes_upto(500)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        build_sieve(1)


def test_factorize_small_cases():
    sieve = build_sieve(100)
    assert factorize(1, sieve) == []
    assert factorize(2, sieve) == [(2, 1)]
    assert factorize(84, sieve) == [(2, 2), (3, 1), (7, 1)]
    assert factorize(97, sieve) == [(97, 1)]


def test_factorize_range_errors():
    sieve = build_sieve(20)
    with pytest.raises(ValueError):
        factorize(0, sieve)
    with pytest.raises(ValueError):
        factorize(21, sieve)


@given(st.integers(min_value=1, max_value=3000))
def test_factorize_matches_trial_division(n):
    sieve = build_sieve(3000)
    assert factorize(n, sieve) == trial_division_factors(n)


@given(st.integers(min_value=1, max_value=3000))
def test_factorize_reconstructs_argument(n):
    sieve = build_sieve(3000)
    prod = 1
    for p, e in factorize(n, sieve):
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_exactly_divides(n, p):
    e = valuation(n, p)
    assert n % p**e == 0
    assert n % p ** (e + 1) != 0


def test_valuation_handles_big_integers():
    n = 2**120 * 3**45 * 17
    assert valuation(n, 2) == 120
    assert valuation(n, 3) == 45
    assert valuation(n, 5) == 0


@given(
    st.sampled_from([2, 3, 5, 7, 65537]),
    st.integers(min_value=0, max_value=9),
    st.sampled_from([-1, 0, 1]),
    st.integers(min_value=0, max_value=2**3000),
    st.integers(min_value=1, max_value=65536),
)
def test_valuation_matches_repeated_division(p, j, shift, c, r):
    # exponents around powers of two sit at the edges of the window widths
    # and of the binary digits of the exponent
    e = max(2**j + shift, 0)
    cofactor = c * p + (r % (p - 1) + 1)  # not divisible by p
    n = p**e * cofactor
    assert valuation(n, p) == naive_valuation(n, p) == e


def test_valuation_input_errors():
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(10, 1)


@given(st.integers(min_value=-5, max_value=300))
def test_is_prime_matches_sieve(n):
    assert is_prime(n) == (n in set(primes_upto(300)))
