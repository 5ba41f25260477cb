import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlab.arith import PRIME_TEST_BOUND, build_sieve, is_prime, prime_flags, valuation

from oracles import naive_valuation, primes_upto


def test_sieve_primes_match_trial_division():
    sieve = build_sieve(500)
    assert sieve.primes() == primes_upto(500)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 48, 49, 50, 500])
def test_prime_flags_match_trial_division(limit):
    flags = prime_flags(limit)
    assert len(flags) == limit + 1
    assert [n for n, flag in enumerate(flags) if flag] == primes_upto(limit)
    assert set(flags) <= {0, 1}


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        build_sieve(1)
    with pytest.raises(ValueError):
        prime_flags(-1)


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


def test_is_prime_matches_sieve():
    flags = prime_flags(10**5)
    assert not any(map(is_prime, range(-5, 0)))
    assert [n for n in range(10**5 + 1) if is_prime(n)] == [
        n for n, flag in enumerate(flags) if flag
    ]


@pytest.mark.parametrize(
    "n, prime",
    [
        (561, False),  # Carmichael number
        (3_215_031_751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        (2**61 - 1, True),
        ((2**61 - 1) * (2**31 - 1), False),
        # least strong pseudoprime to every prime base up to 37; base 41 exposes it
        (318_665_857_834_031_151_167_461, False),
        (2**100, False),  # composites are decided at any size
        (3 * (2**89 - 1), False),
    ],
)
def test_is_prime_on_pseudoprimes_and_large_numbers(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_what_it_cannot_decide():
    # 2^89 - 1 is prime and PRIME_TEST_BOUND the least strong pseudoprime
    # to every base used: above the bound neither can be told from the other.
    for n in (2**89 - 1, PRIME_TEST_BOUND):
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(n)
