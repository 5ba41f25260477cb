import math
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlab import blockseq
from multlab.blockseq import (
    MAX_DECIMAL_DIGITS,
    BlockSequence,
    check_term_size,
    estimated_digits,
    generate_block_sequence,
    normalize_index_set,
    precedes,
    subset_sum,
    term_residues,
    verify_block_divisibility,
)

from oracles import block_order, naive_block_divisibility, powerset_sums


def test_frozen_initial_terms():
    seq = generate_block_sequence(4)
    assert seq.terms == (1, 1, 2, 144, 29720977239060172800)


def test_fifth_term_digit_count():
    seq = generate_block_sequence(5)
    assert len(str(seq.terms[5])) == 332
    assert estimated_digits(5) == 332


def test_recurrence_against_direct_product():
    # independent recomputation: s_{m+1} as a plain product over subsets,
    # up to s_7, whose 127 factors generate multiplies by Toom-3
    seq = generate_block_sequence(7)
    for m in range(7):
        prefix = seq.terms[: m + 1]
        expected = math.prod(
            sum(combo)
            for size in range(1, m + 2)
            for combo in combinations(prefix, size)
        )
        assert seq.terms[m + 1] == expected


def test_generation_cap_mentions_digits():
    with pytest.raises(ValueError, match="decimal digits"):
        generate_block_sequence(9)


def test_terms_past_the_digit_limit_are_refused_before_any_product():
    assert estimated_digits(7) <= MAX_DECIMAL_DIGITS < estimated_digits(8)
    check_term_size(7)
    with pytest.raises(ValueError, match="roughly 87031808 decimal digits, over the cap"):
        check_term_size(8)
    with pytest.raises(ValueError, match="refusing s_8"):
        generate_block_sequence(8)
    # a huge index is refused without forming its digit estimate
    with pytest.raises(ValueError, match=r"refusing s_1000000: .* roughly 332 \* 2\^"):
        generate_block_sequence(10**6)


def test_digit_estimates_stop_at_s11():
    assert estimated_digits(11) == 332 * 2**45
    start = time.perf_counter()
    for n in (12, 10**6):
        with pytest.raises(ValueError, match=f"digit estimates stop at s_11, got n = {n}"):
            estimated_digits(n)
    assert time.perf_counter() - start < 1


@given(st.integers(0, 6), st.one_of(
    st.integers(1, 2**80),
    st.builds(pow, st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 300)),
))
def test_term_residues_agree_with_the_sequence(n, q):
    assert term_residues(n, q) == [t % q for t in generate_block_sequence(n).terms]


def test_sequence_validation():
    with pytest.raises(ValueError):
        BlockSequence(())
    with pytest.raises(ValueError):
        BlockSequence((2, 3))
    with pytest.raises(ValueError):
        BlockSequence((1, 3, 2))
    BlockSequence((1, 1, 2))  # repeat only between s_0 and s_1 is fine


def test_repr_past_the_int_str_limit():
    seq = generate_block_sequence(6)
    assert seq.terms[6].bit_length() == 36291  # past the 4300-digit limit
    assert repr(seq) == (
        "BlockSequence(terms=(1, 1, 2, 144, <65-bit integer>, "
        "<1100-bit integer>, <36291-bit integer>))"
    )
    assert repr(BlockSequence((1,))) == "BlockSequence(terms=(1,))"
    assert repr(BlockSequence((1, 2, 6))) == repr((1, 2, 6)).join(("BlockSequence(terms=", ")"))
    with pytest.raises(ValueError, match=r"s_1 = <7925-bit integer> >= s_2 = 2$"):
        BlockSequence((1, 3**5000, 2))


def separated_pairs(n):
    # A with max m, then any nonempty B within m+1..n
    return sum(2**m * (2 ** (n - m) - 1) for m in range(n))


def test_verify_accepts_generated_sequences():
    assert separated_pairs(6) == 321 and separated_pairs(7) == 769
    for n in range(8):
        report = verify_block_divisibility(generate_block_sequence(n))
        assert report.ok
        assert report.checked == separated_pairs(n)
        assert report.counterexample is None


def test_s7_and_its_check_peak_below_two_mib():
    # s_7 is 2.36 million bits (0.28 MiB).  generate holds it and its 127
    # factors, verify the Q_lo products, and Toom-3 its parts and five
    # products: 1.57 MiB at the peak.
    tracemalloc.start()
    try:
        report = verify_block_divisibility(generate_block_sequence(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.ok, report.checked) == (True, 769)
    assert peak < 2 << 20


def toom_operands():
    bits = st.integers(0, 3000)
    return st.one_of(
        st.integers(-(1 << 3000), 1 << 3000),
        bits.map(lambda b: 1 << b),
        bits.map(lambda b: (1 << b) - 1),
    )


@given(toom_operands(), toom_operands())
def test_toom3_product_is_the_builtin_product(x, y):
    # At a 64-bit cutoff a 3000-bit product recurses four levels deep, its
    # values at -1 and -2 go negative, and unlike lengths fall back to x * y.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blockseq, "_TOOM_BITS", 64)
        assert blockseq._mul(x, y) == x * y
        factors = [x, y, abs(x) + 1, x ^ y]
        assert blockseq._balanced_product(factors) == math.prod(factors)


def test_verify_finds_first_counterexample_in_block_order():
    report = verify_block_divisibility(BlockSequence((1, 2, 3)))
    assert not report.ok
    assert report.counterexample == ((1,), (2,))


def test_verify_falls_back_to_pairs_when_the_product_fails():
    # Every separated pair divides, but at the cut before index 3 the product
    # 1 * 2 * 3 * 6 * 7 * 8 * 9 = 18144 does not divide s_3 = 504.
    report = verify_block_divisibility(BlockSequence((1, 2, 6, 504)))
    assert report.ok
    assert report.checked == 17 == separated_pairs(3)
    assert report.counterexample is None


@st.composite
def short_sequences(draw):
    """Generated prefixes, one term moved by 1, or arbitrary increasing terms."""
    kind = draw(st.sampled_from(["generated", "perturbed", "arbitrary"]))
    if kind == "arbitrary":
        steps = draw(st.lists(st.integers(1, 60), max_size=5))
        terms = [1, draw(st.integers(1, 40))]
        for step in steps:
            terms.append(terms[-1] + step)
        return tuple(terms[: draw(st.integers(1, len(terms)))])
    terms = list(generate_block_sequence(draw(st.integers(0, 5))).terms)
    if kind == "perturbed" and len(terms) > 1:
        i = draw(st.integers(1, len(terms) - 1))
        delta = draw(st.sampled_from([-1, 1]))
        for moved in (terms[i] + delta, terms[i] - delta):
            candidate = terms[:i] + [moved] + terms[i + 1 :]
            if moved >= 1 and all(a < b for a, b in zip(candidate[1:], candidate[2:])):
                terms = candidate
                break
    return tuple(terms)


@given(short_sequences())
def test_verify_matches_pairwise_oracle(terms):
    report = verify_block_divisibility(BlockSequence(terms))
    assert (report.ok, report.checked, report.counterexample) == naive_block_divisibility(terms)


def test_subset_sum_and_validation():
    seq = generate_block_sequence(3)
    assert subset_sum(seq, [0]) == 1
    assert subset_sum(seq, [1, 2]) == 3
    assert subset_sum(seq, (3,)) == 144
    with pytest.raises(ValueError):
        subset_sum(seq, [])
    with pytest.raises(ValueError):
        subset_sum(seq, [4])
    with pytest.raises(ValueError):
        subset_sum(seq, [1, 1])


def test_normalize_and_precedes():
    assert normalize_index_set([3, 1]) == (1, 3)
    assert precedes((1, 2), (3,))
    assert not precedes((1, 3), (3,))
    with pytest.raises(ValueError):
        normalize_index_set([])
    with pytest.raises(ValueError):
        normalize_index_set([-1])
    with pytest.raises(ValueError):
        precedes((), (1,))


@given(st.integers(min_value=0, max_value=5), st.data())
def test_separated_subset_sums_divide(n, data):
    # the defining property, on randomly drawn separated pairs
    seq = generate_block_sequence(n)
    if n < 1:
        return
    cut = data.draw(st.integers(min_value=1, max_value=n))
    a = data.draw(st.sets(st.integers(0, cut - 1), min_size=1))
    b = data.draw(st.sets(st.integers(cut, n), min_size=1))
    assert subset_sum(seq, b) % subset_sum(seq, a) == 0


def test_every_nonempty_subset_sum_appears_in_powerset_oracle():
    seq = generate_block_sequence(4)
    sums = sorted(powerset_sums(seq.terms))
    for block in block_order(0, 4):
        assert subset_sum(seq, block) in sums
