import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab import blockseq, witness
from multlab.blockseq import generate_block_sequence, subset_sum
from multlab.hindman import SearchBudgetExceeded
from multlab.multfunc import MultiplicativeFunction
from multlab.witness import (
    DIRECT_SEARCH,
    PROOF_PIPELINE,
    MAX_DECIMAL_DIGITS,
    MAX_GENERATORS,
    IPWitness,
    block_sum_coloring,
    fs_closure,
    ip_witness_direct,
    ip_witness_from_proof,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)

from oracles import (
    all_blocks,
    brute_force_family,
    eager_block_sum_color,
    powerset_sums,
    primes_upto,
    set_scan_direct_witness,
)


def liouville_prefix(limit=31):
    return MultiplicativeFunction.sieve_bounded(2, {}, limit=limit, default_class=1)


def test_fs_closure_basic():
    assert fs_closure((9, 15)) == [9, 15, 24]
    assert fs_closure((5,)) == [5]
    with pytest.raises(ValueError):
        fs_closure(())


def test_fs_closure_deduplicates_collisions():
    assert fs_closure((1, 2, 3)) == [1, 2, 3, 4, 5, 6]


@given(st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True))
def test_fs_closure_matches_powerset_oracle(gens):
    gens = tuple(sorted(gens))
    assert fs_closure(gens) == sorted(set(powerset_sums(gens)))


def test_witness_validation():
    f = liouville_prefix()
    with pytest.raises(ValueError):
        IPWitness(f, 1, (), DIRECT_SEARCH)
    with pytest.raises(ValueError):
        IPWitness(f, 1, (15, 9), DIRECT_SEARCH)
    with pytest.raises(ValueError):
        IPWitness(f, 0, (9,), DIRECT_SEARCH)
    with pytest.raises(ValueError):
        IPWitness(f, 1, (9,), "folklore")


def test_generator_count_is_capped_before_any_closure(monkeypatch):
    def no_closure(*args):
        raise AssertionError("closure formed")

    monkeypatch.setattr(witness, "fs_closure", no_closure)
    monkeypatch.setattr(witness, "run_mask", no_closure)
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    powers = tuple(1 << i for i in range(40))
    with pytest.raises(ValueError, match="^40 generators exceed the cap 20$"):
        IPWitness(f, 1, powers, DIRECT_SEARCH)
    assert IPWitness(f, 1, powers[:MAX_GENERATORS], DIRECT_SEARCH).generators[-1] == 1 << 19
    with pytest.raises(ValueError, match="^generator count m = 21 exceeds the cap 20$"):
        ip_witness_direct(f, MAX_GENERATORS + 1, 10**11)


def test_direct_witness_on_omega_parity_prefix():
    w = ip_witness_direct(liouville_prefix(), 2, 30)
    assert w.generators == (9, 15)
    assert w.b1 == 1
    assert w.provenance == DIRECT_SEARCH
    assert verify_witness(w)
    assert fs_closure(w.generators) == [9, 15, 24]


def test_direct_witness_is_lex_least():
    # {9, 14} fails because 9 + 14 = 23 is prime, hence class 1
    f = liouville_prefix()
    w = ip_witness_direct(f, 2, 30)
    assert w.generators < (9, 24)
    assert ip_witness_direct(f, 3, 30) is None


def test_direct_witness_absent_when_no_closed_family_exists():
    # kernel pairs below 14 are {9, 14}, but 9 + 14 = 23 is prime
    f = liouville_prefix()
    assert ip_witness_direct(f, 2, 14) is None
    # and the mod-3 function has no kernel pair at all before 6
    from multlab.arith import build_sieve

    primes = build_sieve(7).primes()
    g = MultiplicativeFunction.sieve_bounded(
        2, {p: 0 if p % 3 == 1 else 1 for p in primes}, limit=7
    )
    assert ip_witness_direct(g, 1, 5) is None


def test_direct_witness_node_budget():
    # Kernel pairs up to 30 are 9, 14, 15, 21, 24, 25.  A node is one
    # candidate generator examined: m = 2 tries 9, then 14 (9 + 14 = 23
    # fails), then 15; m = 3 tries 6 first generators, 15 second ones and
    # 3 third ones after (9, 15), the only closed pair.
    f = liouville_prefix()
    for m, bound, nodes in ((1, 30, 1), (2, 30, 3), (3, 30, 24), (2, 14, 3)):
        expected = ip_witness_direct(f, m, bound)
        assert ip_witness_direct(f, m, bound, node_budget=nodes) == expected
        # one node short stops the search; a budget of 0 is refused outright
        with pytest.raises(SearchBudgetExceeded if nodes > 1 else ValueError):
            ip_witness_direct(f, m, bound, node_budget=nodes - 1)


@st.composite
def small_sieve_bounded(draw):
    """(f, bound): a sieve-bounded function with k <= 4 that evaluates to bound + 1."""
    k = draw(st.integers(1, 4))
    bound = draw(st.integers(1, 300))
    primes = primes_upto(bound + 1)
    classes = draw(st.lists(st.integers(0, k - 1), min_size=len(primes), max_size=len(primes)))
    default = draw(st.integers(0, k - 1))
    f = MultiplicativeFunction.sieve_bounded(k, dict(zip(primes, classes)), bound + 1, default)
    return f, bound


@given(small_sieve_bounded(), st.integers(1, 4))
def test_direct_witness_matches_the_set_scan_and_its_node_count(f_bound, m):
    f, bound = f_bound
    expected, nodes = set_scan_direct_witness(f, m, bound)
    found = ip_witness_direct(f, m, bound, node_budget=max(nodes, 1))
    assert (found.generators if found else None) == expected
    if nodes:
        # one node short stops the search; a budget of 0 is refused outright
        with pytest.raises(SearchBudgetExceeded if nodes > 1 else ValueError):
            ip_witness_direct(f, m, bound, node_budget=nodes - 1)


def test_direct_witness_node_count_at_scale():
    # The families benchmark's direct witness: Liouville's kernel pairs up
    # to 2 * 10^5, m = 4, found after exactly 6 376 candidate generators.
    f = liouville_prefix(200_001)
    w = ip_witness_direct(f, 4, 200_000, node_budget=6_376)
    assert w.generators == (9, 15, 326, 25813)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 6375 nodes"):
        ip_witness_direct(f, 4, 200_000, node_budget=6_375)


def test_invalid_witness_rejected_by_verifier():
    f = liouville_prefix()
    bogus = IPWitness(f, 1, (9, 14), DIRECT_SEARCH)
    assert not verify_witness(bogus)


def test_pipeline_witness_trivial_modulus():
    f = MultiplicativeFunction.finite_support(1, {})
    w = ip_witness_from_proof(f, 3, 3)
    assert w.blocks == ((1,), (2,), (3,))
    assert w.b1 == 1
    assert w.generators == (2, 144)
    assert w.provenance == PROOF_PIPELINE
    assert verify_witness(w)


def test_pipeline_witness_dyadic_valuation_parity():
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    w = ip_witness_from_proof(f, 2, 3)
    assert w.blocks == ((1,), (3,))
    assert w.generators == (144,)
    assert verify_witness(w)


def test_pipeline_quotients_and_classes_recheck():
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    w = ip_witness_from_proof(f, 2, 4)
    seq = generate_block_sequence(4)
    b1 = subset_sum(seq, w.blocks[0])
    assert w.b1 == b1
    base = f.evaluate(b1)
    for block, g in zip(w.blocks[1:], w.generators):
        b = subset_sum(seq, block)
        assert b % b1 == 0
        assert b // b1 == g
        assert f.evaluate(b) == base


def test_pipeline_rejects_wrong_inputs():
    f = liouville_prefix()
    with pytest.raises(ValueError, match="finite-support"):
        ip_witness_from_proof(f, 2, 3)
    g = MultiplicativeFunction.finite_support(2, {})
    with pytest.raises(ValueError, match="m >= 2"):
        ip_witness_from_proof(g, 1, 3)
    with pytest.raises(ValueError):
        ip_witness_from_proof(g, 2, 0)


def test_pipeline_none_when_prefix_too_short():
    f = MultiplicativeFunction.finite_support(3, {2: 1, 3: 2, 5: 1})
    assert ip_witness_from_proof(f, 5, 2) is None


@settings(max_examples=40)
@given(st.integers(1, 4), st.data())
def test_pipeline_sound_and_complete_on_small_prefixes(k, data):
    assignment = {
        p: data.draw(st.integers(0, k - 1), label=f"class of {p}")
        for p in (2, 3, 5, 7)
    }
    f = MultiplicativeFunction.finite_support(k, assignment)
    w = ip_witness_from_proof(f, 2, 4)
    seq = generate_block_sequence(4)
    oracle = brute_force_family(
        lambda blk: 1 + f.evaluate(subset_sum(seq, blk)), 4, 2
    )
    if w is None:
        assert oracle is None
    else:
        assert w.blocks == oracle
        assert verify_witness(w)


def test_witness_dict_round_trip():
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    w = ip_witness_from_proof(f, 2, 3)
    doc = witness_to_dict(w)
    assert doc["b1"] == "1"
    assert doc["generators"] == ["144"]
    assert doc["blocks"] == [[1], [3]]
    back = witness_from_dict(doc)
    assert back == w
    assert witness_to_dict(back) == doc


def test_witness_dict_round_trip_past_the_int_str_limit():
    f = MultiplicativeFunction.finite_support(2, {2: 1, 3: 1, 5: 1})
    w = ip_witness_from_proof(f, 4, 6)
    doc = witness_to_dict(w)
    assert [len(g) for g in doc["generators"]] == [20, 332, 10925]
    assert witness_from_dict(doc) == w


def test_witness_digit_cap_is_named():
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    doc = witness_to_dict(ip_witness_from_proof(f, 2, 3))
    doc["generators"] = ["9" * (MAX_DECIMAL_DIGITS + 1)]
    with pytest.raises(ValueError, match=f"cap of {MAX_DECIMAL_DIGITS} decimal digits"):
        witness_from_dict(doc)


def test_witness_direct_dict_round_trip_omits_blocks():
    w = ip_witness_direct(liouville_prefix(), 2, 30)
    doc = witness_to_dict(w)
    assert "blocks" not in doc
    assert witness_from_dict(doc) == w


def test_witness_from_dict_diagnostics():
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    doc = witness_to_dict(ip_witness_from_proof(f, 2, 3))
    bad = dict(doc, k=3)
    with pytest.raises(ValueError, match="'k'"):
        witness_from_dict(bad)
    bad = dict(doc, provenance="guess")
    with pytest.raises(ValueError, match="provenance"):
        witness_from_dict(bad)
    bad = dict(doc, generators=[])
    with pytest.raises(ValueError, match="generators"):
        witness_from_dict(bad)
    bad = dict(doc, b1="12x")
    with pytest.raises(ValueError, match="b1"):
        witness_from_dict(bad)


def test_witness_from_dict_refuses_booleans():
    # JSON true and false are Python ints; no integer field takes them.
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    doc = witness_to_dict(ip_witness_from_proof(f, 2, 3))
    assert witness_from_dict(doc).blocks is not None
    with pytest.raises(ValueError, match="'k' is True"):
        witness_from_dict(dict(doc, k=True, function={"k": 1}))
    for name, value in (("b1", True), ("generators", [True]), ("blocks", [[True]])):
        with pytest.raises(ValueError, match=f"'{name}'"):
            witness_from_dict(dict(doc, **{name: value}))


@settings(max_examples=80)
@given(st.integers(1, 7), st.integers(1, 6), st.data())
def test_block_sum_coloring_matches_the_materialized_sequence(n, k, data):
    assignment = {
        p: data.draw(st.integers(0, k - 1), label=f"class of {p}")
        for p in (2, 3, 5, 7)
    }
    f = MultiplicativeFunction.finite_support(k, assignment)
    coloring = block_sum_coloring(f, n)
    oracle = eager_block_sum_color(f, n)
    assert coloring.n == n and coloring.classes == k
    for block in all_blocks(n):
        assert coloring.color_of(block) == oracle(block)


def test_block_sum_coloring_needs_a_finite_support_function():
    with pytest.raises(ValueError, match="finite-support"):
        block_sum_coloring(liouville_prefix(), 3)


def test_block_sum_coloring_keeps_the_digit_limit_of_the_terms_before_n():
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    assert block_sum_coloring(f, 8).color_of((8,)) == 1
    with pytest.raises(ValueError, match="refusing s_8"):
        block_sum_coloring(f, 9)
    # a huge index is refused without forming its digit estimate
    with pytest.raises(ValueError, match=r"refusing s_999999: .* roughly 332 \* 2\^"):
        block_sum_coloring(f, 10**6)


def record_products(monkeypatch):
    """Factor counts of every product blockseq forms, and the calls to
    generate_block_sequence made from witness."""
    factors, generated = [], []
    product = blockseq._balanced_product
    generate = witness.generate_block_sequence

    def counting_product(values):
        factors.append(len(values))
        return product(values)

    def counting_generate(n, **kwargs):
        generated.append(n)
        return generate(n, **kwargs)

    monkeypatch.setattr(blockseq, "_balanced_product", counting_product)
    monkeypatch.setattr(witness, "generate_block_sequence", counting_generate)
    return factors, generated


@pytest.mark.parametrize("k, assignment, blocks, bits", [
    (2, {2: 1, 3: 1, 5: 1}, ((1,), (4,), (5,), (6,)), [65, 1100, 36291]),
    (4, {2: 1, 3: 2, 5: 3}, ((1, 2), (4,), (5,), (6,)), [64, 1099, 36289]),
])
def test_pipeline_at_prefix_seven_never_builds_s7(monkeypatch, k, assignment, blocks, bits):
    factors, generated = record_products(monkeypatch)
    f = MultiplicativeFunction.finite_support(k, assignment)
    w = ip_witness_from_proof(f, 4, 7)
    # s_6 is the product of 63 sums; s_7 would be one of 127.
    assert max(factors) == 63 and generated == [6]
    assert w.blocks == blocks
    assert [g.bit_length() for g in w.generators] == bits
    seq = generate_block_sequence(6)
    sums = [subset_sum(seq, block) for block in blocks]
    assert w.b1 == sums[0]
    assert w.generators == tuple(s // sums[0] for s in sums[1:])


def test_pipeline_builds_s_n_when_the_family_uses_block_n(monkeypatch):
    factors, generated = record_products(monkeypatch)
    f = MultiplicativeFunction.finite_support(3, {2: 1, 3: 2, 5: 1})
    w = ip_witness_from_proof(f, 3, 4)
    assert generated == [4] and max(factors) == 15
    assert w.blocks == brute_force_family(eager_block_sum_color(f, 4), 4, 3)
    assert w.blocks == ((1, 2), (3,), (4,))
    seq = generate_block_sequence(4)
    sums = [subset_sum(seq, block) for block in w.blocks]
    assert (w.b1, w.generators) == (sums[0], tuple(s // sums[0] for s in sums[1:]))
    assert verify_witness(w)


def test_pipeline_refuses_s8_only_when_the_family_needs_it():
    # Under one class every block has the same color, so the first family
    # of 8 blocks is {1}, ..., {8}: it needs s_8, past the digit limit.
    f = MultiplicativeFunction.finite_support(1, {})
    with pytest.raises(ValueError, match="refusing s_8"):
        ip_witness_from_proof(f, 8, 8)


@pytest.mark.parametrize("budget", [0, -1])
def test_witness_searches_refuse_a_node_budget_below_one(budget):
    message = f"^node budget must be >= 1, got {budget}$"
    f = MultiplicativeFunction.finite_support(2, {2: 1})
    with pytest.raises(ValueError, match=message):
        ip_witness_from_proof(f, 2, 3, node_budget=budget)
    with pytest.raises(ValueError, match=message):
        ip_witness_direct(liouville_prefix(), 2, 30, node_budget=budget)
