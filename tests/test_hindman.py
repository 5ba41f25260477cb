import dataclasses
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlab.hindman import (
    MAX_RANDOM_N,
    BlockFamily,
    SearchBudgetExceeded,
    SubsetColoring,
    _block_of,
    _mask_of,
    fu_closure,
    max_parity_coloring,
    monochromatic_fu_search,
    random_coloring,
    size_parity_coloring,
)

from oracles import all_blocks, brute_force_family, naive_fu_search, union_closure


def test_family_validation():
    BlockFamily(((1, 2), (4,)))
    with pytest.raises(ValueError):
        BlockFamily(())
    with pytest.raises(ValueError):
        BlockFamily(((1, 3), (2, 4)))
    with pytest.raises(ValueError):
        BlockFamily(((1,), (1,)))


def test_coloring_validation():
    with pytest.raises(ValueError):
        SubsetColoring(0, 2, len)
    coloring = SubsetColoring(4, 2, lambda b: 1 + len(b) % 2)
    assert coloring.color_of((2, 3)) == 1
    with pytest.raises(ValueError):
        coloring.color_of((5,))
    bad = SubsetColoring(4, 2, lambda b: 7)
    with pytest.raises(ValueError):
        bad.color_of((1,))


def test_fu_closure_order_for_two_blocks():
    family = BlockFamily(((1,), (2,)))
    assert fu_closure(family) == [(1,), (2,), (1, 2)]


def test_fu_closure_size_and_content():
    family = BlockFamily(((1,), (2, 3), (5,)))
    closure = fu_closure(family)
    assert len(closure) == 7
    assert set(closure) == union_closure(list(family.blocks))


@st.composite
def separated_families(draw):
    blocks = []
    lo = 1
    for _ in range(draw(st.integers(1, 3))):
        if lo > 8:
            break
        hi = draw(st.integers(lo, 8))
        block = draw(st.sets(st.integers(lo, hi), min_size=1))
        blocks.append(tuple(sorted(block)))
        lo = max(block) + 1
    return BlockFamily(tuple(blocks))


@given(separated_families())
def test_fu_closure_matches_set_union_oracle(family):
    closure = fu_closure(family)
    assert len(closure) == 2 ** len(family.blocks) - 1
    assert set(closure) == union_closure(list(family.blocks))


def test_single_color_takes_leading_singletons():
    coloring = SubsetColoring(5, 1, lambda b: 1)
    family = monochromatic_fu_search(coloring, 3)
    assert family.blocks == ((1,), (2,), (3,))


def test_size_parity_example():
    family = monochromatic_fu_search(size_parity_coloring(6), 2)
    assert family.blocks == ((1, 2), (3, 4))


def test_max_parity_exhausts_tiny_universe():
    assert monochromatic_fu_search(max_parity_coloring(2), 2) is None


def test_budget_exhaustion_raises():
    coloring = max_parity_coloring(6)
    with pytest.raises(SearchBudgetExceeded):
        monochromatic_fu_search(coloring, 3, node_budget=2)


def test_random_coloring_is_seed_stable():
    a = random_coloring(6, 3, seed=11)
    b = random_coloring(6, 3, seed=11)
    assert all(a.color_of(blk) == b.color_of(blk) for blk in all_blocks(6))


def test_random_coloring_refuses_oversized_universe():
    with pytest.raises(ValueError, match=f"exceeds the cap {MAX_RANDOM_N}"):
        random_coloring(MAX_RANDOM_N + 1, 2, seed=0)


@given(st.integers(0, 200), st.integers(1, 3), st.integers(1, 3))
def test_search_matches_unpruned_brute_force(seed, classes, m):
    n = 6
    coloring = random_coloring(n, classes, seed)
    expected = brute_force_family(coloring.color_of, n, m)
    family = monochromatic_fu_search(coloring, m)
    if expected is None:
        assert family is None
    else:
        assert family is not None
        assert family.blocks == expected


@given(st.integers(0, 500))
def test_search_is_sound_on_random_colorings(seed):
    coloring = random_coloring(7, 3, seed)
    family = monochromatic_fu_search(coloring, 2)
    if family is not None:
        colors = {coloring.color_of(u) for u in fu_closure(family)}
        assert len(colors) == 1


def seeded_table(n, classes, seed):
    """Colors drawn for the blocks of {1..n} in block order, one per block."""
    rng = random.Random(seed)
    return {block: rng.randint(1, classes) for block in all_blocks(n)}


@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 4), st.integers(0, 10**6))
def test_search_matches_tuple_engine_and_its_node_count(n, classes, m, seed):
    table = seeded_table(n, classes, seed)
    coloring = SubsetColoring(n, classes, table.__getitem__)
    expected, nodes = naive_fu_search(table.__getitem__, n, m)
    family = monochromatic_fu_search(coloring, m, node_budget=nodes)
    assert (family.blocks if family else None) == expected
    # one node short stops the search; a budget of 0 is refused outright
    with pytest.raises(SearchBudgetExceeded if nodes > 1 else ValueError):
        monochromatic_fu_search(coloring, m, node_budget=nodes - 1)


@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 10**6))
def test_random_coloring_draws_in_block_order(n, classes, seed):
    table = seeded_table(n, classes, seed)
    coloring = random_coloring(n, classes, seed)
    assert all(coloring.color_of(block) == c for block, c in table.items())


@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 4), st.integers(0, 10**6))
def test_table_path_matches_tuple_engine_and_its_node_count(n, classes, m, seed):
    coloring = random_coloring(n, classes, seed)
    table = coloring.table
    assert len(table) == 1 << n
    for mask in range(1, 1 << n):
        assert 1 <= table[mask] <= classes
        assert table[mask] == coloring.color_of(_block_of(mask, n))
    expected, nodes = naive_fu_search(coloring.color_of, n, m)

    def no_calls(block):
        raise AssertionError("a table coloring is read by mask during the search")

    table_only = dataclasses.replace(coloring, color=no_calls)
    family = monochromatic_fu_search(table_only, m, node_budget=nodes)
    assert (family.blocks if family else None) == expected
    with pytest.raises(SearchBudgetExceeded if nodes > 1 else ValueError):
        monochromatic_fu_search(table_only, m, node_budget=nodes - 1)


@given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 10**6))
def test_table_of_more_colors_than_a_byte_takes_the_scan(n, m, seed):
    # Colors past 255 do not fit the bitsets' byte per mask, so such a
    # table is scanned; family and node count are those of the tuples.
    coloring = random_coloring(n, 300, seed)
    expected, nodes = naive_fu_search(coloring.color_of, n, m)
    family = monochromatic_fu_search(coloring, m, node_budget=nodes)
    assert (family.blocks if family else None) == expected
    with pytest.raises(SearchBudgetExceeded if nodes > 1 else ValueError):
        monochromatic_fu_search(coloring, m, node_budget=nodes - 1)


def test_refutation_node_count_at_scale():
    # The families benchmark's m = 5 refutation: exactly 428 357 candidate
    # blocks, as the scan over every candidate counts them.
    coloring = random_coloring(15, 2, 0)
    assert monochromatic_fu_search(coloring, 5, node_budget=428_357) is None
    with pytest.raises(SearchBudgetExceeded, match="exceeded 428356 nodes"):
        monochromatic_fu_search(coloring, 5, node_budget=428_356)


@pytest.mark.parametrize("seed,m", [(0, 4), (0, 5), (41, 4), (3, 3)])
def test_each_subset_is_colored_at_most_once(seed, m):
    n = 11
    table = seeded_table(n, 2, seed)
    calls = Counter()

    def color(block):
        calls[block] += 1
        return table[block]

    monochromatic_fu_search(SubsetColoring(n, 2, color), m)
    assert calls and max(calls.values()) == 1


def test_wide_universe_allocates_nothing_up_front():
    # After A_1 = {1} no block of size parity can follow, so the search
    # walks subsets of {2..60}; a budget stops it long before 2^59.
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded):
        monochromatic_fu_search(size_parity_coloring(60), 3, node_budget=20_000)
    family = monochromatic_fu_search(max_parity_coloring(60), 3)
    assert family.blocks == ((1,), (2, 3), (4, 5))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("make, oracle", [
    (size_parity_coloring, lambda block: 1 + len(block) % 2),
    (max_parity_coloring, lambda block: 1 + block[-1] % 2),
])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_parity_tables_color_by_size_and_largest_element(make, oracle, n):
    coloring = make(n)
    for block in all_blocks(n):
        assert coloring.table[_mask_of(block, n)] == coloring.color_of(block) == oracle(block)


def test_parity_coloring_search_stores_no_colors():
    # No 2-block family starts at {1} (two odd blocks have an even union),
    # so the search walks second blocks until the budget stops it.
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded):
            monochromatic_fu_search(size_parity_coloring(30), 2, node_budget=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("budget", [0, -3])
def test_node_budget_below_one_is_refused_before_searching(budget):
    def no_calls(block):
        raise AssertionError("a refused budget colors nothing")

    with pytest.raises(ValueError, match=f"^node budget must be >= 1, got {budget}$"):
        monochromatic_fu_search(SubsetColoring(4, 2, no_calls), 2, node_budget=budget)
