import json
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from multlab import jsontext

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),
    st.text(),
)
# Lists of ints with bools among them: the flat-list path must still
# print true and false.
int_lists = st.lists(
    st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.booleans())
)
json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    st.one_of(json_scalars, int_lists),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(json_keys, inner),
    ),
    max_leaves=30,
)


@given(json_values, st.sampled_from([1, 2, 3, 4096]))
def test_chunks_match_json_dumps_indent_2(value, flat_slice):
    with mock.patch.object(jsontext, "_FLAT_SLICE", flat_slice):
        assert "".join(jsontext.json_chunks(value)) == json.dumps(value, indent=2)


def test_int_lists_at_the_short_and_slice_lengths():
    for length in (64, 65, 4095, 4096, 4097, 8193):
        doc = {"runs": list(range(-5, length - 5)), "tail": [[1], []]}
        assert "".join(jsontext.json_chunks(doc)) == json.dumps(doc, indent=2)


def test_lists_of_int_rows():
    # [prime, class] pairs and their edge cases: empty rows, bools (which
    # print as true/false and so leave the one-pass path), long rows,
    # tuples, big and negative ints, rows of mixed length (which leave the
    # one-format-per-row path), and rows next to items that are not int
    # lists.
    cases = [
        [[2, 1], [3, 0], [5, 2]],
        [[1], [2], [3]],
        [[1, 2, 3], (4, 5, 6)],
        [[2, 1], [3, 0], []],
        [[2, 1], [3, 0, 5], [7]],
        [[2, 1], [3, 0, 5], [7, False]],
        [[], [2, 1], []],
        [[]],
        [[2, True], [3, 0]],
        [[False], []],
        [list(range(5000)), [1]],
        [(2, 1), [3, -4], (2**70, -(2**70))],
        [[2, 1], "x"],
        [[2, 1], [2.5]],
        [[2, 1], None],
        [[2, 1], [[3]]],
    ]
    for rows in cases:
        for doc in (rows, {"assignment": rows}, [{"assignment": rows}]):
            assert "".join(jsontext.json_chunks(doc)) == json.dumps(doc, indent=2)


def test_int_rows_are_written_in_one_piece():
    doc = {"assignment": [[p, p % 3] for p in (2, 3, 5, 7, 11)]}
    chunks = list(jsontext.json_chunks(doc))
    assert len(chunks) == 5
    assert "".join(chunks) == json.dumps(doc, indent=2)


def check_mask_writers(mask):
    """The mask writers against json.dumps and the plain lines of the
    index list, at top level and nested deeper."""
    indices = [i for i, flag in enumerate(mask) if flag]
    for wrap in (lambda v: v, lambda v: {"runs": v, "count": 0}, lambda v: [{"x": [v]}]):
        text = "".join(jsontext.json_chunks(wrap(jsontext.MaskIndices(mask))))
        assert text == json.dumps(wrap(indices), indent=2)
    assert jsontext.mask_index_lines(mask) == "".join(f"{a}\n" for a in indices)


@st.composite
def masks(draw):
    size = draw(st.integers(0, 3 * jsontext._MASK_BLOCK + 2))
    ones = draw(st.sets(st.integers(0, max(size - 1, 0)))) if size else set()
    return bytes(i in ones for i in range(size))


@given(masks())
def test_mask_indices_match_json_dumps_of_the_index_list(mask):
    check_mask_writers(mask)


def test_mask_indices_at_block_edges():
    block = jsontext._MASK_BLOCK

    def mask_of(size, *ones):
        mask = bytearray(size)
        for i in ones:
            mask[i] = 1
        return bytes(mask)

    cases = [
        b"",
        bytes(5),
        mask_of(2, 1),
        mask_of(1, 0),
        mask_of(10**6 + 1, 999, 1000, 1001, 10**6),
        mask_of(2 * block, 0, block - 1, 2 * block - 1),
        mask_of(3 * block, block, 3 * block - 1),
        mask_of(block + 1, block),
        bytes([1]) * (2 * block + 7),
    ]
    for mask in cases:
        check_mask_writers(mask)
