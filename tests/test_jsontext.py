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
