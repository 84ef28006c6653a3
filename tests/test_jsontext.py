import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knotquiver.jsontext import json_text

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.text()
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.integers(min_value=0, max_value=9), max_size=5)
        | st.dictionaries(st.text(), inner, max_size=5)
        | st.dictionaries(st.integers(), inner, max_size=5)
    ),
    max_leaves=30,
)


@given(values)
@example({10: 1, 2: 1})
@example({None: []})
@example({True: {}, 2: 1, False: ()})
@example({"é": "ü\\u2028\"\x00", "": (1, True, None)})
@example([[], {}, (), [[0, 1], [2**70]]])
def test_same_text_as_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"a": {1, 2}}, {1.5: 0}, {(1,): 0}, b"x"])
def test_unsupported_type_is_a_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)
