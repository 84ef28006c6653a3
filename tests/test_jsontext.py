import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knotquiver.jsontext import fpoly_text, json_text

ints = st.integers() | st.integers(min_value=2**64, max_value=2**200)
scalars = st.none() | st.booleans() | ints | st.text()


def _records(shape):
    """Lists of records with the keys of ``shape``: an int column for a
    width of 0, else a column of int lists or tuples of that width."""
    columns = {
        key: ints if width == 0 else st.lists(ints, min_size=width, max_size=width)
        | st.tuples(*[ints] * width)
        for key, width in shape.items()
    }
    return st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=5)


# same-shape records, which json_text writes through one template: records
# shaped like F's {"coef", "exp"} term rows, and records under arbitrary keys
shapes = st.dictionaries(st.text(), st.integers(min_value=0, max_value=3), min_size=1, max_size=3)
records = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: _records({"coef": 0, "exp": n})
) | shapes.flatmap(_records)
values = st.recursive(
    scalars | records,
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
@example([{"coef": 1, "exp": [0, 1]}, {"coef": -2, "exp": (3, 4)}])
@example({"terms": [{"coef": 1, "exp": [0]}, {"coef": 2, "exp": [10]}]})
# records the template does not take: they are written by the generic walk
@example([{"coef": 1, "exp": [0]}, {"coef": True, "exp": [1]}])  # a bool in an int column
@example([{"coef": 1, "exp": [0]}, {"coef": 1, "exp": [True]}])  # a bool in a list column
@example([{"coef": 1, "exp": [0]}, {"coef": 1}])  # a missing key
@example([{"coef": 1, "exp": [0]}, {"coef": 1, "exp": [0], "x": 2}])  # an extra key
@example([{"coef": 1, "exp": [0]}, {"coef": 1, "ex": [0]}])  # another key, same count
@example([{"coef": 1, "exp": [0]}, {"coef": 1, "exp": [0, 1]}])  # two lengths
@example([{"coef": 1, "exp": []}])  # an empty list
@example([{"coef": {"a": 1}, "exp": [0]}])  # a nested dict
@example([{}, {}])  # no keys
@example([{1: 2, 0: [1]}, {1: 3, 0: [2]}])  # int keys
@example([{"é\"%d": 1, "%%": [2], "": 0}])  # keys that need escaping, and % signs
@example([{"coef": 2**70, "exp": [2**65, -(2**80)]}])  # ints above 2**64
def test_same_text_as_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"a": {1, 2}}, {1.5: 0}, {(1,): 0}, b"x"])
def test_unsupported_type_is_a_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)


@given(values)
@example({"b": [1, {"c": None}], "a": []})
def test_nested_text_is_the_text_one_level_in(value):
    """With ``nl`` one level deep, the text is the value's text as a field."""
    outer = json.dumps({"k": value}, indent=2, sort_keys=True)
    assert outer == '{\n  "k": ' + json_text(value, "\n  ") + "\n}"


def _rows(nvars):
    entries = st.sampled_from([0, 1, 9, 10, 99, 100, 255]) | st.integers(0, 255)
    rows = st.tuples(*[entries | st.integers(-3, 2**70)] * nvars)
    return st.tuples(st.just(nvars), st.lists(rows, min_size=1, max_size=6))


@given(st.integers(min_value=1, max_value=4).flatmap(_rows), st.integers(min_value=0, max_value=3))
@example((2, [(0, 0), (1, 255)]), 3)
@example((2, [(0, 0), (1, 256)]), 0)  # an entry past the digit table
@example((1, [(-1,)]), 0)  # a negative entry is not read from the table
def test_fpoly_text_is_the_text_of_the_term_records(case, depth):
    nvars, rows = case
    data = {"nvars": nvars, "terms": [{"coef": 1, "exp": list(row)} for row in rows]}
    nl = "\n" + "  " * depth
    assert fpoly_text(rows, nvars, nl) == json_text(data, nl)
    if depth == 0:
        assert fpoly_text(rows, nvars) == json.dumps(data, indent=2, sort_keys=True)
