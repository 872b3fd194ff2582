"""Hypothesis strategy for JSON documents built from a format's field names.

A document is either any JSON value whose objects take their keys from the
given names, or a valid document with some fields (top level or nested)
replaced by such values. Integers include some beyond int64 and float64,
and floats include NaN and the infinities, as `json.loads` accepts both.
"""

import json

from hypothesis import strategies as st


def json_values(keys):
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
        st.sampled_from([2**63, 10**400, -(10**400)]),  # beyond int64, beyond float64
        st.sampled_from(["rbf", "linear", "polynomial", "ellipse", "rectangle"]),
    )
    return st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(keys), kids, max_size=4),
        max_leaves=12,
    )


def _nested_dicts(doc):
    yield doc
    for value in doc.values():
        if isinstance(value, dict):
            yield from _nested_dicts(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict):
                    yield from _nested_dicts(item)


@st.composite
def _mutated(draw, valid, key, values):
    doc = json.loads(valid)
    targets = list(_nested_dicts(doc))
    for _ in range(draw(st.integers(1, 3))):
        target = targets[draw(st.integers(0, len(targets) - 1))]
        target[draw(key)] = draw(values)
    return doc


def json_documents(valid: str, keys):
    """JSON texts: arbitrary documents over `keys`, or `valid` (a JSON text)
    with one to three fields of its objects set to arbitrary values."""
    values = json_values(keys)
    return st.one_of(values, _mutated(valid, st.sampled_from(keys), values)).map(json.dumps)
