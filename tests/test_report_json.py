"""The report emitter writes what ``json.dumps(doc, sort_keys=True, indent=2)`` writes.

``report_json`` builds a document of dicts with str keys, lists, str,
int, float, bool and None, and ``cli._json_text`` writes it.  These tests
fuzz documents of that shape and compare the two byte for byte.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebroker.cli import _json_text

# Labels and ids: any code point, control characters, quotes and backslashes included.
texts = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7fé \ud800\U0001f600 aA', max_size=8))
floats = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324, 0.1]))
ints = st.one_of(st.integers(), st.integers(min_value=-(10**80), max_value=10**80))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40,
)

# The document report_json builds, with fuzzed labels and values.
counts = st.one_of(st.none(), ints)
auctions = st.fixed_dictionaries(
    {
        name: counts
        for name in ("index", "request_round", "final_price", "rounds", "demand", "granted", "revenue", "cost",
                     "reference_mc", "band_low", "band_high")
    }
    | {"vc": texts, "termination": texts, "winner": st.one_of(st.none(), texts), "within_band": st.one_of(st.none(), st.booleans())}
)
ledger = st.fixed_dictionaries({name: ints for name in ("revenue", "cost", "profit", "wavelengths_sold")})
networks = st.dictionaries(
    texts,
    st.fixed_dictionaries(
        {
            "totals": ledger,
            "profit_percentages": st.one_of(st.none(), st.dictionaries(texts, floats, max_size=4)),
            "per_channel": st.dictionaries(texts, ledger, max_size=4),
            "allocation": st.lists(texts, max_size=6),
        }
    ),
    max_size=3,
)
reports = st.fixed_dictionaries(
    {
        "scenario": texts,
        "seed": ints,
        "networks": networks,
        "auctions": st.lists(auctions, max_size=4),
        "series": st.lists(st.dictionaries(texts, scalars, max_size=6), max_size=4),
    }
)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(reports)
def test_report_shaped_documents_match_json_dumps(doc):
    assert _json_text(doc) == dumps(doc)


@settings(max_examples=150, deadline=None)
@given(values)
def test_any_nesting_of_supported_values_matches_json_dumps(doc):
    assert _json_text(doc) == dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": [], "b": {}, "c": [[], {}]},
        [None, True, False, 0, -1, 2**64, -(2**200), -0.0, math.nan, math.inf, -math.inf],
        {"é\n\"\\": " \ud800\x00", "": ""},
        {"b": 1, "a": {"d": [1.5, "x"], "c": None}},
    ],
)
def test_edge_cases_match_json_dumps(doc):
    assert _json_text(doc) == dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        (1, 2),
        {"a": (1,)},
        [1, {2, 3}],
        {1: "int key"},
        {"a": b"bytes"},
        [object()],
        {"a": [1, 2.5j]},
    ],
)
def test_other_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        _json_text(doc)
