"""Tests for the strict JSON report schema."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from posbounds.core import Bracket, InputError
from posbounds.report import BoundReport, value_from_json, value_to_json


def test_fraction_encoding():
    assert value_to_json(Fraction(3, 7)) == {"num": 3, "den": 7}
    assert value_to_json(Fraction(4, 2)) == 2  # integral rationals collapse
    assert value_from_json({"num": 3, "den": 7}) == Fraction(3, 7)


def test_bracket_encoding():
    b = Bracket(Fraction(1, 3), Fraction(1, 2))
    enc = value_to_json(b)
    assert enc == {"lo": {"num": 1, "den": 3}, "hi": {"num": 1, "den": 2}}
    assert value_from_json(enc) == b


def test_nested_structures():
    data = {"xs": [Fraction(1, 2), 3], "b": Bracket(Fraction(0), Fraction(1))}
    enc = value_to_json(data)
    dec = value_from_json(enc)
    assert dec["xs"] == [Fraction(1, 2), 3]
    assert dec["b"] == Bracket(Fraction(0), Fraction(1))


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        value_to_json(object())


def test_floats_rejected():
    with pytest.raises(TypeError):
        value_to_json({"estimate": [0.5]})


def test_report_round_trip():
    report = BoundReport(
        theorem="example",
        inputs={"n": 2, "ratio": Fraction(2, 3)},
        threshold=Bracket(Fraction(5), Fraction(21, 4)),
        verdict="satisfied",
        details={"margin": Fraction(1, 7)},
    )
    doc = report.to_json()
    assert doc["schema"] == 1
    text = json.dumps(doc)
    again = BoundReport.from_json(json.loads(text))
    assert again == report


def test_report_rejects_unknown_fields():
    doc = BoundReport(theorem="x").to_json()
    doc["extra"] = 1
    with pytest.raises(ValueError):
        BoundReport.from_json(doc)


@pytest.mark.parametrize("threshold, shown", [
    ({"lo": 2, "hi": 1}, "{'lo': 2, 'hi': 1}"),
    ({"num": 1, "den": 0}, "{'num': 1, 'den': 0}"),
    ({"num": "x", "den": 2}, "{'num': 'x', 'den': 2}"),
    ({"num": 1.5, "den": 2}, "{'num': 1.5, 'den': 2}"),
    ({"lo": "1/2", "hi": 1}, "{'lo': '1/2', 'hi': 1}"),
    ({"lo": 0.5, "hi": 1}, "0.5"),
    (0.5, "float 0.5"),
])
def test_report_rejects_malformed_numbers(threshold, shown):
    doc = BoundReport(theorem="x").to_json()
    doc["threshold"] = threshold
    with pytest.raises(InputError) as info:
        BoundReport.from_json(doc)
    assert shown in str(info.value)


@pytest.mark.parametrize("field", ["inputs", "details"])
@pytest.mark.parametrize("value", [None, 5, [], {"num": 1, "den": 2}])
def test_report_rejects_inputs_and_details_that_are_not_objects(field, value):
    doc = BoundReport(theorem="x").to_json()
    doc[field] = value
    with pytest.raises(InputError, match="^report inputs and details must be JSON objects$"):
        BoundReport.from_json(doc)


def test_report_rejects_wrong_schema():
    doc = BoundReport(theorem="x").to_json()
    doc["schema"] = 2
    with pytest.raises(ValueError):
        BoundReport.from_json(doc)


fractions = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(fractions)
def test_fraction_round_trip_property(q):
    assert value_from_json(value_to_json(q)) == q


@given(fractions, fractions)
def test_bracket_round_trip_property(a, b):
    br = Bracket(min(a, b), max(a, b))
    assert value_from_json(value_to_json(br)) == br


def test_report_rejects_missing_fields():
    doc = BoundReport(theorem="x", verdict="satisfied").to_json()
    del doc["verdict"]
    with pytest.raises(ValueError, match=r"missing: \['verdict'\]"):
        BoundReport.from_json(doc)
    with pytest.raises(ValueError, match=r"missing: \['details', 'inputs', 'threshold', 'verdict'\]"):
        BoundReport.from_json({"schema": 1, "theorem": "x"})
