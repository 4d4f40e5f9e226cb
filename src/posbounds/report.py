"""Bound reports and their lossless JSON encoding.

Rationals serialize as {"num":..., "den":...} and brackets as
{"lo":..., "hi":...}; floats are refused, so no float round-trips anywhere.
The schema is strict: documents carry "schema": 1 and exactly the six
report fields; a missing or unknown field is rejected.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from .core import Bracket, InputError, Record

SCHEMA_VERSION = 1


def value_to_json(v: Any) -> Any:
    if isinstance(v, Bracket):
        return {"lo": value_to_json(v.lo), "hi": value_to_json(v.hi)}
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, int) or isinstance(v, str) or v is None:
        return v
    if isinstance(v, Mapping):
        return {str(k): value_to_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [value_to_json(x) for x in v]
    raise TypeError(f"cannot serialize {type(v).__name__}")


def value_from_json(v: Any) -> Any:
    if isinstance(v, dict):
        if set(v) == {"num", "den"}:
            if type(v["num"]) is not int or type(v["den"]) is not int or v["den"] == 0:
                raise InputError(f"malformed rational {v!r}")
            return Fraction(v["num"], v["den"])
        if set(v) == {"lo", "hi"}:
            lo, hi = value_from_json(v["lo"]), value_from_json(v["hi"])
            if not {type(lo), type(hi)} <= {int, Fraction} or lo > hi:
                raise InputError(f"malformed bracket {v!r}")
            return Bracket(Fraction(lo), Fraction(hi))
        return {k: value_from_json(x) for k, x in v.items()}
    if isinstance(v, list):
        return [value_from_json(x) for x in v]
    if isinstance(v, float):
        raise InputError(f"float {v!r} in report; rationals are {{num, den}}")
    return v


class BoundReport(Record):
    """A bound's answer in its schema-1 fields; mutable and unhashable."""

    __slots__ = ("theorem", "inputs", "threshold", "verdict", "details")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, theorem: str, inputs: dict | None = None, threshold: Any = None,
                 verdict: str = "threshold-only", details: dict | None = None) -> None:
        self.theorem, self.threshold, self.verdict = theorem, threshold, verdict
        self.inputs = {} if inputs is None else inputs  # a fresh dict per report
        self.details = {} if details is None else details

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "theorem": self.theorem,
            "inputs": value_to_json(self.inputs),
            "threshold": value_to_json(self.threshold),
            "verdict": self.verdict,
            "details": value_to_json(self.details),
        }

    @staticmethod
    def from_json(data: dict) -> "BoundReport":
        fields = {"schema", "theorem", "inputs", "threshold", "verdict", "details"}
        if set(data) != fields:
            unknown, missing = sorted(set(data) - fields), sorted(fields - set(data))
            raise InputError(f"unknown report fields: {unknown}, missing: {missing}")
        if data["schema"] != SCHEMA_VERSION:
            raise InputError(f"unsupported schema version {data['schema']!r}")
        inputs, details = value_from_json(data["inputs"]), value_from_json(data["details"])
        if type(inputs) is not dict or type(details) is not dict:
            raise InputError("report inputs and details must be JSON objects")
        return BoundReport(data["theorem"], inputs, value_from_json(data["threshold"]),
                           data["verdict"], details)
