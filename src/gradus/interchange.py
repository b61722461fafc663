"""The JSON and JSON Lines files the pipeline stages hand each other.

Both are UTF-8.  A JSONL file holds one JSON object per line; blank
lines are skipped.  A JSON file holds one object, written with
``indent=1``, sorted keys and a closing newline, so equal payloads give
equal bytes.  Readers raise the caller's own error class, naming the
path (and line).  :data:`FIELDS` types every JSONL field any reader
or the mining report holds; numbers are never coerced from strings or
booleans.
"""

import json
import math

__all__ = ["FIELDS", "check", "read_jsonl", "write_jsonl", "read_json", "write_json"]


def _finite_numbers(value) -> bool:
    try:
        return (isinstance(value, list) and {int, float}.issuperset(map(type, value))
                and all(map(math.isfinite, value)))
    except OverflowError:   # an integer too large for a float
        return False


def _gap_keys(value) -> bool:
    return all(key.isascii() and key.isdigit() for key in value)


_STRING = ("a string", lambda v: isinstance(v, str))
_INT = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a finite number", lambda v: _finite_numbers([v]))
_BOOL = ("true or false", lambda v: type(v) is bool)
_NUMBERS = ("a list of finite numbers", _finite_numbers)
_STRINGS = ("a list of strings", lambda v: isinstance(v, list) and {str}.issuperset(map(type, v)))

# field -> (what it must be, the test of a value); checked in every record that holds it
FIELDS = {
    **dict.fromkeys(("piece", "var", "hard", "easy", "id", "strategy"), _STRING),
    **dict.fromkeys(("level", "hard_level", "easy_level", "gap", "dim", "min_gap"), _INT),
    **dict.fromkeys(("confidence", "sim"), _NUMBER),
    "valid": _BOOL,
    **dict.fromkeys(("features", "profile", "perturbed", "v"), _NUMBERS),
    "tokens": _STRINGS,
    # the mining report
    "counts": ("an object of integers", lambda v: isinstance(v, dict)
               and {int}.issuperset(map(type, v.values()))),
    "mean_distance": ("a finite number or null", lambda v: v is None or _finite_numbers([v])),
    "mean_distance_by_gap": ("an object of finite numbers keyed by gap", lambda v: isinstance(
        v, dict) and _gap_keys(v) and _finite_numbers(list(v.values()))),
}


def check(where, record, error, *required) -> dict:
    """``record``, once it holds each ``required`` field and each
    :data:`FIELDS` field it holds is of its kind; else ``error`` at ``where``."""
    for name in required:
        if name not in record:
            raise error(f"{where}: missing field {name!r}")
    for name, value in record.items():
        if name in FIELDS:
            kind, holds = FIELDS[name]
            if not holds(value):
                raise error(f"{where}: field {name!r} must be {kind}")
    return record


def read_jsonl(path, error, *required):
    """Yield ``(where, row)`` per nonblank line, ``where`` being ``path:line``.

    Every row passes :func:`check` with the ``required`` fields.
    """
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            yield where, check(where, _object(line, where, error), error, *required)


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def read_json(path, error) -> dict:
    with open(path, "rb") as fh:
        return _object(fh.read(), path, error)


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _object(data, where, error) -> dict:
    try:   # a UnicodeDecodeError is a ValueError too
        value = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise error(f"{where}: bad JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value
