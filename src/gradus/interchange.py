"""The JSON, JSON Lines and npz files the pipeline stages hand each other.

JSON and JSONL are UTF-8.  A JSONL file holds one JSON object per line;
blank lines are skipped.  A JSON file holds one object, written with
``indent=1``, sorted keys and a closing newline, so equal payloads give
equal bytes.  An npz file (``build-seqs``' sequences, ``train``'s
checkpoint) is an uncompressed numpy zip archive, read without pickles;
a JSON member is stored as its UTF-8 bytes in a uint8 array.  Readers
raise the caller's own error class, naming the path (and line or
member).  :data:`FIELDS` types every JSONL field any reader, the mining
report or a checkpoint's meta holds, and :data:`MODEL_FIELDS` those of a
difficulty model's file; numbers are never coerced from strings or booleans.
"""

import json
import math
import zipfile
import zlib

import numpy as np

__all__ = ["FIELDS", "MODEL_FIELDS", "check", "read_jsonl", "write_jsonl", "read_json",
           "write_json", "read_npz", "write_npz"]


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
_POSITIVE = ("a positive integer", lambda v: type(v) is int and v > 0)
_POSITIVE_NUMBER = ("a positive finite number", lambda v: _finite_numbers([v]) and v > 0)
_MATRIX = ("a list of equal-length lists of finite numbers", lambda v: isinstance(v, list)
           and all(map(_finite_numbers, v)) and len(set(map(len, v))) <= 1)
_POSITIVE_MATRIX = ("a list of equal-length lists of positive finite numbers",
                    lambda v: _MATRIX[1](v) and all(x > 0 for row in v for x in row))

# field -> (what it must be, the test of a value); checked in every record that holds it
FIELDS = {
    **dict.fromkeys(("piece", "var", "same_as", "hard", "easy", "id", "strategy"), _STRING),
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
    # a checkpoint's meta, its model config and its optimizer
    "config": ("an object", lambda v: isinstance(v, dict)),
    "optimizer": ("an object or null", lambda v: v is None or isinstance(v, dict)),
    **dict.fromkeys(("step", "step_count"), _INT),
    **dict.fromkeys(("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_len"), _POSITIVE),
    "lr": _NUMBER,
}

# a difficulty model's file, whose "var" holds class variances, not a variation's id
MODEL_FIELDS = {
    "log_prior": ("a list of finite numbers or nulls", lambda v: isinstance(v, list)
                  and _finite_numbers([x for x in v if x is not None])),
    "mean": _MATRIX,
    "var": _POSITIVE_MATRIX,
    "temperature": _POSITIVE_NUMBER,
}


def check(where, record, error, *required, fields=FIELDS) -> dict:
    """``record``, once it holds each ``required`` field and each ``fields``
    field it holds is of its kind; else ``error`` at ``where``."""
    for name in required:
        if name not in record:
            raise error(f"{where}: missing field {name!r}")
    for name, value in record.items():
        if name in fields:
            kind, holds = fields[name]
            if not holds(value):
                raise error(f"{where}: field {name!r} must be {kind}")
    return record


def read_jsonl(path, error, *required):
    """Yield ``(where, row)`` per nonblank line, ``where`` being ``path:line``.

    Every row passes :func:`check` with the ``required`` fields.
    """
    with _open(path, error) as fh:
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
    with _open(path, error) as fh:
        return _object(fh.read(), path, error)


def _open(path, error):
    """``path`` opened for reading bytes; an ``OSError`` raises ``error`` naming it."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise error(f"{path}: cannot read ({type(exc).__name__}: {exc.strerror})") from exc


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


def write_npz(path, members) -> None:
    """Write ``members`` (name -> value, in order) as an uncompressed npz at
    exactly ``path``; a value that is not an array is stored as its
    ``json.dumps(..., sort_keys=True)`` bytes in a uint8 array."""
    arrays = {name: value if isinstance(value, np.ndarray) else np.frombuffer(
        json.dumps(value, sort_keys=True).encode(), dtype=np.uint8)
        for name, value in members.items()}
    with open(path, "wb") as fh:    # np.savez appends ".npz" to a path, not to a file
        np.savez(fh, **arrays)


def read_npz(path, error, what, declared) -> dict:
    """Every member of the npz at ``path``, name -> array.

    ``declared`` maps each member the file must hold either to ``dict``, a
    JSON object (returned decoded), or to ``(kinds, rank)``, the dtype
    kinds (``"iu"``, ``"f"``) and the number of dimensions its array must
    have.  Any failure, a ``.npy`` array or pickled member included,
    raises ``error`` naming ``path`` and the member.
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array, not an npz archive")
        with data:
            members = {name: data[name] for name in data.files}
    except (OSError, EOFError, ValueError, NotImplementedError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise error(f"{path}: not a {what} ({type(exc).__name__}: {exc})") from exc
    for name, kind in declared.items():
        if name not in members:
            raise error(f"{path}: {what} has no {name!r} array")
        value = members[name]
        kinds, rank = ("u", 1) if kind is dict else kind
        if not (isinstance(value, np.ndarray) and value.dtype.kind in kinds
                and value.ndim == rank):
            got = (f"{value.ndim}-d {value.dtype}" if isinstance(value, np.ndarray)
                   else type(value).__name__)
            raise error(f"{path}: {what} array {name!r} must be {rank}-d of dtype kind "
                        f"{kinds!r}, got {got}")
        if kind is dict:
            members[name] = _object(value.tobytes(), f"{path} {name}", error)
    return members
