"""The JSON and JSON Lines files the pipeline stages hand each other.

Both are UTF-8.  A JSONL file holds one JSON object per line; blank
lines are skipped.  A JSON file holds one object, written with
``indent=1``, sorted keys and a closing newline, so equal payloads give
equal bytes.  Readers raise the caller's own error class, naming the
path (and line); each caller checks its own fields.
"""

import json

__all__ = ["read_jsonl", "write_jsonl", "read_json", "write_json"]


def read_jsonl(path, error):
    """Yield ``(where, record)`` per nonblank line, ``where`` being ``path:line``."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}:{line_no}"
                yield where, _object(line, where, error)


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
