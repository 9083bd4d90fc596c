"""The one reader of JSON input files: config, vocab, schema, spans,
weight cache and corpus JSON lines. A file that is not JSON raises
InvalidJson naming the file, and the line for JSON lines."""
from __future__ import annotations

import json

from .errors import InvalidJson


def read_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except ValueError as e:  # a JSON syntax error, or bytes that are not text
        raise InvalidJson(f"{path}: {e}") from None


def read_jsonl(path: str) -> list:
    """One value per non-blank line."""
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except ValueError as e:
                    raise InvalidJson(f"{path}, line {lineno}: {e}") from None
    return records
