"""The one reader of JSON input files: config, vocab, schema, spans,
weight cache and corpus JSON lines. A file that is not JSON raises
InvalidJson naming the file, and the line for JSON lines."""
from __future__ import annotations

import json
from collections.abc import Iterator

from .errors import InvalidJson


def read_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except ValueError as e:  # a JSON syntax error, or bytes that are not text
        raise InvalidJson(f"{path}: {e}") from None


def iter_jsonl(path: str) -> Iterator:
    """One value per non-blank line, each parsed as it is read."""
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    value = json.loads(line)
                except ValueError as e:
                    raise InvalidJson(f"{path}, line {lineno}: {e}") from None
                yield value


def count_jsonl(path: str) -> int:
    """The number of values `iter_jsonl` yields: the non-blank lines."""
    with open(path) as f:
        return sum(1 for line in f if line.strip())
