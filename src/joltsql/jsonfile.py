"""The one reader of JSON input files: config, vocab, schema, spans and
corpus JSON lines. A file that is not JSON raises InvalidJson naming the
file, and the line for JSON lines."""
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


def _text_lines(path: str) -> Iterator[tuple[int, str]]:
    """Each non-blank line with its number, decoded as UTF-8 line by line,
    so that a line which is not UTF-8 raises InvalidJson naming it."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise InvalidJson(f"{path}, line {lineno}: {e}") from None
            if line.strip():
                yield lineno, line


def iter_jsonl(path: str) -> Iterator:
    """One value per non-blank line, each parsed as it is read."""
    for lineno, line in _text_lines(path):
        try:
            value = json.loads(line)
        except ValueError as e:
            raise InvalidJson(f"{path}, line {lineno}: {e}") from None
        yield value


def count_jsonl(path: str) -> int:
    """The number of values `iter_jsonl` yields: the non-blank lines."""
    return sum(1 for _ in _text_lines(path))
