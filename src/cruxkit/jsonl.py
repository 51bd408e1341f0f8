"""JSONL reading/writing with a leading provenance row.

Output files start with one ``{"meta": {...}}`` row carrying the config hash
and seeds; readers skip it. Writers sort keys so reruns with identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator


class BadJson(ValueError):
    """A line of an input file that is not JSON."""


def read_rows(path: str) -> Iterator[dict]:
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BadJson(f"{path}:{line_no}: bad JSON: {exc}") from exc
            if isinstance(row, dict) and len(row) == 1 and "meta" in row:
                continue
            yield row


def read_meta(path: str) -> dict | None:
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if isinstance(row, dict) and len(row) == 1 and "meta" in row:
                return row["meta"]
            return None
    return None


# json.dumps(row, sort_keys=True) builds an encoder per call; this one is shared
_ENCODER = json.JSONEncoder(sort_keys=True)


def encode_row(row: dict) -> str:
    """One output line without its newline; keys sorted for byte-identical reruns."""
    return _ENCODER.encode(row)


def write_lines(path: str, lines: Iterable[str], meta: dict | None = None) -> None:
    """Writes the meta row, then rows already encoded by ``encode_row``."""
    with open(path, "w", encoding="utf-8") as f:
        if meta is not None:
            f.write(encode_row({"meta": meta}) + "\n")
        for line in lines:
            f.write(line + "\n")


def write_rows(path: str, rows: Iterable[dict], meta: dict | None = None) -> None:
    write_lines(path, map(encode_row, rows), meta)
