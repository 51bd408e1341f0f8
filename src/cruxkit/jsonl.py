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


def write_rows(path: str, rows: Iterable[dict], meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        if meta is not None:
            f.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
