"""Simulating commands reproduce their committed golden outputs byte for byte."""

import pytest

from regen_golden import CASES, GOLDEN, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    got = run_case(name, tmp_path)
    assert sorted(got) == sorted(want)
    for file_name, blob in want.items():
        assert got[file_name] == blob, f"{name}/{file_name} differs from its golden copy"
