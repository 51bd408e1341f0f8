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


@pytest.mark.parametrize("name", ["evaluate-sweep-tiny", "reward-rl-tiny", "categorize-live"])
def test_workers_do_not_change_output(name, tmp_path):
    """1 and 4 workers give byte-identical files, stdout, stderr and exit
    code: outcomes come back in input order however the sims finish."""
    runs = []
    for workers in (1, 4):
        (tmp_path / str(workers)).mkdir()
        runs.append(run_case(name, tmp_path / str(workers), workers))
    assert runs[0] == runs[1]
