"""Simulating commands reproduce their committed golden outputs byte for byte."""

import functools
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regen_golden import CASES, GOLDEN, NO_SIM_TINY, run_case
from test_cli import run_cli


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


@pytest.mark.parametrize("name", ["no-sim-tiny", "evaluate"])
def test_working_directory_does_not_change_output(name, tmp_path, monkeypatch):
    """Run from a fresh directory, with every path given relative to it, a
    case writes its golden bytes: no path is resolved against another
    directory, and no path as given reaches an output."""
    import regen_golden

    def relative_run_cli(*args, **kwargs):
        args = [os.path.relpath(a) if isinstance(a, Path) else a for a in args]
        assert not any(os.path.isabs(str(a)) for a in args), args
        return run_cli(*args, **kwargs)

    (tmp_path / "cwd").mkdir()
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setattr(regen_golden, "run_cli", relative_run_cli)
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert run_case(name, tmp_path / "work") == want


PAIR_LINES = tuple((NO_SIM_TINY / "pairs.jsonl").read_text().splitlines())
# each output file of the no-sim chain and the field that names its row's pair
ROW_IDS = {"categorized.jsonl": "id", "bundles.jsonl": "task_id", "records.jsonl": "id",
           "reclassified.jsonl": "id"}


def _no_sim_chain(pair_lines: tuple[str, ...]) -> dict:
    """``categorize``, ``derive-crux --emit`` and ``build-dataset`` over these
    pair rows: each command's exit code and stdout, and each file's lines."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "pairs.jsonl").write_text("\n".join(pair_lines) + "\n")
        categorized = out / "categorized.jsonl"
        steps = [
            ["categorize", "--input", out / "pairs.jsonl",
             "--verdicts", NO_SIM_TINY / "verdicts.jsonl", "--output", categorized],
            ["derive-crux", "--input", categorized, "--emit", out / "bundles.jsonl"],
            ["build-dataset", "--input", categorized,
             "--transcripts", NO_SIM_TINY / "transcripts.jsonl",
             "--output", out / "records.jsonl", "--reclassified", out / "reclassified.jsonl"],
        ]
        got = {}
        for step in steps:
            result = run_cli("--config", NO_SIM_TINY / "config.json", *step)
            got[step[0]] = (result.exit_code, result.stdout)
        for name in ROW_IDS:
            got[name] = (out / name).read_text().splitlines()
    return got


@functools.cache
def _unpermuted() -> dict:
    return _no_sim_chain(PAIR_LINES)


@settings(max_examples=20)
@given(st.permutations(range(len(PAIR_LINES))))
def test_row_permutation_permutes_output_rows(order):
    """Per-task seeds come from the master seed and the task id, not a row's
    place: permuted input rows give the same rows in the permuted order, the
    same meta rows and the same stdout."""
    base = _unpermuted()
    permuted = _no_sim_chain(tuple(PAIR_LINES[i] for i in order))
    position = {json.loads(PAIR_LINES[i])["id"]: k for k, i in enumerate(order)}
    for name, key in ROW_IDS.items():
        meta, *rows = base[name]
        rows.sort(key=lambda line: position[json.loads(line)[key]])
        assert permuted[name] == [meta, *rows], name
    for command in ("categorize", "derive-crux", "build-dataset"):
        assert permuted[command] == base[command] and base[command][0] == 0
