"""Simulating commands reproduce their committed golden outputs byte for byte."""

import functools
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regen_golden import CASES, EVAL_SWEEP_TINY, GOLDEN, NO_SIM_TINY, _toolchain_file, run_case
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


SWEEP_ROW = json.loads((EVAL_SWEEP_TINY / "candidates.jsonl").read_text())
SWEEP_GOLDEN = GOLDEN / "evaluate-sweep-tiny"


@settings(max_examples=4)
@given(st.permutations(range(len(SWEEP_ROW["candidates"]))),
       st.integers(1, len(SWEEP_ROW["candidates"])))
def test_candidate_order_and_row_split_change_only_outcome_indices(order, split):
    """pass@k depends only on each task's n and c: permuting a row's
    candidates, and splitting the row into two rows of its task, leave the
    per-task report, both summaries and stdout byte-identical, and move each
    outcome row to its candidate's new place with only its index changed."""
    codes = [SWEEP_ROW["candidates"][i] for i in order]
    # a split at the end leaves the row whole
    parts = [codes[:split], codes[split:]] if split < len(codes) else [codes]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        candidates = work / "candidates.jsonl"
        candidates.write_text("".join(
            json.dumps({**SWEEP_ROW, "candidates": part}) + "\n" for part in parts))
        result = run_cli("--config", EVAL_SWEEP_TINY / "config.json", "evaluate",
                         "--tasks", EVAL_SWEEP_TINY / "tasks.jsonl", "--candidates", candidates,
                         "--testbenches", EVAL_SWEEP_TINY / "testbenches",
                         "--toolchain", _toolchain_file(work), "--output-dir", work / "out")
        got = {p.name: p.read_bytes() for p in (work / "out").iterdir()}
    assert (result.exit_code, result.stdout_bytes) == (0, (SWEEP_GOLDEN / "stdout.txt").read_bytes())
    for name in ("per_task.jsonl", "summary.txt", "summary.csv"):
        assert got[name] == (SWEEP_GOLDEN / name).read_bytes(), name
    meta, *base = (SWEEP_GOLDEN / "outcomes.jsonl").read_text().splitlines()
    want = [meta] + [json.dumps({**json.loads(base[i]), "index": j}, sort_keys=True)
                     for j, i in enumerate(order)]
    assert got["outcomes.jsonl"].decode().splitlines() == want


@pytest.fixture()
def slices(monkeypatch):
    """``slices(n)`` makes build-dataset split any input into ``n`` slices
    (one per row at most); returns the pids of the children it forks."""
    import cruxkit.cli as cli

    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def force(n):
        monkeypatch.setattr(cli, "MIN_SLICE_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forked

    monkeypatch.setattr(os, "fork", fork)
    return force


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("name", ["no-sim-tiny", "build-dataset"])
def test_slice_count_does_not_change_output(name, count, slices, tmp_path):
    """build-dataset's rows split over 1, 2 or 3 slices give the golden
    files, stdout, stderr and exit code: slices join in row order."""
    forked = slices(count)
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert run_case(name, tmp_path) == want
    assert len(forked) == count - 1



def test_process_with_other_threads_forks_nothing(slices, tmp_path):
    """A fork copies only the forking thread, so a child could wait forever
    on a lock another thread held: with one running, every row is built in
    process, with the same output."""
    import threading

    forked = slices(2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        got = run_case("build-dataset", tmp_path)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert got == {p.name: p.read_bytes() for p in sorted((GOLDEN / "build-dataset").iterdir())}
    assert forked == []


SLICED_ROWS = tuple((GOLDEN / "no-sim-tiny" / "categorized.jsonl").read_text().splitlines())


def _build_sliced(tmp_path, lines) -> tuple:
    """build-dataset over these categorized lines: exit code, stderr, and
    whether it wrote a records file."""
    categorized = tmp_path / "categorized.jsonl"
    categorized.write_text("\n".join(lines) + "\n")
    records = tmp_path / "records.jsonl"
    result = run_cli("--config", NO_SIM_TINY / "config.json", "build-dataset",
                     "--input", categorized, "--transcripts", NO_SIM_TINY / "transcripts.jsonl",
                     "--output", records, "--reclassified", tmp_path / "reclassified.jsonl")
    return result.exit_code, result.stderr, records.exists()


def _uncategorized(line: str) -> str:
    return json.dumps({**json.loads(line), "category": "Bogus"})


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("bad", [(1, 60), (60,)])
def test_first_bad_row_in_row_order_is_reported(bad, count, slices, tmp_path):
    """A bad row in the first and the last of 3 slices reports the first;
    one only in the last slice reports that one. Both exit 2 as a serial
    loop does, and write nothing."""
    forked = slices(count)
    lines = list(SLICED_ROWS)  # the meta row, then 60 rows
    for number in bad:
        lines[number] = _uncategorized(lines[number])
    first = json.loads(lines[bad[0]])["id"]
    assert _build_sliced(tmp_path, lines) == (
        2, f"error: corpus row {first!r} has no known category ('Bogus'); run categorize first\n",
        False,
    )
    assert len(forked) == count - 1


def test_child_that_dies_is_an_internal_error(slices, monkeypatch, tmp_path):
    """A child that exits without its result ends the command with exit 1
    and a message naming its rows, without hanging, and every child is
    reaped."""
    import signal

    import cruxkit.cli as cli

    forked = slices(3)
    parent, real_as_pair = os.getpid(), cli._as_pair
    doomed = json.loads(SLICED_ROWS[50])["id"]

    def as_pair(row):
        if row["id"] == doomed and os.getpid() != parent:
            os._exit(7)
        return real_as_pair(row)

    def hung(signum, frame):
        raise TimeoutError("build-dataset did not return")

    monkeypatch.setattr(cli, "_as_pair", as_pair)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        got = _build_sliced(tmp_path, SLICED_ROWS)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == (1, "internal error: RuntimeError: the process building rows 41-60 "
                      "exited with status 7 and no result\n", False)
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
