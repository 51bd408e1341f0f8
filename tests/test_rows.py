"""Every input row is checked against ``cli.ROW_KINDS``: a malformed row
exits 2 and names itself, never 1, in every command that reads it."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from cruxkit import cli
from cruxkit.harness import ToolchainConfig
from test_cli import TOY, run_cli, toy_reference

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
CATEGORIZED = GOLDEN / "categorize" / "categorized.jsonl"
# one mux2to1 candidates row and group, each simulating only the reference
CANDIDATES = [{"task_id": "mux2to1", "candidates": [toy_reference("mux2to1")]}]
_LOGPROBS = {"tokens": [0], "logprobs": [-0.5]}
_ROLLOUT = {"crux_text": "## Module Interface\n", "code_text": toy_reference("mux2to1"),
            "logprobs_new": _LOGPROBS, "logprobs_old": _LOGPROBS, "crux_score": _LOGPROBS}
GROUPS = [{"task_id": "mux2to1", "step": 0, "rollouts": [_ROLLOUT, _ROLLOUT]}]


def _write(path: Path, rows: list) -> Path:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def _simulating(command, flag):
    """A simulating command's args with ``flag`` naming the mutated file,
    on the toy tasks and testbenches and the echo lane."""
    def make(work, rows):
        echo = ToolchainConfig.echo()
        toolchain = _write(work / "toolchain.json",
                           [{"compile_cmd": echo.compile_cmd, "run_cmd": echo.run_cmd}])
        if command == "evaluate":
            files = {"--candidates": _write(work / "candidates.jsonl", CANDIDATES)}
            out = ["--output-dir", work / "eval"]
        else:
            files = {"--groups": _write(work / "groups.jsonl", GROUPS)}
            out = ["--output", work / "rewards.jsonl"]
        files = {"--tasks": TOY / "pairs.jsonl", **files, flag: rows}
        return [command, *(a for item in files.items() for a in item), *out,
                "--testbenches", TOY / "testbenches", "--toolchain", toolchain]
    return make


def _build(flag, slice_count):
    def make(work, rows):
        files = {"--input": CATEGORIZED, "--transcripts": TOY / "transcripts.jsonl", flag: rows}
        args = ["build-dataset", *(a for item in files.items() for a in item),
                "--output", work / "records.jsonl"]
        return args, slice_count
    return make


def _evaluate_dir(work, rows):
    (work / "eval").mkdir()
    (work / "eval" / "per_task.jsonl").write_bytes(rows.read_bytes())
    return ["report", "--evaluate-dir", work / "eval", "--output-dir", work / "report"]


# each command and input file: its committed rows (or rows made from the toy
# corpus), the key that names a row, and the command's args given the
# mutated file; a build-dataset case also gives its slice count
CASES = {
    "categorize --input": (TOY / "pairs.jsonl", "id", lambda work, rows: [
        "categorize", "--input", rows, "--verdicts", TOY / "verdicts.jsonl",
        "--output", work / "out.jsonl"]),
    "categorize --verdicts": (TOY / "verdicts.jsonl", "id", lambda work, rows: [
        "categorize", "--input", TOY / "pairs.jsonl", "--verdicts", rows,
        "--output", work / "out.jsonl"]),
    "derive-crux --input": (CATEGORIZED, "id", lambda work, rows: [
        "derive-crux", "--input", rows, "--emit", work / "bundles.jsonl"]),
    **{f"build-dataset {flag}, {n} slices": (source, "id", _build(flag, n))
       for n in (1, 3)
       for flag, source in (("--input", CATEGORIZED), ("--transcripts", TOY / "transcripts.jsonl"))},
    "evaluate --tasks": (TOY / "pairs.jsonl", "id", _simulating("evaluate", "--tasks")),
    "evaluate --candidates": (CANDIDATES, "task_id", _simulating("evaluate", "--candidates")),
    "reward --tasks": (TOY / "pairs.jsonl", "id", _simulating("reward", "--tasks")),
    "reward --groups": (GROUPS, "task_id", _simulating("reward", "--groups")),
    "reward --groups rollout": (GROUPS, None, _simulating("reward", "--groups")),
    "report --reward": (GOLDEN / "reward" / "rewards.jsonl", None, lambda work, rows: [
        "report", "--reward", rows, "--output-dir", work / "report"]),
    "report --evaluate-dir": (GOLDEN / "evaluate" / "per_task.jsonl", None, _evaluate_dir),
}

# one value of each JSON type
VALUES = [None, True, 3, 2.5, "x", [1], {"a": 1}]


def _json_type(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return type(value).__name__
    return "number"


MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 9)),
    st.tuples(st.just("retype"), st.integers(0, 9), st.sampled_from(VALUES)),
    st.tuples(st.just("replace"), st.sampled_from(VALUES[:-1])),
)


def _mutated(row: dict, mutation: tuple):
    """``row`` with one key dropped or given a value of another JSON type,
    or a JSON value that is not an object. A key is given by its name or its
    place in sorted order."""
    if mutation[0] == "replace":
        return mutation[1]
    key = mutation[1] if isinstance(mutation[1], str) else sorted(row)[mutation[1] % len(row)]
    if mutation[0] == "drop":
        return {k: v for k, v in row.items() if k != key}
    assume(_json_type(mutation[2]) != _json_type(row[key]))
    return {**row, key: mutation[2]}


@settings(max_examples=300, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(sorted(CASES)), index=st.integers(0, 9), mutation=MUTATIONS)
# each input that ended as an internal error (exit 1) before rows had one checker
@example(case="categorize --verdicts", index=0, mutation=("drop", "passed"))
@example(case="categorize --verdicts", index=0, mutation=("replace", ["dff8p", True]))
@example(case="categorize --input", index=0, mutation=("replace", 3))
@example(case="derive-crux --input", index=0, mutation=("replace", 3))
@example(case="categorize --input", index=0, mutation=("retype", "description", 5))
@example(case="derive-crux --input", index=0, mutation=("retype", "reference_code", 5))
@example(case="build-dataset --input, 1 slices", index=0, mutation=("retype", "description", 5))
@example(case="build-dataset --input, 3 slices", index=4, mutation=("retype", "reference_code", 5))
@example(case="build-dataset --input, 3 slices", index=4, mutation=("retype", "id", ["count4"]))
@example(case="build-dataset --transcripts, 3 slices", index=0, mutation=("replace", "x"))
@example(case="evaluate --tasks", index=3, mutation=("replace", [1]))
@example(case="evaluate --tasks", index=3, mutation=("retype", "id", ["mux2to1"]))
@example(case="evaluate --candidates", index=0, mutation=("retype", "task_id", ["mux2to1"]))
@example(case="reward --groups", index=0, mutation=("retype", "task_id", {"a": 1}))
@example(case="report --reward", index=0, mutation=("drop", "step"))
@example(case="report --reward", index=0, mutation=("replace", 3))
@example(case="report --evaluate-dir", index=0, mutation=("replace", 3))
@example(case="report --evaluate-dir", index=0, mutation=("drop", "n"))
def test_malformed_row_exits_2_naming_it(case, index, mutation, slices):
    """One row of a command's input file with a key dropped, a value of
    another JSON type, or no object in its place: the command exits 0 or
    2, never 1, and on 2 names the row by its place or its name."""
    source, named_by, make_args = CASES[case]
    if isinstance(source, Path):
        lines = source.read_text().splitlines()
    else:
        lines = [json.dumps(row) for row in source]
    places = [i for i, line in enumerate(lines) if set(json.loads(line)) != {"meta"}]
    place = places[index % len(places)]
    row = json.loads(lines[place])
    if case.endswith("rollout"):
        mutated = {**row, "rollouts": [_mutated(row["rollouts"][0], mutation), *row["rollouts"][1:]]}
    else:
        mutated = _mutated(row, mutation)
    lines[place] = json.dumps(mutated)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        args = make_args(work, _write(work / "rows.jsonl", list(map(json.loads, lines))))
        if isinstance(args, tuple):
            args, slice_count = args
            slices(slice_count)
        result = run_cli(*args)
    assert result.exit_code in (0, 2), result.output
    if result.exit_code == 2:
        names = [f"row {places.index(place) + 1}"]
        names += [repr(r[named_by]) for r in (row, mutated) if isinstance(r, dict) and named_by in r]
        assert any(name in result.stderr for name in names), (names, result.stderr)


@pytest.mark.parametrize("count", [1, 3])
def test_build_dataset_checks_each_row_in_its_turn(count, slices, tmp_path):
    """A blank description in the first row is reported before a number in
    the last: each row is checked as it is built, not in a pass before."""
    slices(count)
    meta, *lines = (GOLDEN / "no-sim-tiny" / "categorized.jsonl").read_text().splitlines()
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    lines[0] = json.dumps({**first, "description": " "})
    lines[-1] = json.dumps({**last, "description": 5})
    categorized = tmp_path / "categorized.jsonl"
    categorized.write_text("\n".join([meta, *lines]) + "\n")
    result = run_cli("build-dataset", "--input", categorized, "--output", tmp_path / "records.jsonl")
    assert (result.exit_code, result.stderr) == (
        2, f"error: bad corpus row {first['id']!r}: description must be nonempty\n")


@pytest.mark.parametrize("text", ["[1, 2]", "3"])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    result = run_cli("--config", config, "grpo-check", "--instances", 1)
    assert (result.exit_code, result.stderr) == (
        2, f"error: config file {config} must hold a JSON object\n")


@pytest.mark.parametrize("text, message", [
    ("{not json", "bad provider config: Expecting property name enclosed in double quotes"),
    ("[1]", "bad provider config: mock must be an object or null"),
])
def test_mock_provider_script_that_is_not_an_object_is_usage_error(tmp_path, text, message):
    script = tmp_path / "mock.json"
    script.write_text(text)
    result = run_cli("derive-crux", "--input", CATEGORIZED, "--live", "--mock-provider", script,
                     "--output", tmp_path / "transcripts.jsonl")
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {message}")


def test_readme_lists_every_row_kind_with_its_keys():
    """README's table of input row kinds has one line per kind of
    ``cli.ROW_KINDS``, naming the same keys with the same types."""
    lines = README.read_text().splitlines()
    start = lines.index("| row kind | read from | keys (`?`: optional) |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kind, _, keys = (cell.strip() for cell in line.strip("|").split("|"))
        documented[kind] = re.findall(r"`([^`]+)` \(([^)]+)\)", keys)
    assert documented == {
        kind: [(key + "?" * value.optional, value.name) for key, value in keys.items()]
        for kind, (_, _, keys) in cli.ROW_KINDS.items()
    }
