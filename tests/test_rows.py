"""Every input row and config file is checked against ``jsonl.KINDS``: a
malformed row exits 2 and names itself, never 1, in every command that
reads it, and so does a bad config value."""

import copy
import dataclasses
import functools
import json
import operator
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from cruxkit import cli, jsonl
from cruxkit.harness import ToolchainConfig
from test_cli import EVERY_KEY_CONFIG, NO_SIM_TINY, TOY, run_cli, toy_reference

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
        "derive-crux", "--input", rows, "--output", work / "bundles.jsonl"]),
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
    st.tuples(st.just("empty"), st.integers(0, 9)),
)
# a config value may also be made negative
CONFIG_MUTATIONS = st.one_of(MUTATIONS, st.tuples(st.just("negative"), st.integers(0, 9)))


def _mutated(row: dict, mutation: tuple):
    """``row`` with one key dropped, emptied (a string, array or object
    value made empty), made negative (a number) or given a value of another
    JSON type, or a JSON value that is not an object. A key is given by its
    name or its place in sorted order."""
    if mutation[0] == "replace":
        return mutation[1]
    key = mutation[1] if isinstance(mutation[1], str) else sorted(row)[mutation[1] % len(row)]
    if mutation[0] == "drop":
        return {k: v for k, v in row.items() if k != key}
    if mutation[0] == "empty":
        assume(isinstance(row[key], (str, list, dict)) and len(row[key]) > 0)
        return {**row, key: type(row[key])()}
    if mutation[0] == "negative":
        assume(_json_type(row[key]) == "number")
        return {**row, key: -1 - abs(row[key])}
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
@example(case="report --reward", index=0, mutation=("empty", "rewards"))
@example(case="evaluate --tasks", index=3, mutation=("empty", "reference_code"))
def test_malformed_row_exits_2_naming_it(case, index, mutation, slices):
    """One row of a command's input file with a key dropped or emptied, a
    value of another JSON type, or no object in its place: the command exits
    0 or 2, never 1, and on 2 names the row by its place or its name."""
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


def _objects(value, path=()):
    """The path of each object in a JSON value, the value's own first."""
    if isinstance(value, dict):
        yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _objects(item, (*path, key))


_ECHO = ToolchainConfig.echo()
_MOCK = {"completions": [{"match": "careful hardware reviewer", "texts": ["valid"]}],
         "default_completions": ["## Module Interface\n"], "logprob_table": {"module": -0.01},
         "default_logprob": -0.1, "fail_first": 0, "seed": 2}
# ref logprobs for a config's beta > 0, and a rollout with no crux_score of
# its own, so reward makes a scoring call
_SCORED_GROUPS = [{**GROUPS[0], "rollouts": [
    {**_ROLLOUT, "logprobs_ref": _LOGPROBS, "crux_score": None},
    {**_ROLLOUT, "logprobs_ref": _LOGPROBS}]}]


def _config_commands(work, flag, path):
    """The commands that read a ``flag`` file at ``path``, each cheap: at most
    one sim, on the echo lane, and a mock provider."""
    toolchain = path if flag == "--toolchain" else _write(
        work / "echo.json", [{"compile_cmd": _ECHO.compile_cmd, "run_cmd": _ECHO.run_cmd}])
    sims = ["--tasks", TOY / "pairs.jsonl", "--testbenches", TOY / "testbenches"]
    evaluate = ["evaluate", *sims, "--candidates", _write(work / "candidates.jsonl", CANDIDATES),
                "--toolchain", toolchain, "--output-dir", work / "eval"]
    reward = ["reward", *sims, "--groups", _write(work / "groups.jsonl", _SCORED_GROUPS),
              "--toolchain", toolchain, "--output", work / "rewards.jsonl"]
    derive = ["derive-crux", "--input", CATEGORIZED, "--live", "--output", work / "t.jsonl"]
    if flag == "--config":
        return [["--config", path, *args] for args in (
            ["grpo-check", "--instances", 1],
            ["categorize", "--input", TOY / "pairs.jsonl", "--verdicts", TOY / "verdicts.jsonl",
             "--output", work / "categorized.jsonl"],
            ["build-dataset", "--input", CATEGORIZED, "--output", work / "records.jsonl"],
            evaluate, reward)]
    if flag == "--toolchain":
        return [evaluate]
    return [[*derive, flag, path], [*reward, flag, path]]


# each config file a command reads: a file that sets every key, to nondefault values
CONFIG_FILES = {
    "--config": lambda work: EVERY_KEY_CONFIG,
    "--toolchain": lambda work: {
        "compile_cmd": _ECHO.compile_cmd, "run_cmd": _ECHO.run_cmd, "env": {"CRUXKIT_T": "1"},
        "compile_timeout_ms": 20_000, "keep_artifacts": False, "workers": 1},
    "--provider": lambda work: {
        "kind": "mock", "base_url": "http://localhost:9", "model": "m", "api_key_env": "CRUXKIT_T",
        "timeout_s": 5.0, "max_retries": 2, "backoff_s": 0.001,
        "audit_path": str(work / "audit.jsonl"), "mock": {**_MOCK, "fail_first": 1}},
    "--mock-provider": lambda work: _MOCK,
}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(flag=st.sampled_from(sorted(CONFIG_FILES)), index=st.integers(0, 9),
       mutation=CONFIG_MUTATIONS)
@example(flag="--config", index=3, mutation=("retype", "early", "abcd"))
@example(flag="--config", index=4, mutation=("retype", "eps_std", "x"))
@example(flag="--config", index=4, mutation=("negative", "eps_std"))
@example(flag="--config", index=2, mutation=("retype", "prefix_pool", "x"))
@example(flag="--provider", index=0, mutation=("retype", "backoff_s", "x"))
@example(flag="--provider", index=0, mutation=("negative", "backoff_s"))
@example(flag="--provider", index=0, mutation=("retype", "max_retries", 2.5))
@example(flag="--provider", index=0, mutation=("retype", "audit_path", 3))
@example(flag="--mock-provider", index=0, mutation=("empty", "completions"))
@example(flag="--toolchain", index=0, mutation=("retype", "keep_artifacts", "x"))
def test_bad_config_value_exits_0_or_2(flag, index, mutation):
    """One object of a config file (the file, a section or an item) with a
    key dropped or emptied, a number made negative, a value of another JSON
    type, or no object in its place: every command that reads the file
    exits 0 or 2, never 1, and on 2 says ``error:``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tree = copy.deepcopy(CONFIG_FILES[flag](work))
        paths = list(_objects(tree))
        path = paths[index % len(paths)]
        if path:
            parent = functools.reduce(operator.getitem, path[:-1], tree)
            parent[path[-1]] = _mutated(parent[path[-1]], mutation)
        else:
            tree = _mutated(tree, mutation)
        config = work / "config.json"
        config.write_text(json.dumps(tree))
        for args in _config_commands(work, flag, config):
            result = run_cli(*args)
            assert result.exit_code in (0, 2), (args[:2], result.output)
            if result.exit_code == 2:
                assert result.stderr.startswith("error: "), result.stderr
                break


@pytest.mark.parametrize("values", [
    {"backoff_s": "x"}, {"backoff_s": -1}, {"max_retries": 2.5}, {"max_retries": True},
    {"audit_path": 5}, {"api_key_env": 5},
])
def test_bad_provider_value_is_usage_error(tmp_path, values):
    """``derive-crux --live`` on the no-sim-tiny batch, its first call failing
    so that it backs off and retries: before one table checked every provider
    value, the first five ended as internal errors (exit 1), ``audit_path`` 5
    writing to file descriptor 5, and ``api_key_env`` 5 was taken silently."""
    provider = json.loads((NO_SIM_TINY / "provider.json").read_text())
    provider["mock"]["fail_first"] = 1
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({**provider, **values}))
    result = run_cli("derive-crux", "--input", GOLDEN / "no-sim-tiny" / "categorized.jsonl",
                     "--live", "--provider", config, "--output", tmp_path / "t.jsonl")
    (key, _), = values.items()
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: bad provider config: {key!r} must be "), result.stderr


@pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
def test_audit_path_that_cannot_be_written_is_usage_error_before_any_call(
    tmp_path, monkeypatch, where
):
    """The audit log is opened at each provider call: an ``audit_path`` in a
    missing directory ended ``derive-crux --live`` at its first call with
    ``internal error: FileNotFoundError`` (exit 1)."""
    from cruxkit import gateway

    calls = []
    monkeypatch.setattr(gateway.Gateway, "_with_retries", lambda self, fn: calls.append(fn))
    missing = where == "in a missing directory"
    audit = tmp_path / "missing" / "audit.jsonl" if missing else tmp_path
    provider = json.loads((NO_SIM_TINY / "provider.json").read_text())
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({**provider, "audit_path": str(audit)}))
    result = run_cli("derive-crux", "--input", GOLDEN / "no-sim-tiny" / "categorized.jsonl",
                     "--live", "--provider", config, "--output", tmp_path / "t.jsonl")
    problem = "is in a directory that does not exist" if missing else "is a directory"
    assert (result.exit_code, result.stderr) == (
        2, f"error: bad provider config: audit_path {problem}: {audit}\n")
    assert calls == []
    assert not (tmp_path / "t.jsonl").exists()


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


@pytest.mark.parametrize("flag", [*sorted(CONFIG_FILES), *CASES, "testbench"])
def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, flag, slices):
    """A config file, an input rows file or a testbench that cannot be read
    as text exits 2, not 1: before ``jsonl`` decoded every input file, a
    rows file or a testbench holding byte 0xff ended as an internal error."""
    path = tmp_path / "not-utf8"
    path.write_bytes(b'{"seed": "\xff"}\n')
    if flag in CONFIG_FILES:
        args = _config_commands(tmp_path, flag, path)[0]
    elif flag in CASES:
        args = CASES[flag][2](tmp_path, path)
        if isinstance(args, tuple):
            args, slice_count = args
            slices(slice_count)
    else:
        (tmp_path / "tb").mkdir()
        path.rename(tmp_path / "tb" / "mux2to1_tb.v")
        candidates = _write(tmp_path / "candidates.jsonl", CANDIDATES)
        args = _simulating("evaluate", "--candidates")(tmp_path, candidates)
        args[args.index("--testbenches") + 1] = tmp_path / "tb"
    result = run_cli(*args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and "can't decode byte 0xff" in result.stderr


@pytest.mark.parametrize("text", ["[1, 2]", "3"])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    result = run_cli("--config", config, "grpo-check", "--instances", 1)
    assert (result.exit_code, result.stderr) == (2, f"error: config file {config} is not an object\n")


@pytest.mark.parametrize("text, message", [
    ("{not json", "bad provider config: Expecting property name enclosed in double quotes"),
    ("[1]", "bad provider config: 'mock' must be a dict or null"),
])
def test_mock_provider_script_that_is_not_an_object_is_usage_error(tmp_path, text, message):
    script = tmp_path / "mock.json"
    script.write_text(text)
    result = run_cli("derive-crux", "--input", CATEGORIZED, "--live", "--mock-provider", script,
                     "--output", tmp_path / "transcripts.jsonl")
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {message}")


@pytest.mark.parametrize("flag", ["--mock-provider", "--provider"])
@pytest.mark.parametrize("mock, message", [
    ({"fail_first": "x"}, "bad provider config: 'fail_first' must be an int >= 0"),
    ({"default_logprob": 1}, "bad provider config: 'default_logprob' must be a finite number <= 0"),
    ({"completions": ["x"]}, "bad provider config: mock completion 1 is not an object"),
    ({"completions": [{"match": "", "texts": "module"}]},
     "bad provider config: mock completion 1: 'texts' must be a list of strings"),
    ({"default_completions": "valid"},
     "bad provider config: 'default_completions' must be a list of strings"),
    ({"completions": [{"match": 3, "texts": ["valid"]}]},
     "bad provider config: mock completion 1: 'match' must be a str"),
    ({"completions": [{"match": "", "texts": [1, 2]}]},
     "bad provider config: mock completion 1: 'texts' must be a list of strings"),
    ({"completions": [], "logprob_table": {"x": 0.5}},
     "bad provider config: 'logprob_table' must be a dict of finite numbers <= 0"),
    ({"seed": 1, "fail_first": 1, "timeout_s": 1}, "bad provider config: unknown keys ['timeout_s']"),
])
def test_mock_provider_with_bad_values_is_usage_error(tmp_path, flag, mock, message):
    """A mock's values are checked as its provider config is read, not when
    the command builds its gateway."""
    config = mock if flag == "--mock-provider" else {"kind": "mock", "mock": mock}
    script = tmp_path / "provider.json"
    script.write_text(json.dumps(config))
    result = run_cli("derive-crux", "--input", CATEGORIZED, "--live", flag, script,
                     "--output", tmp_path / "transcripts.jsonl")
    assert (result.exit_code, result.stderr) == (2, f"error: {message}\n")


@pytest.mark.parametrize("row, message", [
    ({"step": True, "rewards": [{"mixed": 1.0}]}, "reward row 1 has a bad 'step': True"),
    ({"step": 2.5, "rewards": [{"mixed": 1.0}]}, "reward row 1 has a bad 'step': 2.5"),
    ({"step": 2, "rewards": [{"mixed": False}]},
     "reward row 1: 'rewards' must be a non-empty list of objects with a number 'mixed'"),
])
def test_reward_row_takes_what_reward_writes(tmp_path, row, message):
    """A ``step`` that is a bool or not an int, and a ``mixed`` that is a
    bool, are usage errors: ``report`` took each, merging a step ``true``
    with step 1 and printing a step ``2.5000``."""
    rows = _write(tmp_path / "rewards.jsonl", [row, {"step": 1, "rewards": [{"mixed": 3.0}]}])
    result = run_cli("report", "--reward", rows, "--output-dir", tmp_path / "report")
    assert (result.exit_code, result.stderr) == (2, f"error: {message}\n")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(), JSON, max_size=6))
def test_encode_row_is_json_dumps_with_sorted_keys(row):
    """The shared encoder writes what ``json.dumps(row, sort_keys=True,
    allow_nan=False)`` would, and rejects NaN and the infinities, which are
    not JSON, as it does."""
    try:
        expected = json.dumps(row, sort_keys=True, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonl.encode_row(row)
    else:
        assert jsonl.encode_row(row) == expected


def test_config_kinds_match_their_classes_and_defaults():
    """Each config class's fields are its kind's keys, in order; the run
    config kind's keys are ``default_config()``'s, its sections have kinds
    that hold their defaults, and ``grpo``, which no class takes, holds just
    its defaults. The category rule holds corpus's categories."""
    from cruxkit.corpus import AugmentationPolicy, Category
    from cruxkit.gateway import ProviderConfig
    from cruxkit.interface import DegradationPolicy
    from cruxkit.rewards import WeightSchedule

    classes = {"degradation": DegradationPolicy, "augmentation": AugmentationPolicy,
               "schedule": WeightSchedule, "toolchain": ToolchainConfig, "provider": ProviderConfig}
    for kind, cls in classes.items():
        assert [f.name for f in dataclasses.fields(cls)] == list(jsonl.KINDS[kind][2]), kind
    defaults = cli.default_config()
    assert list(jsonl.KINDS["config"][2]) == list(defaults)
    sections = {key for key, value in defaults.items() if isinstance(value, dict)}
    assert sections == set(jsonl.KINDS["config"][2]) & set(jsonl.CONFIG_KINDS)
    for section in sections:
        assert set(defaults[section]) <= set(jsonl.KINDS[section][2]), section
        jsonl.check(section, None, defaults[section])
    assert list(jsonl.KINDS["grpo"][2]) == list(defaults["grpo"])
    category = jsonl.KINDS["categorized pair"][2]["category"]
    assert sorted(re.split(", | or ", category.name)) == sorted(c.value for c in Category)
    assert all(category.test(c.value) for c in Category)


def test_readme_lists_every_row_kind_with_its_keys():
    """README's table of input row kinds has one line per kind of
    ``jsonl.KINDS``, naming the same keys with the same types."""
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
        for kind, (_, _, keys) in jsonl.KINDS.items()
    }
