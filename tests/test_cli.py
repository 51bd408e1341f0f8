"""End-to-end command-line runs on the bundled corpora, fully offline."""

import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from cruxkit.cli import main
from cruxkit.harness import SimOutcome

TOY = Path(__file__).resolve().parents[1] / "src" / "cruxkit" / "data" / "toy_corpus"
CAT12 = Path(__file__).resolve().parents[1] / "src" / "cruxkit" / "data" / "categorize12"
NO_SIM_TINY = Path(__file__).resolve().parent / "fixtures" / "no-sim-tiny"
RL_GROUPS_TINY = Path(__file__).resolve().parent / "fixtures" / "rl-groups-tiny"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REWARDS = GOLDEN / "reward" / "rewards.jsonl"
# a run config that sets every key of every section to a value other than its default
EVERY_KEY_CONFIG = {
    "seed": 3, "k_values": [1, 2], "threshold": 0.5, "probe_n": 1, "keywords": ["fsm"],
    "timeout_ms": 5000, "scoring_template": "{crux}\n{realspec}\n",
    "degradation": {"p_full_retain": 0.5, "p_keep_element": 0.25},
    "augmentation": {"p_middle_insert": 0.5, "prefix_pool": ["Hi."], "suffix_pool": ["Bye."],
                     "p_prefix": 0.25, "p_suffix": 0.75},
    "schedule": {"steps_per_epoch": 10, "early": [1, 2, 3, 4], "late": [4, 3, 2, 1.5],
                 "switch_fraction": 0.5},
    "grpo": {"epsilon": 0.1, "beta": 0.04, "eps_std": 1e-6},
}


# the command group and each of its commands
COMMANDS = (main, *main.commands.values())


def run_cli(*args, **kwargs):
    return CliRunner().invoke(main, [str(a) for a in args], **kwargs)


def read_jsonl(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    meta = rows[0]["meta"] if rows and set(rows[0]) == {"meta"} else None
    return meta, [r for r in rows if set(r) != {"meta"}]


@pytest.fixture()
def echo_toolchain_file(tmp_path):
    from cruxkit.harness import ToolchainConfig

    echo = ToolchainConfig.echo()
    path = tmp_path / "toolchain.json"
    path.write_text(json.dumps({"compile_cmd": echo.compile_cmd, "run_cmd": echo.run_cmd}))
    return path


@pytest.fixture()
def sim_log(monkeypatch):
    """Records (task id, is a reference sim) for every ``harness.run_sim`` call."""
    import cruxkit.harness as harness

    real_run_sim = harness.run_sim
    sims = []

    def counting_run_sim(job, toolchain, reference_lines=None):
        sims.append((job.top_module, reference_lines is None))
        return real_run_sim(job, toolchain, reference_lines)

    monkeypatch.setattr(harness, "run_sim", counting_run_sim)
    return sims


def toy_reference(task_id):
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    return next(p["reference_code"] for p in pairs if p["id"] == task_id)


class TestCategorize:
    def test_golden_twelve(self, tmp_path):
        out = tmp_path / "cat.jsonl"
        result = run_cli(
            "categorize",
            "--input", CAT12 / "pairs.jsonl",
            "--verdicts", CAT12 / "verdicts.jsonl",
            "--output", out,
        )
        assert result.exit_code == 0, result.output
        golden = json.loads((CAT12 / "golden.json").read_text())
        meta, rows = read_jsonl(out)
        assert meta is not None and "config_sha256" in meta
        got = {r["id"]: r["category"] for r in rows}
        assert got == golden["categories"]
        counts = {c: sum(1 for v in got.values() if v == c) for c in set(got.values())}
        assert counts == golden["counts"]

    def test_missing_verdict_is_config_error(self, tmp_path):
        verdicts = tmp_path / "v.jsonl"
        verdicts.write_text('{"id": "adder01", "passed": true}\n')
        result = run_cli(
            "categorize",
            "--input", CAT12 / "pairs.jsonl",
            "--verdicts", verdicts,
            "--output", tmp_path / "cat.jsonl",
        )
        assert result.exit_code == 2
        assert "verdict" in result.stderr

    def test_missing_input_exit_code(self, tmp_path):
        result = run_cli(
            "categorize",
            "--input", tmp_path / "nope.jsonl",
            "--verdicts", CAT12 / "verdicts.jsonl",
            "--output", tmp_path / "cat.jsonl",
        )
        assert result.exit_code == 2

    def test_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            run_cli(
                "categorize",
                "--input", CAT12 / "pairs.jsonl",
                "--verdicts", CAT12 / "verdicts.jsonl",
                "--output", out,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def write_probe_mock(tmp_path):
    """A mock provider script that answers each offline-passed toy pair with
    its reference in a verilog fence, and every other pair with text holding
    no Verilog."""
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    _, verdicts = read_jsonl(TOY / "verdicts.jsonl")
    passed = {v["id"] for v in verdicts if v["passed"]}
    rules = [
        {"match": p["description"], "texts": [f"```verilog\n{p['reference_code']}\n```"]}
        for p in pairs if p["id"] in passed
    ]
    path = tmp_path / "probe_mock.json"
    path.write_text(json.dumps(
        {"completions": rules, "default_completions": ["I cannot write this module."]}
    ))
    return path


class TestCategorizeLive:
    @pytest.fixture()
    def probe_mock(self, tmp_path):
        return write_probe_mock(tmp_path)

    def test_matches_offline_verdicts_and_reruns_identical(
        self, tmp_path, probe_mock, echo_toolchain_file, sim_log
    ):
        offline = tmp_path / "offline.jsonl"
        run_cli("categorize", "--input", TOY / "pairs.jsonl",
                "--verdicts", TOY / "verdicts.jsonl", "--output", offline)
        blobs = []
        for name in ("live1.jsonl", "live2.jsonl"):
            out = tmp_path / name
            result = run_cli(
                "categorize",
                "--input", TOY / "pairs.jsonl",
                "--live",
                "--mock-provider", probe_mock,
                "--toolchain", echo_toolchain_file,
                "--testbenches", TOY / "testbenches",
                "--output", out,
            )
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == offline.read_bytes()
        # each run simulates every pair's reference once and only the two fenced answers
        candidates = sorted(task for task, is_ref in sim_log if not is_ref)
        assert candidates == ["clkgenerator", "clkgenerator", "mux2to1", "mux2to1"]
        assert sum(is_ref for _, is_ref in sim_log) == 10


@pytest.fixture()
def categorized_toy(tmp_path):
    out = tmp_path / "categorized.jsonl"
    result = run_cli(
        "categorize",
        "--input", TOY / "pairs.jsonl",
        "--verdicts", TOY / "verdicts.jsonl",
        "--output", out,
    )
    assert result.exit_code == 0, result.output
    return out


class TestDeriveCrux:
    def test_emit_bundles_for_non_easy(self, tmp_path, categorized_toy):
        out = tmp_path / "bundles.jsonl"
        result = run_cli("derive-crux", "--input", categorized_toy, "--output", out)
        assert result.exit_code == 0, result.output
        _, rows = read_jsonl(out)
        # 2 Normal + 1 Special in the toy corpus
        assert len(rows) == 3
        stages = {r["task_id"]: [p["stage"] for p in r["prompts"]] for r in rows}
        assert stages["ece241_2013_q8"] == ["circuit_parse", "validate"]
        assert stages["dff8p"] == ["extract"]

    def test_live_matches_bundled_transcripts(self, tmp_path, categorized_toy):
        out = tmp_path / "transcripts.jsonl"
        result = run_cli(
            "derive-crux",
            "--input", categorized_toy,
            "--live",
            "--mock-provider", TOY / "mock_provider.json",
            "--output", out,
        )
        assert result.exit_code == 0, result.output
        _, live = read_jsonl(out)
        _, bundled = read_jsonl(TOY / "transcripts.jsonl")
        key = lambda r: (r["id"], r["stage"])
        assert {key(r): r["text"] for r in live} == {key(r): r["text"] for r in bundled}

    def test_live_fills_only_the_validate_slot(self, tmp_path, monkeypatch):
        """The circuit parser's note fills the validate prompt's slot, not a
        ``{derived}`` in the reference code quoted below it."""
        from cruxkit.gateway import MockProvider

        prompts = []
        real_generate = MockProvider.generate

        def generate(self, req):
            prompts.append(req.prompt)
            return real_generate(self, req)

        monkeypatch.setattr(MockProvider, "generate", generate)
        reference = "module m(input a);\n// note {derived}\nendmodule\n"
        pairs = tmp_path / "categorized.jsonl"
        pairs.write_text(json.dumps({"id": "m", "description": "Read the diagram.",
                                     "reference_code": reference,
                                     "category": "SpecialNonText"}) + "\n")
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps({
            "completions": [{"match": "careful hardware reviewer", "texts": ["valid"]}],
            "default_completions": ["DERIVED NOTE"],
        }))
        result = run_cli("derive-crux", "--input", pairs, "--live", "--mock-provider", mock,
                         "--output", tmp_path / "transcripts.jsonl")
        assert result.exit_code == 0, result.output
        _, validate = prompts
        assert validate.count("DERIVED NOTE") == 1
        assert "// note {derived}" in validate

    def test_needs_a_mode(self, categorized_toy):
        result = run_cli("derive-crux", "--input", categorized_toy)
        assert result.exit_code == 2
        assert "Missing option '--output'" in result.stderr

    def test_unreachable_provider_is_a_gateway_error(self, tmp_path, categorized_toy):
        provider = tmp_path / "provider.json"
        provider.write_text(json.dumps({"kind": "mock", "max_retries": 1, "mock": {"fail_first": 1}}))
        result = run_cli(
            "derive-crux", "--input", categorized_toy, "--live",
            "--provider", provider, "--output", tmp_path / "transcripts.jsonl",
        )
        assert result.exit_code == 1
        assert result.stderr == "gateway error: scripted mock failure\n"

    def test_uncategorized_input_is_usage_error(self, tmp_path):
        result = run_cli(
            "derive-crux", "--input", TOY / "pairs.jsonl", "--output", tmp_path / "bundles.jsonl"
        )
        assert result.exit_code == 2
        assert result.stderr == (
            "error: corpus row 'dff8p' has no known category (None); run categorize first\n"
        )


class TestBuildDataset:
    def test_full_toy_build(self, tmp_path, categorized_toy):
        records = tmp_path / "records.jsonl"
        recl = tmp_path / "recl.jsonl"
        result = run_cli(
            "build-dataset",
            "--input", categorized_toy,
            "--transcripts", TOY / "transcripts.jsonl",
            "--output", records,
            "--reclassified", recl,
        )
        assert result.exit_code == 0, result.output
        _, rows = read_jsonl(records)
        _, reclassified = read_jsonl(recl)
        assert len(rows) == 5
        assert reclassified == []
        by_id = {r["id"]: r for r in rows}
        assert by_id["ece241_2013_q8"]["category"] == "SpecialNonText"
        # Special realspecs carry the diagram, not the original description
        assert "State transitions" in by_id["ece241_2013_q8"]["realspec"]
        for row in rows:
            assert "Module name:" in row["realspec"]
            assert row["crux"].startswith("## Module Interface")
            assert row["provenance"]["master_seed"] == 0

    def test_missing_transcript_reclassifies(self, tmp_path, categorized_toy):
        records = tmp_path / "records.jsonl"
        recl = tmp_path / "recl.jsonl"
        result = run_cli(
            "build-dataset",
            "--input", categorized_toy,
            "--output", records,
            "--reclassified", recl,
        )
        assert result.exit_code == 0, result.output
        _, rows = read_jsonl(records)
        _, reclassified = read_jsonl(recl)
        # only the two Easy tasks survive without transcripts
        assert {r["id"] for r in rows} == {"clkgenerator", "mux2to1"}
        assert {r["id"] for r in reclassified} == {"dff8p", "ece241_2013_q8", "count4"}
        assert all(r["to"] == "NormalData" for r in reclassified)

    def test_seed_changes_realspec_sampling(self, tmp_path, categorized_toy):
        texts = {}
        for seed in (0, 1):
            out = tmp_path / f"records{seed}.jsonl"
            run_cli(
                "--seed", seed,
                "build-dataset",
                "--input", categorized_toy,
                "--transcripts", TOY / "transcripts.jsonl",
                "--output", out,
            )
            _, rows = read_jsonl(out)
            texts[seed] = {r["id"]: r["realspec"] for r in rows}
        assert texts[0] != texts[1]

    def test_rerun_byte_identical(self, tmp_path, categorized_toy):
        blobs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            run_cli(
                "build-dataset",
                "--input", categorized_toy,
                "--transcripts", TOY / "transcripts.jsonl",
                "--output", out,
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("category, shown", [(None, "None"), ("Hard", "'Hard'")])
    def test_uncategorized_row_is_usage_error(self, tmp_path, category, shown):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        rows = [dict(pairs[0], category="EasyQuestion"), dict(pairs[1], category=category)]
        if category is None:
            del rows[1]["category"]
        categorized = tmp_path / "categorized.jsonl"
        categorized.write_text("".join(json.dumps(r) + "\n" for r in rows))
        records = tmp_path / "records.jsonl"
        result = run_cli("build-dataset", "--input", categorized, "--output", records)
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: corpus row {pairs[1]['id']!r} has no known category ({shown}); "
            "run categorize first\n"
        )
        assert not records.exists()

    def test_transcript_without_stage_is_usage_error(self, tmp_path, categorized_toy):
        transcripts = tmp_path / "transcripts.jsonl"
        transcripts.write_text(json.dumps({"id": "dff8p", "text": "## Module Interface"}) + "\n")
        records = tmp_path / "records.jsonl"
        result = run_cli(
            "build-dataset",
            "--input", categorized_toy,
            "--transcripts", transcripts,
            "--output", records,
        )
        assert result.exit_code == 2
        assert result.stderr == "error: transcript row 'dff8p' has no 'stage'\n"
        assert not records.exists()

    def test_parses_each_reference_header_and_transcript_once(self, tmp_path, monkeypatch):
        from cruxkit.interface import HeaderError, parse_module_header

        config = ["--config", NO_SIM_TINY / "config.json"]
        categorized = tmp_path / "categorized.jsonl"
        result = run_cli(*config, "categorize", "--input", NO_SIM_TINY / "pairs.jsonl",
                         "--verdicts", NO_SIM_TINY / "verdicts.jsonl", "--output", categorized)
        assert result.exit_code == 0, result.output
        _, rows = read_jsonl(categorized)
        references = [r["reference_code"] for r in rows]
        assert len(set(references)) == len(rows) == 60
        _, transcripts = read_jsonl(NO_SIM_TINY / "transcripts.jsonl")
        texts = {(t["id"], t["stage"]): t["text"] for t in transcripts}
        stages = {"NormalData": "extract", "SpecialNonText": "circuit_parse"}
        # a row whose reference header fails is reclassified before its transcript is read
        notes = []
        for row in rows:
            try:
                parse_module_header(row["reference_code"])
            except HeaderError:
                continue
            note = texts.get((row["id"], stages.get(row["category"])))
            if note is not None:
                notes.append(note)
        assert len(set(notes)) == len(notes) > 0
        assert any(r["category"] == "EasyQuestion" for r in rows)

        calls = logged_parsers(monkeypatch)
        result = run_cli(*config, "build-dataset", "--input", categorized,
                         "--transcripts", NO_SIM_TINY / "transcripts.jsonl",
                         "--output", tmp_path / "records.jsonl")
        assert result.exit_code == 0, result.output
        header_parses = Counter(calls["parse_module_header"])
        assert [header_parses[ref] for ref in references] == [1] * len(references)
        assert sorted(calls["parse_crux"]) == sorted(notes)


def logged_parsers(monkeypatch):
    """Replaces ``parse_module_header`` and ``parse_crux`` in every cruxkit
    module that binds them; returns each one's list of parsed texts."""
    import cruxkit.cruxdoc
    import cruxkit.interface

    real = {
        "parse_module_header": cruxkit.interface.parse_module_header,
        "parse_crux": cruxkit.cruxdoc.parse_crux,
    }
    calls = {name: [] for name in real}

    def logging(name):
        def parse(text, *args, **kwargs):
            calls[name].append(text)
            return real[name](text, *args, **kwargs)
        return parse

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cruxkit."):
            for name, fn in real.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, logging(name))
    return calls


def write_candidates(tmp_path, pairs_rows):
    path = tmp_path / "candidates.jsonl"
    with open(path, "w") as f:
        for row in pairs_rows:
            broken = row["reference_code"].replace("endmodule", "SYNTAX_ERROR\nendmodule")
            f.write(json.dumps({"task_id": row["id"], "candidates": [row["reference_code"], broken]}) + "\n")
    return path


class TestEvaluate:
    def test_pass_at_k_over_toy_corpus(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        candidates = write_candidates(tmp_path, pairs)
        outdir = tmp_path / "eval"
        result = run_cli(
            "evaluate",
            "--tasks", TOY / "pairs.jsonl",
            "--candidates", candidates,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output-dir", outdir,
            "-k", 1, "-k", 2,
        )
        assert result.exit_code == 0, result.output
        _, per_task = read_jsonl(outdir / "per_task.jsonl")
        for row in per_task:
            assert (row["n"], row["c"]) == (2, 1)
            assert row["pass@1"] == pytest.approx(0.5)
            assert row["pass@2"] == pytest.approx(1.0)
        meta, outcomes = read_jsonl(outdir / "outcomes.jsonl")
        assert meta["k_values"] == [1, 2]
        assert len(outcomes) == 10
        compiled = [o for o in outcomes if o["compile_ok"]]
        assert len(compiled) == 5
        assert (outdir / "summary.txt").exists()
        assert (outdir / "summary.csv").exists()

    def test_repeated_task_rows_merge(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        reference = next(p["reference_code"] for p in pairs if p["id"] == "dff8p")
        broken = reference.replace("endmodule", "SYNTAX_ERROR\nendmodule")
        candidates = tmp_path / "c.jsonl"
        candidates.write_text(
            json.dumps({"task_id": "dff8p", "candidates": [reference] * 2}) + "\n"
            + json.dumps({"task_id": "dff8p", "candidates": [broken] * 3}) + "\n"
        )
        outdir = tmp_path / "eval"
        result = run_cli(
            "evaluate",
            "--tasks", TOY / "pairs.jsonl",
            "--candidates", candidates,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output-dir", outdir,
            "-k", 1,
        )
        assert result.exit_code == 0, result.output
        _, per_task = read_jsonl(outdir / "per_task.jsonl")
        assert [(r["task_id"], r["n"], r["c"]) for r in per_task] == [("dff8p", 5, 2)]
        _, outcomes = read_jsonl(outdir / "outcomes.jsonl")
        assert [o["index"] for o in outcomes] == [0, 1, 2, 3, 4]
        assert [o["compile_ok"] for o in outcomes] == [True, True, False, False, False]

    def _evaluate_row(self, tmp_path, toolchain, task_id, codes):
        candidates = tmp_path / "c.jsonl"
        candidates.write_text(json.dumps({"task_id": task_id, "candidates": codes}) + "\n")
        outdir = tmp_path / "eval"
        result = run_cli(
            "evaluate",
            "--tasks", TOY / "pairs.jsonl",
            "--candidates", candidates,
            "--testbenches", TOY / "testbenches",
            "--toolchain", toolchain,
            "--output-dir", outdir,
            "-k", 1,
        )
        assert result.exit_code == 0, result.output
        _, per_task = read_jsonl(outdir / "per_task.jsonl")
        _, outcomes = read_jsonl(outdir / "outcomes.jsonl")
        return per_task, outcomes

    def test_duplicate_candidates_are_samples_simulated_once(
        self, tmp_path, echo_toolchain_file, sim_log
    ):
        reference = toy_reference("dff8p")
        broken = reference.replace("endmodule", "SYNTAX_ERROR\nendmodule")
        per_task, outcomes = self._evaluate_row(
            tmp_path, echo_toolchain_file, "dff8p",
            [reference, broken, reference, broken, broken],
        )
        assert [(r["n"], r["c"]) for r in per_task] == [(5, 2)]
        assert [o["index"] for o in outcomes] == [0, 1, 2, 3, 4]
        assert [o["compile_ok"] for o in outcomes] == [True, False, True, False, False]
        # the reference once, then the one failing design; its copies reuse the reference run
        assert sim_log == [("dff8p", True), ("dff8p", False)]

    def test_empty_candidate_is_a_compile_failure(self, tmp_path, echo_toolchain_file, sim_log):
        reference = toy_reference("mux2to1")
        per_task, outcomes = self._evaluate_row(
            tmp_path, echo_toolchain_file, "mux2to1",
            ["", reference, "module m; endmodule", " \n\t"],
        )
        assert [(r["n"], r["c"]) for r in per_task] == [(4, 1)]
        assert [o["compile_ok"] for o in outcomes] == [False, True, True, False]
        for blank in (outcomes[0], outcomes[3]):
            assert (blank["ran_ok"], blank["returncode"], blank["match_fraction"]) == (
                False, None, None
            )
        assert sim_log == [("mux2to1", True), ("mux2to1", False)]

    @pytest.mark.parametrize("ids", [(1, "b"), (None, 2), ("a", None), (2.5, "a")])
    def test_task_ids_that_cannot_be_sorted_stop_it_before_any_sim(
        self, tmp_path, echo_toolchain_file, sim_log, ids
    ):
        tasks, candidates = tmp_path / "tasks.jsonl", tmp_path / "candidates.jsonl"
        tasks.write_text("".join(json.dumps({"id": task_id, "reference_code": toy_reference(
            "mux2to1")}) + "\n" for task_id in ids))
        candidates.write_text("".join(json.dumps({"task_id": task_id, "candidates": ["x"]})
                                      + "\n" for task_id in ids))
        result = run_cli("evaluate", "--tasks", tasks, "--candidates", candidates,
                         "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file,
                         "--output-dir", tmp_path / "eval")
        first, other = ids
        assert (result.exit_code, result.stderr) == (
            2, f"error: task ids {first!r} and {other!r} in {tasks} cannot be ordered\n")
        assert sim_log == []
        assert not (tmp_path / "eval").exists()

    def test_empty_candidates_file_is_usage_error(self, tmp_path, echo_toolchain_file):
        candidates = tmp_path / "candidates.jsonl"
        candidates.write_text('{"meta": {}}\n')
        result = run_cli("evaluate", "--tasks", TOY / "pairs.jsonl", "--candidates", candidates,
                         "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file,
                         "--output-dir", tmp_path / "eval")
        assert (result.exit_code, result.stderr) == (2, f"error: no rows in {candidates}\n")

    def test_k_below_1_stops_it_before_any_sim(self, tmp_path, echo_toolchain_file, sim_log):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        result = run_cli("evaluate", "--tasks", TOY / "pairs.jsonl",
                         "--candidates", write_candidates(tmp_path, pairs),
                         "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file,
                         "--output-dir", tmp_path / "eval", "-k", 1, "-k", 0)
        assert result.exit_code == 2
        assert "Invalid value for '-k'" in result.stderr
        assert sim_log == []

    def test_run_output_that_is_not_text_is_scored(self, tmp_path):
        toolchain = tmp_path / "tc.json"
        toolchain.write_text(json.dumps({
            "compile_cmd": "true {out}",
            "run_cmd": """sh -c "printf 'ok\\377\\n'" {out}""",
        }))
        per_task, outcomes = self._evaluate_row(
            tmp_path, toolchain, "mux2to1", [toy_reference("mux2to1"), "module m; endmodule"]
        )
        assert [(r["n"], r["c"]) for r in per_task] == [(2, 2)]
        assert [(o["ran_ok"], o["match_fraction"]) for o in outcomes] == [(True, 1.0)] * 2

    def test_simulator_on_the_toolchain_env_path(self, tmp_path):
        bindir = tmp_path / "bin"
        bindir.mkdir()
        mysim = bindir / "mysim"
        mysim.write_text("#!/bin/sh\necho tick\n")
        mysim.chmod(0o755)
        toolchain = tmp_path / "tc.json"
        toolchain.write_text(json.dumps({
            "compile_cmd": "mysim {out}", "run_cmd": "mysim {out}",
            "env": {"PATH": f"{bindir}:/usr/bin:/bin"},
        }))
        per_task, outcomes = self._evaluate_row(
            tmp_path, toolchain, "mux2to1", [toy_reference("mux2to1")]
        )
        assert [(r["n"], r["c"]) for r in per_task] == [(1, 1)]
        assert [(o["ran_ok"], o["match_fraction"]) for o in outcomes] == [(True, 1.0)]

    def test_simulator_named_with_a_slash(self, tmp_path, monkeypatch):
        mysim = tmp_path / "mysim"
        mysim.write_text("#!/bin/sh\necho tick\n")
        mysim.chmod(0o755)
        toolchain = tmp_path / "tc.json"
        toolchain.write_text(json.dumps({"compile_cmd": "./mysim {out}", "run_cmd": "./mysim {out}"}))
        monkeypatch.chdir(tmp_path)
        per_task, outcomes = self._evaluate_row(
            tmp_path, toolchain, "mux2to1", [toy_reference("mux2to1"), "module m; endmodule"]
        )
        assert [(r["n"], r["c"]) for r in per_task] == [(2, 2)]
        assert [(o["ran_ok"], o["match_fraction"]) for o in outcomes] == [(True, 1.0)] * 2

    def test_unknown_task_in_candidates(self, tmp_path, echo_toolchain_file):
        candidates = tmp_path / "c.jsonl"
        candidates.write_text(json.dumps({"task_id": "ghost", "candidates": ["module m; endmodule"]}) + "\n")
        result = run_cli(
            "evaluate",
            "--tasks", TOY / "pairs.jsonl",
            "--candidates", candidates,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output-dir", tmp_path / "eval",
        )
        assert result.exit_code == 2
        assert "ghost" in result.stderr

    def test_task_without_reference_code_is_usage_error(self, tmp_path, echo_toolchain_file):
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text(json.dumps({"id": "mux2to1", "description": "a mux"}) + "\n")
        candidates = tmp_path / "c.jsonl"
        candidates.write_text(
            json.dumps({"task_id": "mux2to1", "candidates": ["module m; endmodule"]}) + "\n"
        )
        result = run_cli(
            "evaluate",
            "--tasks", tasks,
            "--candidates", candidates,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output-dir", tmp_path / "eval",
        )
        assert result.exit_code == 2
        assert result.stderr == "error: task row 'mux2to1' has no 'reference_code'\n"

    def test_non_string_reference_code_is_usage_error(self, tmp_path, echo_toolchain_file):
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text(json.dumps({"id": "mux2to1", "reference_code": 5}) + "\n")
        candidates = tmp_path / "c.jsonl"
        candidates.write_text(
            json.dumps({"task_id": "mux2to1", "candidates": ["module m; endmodule"]}) + "\n"
        )
        result = run_cli(
            "evaluate",
            "--tasks", tasks,
            "--candidates", candidates,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output-dir", tmp_path / "eval",
        )
        assert result.exit_code == 2
        assert result.stderr == "error: task row 'mux2to1': 'reference_code' must be a str\n"
        assert not (tmp_path / "eval").exists()

    def test_missing_simulator_exits_before_work(self, tmp_path):
        tc = tmp_path / "tc.json"
        tc.write_text(json.dumps({
            "compile_cmd": "missing-sim {out} {design} {tb}",
            "run_cmd": "missing-sim-run {out}",
        }))
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        candidates = write_candidates(tmp_path, pairs)
        outdir = tmp_path / "eval"
        result = run_cli(
            "evaluate",
            "--tasks", TOY / "pairs.jsonl",
            "--candidates", candidates,
            "--testbenches", TOY / "testbenches",
            "--toolchain", tc,
            "--output-dir", outdir,
        )
        assert result.exit_code == 2
        assert result.stderr == "error: toolchain binary not found: 'missing-sim'\n"
        assert not (outdir / "per_task.jsonl").exists()

    def test_rerun_byte_identical(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        candidates = write_candidates(tmp_path, pairs)
        blobs = []
        for name in ("e1", "e2"):
            outdir = tmp_path / name
            run_cli(
                "evaluate",
                "--tasks", TOY / "pairs.jsonl",
                "--candidates", candidates,
                "--testbenches", TOY / "testbenches",
                "--toolchain", echo_toolchain_file,
                "--output-dir", outdir,
                "-k", 1,
            )
            blobs.append(b"".join(
                (outdir / n).read_bytes()
                for n in ("outcomes.jsonl", "per_task.jsonl", "summary.txt", "summary.csv")
            ))
        assert blobs[0] == blobs[1]


def payload(logprobs):
    return {"tokens": list(range(len(logprobs))), "logprobs": list(logprobs)}


def write_groups(tmp_path, pairs, step, with_ref=False):
    path = tmp_path / "groups.jsonl"
    ln_half = math.log(0.5)
    with open(path, "w") as f:
        for row in pairs:
            good = row["reference_code"]
            broken = good.replace("endmodule", "SYNTAX_ERROR\nendmodule")
            rollouts = [
                {
                    "crux_text": "## Module Interface\n", "code_text": good,
                    "logprobs_new": payload([-0.1]), "logprobs_old": payload([-0.1]),
                    "crux_score": payload([ln_half, ln_half]),
                },
                {
                    "crux_text": "", "code_text": broken,
                    "logprobs_new": payload([-0.2, -0.2]),
                    "logprobs_old": payload([-0.2, -0.2]),
                    "crux_score": payload([ln_half]),
                },
            ]
            if with_ref:
                rollouts[0]["logprobs_ref"] = payload([-0.3])
                rollouts[1]["logprobs_ref"] = payload([-0.25, -0.15])
            f.write(json.dumps({"task_id": row["id"], "step": step, "rollouts": rollouts}) + "\n")
    return path


class TestReward:
    def test_scores_and_objective(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        groups = write_groups(tmp_path, pairs[:2], step=0)
        echo = json.loads(echo_toolchain_file.read_text())
        blobs = {}
        for workers in (1, 4):
            toolchain = tmp_path / f"toolchain{workers}.json"
            toolchain.write_text(json.dumps({**echo, "workers": workers}))
            out = tmp_path / f"rewarded{workers}.jsonl"
            result = run_cli(
                "reward",
                "--groups", groups,
                "--tasks", TOY / "pairs.jsonl",
                "--testbenches", TOY / "testbenches",
                "--toolchain", toolchain,
                "--output", out,
            )
            assert result.exit_code == 0, result.output
            blobs[workers] = out.read_bytes()
        assert blobs[1] == blobs[4]
        _, rows = read_jsonl(out)
        assert len(rows) == 2
        for row in rows:
            good, bad = row["rewards"]
            assert good["compile_r"] == 1.0
            assert good["code_r"] == 1.0
            assert good["crux_r"] == pytest.approx(0.5)
            assert bad["compile_r"] == 0.0
            assert bad["code_r"] == 0.0
            assert good["mixed"] > bad["mixed"]
            assert row["advantages"][0] > 0 > row["advantages"][1]
            # theta == theta_old: surrogate equals the advantage mean, zero clipping
            assert row["objective"]["surrogate"] == pytest.approx(
                sum(row["advantages"]) / 2, abs=1e-12
            )
            assert row["objective"]["clip_fraction"] == 0.0
        assert "mean mixed reward" in result.output

    def test_permuting_a_groups_rollouts_permutes_its_row(self, tmp_path, echo_toolchain_file):
        """Group standardization is permutation-equivariant, as
        ``TestScoreGroup`` checks for ``score_group``: through ``reward``,
        permuting one groups row's rollouts permutes its reward rows and
        advantages. The objective's sums run in rollout order, so it agrees
        within 1e-12, not bitwise. The mock fails no call, so each rollout is
        scored alike in either order."""
        provider = json.loads((RL_GROUPS_TINY / "provider.json").read_text())
        del provider["mock"]["fail_first"]
        provider_file = tmp_path / "provider.json"
        provider_file.write_text(json.dumps(provider))
        first, second = (RL_GROUPS_TINY / "groups.jsonl").read_text().splitlines()
        row = json.loads(second)
        perm = [3, 7, 0, 5, 1, 6, 2, 4]
        assert sorted(perm) == list(range(len(row["rollouts"])))
        permuted = tmp_path / "permuted.jsonl"
        permuted_row = {**row, "rollouts": [row["rollouts"][i] for i in perm]}
        permuted.write_text(first + "\n" + json.dumps(permuted_row) + "\n")
        rows = {}
        for groups in (RL_GROUPS_TINY / "groups.jsonl", permuted):
            out = tmp_path / f"rewarded-{groups.stem}.jsonl"
            result = run_cli(
                "--config", RL_GROUPS_TINY / "config.json", "reward",
                "--groups", groups,
                "--tasks", RL_GROUPS_TINY / "tasks.jsonl",
                "--testbenches", RL_GROUPS_TINY / "testbenches",
                "--toolchain", echo_toolchain_file,
                "--provider", provider_file,
                "--output", out,
            )
            assert result.exit_code == 0, result.output
            rows[groups] = read_jsonl(out)[1]
        (base_first, base), (got_first, got) = rows.values()
        assert got_first == base_first
        assert got["rewards"] == [base["rewards"][i] for i in perm]
        assert len(got["advantages"]) == len(perm)
        for value, i in zip(got["advantages"], perm):
            assert abs(value - base["advantages"][i]) <= 1e-12
        assert got["objective"].keys() == base["objective"].keys()
        for name, value in base["objective"].items():
            assert abs(got["objective"][name] - value) <= 1e-12
        assert (got["degenerate"], got["task_id"], got["step"]) == (
            base["degenerate"], base["task_id"], base["step"])

    def test_late_phase_weights_applied(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        out_by_step = {}
        for step in (0, 52):
            groups = write_groups(tmp_path, pairs[:1], step=step)
            out = tmp_path / f"rewarded{step}.jsonl"
            result = run_cli(
                "reward",
                "--groups", groups,
                "--tasks", TOY / "pairs.jsonl",
                "--testbenches", TOY / "testbenches",
                "--toolchain", echo_toolchain_file,
                "--output", out,
            )
            assert result.exit_code == 0, result.output
            _, rows = read_jsonl(out)
            out_by_step[step] = rows[0]["rewards"][0]
        assert out_by_step[0]["weights_phase"] == "early"
        assert out_by_step[52]["weights_phase"] == "late"
        # same parts, different weights
        assert out_by_step[0]["mixed"] != out_by_step[52]["mixed"]

    def test_unknown_task_exit(self, tmp_path, echo_toolchain_file):
        groups = tmp_path / "groups.jsonl"
        groups.write_text(json.dumps({"task_id": "ghost", "rollouts": []}) + "\n")
        result = run_cli(
            "reward",
            "--groups", groups,
            "--tasks", TOY / "pairs.jsonl",
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output", tmp_path / "out.jsonl",
        )
        assert result.exit_code == 2

    def test_negative_global_step_is_usage_error(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        result = run_cli(
            "reward",
            "--groups", write_groups(tmp_path, pairs[:1], step=0),
            "--tasks", TOY / "pairs.jsonl",
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--global-step", -1,
            "--output", tmp_path / "out.jsonl",
        )
        assert result.exit_code == 2
        assert "--global-step" in result.stderr
        assert not (tmp_path / "out.jsonl").exists()

    def test_task_without_reference_code_is_usage_error(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text(json.dumps({"id": pairs[0]["id"], "description": "no code"}) + "\n")
        out = tmp_path / "rewarded.jsonl"
        result = run_cli(
            "reward",
            "--groups", write_groups(tmp_path, pairs[:1], step=0),
            "--tasks", tasks,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output", out,
        )
        assert result.exit_code == 2
        assert result.stderr == f"error: task row {pairs[0]['id']!r} has no 'reference_code'\n"
        assert not out.exists()

    def test_non_string_reference_code_is_usage_error(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text(json.dumps({"id": pairs[0]["id"], "reference_code": 5}) + "\n")
        out = tmp_path / "rewarded.jsonl"
        result = run_cli(
            "reward",
            "--groups", write_groups(tmp_path, pairs[:1], step=0),
            "--tasks", tasks,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output", out,
        )
        assert result.exit_code == 2
        assert result.stderr == f"error: task row {pairs[0]['id']!r}: 'reference_code' must be a str\n"
        assert not out.exists()

    def test_kl_without_ref_logprobs_is_usage_error(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grpo": {"beta": 0.04}}))
        out = tmp_path / "rewarded.jsonl"
        result = run_cli(
            "--config", config,
            "reward",
            "--groups", write_groups(tmp_path, pairs[:2], step=0),
            "--tasks", TOY / "pairs.jsonl",
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output", out,
        )
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: beta > 0 requires ref logprobs")
        assert not out.exists()

    NON_ANSI_MUX = ("module mux2to1 (a, b, sel, y);\n    input a;\n    input b;\n"
                    "    input sel;\n    output y;\n    assign y = sel ? b : a;\nendmodule\n")

    @pytest.mark.parametrize("beta, rollouts, message", [
        (0.0, 1, "need at least 2 rollouts, got 1 (groups row 1)"),
        (0.04, 2,
         "beta > 0 requires ref logprobs on every rollout (groups row 1 rollout 0 has none)"),
        (0.0, 2,
         "groups row 1: reference design for task 'mux2to1' has an unsupported header: "
         "port list without directions (non-ANSI header not supported)"),
    ])
    def test_group_error_known_from_its_row_runs_no_sim(
        self, tmp_path, echo_toolchain_file, sim_log, beta, rollouts, message
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grpo": {"beta": beta}}))
        # the header case runs on a non-ANSI reference, the others on the toy one
        reference = self.NON_ANSI_MUX if "header" in message else toy_reference("mux2to1")
        mux = {"id": "mux2to1", "reference_code": reference}
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text(json.dumps(mux) + "\n")
        groups = write_groups(tmp_path, [mux], step=0)
        row = json.loads(groups.read_text())
        groups.write_text(json.dumps({**row, "rollouts": row["rollouts"][:rollouts]}) + "\n")
        out = tmp_path / "rewarded.jsonl"
        result = run_cli(
            "--config", config,
            "reward",
            "--groups", groups,
            "--tasks", tasks,
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output", out,
        )
        assert (result.exit_code, result.stderr) == (2, f"error: {message}\n")
        assert sim_log == []
        assert not out.exists()

    @pytest.mark.parametrize("first_tokens, message", [
        ({"logprobs_new": 0.0, "logprobs_old": -800.0},
         "logprobs_new - logprobs_old is 800 at token 0, above 702.693"),
        ({"logprobs_ref": 0.0, "logprobs_new": -800.0, "logprobs_old": -800.0},
         "logprobs_ref - logprobs_new is 800 at token 0, beyond +-702.693"),
        ({"logprobs_ref": -800.0, "logprobs_new": 0.0, "logprobs_old": 0.0},
         "logprobs_ref - logprobs_new is -800 at token 0, beyond +-702.693"),
    ])
    def test_rollout_whose_objective_would_overflow_is_usage_error_before_any_sim(
        self, tmp_path, first_tokens, message
    ):
        """The first rl-groups-tiny group with every rollout's first token
        set as ``first_tokens`` says: a log-ratio of 800 was not sampled from
        the old policy, and the first case's surrogate would be -Infinity,
        which is not JSON. It stops with one error line, nothing written,
        and no sim: a sim would touch ``marker`` in its compile step."""
        from cruxkit.harness import ToolchainConfig

        row = json.loads((RL_GROUPS_TINY / "groups.jsonl").read_text().splitlines()[0])
        for rollout in row["rollouts"]:
            for key, logprob in first_tokens.items():
                rollout[key]["logprobs"][0] = logprob
        groups = tmp_path / "groups.jsonl"
        groups.write_text(json.dumps(row) + "\n")
        marker = tmp_path / "compiled"
        echo = ToolchainConfig.echo()
        touch = shlex.join(["sh", "-c", f'touch {shlex.quote(str(marker))}; exec "$@"', "sh"])
        toolchain = tmp_path / "toolchain.json"
        toolchain.write_text(json.dumps({"compile_cmd": f"{touch} {echo.compile_cmd}",
                                         "run_cmd": echo.run_cmd}))
        out = tmp_path / "rewards.jsonl"
        result = run_cli("--config", RL_GROUPS_TINY / "config.json", "reward",
                         "--groups", groups, "--tasks", RL_GROUPS_TINY / "tasks.jsonl",
                         "--testbenches", RL_GROUPS_TINY / "testbenches",
                         "--toolchain", toolchain,
                         "--provider", RL_GROUPS_TINY / "provider.json", "--output", out)
        assert (result.exit_code, result.stderr) == (
            2, f"error: groups row 1 rollout 0: {message}, "
               f"past which the group's objective can overflow\n")
        assert not out.exists()
        assert not marker.exists()

    def _reward_group(self, tmp_path, toolchain, codes, name):
        """Scores one mux2to1 group of ``codes``; returns the rewards file."""
        ln_half = math.log(0.5)
        rollouts = [
            {
                "crux_text": "## Module Interface\n", "code_text": code,
                "logprobs_new": payload([-0.1 * (i + 1)]), "logprobs_old": payload([-0.2]),
                "crux_score": payload([ln_half]),
            }
            for i, code in enumerate(codes)
        ]
        groups = tmp_path / f"{name}.groups.jsonl"
        groups.write_text(json.dumps({"task_id": "mux2to1", "step": 0, "rollouts": rollouts}) + "\n")
        out = tmp_path / f"{name}.rewarded.jsonl"
        result = run_cli(
            "reward",
            "--groups", groups,
            "--tasks", TOY / "pairs.jsonl",
            "--testbenches", TOY / "testbenches",
            "--toolchain", toolchain,
            "--output", out,
        )
        assert result.exit_code == 0, result.output
        return out

    def test_repeated_rollouts_score_as_unique_ones(self, tmp_path, echo_toolchain_file, sim_log):
        reference = toy_reference("mux2to1")
        broken = reference.replace("endmodule", "SYNTAX_ERROR\nendmodule")
        mismatch = reference.replace("sel1 b", "sel1 a")
        designs = [reference, broken, reference, mismatch, broken, reference, mismatch, broken]
        fenced = 5

        def codes(tag):
            out = [design + tag(i) for i, design in enumerate(designs)]
            out[fenced] = f"```verilog\n{out[fenced]}```"
            return out

        repeated = self._reward_group(tmp_path, echo_toolchain_file, codes(lambda i: ""), "repeated")
        # the fenced copy extracts stripped, so it differs from the reference text
        assert sorted(sim_log) == [("mux2to1", False)] * 3 + [("mux2to1", True)]
        sim_log.clear()
        # echosim ignores plain comments, so each tagged rollout behaves as before
        unique = self._reward_group(
            tmp_path, echo_toolchain_file, codes(lambda i: f"// {i}\n"), "unique"
        )
        assert sorted(sim_log) == [("mux2to1", False)] * len(designs) + [("mux2to1", True)]
        assert repeated.read_bytes() == unique.read_bytes()
        _, rows = read_jsonl(repeated)
        assert [r["code_r"] for r in rows[0]["rewards"]] == [1.0, 0.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0]

    def test_empty_rollout_scores_zero_compile_and_code(self, tmp_path, echo_toolchain_file):
        reference = toy_reference("mux2to1")
        out = self._reward_group(tmp_path, echo_toolchain_file, ["", reference, "\n  "], "empty")
        _, rows = read_jsonl(out)
        parts = [(r["compile_r"], r["code_r"]) for r in rows[0]["rewards"]]
        assert parts == [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]

    def test_empty_scoring_prompt_scores_zero_with_a_diagnostic(self, tmp_path,
                                                                echo_toolchain_file):
        """Under the template ``{crux}``, a rollout with an empty note and no
        ``crux_score`` of its own has an empty scoring prompt: it scores 0
        with a diagnostic, as a failed scoring call does, and the command
        exits 0 (it ended as an internal error after the group's sims)."""
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        groups = write_groups(tmp_path, pairs[:1], step=0)
        row = json.loads(groups.read_text())
        row["rollouts"][1]["crux_score"] = None  # its crux_text is ""
        groups.write_text(json.dumps(row) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scoring_template": "{crux}"}))
        out = tmp_path / "rewarded.jsonl"
        result = run_cli("--config", config, "reward", "--groups", groups,
                         "--tasks", TOY / "pairs.jsonl", "--testbenches", TOY / "testbenches",
                         "--toolchain", echo_toolchain_file, "--output", out)
        assert result.exit_code == 0, result.output
        _, (scored,) = read_jsonl(out)
        noted, empty = scored["rewards"]
        assert noted["diagnostics"] == []
        assert (empty["crux_r"], empty["diagnostics"]) == (
            0.0, ["scoring failed: prompt must be nonempty"])


_ROLLOUT = {"crux_text": "", "code_text": "module m; endmodule",
            "logprobs_new": payload([-0.1]), "logprobs_old": payload([-0.1])}


def _without(row, key):
    return {k: v for k, v in row.items() if k != key}


@pytest.mark.parametrize("command, row, message", [
    ("reward", {"rollouts": [_ROLLOUT, _ROLLOUT]}, "groups row 2 has no 'task_id'"),
    ("reward", {"task_id": "mux2to1"}, "groups row 2 has no 'rollouts'"),
    ("reward", {"task_id": "mux2to1", "rollouts": [_without(_ROLLOUT, "crux_text"), _ROLLOUT]},
     "groups row 2 rollout 0 has no 'crux_text'"),
    ("reward", {"task_id": "mux2to1", "rollouts": [_ROLLOUT, _without(_ROLLOUT, "logprobs_new")]},
     "groups row 2 rollout 1 has no 'logprobs_new'"),
    ("reward", {"task_id": "mux2to1", "rollouts": 3}, "groups row 2: 'rollouts' must be a list"),
    ("reward", {"task_id": "mux2to1", "step": "x", "rollouts": [_ROLLOUT, _ROLLOUT]},
     "groups row 2 has a bad 'step': 'x'"),
    ("evaluate", {"candidates": ["module m; endmodule"]}, "candidates row 2 has no 'task_id'"),
    ("evaluate", {"task_id": "mux2to1", "candidates": "ab"},
     "candidates row 2: 'candidates' must be a list of strings"),
    ("reward", {"task_id": "mux2to1", "step": -1, "rollouts": [_ROLLOUT, _ROLLOUT]},
     "groups row 2 has a bad 'step': -1"),
    ("reward", {"task_id": "mux2to1",
                "rollouts": [_ROLLOUT, {**_ROLLOUT, "logprobs_new": {"tokens": [0]}}]},
     "groups row 2 rollout 1: bad 'logprobs_new': no 'logprobs'"),
    ("reward", {"task_id": "mux2to1",
                "rollouts": [{**_ROLLOUT, "logprobs_old": payload([-0.1, -0.2])}, _ROLLOUT]},
     "groups row 2 rollout 0: logprob sequences must cover identical tokens"),
    ("reward", {"task_id": "mux2to1",
                "rollouts": [_ROLLOUT, {**_ROLLOUT, "logprobs_ref": {"tokens": [0], "logprobs": 1}}]},
     "groups row 2 rollout 1: bad 'logprobs_ref': 'int' object is not iterable"),
    ("reward", {"task_id": "mux2to1",
                "rollouts": [{**_ROLLOUT, "crux_score": payload([0.5])}, _ROLLOUT]},
     "groups row 2 rollout 0: bad 'crux_score': logprobs must be finite and <= 0, got 0.5"),
    ("reward", {"task_id": "mux2to1", "rollouts": [_ROLLOUT, {**_ROLLOUT, "crux_score": payload([])}]},
     "groups row 2 rollout 1: bad 'crux_score': no tokens"),
    ("reward", {"task_id": "mux2to1", "step": 2.5, "rollouts": [_ROLLOUT, _ROLLOUT]},
     "groups row 2 has a bad 'step': 2.5"),
    ("reward", {"task_id": "mux2to1", "step": True, "rollouts": [_ROLLOUT, _ROLLOUT]},
     "groups row 2 has a bad 'step': True"),
    ("reward", {"task_id": "mux2to1", "step": "3", "rollouts": [_ROLLOUT, _ROLLOUT]},
     "groups row 2 has a bad 'step': '3'"),
    ("reward", {"task_id": "mux2to1", "rollouts": [_ROLLOUT]},
     "need at least 2 rollouts, got 1 (groups row 2)"),
])
def test_malformed_row_is_usage_error_naming_it(
    tmp_path, echo_toolchain_file, command, row, message
):
    # a valid row first, so the error names the second
    valid = {"task_id": "mux2to1"}
    if command == "reward":
        valid["rollouts"] = [_ROLLOUT, _ROLLOUT]
        out = tmp_path / "rewarded.jsonl"
        args = ["--groups", tmp_path / "rows.jsonl", "--output", out]
    else:
        valid["candidates"] = [toy_reference("mux2to1")]
        out = tmp_path / "eval" / "outcomes.jsonl"
        args = ["--candidates", tmp_path / "rows.jsonl", "--output-dir", tmp_path / "eval"]
    (tmp_path / "rows.jsonl").write_text(json.dumps(valid) + "\n" + json.dumps(row) + "\n")
    result = run_cli(command, *args, "--tasks", TOY / "pairs.jsonl",
                     "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file)
    assert (result.exit_code, result.stderr) == (2, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "reward"])
def test_line_that_is_not_json_is_usage_error(tmp_path, echo_toolchain_file, command):
    rows = tmp_path / "rows.jsonl"
    if command == "reward":
        valid = write_groups(tmp_path, [{"id": "mux2to1", "reference_code": toy_reference("mux2to1")}],
                             step=0).read_text()
        args = ["--groups", rows, "--output", tmp_path / "rewarded.jsonl"]
    else:
        valid = json.dumps({"task_id": "mux2to1", "candidates": [toy_reference("mux2to1")]}) + "\n"
        args = ["--candidates", rows, "--output-dir", tmp_path / "eval"]
    rows.write_text(valid + '{"task_id": "mux2to1", "candidates": [\n')
    result = run_cli(command, *args, "--tasks", TOY / "pairs.jsonl",
                     "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {rows}:2: bad JSON: ")


@pytest.mark.parametrize("case", ["evaluate", "reward", "categorize --live",
                                  "evaluate, blank testbench", "reward, blank testbench",
                                  "categorize --live, blank testbench"])
def test_reference_failing_its_testbench_is_config_error(tmp_path, case):
    """A reference that fails its testbench, or a testbench that holds only
    whitespace, which no reference can pass, stops the command with one
    error line. A blank testbench runs no sim, which would touch ``marker``
    in its compile step: it ended with ``internal error: EmptyInput``
    (exit 1)."""
    from cruxkit.harness import ToolchainConfig

    command, _, problem = case.partition(", ")
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    dff8p = next(p for p in pairs if p["id"] == "dff8p")
    tasks = tmp_path / "tasks.jsonl"
    tb_dir = TOY / "testbenches"
    if not problem:
        broken = dff8p["reference_code"].replace("endmodule", "SYNTAX_ERROR\nendmodule")
        tasks.write_text(json.dumps({**dff8p, "reference_code": broken}) + "\n")
        message = "failed its own testbench"
    else:
        tasks.write_text(json.dumps(dff8p) + "\n")
        tb_dir = tmp_path / "tb"
        tb_dir.mkdir()
        (tb_dir / "dff8p_tb.v").write_text(" \n\t\n")
        message = f"error: testbench for task 'dff8p' is blank: {tb_dir / 'dff8p_tb.v'}\n"
    marker = tmp_path / "compiled"
    echo = ToolchainConfig.echo()
    touch = shlex.join(["sh", "-c", f'touch {shlex.quote(str(marker))}; exec "$@"', "sh"])
    toolchain = tmp_path / "toolchain.json"
    toolchain.write_text(json.dumps({"compile_cmd": f"{touch} {echo.compile_cmd}",
                                     "run_cmd": echo.run_cmd}))
    common = ["--testbenches", tb_dir, "--toolchain", toolchain]
    if command == "evaluate":
        args = ["evaluate", "--tasks", tasks, "--candidates", write_candidates(tmp_path, [dff8p]),
                "--output-dir", tmp_path / "eval"]
    elif command == "reward":
        args = ["reward", "--tasks", tasks, "--groups", write_groups(tmp_path, [dff8p], step=0),
                "--output", tmp_path / "rewarded.jsonl"]
    else:
        args = ["categorize", "--live", "--input", tasks, "--output", tmp_path / "cat.jsonl"]
    result = run_cli(*args, *common)
    assert result.exit_code == 2
    if problem:
        assert (result.stderr, marker.exists()) == (message, False)
    else:
        assert message in result.stderr


@pytest.mark.parametrize("flag", ["--config", "categorize --input", "report --reward",
                                  "evaluate --toolchain", "reward --provider"])
def test_input_that_is_a_directory_is_usage_error(tmp_path, echo_toolchain_file, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    common = ["--tasks", TOY / "pairs.jsonl", "--testbenches", TOY / "testbenches"]
    args, what = {
        "--config": (["--config", folder, "grpo-check", "--instances", 1], "config file"),
        "categorize --input": (["categorize", "--input", folder, "--verdicts",
                                TOY / "verdicts.jsonl", "--output", tmp_path / "cat.jsonl"],
                               "input file"),
        "report --reward": (["report", "--reward", folder, "--output-dir", tmp_path / "rep"],
                            "reward output"),
        "evaluate --toolchain": (["evaluate", *common, "--toolchain", folder, "--candidates",
                                  write_candidates(tmp_path, pairs), "--output-dir",
                                  tmp_path / "eval"], "toolchain config"),
        "reward --provider": (["reward", *common, "--toolchain", echo_toolchain_file,
                               "--provider", folder, "--groups",
                               write_groups(tmp_path, pairs[:1], step=0),
                               "--output", tmp_path / "rewarded.jsonl"], "provider config"),
    }[flag]
    result = run_cli(*args)
    assert (result.exit_code, result.stderr) == (
        2, f"error: {what} cannot be read: {folder}: {os.strerror(errno.EISDIR)}\n")


@pytest.mark.parametrize("command", ["categorize", "categorize into a directory", "derive-crux",
                                     "build-dataset", "build-dataset --reclassified", "reward",
                                     "evaluate", "report", "evaluate table",
                                     "report --reward table"])
def test_output_that_cannot_be_written_is_usage_error_before_any_sim(tmp_path, command):
    """An output path in a missing directory, an output path that is a
    directory, or an ``--output-dir`` that is a file stops the command with
    nothing written; sims would touch ``marker`` in their compile step. A
    table path that is a directory in ``--output-dir`` is found as soon: it
    ended ``evaluate`` with ``internal error: IsADirectoryError`` after
    every sim."""
    from cruxkit.harness import ToolchainConfig

    missing, folder, a_file = tmp_path / "missing", tmp_path / "folder", tmp_path / "a_file"
    folder.mkdir()
    a_file.write_text("")
    tables = tmp_path / "tables"
    for name in ("summary.txt", "reward_by_step.csv"):
        (tables / name).mkdir(parents=True)
    marker = tmp_path / "compiled"
    echo = ToolchainConfig.echo()
    touch = shlex.join(["sh", "-c", f'touch {shlex.quote(str(marker))}; exec "$@"', "sh"])
    toolchain = tmp_path / "toolchain.json"
    toolchain.write_text(json.dumps({"compile_cmd": f"{touch} {echo.compile_cmd}",
                                     "run_cmd": echo.run_cmd}))
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    sims = ["--tasks", TOY / "pairs.jsonl", "--testbenches", TOY / "testbenches",
            "--toolchain", toolchain]
    categorized = GOLDEN / "no-sim-tiny" / "categorized.jsonl"
    dataset = ["build-dataset", "--input", categorized,
               "--transcripts", NO_SIM_TINY / "transcripts.jsonl"]
    not_found = f"output directory not found: {missing}"
    args, message = {
        "categorize": (["categorize", "--input", TOY / "pairs.jsonl", "--verdicts",
                        TOY / "verdicts.jsonl", "--output", missing / "cat.jsonl"], not_found),
        "categorize into a directory": (
            ["categorize", "--input", TOY / "pairs.jsonl", "--verdicts", TOY / "verdicts.jsonl",
             "--output", folder], f"output path is a directory: {folder}"),
        "derive-crux": (["derive-crux", "--input", categorized, "--output",
                         missing / "bundles.jsonl"], not_found),
        "build-dataset": ([*dataset, "--output", missing / "records.jsonl"], not_found),
        "build-dataset --reclassified": (
            [*dataset, "--output", tmp_path / "records.jsonl",
             "--reclassified", missing / "recl.jsonl"], not_found),
        "reward": (["reward", *sims, "--groups", write_groups(tmp_path, pairs, step=0),
                    "--output", missing / "rewarded.jsonl"], not_found),
        "evaluate": (["evaluate", *sims, "--candidates", write_candidates(tmp_path, pairs),
                      "--output-dir", a_file],
                     f"cannot make output directory {a_file}: {os.strerror(errno.EEXIST)}"),
        "report": (["report", "--reward", GOLDEN_REWARDS, "--output-dir", a_file],
                   f"cannot make output directory {a_file}: {os.strerror(errno.EEXIST)}"),
        "evaluate table": (["evaluate", *sims, "--candidates", write_candidates(tmp_path, pairs),
                            "--output-dir", tables],
                           f"output path is a directory: {tables / 'summary.txt'}"),
        "report --reward table": (["report", "--reward", GOLDEN_REWARDS, "--output-dir", tables],
                                  f"output path is a directory: {tables / 'reward_by_step.csv'}"),
    }[command]
    before = sorted(tmp_path.rglob("*"))
    result = run_cli(*args)
    assert (result.exit_code, result.stderr) == (2, f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert not marker.exists()


class FakeSims:
    """Stands in for ``harness.run_sim``: every design runs and matches its
    reference, after ``hook(task_id, is_reference)`` and ``seconds`` of
    sleep. Records the sims running at once, and fails the reference of each
    task in ``failing``."""

    def __init__(self, seconds=0.02, failing=(), hook=lambda task_id, is_ref: None):
        self.seconds = seconds
        self.failing = set(failing)
        self.hook = hook
        self.lock = threading.Lock()
        self.running = 0
        self.peak = 0
        self.started = []  # (task id, is a reference sim), in start order

    def __call__(self, job, toolchain, reference_lines=None):
        is_ref = reference_lines is None
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
            self.started.append((job.top_module, is_ref))
        try:
            self.hook(job.top_module, is_ref)
            time.sleep(self.seconds)
        finally:
            with self.lock:
                self.running -= 1
        if is_ref and job.top_module in self.failing:
            return SimOutcome(compile_ok=False, ran_ok=False, returncode=1, log="fake failure")
        return SimOutcome(compile_ok=True, ran_ok=True, stdout_lines=("ok",),
                          match_fraction=1.0, returncode=0)


def _workers_toolchain(tmp_path, workers):
    from cruxkit.harness import ToolchainConfig

    echo = ToolchainConfig.echo()
    path = tmp_path / f"toolchain{workers}.json"
    path.write_text(json.dumps(
        {"compile_cmd": echo.compile_cmd, "run_cmd": echo.run_cmd, "workers": workers}
    ))
    return path


def _tasks_file(tmp_path, task_ids):
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    by_id = {p["id"]: p for p in pairs}
    path = tmp_path / "tasks.jsonl"
    path.write_text("".join(json.dumps(by_id[t]) + "\n" for t in task_ids))
    return path, [by_id[t] for t in task_ids]


def _command_args(tmp_path, command, toolchain, task_ids):
    """Arguments that run ``command`` over ``task_ids`` of the toy corpus."""
    tasks, pairs = _tasks_file(tmp_path, task_ids)
    common = ["--testbenches", TOY / "testbenches", "--toolchain", toolchain]
    if command == "evaluate":
        return ["evaluate", "--tasks", tasks, "--candidates", write_candidates(tmp_path, pairs),
                "--output-dir", tmp_path / "eval", *common]
    if command == "reward":
        return ["reward", "--tasks", tasks, "--groups", write_groups(tmp_path, pairs, step=0),
                "--output", tmp_path / "rewarded.jsonl", *common]
    return ["categorize", "--live", "--input", tasks, "--mock-provider",
            write_probe_mock(tmp_path), "--output", tmp_path / "cat.jsonl", *common]


# Runs argv[1:] as a child and prints the child's peak RSS in MB.
_PEAK_RSS_PROBE = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
"""


class TestSimulator:
    """One pool per command: the next row's reference starts early, ``workers``
    bounds every sim, and no thread outlives the command."""

    def test_next_reference_overlaps_candidates(self, tmp_path, monkeypatch):
        import cruxkit.harness as harness

        b_reference_started = threading.Event()
        overlapped = []

        def hook(task_id, is_ref):
            if task_id == "mux2to1" and is_ref:
                b_reference_started.set()
            elif task_id == "dff8p" and not is_ref:
                overlapped.append(b_reference_started.wait(timeout=3))

        monkeypatch.setattr(harness, "run_sim", FakeSims(seconds=0, hook=hook))
        # dff8p's one distinct candidate leaves a worker free for mux2to1's reference
        tasks, _ = _tasks_file(tmp_path, ["dff8p", "mux2to1"])
        candidates = tmp_path / "c.jsonl"
        candidates.write_text(
            json.dumps({"task_id": "dff8p", "candidates": ["module a; endmodule"]}) + "\n"
            + json.dumps({"task_id": "mux2to1", "candidates": ["module b; endmodule"]}) + "\n"
        )
        result = run_cli(
            "evaluate", "--tasks", tasks, "--candidates", candidates,
            "--testbenches", TOY / "testbenches", "--toolchain", _workers_toolchain(tmp_path, 2),
            "--output-dir", tmp_path / "eval",
        )
        assert result.exit_code == 0, result.output
        assert overlapped == [True]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("command", ["evaluate", "reward", "categorize --live"])
    def test_workers_bound_sims_across_the_command(self, tmp_path, monkeypatch, workers, command):
        import cruxkit.harness as harness

        fake = FakeSims()
        monkeypatch.setattr(harness, "run_sim", fake)
        args = _command_args(tmp_path, command, _workers_toolchain(tmp_path, workers),
                             ["dff8p", "mux2to1", "count4", "clkgenerator"])
        result = run_cli(*args)
        assert result.exit_code == 0, result.output
        assert sum(is_ref for _, is_ref in fake.started) == 4
        assert fake.peak <= workers

    @pytest.mark.parametrize("failing", [(), ("mux2to1",)])
    @pytest.mark.parametrize("command", ["evaluate", "reward", "categorize --live"])
    def test_no_thread_outlives_the_command(self, tmp_path, monkeypatch, command, failing):
        import cruxkit.harness as harness

        monkeypatch.setattr(harness, "run_sim", FakeSims(failing=failing))
        baseline = set(threading.enumerate())
        # the failing task comes first, so the next task's reference is in flight
        args = _command_args(tmp_path, command, _workers_toolchain(tmp_path, 2),
                             ["mux2to1", "dff8p", "count4"])
        result = run_cli(*args)
        if failing:
            assert result.exit_code == 2
            assert "failed its own testbench" in result.stderr
        else:
            assert result.exit_code == 0, result.output
        assert set(threading.enumerate()) <= baseline

    def test_stream_reads_ahead_within_the_window_and_raises_in_order(self, monkeypatch):
        import cruxkit.harness as harness
        from cruxkit.cli import _Simulator
        from cruxkit.harness import ToolchainConfig

        release = threading.Event()

        def hook(task_id, is_ref):
            if task_id == "mux2to1":
                release.wait(timeout=5)

        monkeypatch.setattr(harness, "run_sim", FakeSims(seconds=0, hook=hook))
        events = []

        def batches():
            for task_id in ("dff8p", "mux2to1", "count4"):
                events.append(f"read {task_id}")
                yield task_id, task_id, toy_reference(task_id), [f"module {task_id}_c; endmodule"]
            raise ValueError("row 4 is unreadable")

        toolchain = ToolchainConfig.echo(workers=1)
        with _Simulator(toolchain, str(TOY / "testbenches"), 10_000) as sims:
            with pytest.raises(ValueError, match="row 4"):
                for task_id, outcomes in sims.stream(batches()):
                    events.append(f"handle {task_id}")
                    assert [o.match_fraction for o in outcomes] == [1.0]
                    if task_id == "dff8p":
                        # mux2to1's reference and candidate fill the window of
                        # 2 x workers sims, so count4 is not read yet
                        assert events == ["read dff8p", "read mux2to1", "handle dff8p"]
                        release.set()
        # each row is read before the one ahead of it is handled, and the
        # read error comes only after every row before it is handled
        assert events == ["read dff8p", "read mux2to1", "handle dff8p", "read count4",
                          "handle mux2to1", "handle count4"]

    def test_later_rows_fill_the_pool(self, tmp_path, monkeypatch):
        """8 tasks x 2 distinct candidates on 8 workers: candidates start
        before their reference finishes and later rows start before earlier
        ones are handled, so 8 of the 24 sims run at once. Each sim waits
        (at most 0.5 s) for the eighth to start."""
        import cruxkit.harness as harness

        all_running = threading.Event()
        fake = FakeSims(seconds=0)

        def hook(task_id, is_ref):
            if fake.peak == 8:
                all_running.set()
            all_running.wait(timeout=0.5)

        fake.hook = hook
        monkeypatch.setattr(harness, "run_sim", fake)
        ids = [f"task{i}" for i in range(8)]
        (tmp_path / "tb").mkdir()
        tb = (TOY / "testbenches" / "mux2to1_tb.v").read_text()
        tasks = tmp_path / "tasks.jsonl"
        candidates = tmp_path / "c.jsonl"
        with open(tasks, "w") as t, open(candidates, "w") as c:
            for task_id in ids:
                (tmp_path / "tb" / f"{task_id}_tb.v").write_text(tb)
                t.write(json.dumps({"id": task_id, "reference_code": toy_reference("mux2to1")}) + "\n")
                codes = [f"module {task_id}_{j}; endmodule" for j in range(2)]
                c.write(json.dumps({"task_id": task_id, "candidates": codes}) + "\n")
        result = run_cli(
            "evaluate", "--tasks", tasks, "--candidates", candidates,
            "--testbenches", tmp_path / "tb", "--toolchain", _workers_toolchain(tmp_path, 8),
            "--output-dir", tmp_path / "eval",
        )
        assert result.exit_code == 0, result.output
        assert len(fake.started) == 24
        assert fake.peak == 8

    def test_outcomes_keep_candidate_order(self, tmp_path):
        # candidate i prints the first i of the reference's 32 lines; distinct
        # outputs per design prove scratch dirs do not collide
        from cruxkit.cli import _Simulator
        from cruxkit.harness import ToolchainConfig

        (tmp_path / "m_tb.v").write_text("module tb;\nendmodule\n")
        emits = [f"// EMIT: line {j}\n" for j in range(32)]
        reference = "".join(emits) + "module m(input clk);\nendmodule\n"
        codes = ["".join(emits[:i]) + f"module m{i}(input clk);\nendmodule\n" for i in range(32)]
        with _Simulator(ToolchainConfig.echo(), str(tmp_path), 10_000) as sims:
            [(_, outs)] = sims.stream([(None, "m", reference, codes)])
        assert [out.match_fraction for out in outs] == [i / 32 for i in range(32)]
        # a candidate's transcript is dropped once it is scored
        assert all(out.stdout_lines == () for out in outs)

    def test_candidate_transcripts_leave_the_simulator(self, tmp_path):
        """Four candidates that each print 2.8 MB of short lines, on one
        worker: only the reference's transcript is kept past its match, so
        peak RSS stays under 350 MB; keeping all five took over 500 MB."""
        toolchain = tmp_path / "tc.json"
        toolchain.write_text(json.dumps({
            "compile_cmd": "true {out}",
            "run_cmd": "sh -c 'yes 10 | head -n 1390000' {out}",
            "workers": 1,
        }))
        tasks, _ = _tasks_file(tmp_path, ["mux2to1"])
        candidates = tmp_path / "c.jsonl"
        codes = [f"module m{i}; endmodule" for i in range(4)]
        candidates.write_text(json.dumps({"task_id": "mux2to1", "candidates": codes}) + "\n")
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_PROBE, sys.executable, "-m", "cruxkit.cli",
             "evaluate", "--tasks", str(tasks), "--candidates", str(candidates),
             "--testbenches", str(TOY / "testbenches"), "--toolchain", str(toolchain),
             "--output-dir", str(tmp_path / "eval")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        peak_mb = int(result.stdout.split()[-1])
        assert peak_mb < 350
        _, outcomes = read_jsonl(tmp_path / "eval" / "outcomes.jsonl")
        assert [o["match_fraction"] for o in outcomes] == [1.0] * 4


class TestReport:
    def test_reward_summary(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        groups = write_groups(tmp_path, pairs[:2], step=3)
        rewarded = tmp_path / "rewarded.jsonl"
        run_cli(
            "reward",
            "--groups", groups,
            "--tasks", TOY / "pairs.jsonl",
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output", rewarded,
        )
        outdir = tmp_path / "rep"
        result = run_cli("report", "--reward", rewarded, "--output-dir", outdir)
        assert result.exit_code == 0, result.output
        csv_lines = (outdir / "reward_by_step.csv").read_text().splitlines()
        assert csv_lines[0] == "step,mean_mixed_reward,rollouts"
        step, mean, count = csv_lines[1].split(",")
        assert step == "3"
        assert int(count) == 4
        assert 0.0 <= float(mean) <= 14.0

    def test_needs_an_input(self, tmp_path):
        result = run_cli("report", "--output-dir", tmp_path / "rep")
        assert result.exit_code == 2
        assert "Missing option '--reward'" in result.stderr


# command lines that run cleanly under the default config; most cases of
# test_bad_settings_exit_2 add the config file or option that stops one
CATEGORIZE = ["categorize", "--input", TOY / "pairs.jsonl", "--verdicts", TOY / "verdicts.jsonl",
              "--output", "{out}"]
EVALUATE = ["evaluate", "--tasks", TOY / "pairs.jsonl", "--candidates", "{candidates}",
            "--testbenches", TOY / "testbenches", "--toolchain", "{toolchain}",
            "--output-dir", "{outdir}"]
BUILD_DATASET = ["build-dataset", "--input", GOLDEN_REWARDS.parents[1] / "categorize"
                 / "categorized.jsonl", "--output", "{out}"]
REWARD = ["reward", "--groups", "{groups}", "--tasks", TOY / "pairs.jsonl",
          "--testbenches", TOY / "testbenches", "--toolchain", "{toolchain}", "--output", "{out}"]


class TestGrpoCheckCommand:
    def test_passes(self):
        result = run_cli("grpo-check", "--instances", 5)
        assert result.exit_code == 0, result.output
        assert "gradient check passed" in result.output

    def test_with_kl(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grpo": {"beta": 0.04}}))
        result = run_cli("--config", config, "grpo-check", "--instances", 3)
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("config, args", [
        (None, ["--config", "{outdir}/cfg.json", "grpo-check"]),
        (None, [*REWARD, "--provider", "{outdir}/provider.json"]),
        (None, [*REWARD, "--mock-provider", "{outdir}/mock.json"]),
        ({"grpo": {"epsilon": 0}}, ["grpo-check"]),
        ({"grpo": {"beta": -1}}, ["grpo-check"]),
        ({"grpo": {"epsilon": 0}}, REWARD),
        (None, ["grpo-check", "--instances", 0]),
        (None, ["categorize", "--live", "--input", TOY / "pairs.jsonl", "--testbenches",
                TOY / "testbenches", "--toolchain", "{outdir}/toolchain.json", "--output", "{out}"]),
        (None, ["categorize", "--input", TOY / "pairs.jsonl", "--output", "{out}"]),
        (None, ["categorize", "--live", "--input", TOY / "pairs.jsonl", "--output", "{out}"]),
        (None, ["--seed", -1, "grpo-check"]),
        ({"seed": -1}, ["grpo-check"]),
        ({"keywords": "fsm"}, CATEGORIZE),
        ({"probe_n": 0}, CATEGORIZE),
        ({"seed": "abc"}, EVALUATE),
        ({"seed": "abc"}, CATEGORIZE),
        ({"seed": "abc"}, BUILD_DATASET),
        ({"seed": "abc"}, ["grpo-check"]),
        ({"k_values": 5}, EVALUATE),
        ({"k_values": []}, EVALUATE),
        ({"k_values": [1, True]}, EVALUATE),
        ({"timeout_ms": "10"}, EVALUATE),
        ({"timeout_ms": 0}, EVALUATE),
        ({"threshold": "x"}, EVALUATE),
        (None, [*EVALUATE, "-k", 0]),
        ({"degradation": {"p_full_retain": "x"}}, CATEGORIZE),
        ({"degradation": {"p_full_retain": "x"}}, BUILD_DATASET),
        ({"augmentation": {"p_prefix": 2}}, BUILD_DATASET),
        ({"schedule": {"steps_per_epoch": "x"}}, REWARD),
        ({"scoring_template": "{realspec} {crux} {task}"}, REWARD),
        ({"scoring_template": "{realspec} {crux:d}"}, REWARD),
        ({"scoring_template": 3}, REWARD),
        ({"scoring_template": ""}, REWARD),
        # each ended as an internal error (exit 1) before one table checked every config value
        ({"schedule": {"early": "abcd"}}, REWARD),
        ({"schedule": {"early": [1, 2, 3, "x"]}}, REWARD),
        ({"grpo": {"eps_std": "x"}}, REWARD),
        ({"augmentation": {"prefix_pool": [1]}}, BUILD_DATASET),
        # and each was taken silently (exit 0)
        ({"grpo": {"eps_std": -1}}, REWARD),
        ({"grpo": {"epsilon": True}}, REWARD),
        ({"schedule": {"steps_per_epoch": True}}, REWARD),
        ({"schedule": {"steps_per_epoch": 2.5}}, REWARD),
        ({"degradation": {"p_full_retain": True}}, BUILD_DATASET),
        ({"augmentation": {"prefix_pool": "abc"}}, BUILD_DATASET),
        # and each was taken, a number no float holds finite or a weight whose
        # sums can overflow: a command ended with an internal error (exit 1)
        # or, as grpo-check on NaN errors under an infinite beta, passed
        ({"schedule": {"early": [1e308] * 4}}, REWARD),
        ({"schedule": {"late": [1e308] * 4}}, REWARD),
        ({"schedule": {"early": [1e308, 0, 0, 0]}}, REWARD),
        ({"schedule": {"early": [math.nan, 1, 1, 1]}}, REWARD),
        ({"grpo": {"beta": math.inf}}, ["grpo-check", "--instances", 3]),
        ({"grpo": {"epsilon": 10 ** 400}}, ["grpo-check", "--instances", 3]),
        ({"threshold": math.nan}, EVALUATE),
    ])
    def test_bad_settings_exit_2(self, tmp_path, echo_toolchain_file, config, args):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        paths = {
            "groups": write_groups(tmp_path, pairs[:1], step=0),
            "candidates": write_candidates(tmp_path, pairs[:1]),
            "toolchain": echo_toolchain_file,
            "out": tmp_path / "out.jsonl",
            "outdir": tmp_path / "eval",
        }
        args = [str(a).format(**paths) for a in args]
        prefix = []
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            prefix = ["--config", path]
        result = run_cli(*prefix, *args)
        assert result.exit_code == 2, result.output
        assert "No such option" not in result.output
        assert "gradient check passed" not in result.output
        assert "internal error" not in result.output
        assert "error:" in result.output.lower()


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        result = run_cli("--config", cfg, "grpo-check", "--instances", 1)
        assert result.exit_code == 2

    @pytest.mark.parametrize("section, keys", [
        ({"grpo": {"bta": 0.04}}, "grpo"),
        ({"degradation": {"p_keep": 0.3}}, "degradation"),
        ({"augmentation": {"p_middle": 0.1}}, "augmentation"),
        ({"schedule": {"switch": 0.5}}, "schedule"),
    ])
    def test_unknown_nested_key_rejected(self, tmp_path, section, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        result = run_cli("--config", cfg, "grpo-check", "--instances", 1)
        assert result.exit_code == 2
        assert f"bad {keys} settings: unknown keys" in result.stderr

    def test_nested_class_field_accepted(self, tmp_path, echo_toolchain_file):
        # switch_fraction has no entry in the default config but is a
        # WeightSchedule field: step 52 of 520 stays early when the switch is at half
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": {"switch_fraction": 0.5}}))
        out = tmp_path / "rewarded.jsonl"
        result = run_cli(
            "--config", cfg,
            "reward",
            "--groups", write_groups(tmp_path, pairs[:1], step=52),
            "--tasks", TOY / "pairs.jsonl",
            "--testbenches", TOY / "testbenches",
            "--toolchain", echo_toolchain_file,
            "--output", out,
        )
        assert result.exit_code == 0, result.output
        _, rows = read_jsonl(out)
        assert rows[0]["rewards"][0]["weights_phase"] == "early"

    def test_config_changes_hash(self, tmp_path, categorized_toy):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"augmentation": {"p_prefix": 0.9}}))
        out_default = tmp_path / "d.jsonl"
        out_custom = tmp_path / "c.jsonl"
        run_cli("build-dataset", "--input", categorized_toy,
                "--transcripts", TOY / "transcripts.jsonl", "--output", out_default)
        run_cli("--config", cfg, "build-dataset", "--input", categorized_toy,
                "--transcripts", TOY / "transcripts.jsonl", "--output", out_custom)
        meta_d, _ = read_jsonl(out_default)
        meta_c, _ = read_jsonl(out_custom)
        assert meta_d["config_sha256"] != meta_c["config_sha256"]

    def test_seed_recorded_in_meta(self, tmp_path, categorized_toy):
        out = tmp_path / "r.jsonl"
        run_cli("--seed", 9, "build-dataset", "--input", categorized_toy,
                "--transcripts", TOY / "transcripts.jsonl", "--output", out)
        meta, _ = read_jsonl(out)
        assert meta["seed"] == 9

    def test_no_option_repeats_a_config_key(self):
        """A setting has one source, the config whose hash each output's meta
        row records: no option is named for a key of a config kind but two."""
        from cruxkit.jsonl import CONFIG_KINDS

        keys = {key for _, _, kind_keys in CONFIG_KINDS.values() for key in kind_keys}
        names = {p.name for command in COMMANDS for p in command.params}
        # --seed: the benchmark's grpo-check runs (perfbench/worker.py) set it;
        # -k: the acceptance suite's evaluate runs set it
        assert names & keys == {"seed", "k_values"}


def test_readme_names_every_option_and_no_other():
    """README names each option of each command, and no long option that
    is not one, but for pip's ``--no-build-isolation``."""
    options = {opt for command in COMMANDS for p in command.params for opt in p.opts}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", readme))
    assert options - named == set()
    assert {flag for flag in named if flag.startswith("--")} - options == {"--no-build-isolation"}


# Imports cruxkit.cli, loads argv[1] as the config, then runs each command of
# argv[2] through cli.main; prints the cruxkit modules loaded after each step,
# and whichever of numpy, pickle, subprocess and the pool modules are.
_IMPORT_PROBE = """
import json, sys

WATCHED = {"numpy", "pickle", "subprocess", "multiprocessing", "concurrent.futures",
           "concurrent.futures.process"}

def loaded():
    return sorted(m for m in sys.modules if m in WATCHED or m.startswith("cruxkit"))

import cruxkit.cli as cli
steps = {"import cruxkit.cli": loaded()}
cli.load_config(sys.argv[1], None)
steps["load_config"] = loaded()
for args in json.loads(sys.argv[2]):
    cli.main(["--config", sys.argv[1], *args], standalone_mode=False)
    steps[args[0]] = loaded()
print(json.dumps(steps))
"""


def modules_after(tmp_path, config, commands):
    """Runs ``_IMPORT_PROBE`` in a fresh interpreter (this one has every
    module loaded already) with ``config`` as its config file; returns the
    loaded cruxkit modules, and numpy if loaded, after each step."""
    config_path = tmp_path / "probe_config.json"
    config_path.write_text(json.dumps(config))
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(config_path),
         json.dumps([[str(a) for a in args] for args in commands])],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def numpy_loaded_after(tmp_path, commands):
    """Whether numpy is loaded after each step, with a config that sets a
    grpo section."""
    steps = modules_after(tmp_path, {"grpo": {"epsilon": 0.1, "beta": 0.04}}, commands)
    return {step: "numpy" in modules for step, modules in steps.items()}


class TestNumpyImportBoundary:
    def test_commands_without_grpo_math_never_load_numpy(self, tmp_path, echo_toolchain_file):
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        categorized = tmp_path / "categorized.jsonl"
        loaded = numpy_loaded_after(tmp_path, [
            ["categorize", "--input", TOY / "pairs.jsonl",
             "--verdicts", TOY / "verdicts.jsonl", "--output", categorized],
            ["derive-crux", "--input", categorized, "--output", tmp_path / "bundles.jsonl"],
            ["build-dataset", "--input", categorized,
             "--transcripts", TOY / "transcripts.jsonl", "--output", tmp_path / "records.jsonl"],
            ["evaluate", "--tasks", TOY / "pairs.jsonl",
             "--candidates", write_candidates(tmp_path, pairs),
             "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file,
             "--output-dir", tmp_path / "eval"],
            ["report", "--reward", GOLDEN_REWARDS, "--output-dir", tmp_path / "report"],
        ])
        assert loaded == {
            step: False for step in ["import cruxkit.cli", "load_config", "categorize",
                                     "derive-crux", "build-dataset", "evaluate", "report"]
        }
        _, records = read_jsonl(tmp_path / "records.jsonl")
        assert len(records) == 5
        assert (tmp_path / "eval" / "summary.txt").exists()
        assert (tmp_path / "report" / "reward_by_step.txt").exists()

    def test_reward_never_loads_numpy(self, tmp_path, echo_toolchain_file):
        """numpy is a test-only reference: reward's advantages and objective
        and grpo-check's toy policy are plain Python, so one rl-groups batch
        and a grpo-check run after it leave numpy unloaded."""
        steps = modules_after(
            tmp_path, json.loads((RL_GROUPS_TINY / "config.json").read_text()), [
                ["reward", "--groups", RL_GROUPS_TINY / "groups.jsonl",
                 "--tasks", RL_GROUPS_TINY / "tasks.jsonl",
                 "--testbenches", RL_GROUPS_TINY / "testbenches",
                 "--toolchain", echo_toolchain_file,
                 "--provider", RL_GROUPS_TINY / "provider.json",
                 "--output", tmp_path / "rewards.jsonl"],
                ["grpo-check", "--instances", 1],
            ])
        assert {step: "numpy" in modules for step, modules in steps.items()} == {
            "import cruxkit.cli": False, "load_config": False, "reward": False,
            "grpo-check": False}
        assert "cruxkit.rewards" in steps["reward"]
        _, rows = read_jsonl(tmp_path / "rewards.jsonl")
        assert len(rows) == 2


class TestLayerImportBoundary:
    """Each command loads only the cruxkit layers it drives."""

    def test_evaluate_and_report_load_only_harness_jsonl_and_grpo(
        self, tmp_path, echo_toolchain_file
    ):
        """Set-up loads jsonl and grpo; evaluate adds the harness, with its
        subprocess and thread pool, and report nothing more."""
        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        steps = modules_after(tmp_path, {"seed": 3}, [
            ["evaluate", "--tasks", TOY / "pairs.jsonl",
             "--candidates", write_candidates(tmp_path, pairs),
             "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file,
             "--output-dir", tmp_path / "eval"],
            ["report", "--reward", GOLDEN_REWARDS, "--output-dir", tmp_path / "report"],
        ])
        light = ["cruxkit", "cruxkit.cli", "cruxkit.grpo", "cruxkit.jsonl"]
        simulating = sorted([*light, "cruxkit.harness", "cruxkit.spread", "concurrent.futures",
                             "subprocess"])
        assert steps == {"import cruxkit.cli": light, "load_config": light,
                         "evaluate": simulating, "report": simulating}
        assert (tmp_path / "report" / "reward_by_step.txt").exists()

    def test_no_sim_commands_never_load_the_simulation_layer(self, tmp_path, categorized_toy):
        """Neither set-up nor a command that simulates nothing loads the
        harness, subprocess or a thread pool."""
        steps = modules_after(tmp_path, {"seed": 3}, [
            ["categorize", "--input", TOY / "pairs.jsonl",
             "--verdicts", TOY / "verdicts.jsonl", "--output", tmp_path / "categorized.jsonl"],
            ["derive-crux", "--input", categorized_toy, "--live",
             "--mock-provider", TOY / "mock_provider.json", "--output", tmp_path / "t.jsonl"],
            ["build-dataset", "--input", categorized_toy,
             "--transcripts", TOY / "transcripts.jsonl", "--output", tmp_path / "records.jsonl"],
            ["grpo-check", "--instances", 2],
        ])
        assert list(steps) == ["import cruxkit.cli", "load_config", "categorize", "derive-crux",
                               "build-dataset", "grpo-check"]
        for step, modules in steps.items():
            assert not {"cruxkit.harness", "subprocess", "concurrent.futures"} & set(modules), step
        assert (tmp_path / "records.jsonl").exists()

    def test_no_command_loads_a_process_pool(self, tmp_path, echo_toolchain_file,
                                             categorized_toy):
        """Set-up loads no pickle, and no command loads multiprocessing or a
        process pool: build-dataset forks its slices itself, and pickle loads
        only when it does."""
        from cruxkit.spread import MIN_SLICE_ROWS

        _, pairs = read_jsonl(TOY / "pairs.jsonl")
        _, rows = read_jsonl(categorized_toy)
        # enough rows for two slices, so build-dataset forks on a host with 2 CPUs
        many = tmp_path / "many.jsonl"
        many.write_text("".join(
            json.dumps({**rows[k % len(rows)], "id": f"{rows[k % len(rows)]['id']}_{k}"}) + "\n"
            for k in range(2 * MIN_SLICE_ROWS)))
        steps = modules_after(tmp_path, {"seed": 3}, [
            ["categorize", "--input", TOY / "pairs.jsonl",
             "--verdicts", TOY / "verdicts.jsonl", "--output", tmp_path / "categorized.jsonl"],
            ["derive-crux", "--input", categorized_toy, "--live",
             "--mock-provider", TOY / "mock_provider.json", "--output", tmp_path / "t.jsonl"],
            ["build-dataset", "--input", many,
             "--transcripts", TOY / "transcripts.jsonl", "--output", tmp_path / "records.jsonl"],
            ["evaluate", "--tasks", TOY / "pairs.jsonl",
             "--candidates", write_candidates(tmp_path, pairs),
             "--testbenches", TOY / "testbenches", "--toolchain", echo_toolchain_file,
             "--output-dir", tmp_path / "eval"],
            ["reward", "--groups", write_groups(tmp_path, pairs, step=0),
             "--tasks", TOY / "pairs.jsonl", "--testbenches", TOY / "testbenches",
             "--toolchain", echo_toolchain_file, "--output", tmp_path / "rewarded.jsonl"],
            ["grpo-check", "--instances", 2],
        ])
        for step in ("import cruxkit.cli", "load_config"):
            assert "pickle" not in steps[step], step
        for step, modules in steps.items():
            assert not {"multiprocessing", "concurrent.futures.process"} & set(modules), step
        if len(os.sched_getaffinity(0)) > 1:
            assert "pickle" in steps["build-dataset"]
        _, records = read_jsonl(tmp_path / "records.jsonl")
        _, reclassified = read_jsonl(tmp_path / "records.jsonl.reclassified.jsonl")
        assert len(records) + len(reclassified) == 2 * MIN_SLICE_ROWS

    def test_reading_a_config_with_every_section_loads_no_layer(self, tmp_path):
        """Each section is checked against its kind in ``jsonl``, not by
        building its class, so ``load_config`` loads no layer module."""
        steps = modules_after(tmp_path, EVERY_KEY_CONFIG, [])
        assert steps["load_config"] == ["cruxkit", "cruxkit.cli", "cruxkit.grpo", "cruxkit.jsonl"]

    @pytest.mark.parametrize("module", ["cruxkit.gateway", "cruxkit.grpo", "cruxkit.jsonl"])
    def test_module_imports_no_other_cruxkit_module(self, module):
        """The module loads no other cruxkit module but ``jsonl``, the
        checker every layer shares, which loads none."""
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('cruxkit')))"
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str(sorted({"cruxkit", "cruxkit.jsonl", module}))


def test_entry_point_exits_2_on_input_that_is_not_utf8(tmp_path):
    """``python -m cruxkit.cli``, as a user or the ``cruxkit`` script runs it
    (not through ``CliRunner``): a rows file holding byte 0xff is a usage
    error, mapped to its exit code by the one handler."""
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_bytes(b"\xff\n")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "cruxkit.cli", "categorize", "--input", str(pairs),
         "--verdicts", str(TOY / "verdicts.jsonl"), "--output", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (result.returncode, result.stderr) == (
        2, f"error: {pairs} is not UTF-8: can't decode byte 0xff\n")
