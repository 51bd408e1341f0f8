"""Golden outputs of the commands, and the only way to regenerate them.

Each case runs one command over the toy corpus (the simulating ones on the
echo toolchain) or over a committed benchmark batch under ``fixtures/``, and
captures every output file, its stdout, its stderr and its exit code. The
``report`` cases first run the ``reward`` or ``evaluate`` case's command and
render what it wrote.
``tests/test_golden.py`` reruns the cases and compares byte for byte against
``tests/golden/<case>/``. After an intended output change, regenerate with

    python tests/regen_golden.py

and record the change and its reason in CHANGES.md.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
# A 60-pair no-sim batch of perfbench/gen.py (size tiny, seed 1, batch 0):
# its inputs, config and mock provider rules, copied so that a change to the
# benchmark generator cannot move this golden.
NO_SIM_TINY = HERE / "fixtures" / "no-sim-tiny"
# An eval-sweep and an rl-groups batch of the same generator (size tiny,
# seed 1, batch 0), each with its config and, for rl-groups, its mock
# provider; both are simulated on the echo toolchain.
EVAL_SWEEP_TINY = HERE / "fixtures" / "eval-sweep-tiny"
RL_GROUPS_TINY = HERE / "fixtures" / "rl-groups-tiny"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_cli import (  # noqa: E402
    TOY,
    read_jsonl,
    run_cli,
    write_candidates,
    write_groups,
    write_probe_mock,
)

from cruxkit.harness import ToolchainConfig  # noqa: E402


def _toolchain_file(workdir: Path) -> Path:
    echo = ToolchainConfig.echo()
    path = workdir / "toolchain.json"
    path.write_text(json.dumps({"compile_cmd": echo.compile_cmd, "run_cmd": echo.run_cmd}))
    return path


def _evaluate(workdir: Path) -> tuple[list, Path]:
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    outdir = workdir / "out"
    args = [
        "evaluate",
        "--tasks", TOY / "pairs.jsonl",
        "--candidates", write_candidates(workdir, pairs),
        "--testbenches", TOY / "testbenches",
        "--toolchain", _toolchain_file(workdir),
        "--output-dir", outdir,
    ]
    return args, outdir


def _reward(workdir: Path) -> tuple[list, Path]:
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    config = workdir / "config.json"
    config.write_text(json.dumps({"grpo": {"beta": 0.04}}))
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "--config", config,
        "reward",
        "--groups", write_groups(workdir, pairs, step=0, with_ref=True),
        "--tasks", TOY / "pairs.jsonl",
        "--testbenches", TOY / "testbenches",
        "--toolchain", _toolchain_file(workdir),
        "--output", outdir / "rewards.jsonl",
    ]
    return args, outdir


def _categorize_live(workdir: Path) -> tuple[list, Path]:
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "categorize",
        "--input", TOY / "pairs.jsonl",
        "--live",
        "--mock-provider", write_probe_mock(workdir),
        "--toolchain", _toolchain_file(workdir),
        "--testbenches", TOY / "testbenches",
        "--output", outdir / "categorized.jsonl",
    ]
    return args, outdir


def _evaluate_error_order(workdir: Path) -> tuple[list, Path]:
    """A valid row, then a row naming an unknown task, then a line that is
    not JSON: the error reported is the second row's, the first in file order."""
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    mux = next(p for p in pairs if p["id"] == "mux2to1")
    candidates = workdir / "candidates.jsonl"
    candidates.write_text(
        json.dumps({"task_id": "mux2to1", "candidates": [mux["reference_code"]]}) + "\n"
        + json.dumps({"task_id": "ghost", "candidates": ["module m; endmodule"]}) + "\n"
        + '{"task_id": "count4", "candidates": [\n'
    )
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "evaluate",
        "--tasks", TOY / "pairs.jsonl",
        "--candidates", candidates,
        "--testbenches", TOY / "testbenches",
        "--toolchain", _toolchain_file(workdir),
        "--output-dir", outdir,
    ]
    return args, outdir


def _reward_error_order(workdir: Path) -> tuple[list, Path]:
    """``reward``'s twin of ``evaluate-error-order``: a valid group, then a
    group naming an unknown task, then a line that is not JSON."""
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    valid = write_groups(workdir, [p for p in pairs if p["id"] == "mux2to1"], step=0)
    groups = workdir / "groups-error-order.jsonl"
    ghost = {**json.loads(valid.read_text()), "task_id": "ghost"}
    groups.write_text(
        valid.read_text() + json.dumps(ghost) + "\n" + '{"task_id": "count4", "rollouts": [\n'
    )
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "reward",
        "--groups", groups,
        "--tasks", TOY / "pairs.jsonl",
        "--testbenches", TOY / "testbenches",
        "--toolchain", _toolchain_file(workdir),
        "--output", outdir / "rewards.jsonl",
    ]
    return args, outdir


def _evaluate_failures(workdir: Path) -> tuple[list, Path]:
    """Every task's reference, plus mux2to1 candidates that crash (exit 3),
    time out (sleep 5 s under a 300 ms run timeout) and print one line
    differently from the reference."""
    _, pairs = read_jsonl(TOY / "pairs.jsonl")
    config = workdir / "config.json"
    config.write_text(json.dumps({"timeout_ms": 300}))
    candidates = workdir / "candidates.jsonl"
    with open(candidates, "w") as f:
        for row in pairs:
            codes = [row["reference_code"]]
            if row["id"] == "mux2to1":
                ref = row["reference_code"]
                codes += [
                    ref + "// EXITCODE: 3\n",
                    "// SLEEP: 5\n" + ref,
                    ref.replace("// EMIT: mux2to1 sel1 b", "// EMIT: mux2to1 sel1 a"),
                ]
            f.write(json.dumps({"task_id": row["id"], "candidates": codes}) + "\n")
    outdir = workdir / "out"
    args = [
        "--config", config,
        "evaluate",
        "--tasks", TOY / "pairs.jsonl",
        "--candidates", candidates,
        "--testbenches", TOY / "testbenches",
        "--toolchain", _toolchain_file(workdir),
        "--output-dir", outdir,
    ]
    return args, outdir


def _categorize(workdir: Path) -> tuple[list, Path]:
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "categorize",
        "--input", TOY / "pairs.jsonl",
        "--verdicts", TOY / "verdicts.jsonl",
        "--output", outdir / "categorized.jsonl",
    ]
    return args, outdir


def _categorized_toy(workdir: Path) -> Path:
    categorized = workdir / "categorized.jsonl"
    setup = run_cli(
        "categorize",
        "--input", TOY / "pairs.jsonl",
        "--verdicts", TOY / "verdicts.jsonl",
        "--output", categorized,
    )
    assert setup.exit_code == 0, setup.output
    return categorized


def _build_dataset(workdir: Path) -> tuple[list, Path]:
    categorized = _categorized_toy(workdir)
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "build-dataset",
        "--input", categorized,
        "--transcripts", TOY / "transcripts.jsonl",
        "--output", outdir / "records.jsonl",
        "--reclassified", outdir / "reclassified.jsonl",
    ]
    return args, outdir


def _derive_crux_emit(workdir: Path) -> tuple[list, Path]:
    categorized = _categorized_toy(workdir)
    outdir = workdir / "out"
    outdir.mkdir()
    return ["derive-crux", "--input", categorized, "--emit", outdir / "bundles.jsonl"], outdir


def _derive_crux_live(workdir: Path) -> tuple[list, Path]:
    categorized = _categorized_toy(workdir)
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "derive-crux",
        "--input", categorized,
        "--live",
        "--mock-provider", TOY / "mock_provider.json",
        "--output", outdir / "transcripts.jsonl",
    ]
    return args, outdir


def _no_sim_tiny(workdir: Path) -> tuple[list, Path]:
    """categorize, then derive-crux --live on the batch's mock rules, then
    build-dataset, as one no-sim benchmark batch runs them. The first two
    leave their outputs next to build-dataset's, so all four are compared."""
    outdir = workdir / "out"
    outdir.mkdir()
    config = ["--config", NO_SIM_TINY / "config.json"]
    categorized = outdir / "categorized.jsonl"
    for step in (
        ["categorize", "--input", NO_SIM_TINY / "pairs.jsonl",
         "--verdicts", NO_SIM_TINY / "verdicts.jsonl", "--output", categorized],
        ["derive-crux", "--input", categorized, "--live",
         "--provider", NO_SIM_TINY / "provider.json", "--output", outdir / "derived.jsonl"],
    ):
        setup = run_cli(*config, *step)
        assert setup.exit_code == 0, setup.output
    args = [
        *config,
        "build-dataset",
        "--input", categorized,
        "--transcripts", NO_SIM_TINY / "transcripts.jsonl",
        "--output", outdir / "records.jsonl",
        "--reclassified", outdir / "reclassified.jsonl",
    ]
    return args, outdir


def _evaluate_sweep_tiny(workdir: Path) -> tuple[list, Path]:
    """One eval-sweep batch: a pass, mismatches, a compile failure, a crash
    and a candidate that outlasts the batch's 1.5 s run timeout."""
    outdir = workdir / "out"
    args = [
        "--config", EVAL_SWEEP_TINY / "config.json",
        "evaluate",
        "--tasks", EVAL_SWEEP_TINY / "tasks.jsonl",
        "--candidates", EVAL_SWEEP_TINY / "candidates.jsonl",
        "--testbenches", EVAL_SWEEP_TINY / "testbenches",
        "--toolchain", _toolchain_file(workdir),
        "--output-dir", outdir,
    ]
    return args, outdir


def _reward_rl_tiny(workdir: Path) -> tuple[list, Path]:
    """One rl-groups batch: two 8-rollout groups under beta > 0, scored
    through a mock provider whose first scoring call exhausts its retries."""
    outdir = workdir / "out"
    outdir.mkdir()
    args = [
        "--config", RL_GROUPS_TINY / "config.json",
        "reward",
        "--groups", RL_GROUPS_TINY / "groups.jsonl",
        "--tasks", RL_GROUPS_TINY / "tasks.jsonl",
        "--testbenches", RL_GROUPS_TINY / "testbenches",
        "--toolchain", _toolchain_file(workdir),
        "--provider", RL_GROUPS_TINY / "provider.json",
        "--output", outdir / "rewards.jsonl",
    ]
    return args, outdir


def _setup(make_case, workdir: Path) -> Path:
    """Runs another case's command in a subdirectory of ``workdir``; returns
    its output directory."""
    sub = workdir / "setup"
    sub.mkdir()
    args, outdir = make_case(sub)
    setup = run_cli(*args)
    assert setup.exit_code == 0, setup.output
    return outdir


def _report_reward(workdir: Path) -> tuple[list, Path]:
    rewards = _setup(_reward, workdir) / "rewards.jsonl"
    outdir = workdir / "out"
    return ["report", "--reward", rewards, "--output-dir", outdir], outdir


def _report_evaluate_dir(workdir: Path) -> tuple[list, Path]:
    evaluated = _setup(_evaluate, workdir)
    outdir = workdir / "out"
    return ["report", "--evaluate-dir", evaluated, "--output-dir", outdir], outdir


def _grpo_check(workdir: Path) -> tuple[list, Path]:
    outdir = workdir / "out"
    outdir.mkdir()
    return ["--seed", 7, "grpo-check", "--instances", 20, "--beta", 0.04], outdir


CASES = {
    "evaluate": _evaluate,
    "reward": _reward,
    "categorize-live": _categorize_live,
    "evaluate-error-order": _evaluate_error_order,
    "evaluate-failures": _evaluate_failures,
    "reward-error-order": _reward_error_order,
    "categorize": _categorize,
    "build-dataset": _build_dataset,
    "grpo-check": _grpo_check,
    "derive-crux-emit": _derive_crux_emit,
    "derive-crux-live": _derive_crux_live,
    "no-sim-tiny": _no_sim_tiny,
    "evaluate-sweep-tiny": _evaluate_sweep_tiny,
    "reward-rl-tiny": _reward_rl_tiny,
    "report-reward": _report_reward,
    "report-evaluate-dir": _report_evaluate_dir,
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; returns file name -> bytes, output files
    plus ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``."""
    args, outdir = CASES[name](workdir)
    # a cruxkit process starts with no logging handlers, so a warning reaches
    # stderr through logging's last-resort handler; a test runner's root
    # handlers would take it instead
    handlers = logging.root.handlers[:]
    logging.root.handlers.clear()
    try:
        result = run_cli(*args)
    finally:
        logging.root.handlers[:] = handlers
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    files["stdout.txt"] = result.stdout_bytes
    files["stderr.txt"] = result.stderr_bytes
    files["exit_code.txt"] = f"{result.exit_code}\n".encode()
    return files


def main() -> None:
    import shutil
    import tempfile

    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp))
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file_name, blob in files.items():
            (target / file_name).write_bytes(blob)
        print(f"{target}: {', '.join(files)}")


if __name__ == "__main__":
    main()
