"""One workload's batches, driven through ``cruxkit.cli`` from one process.

Started by run.py in a fresh interpreter whose PYTHONPATH is the checkout's
``src``. Batches run back to back (a closed loop: the next batch starts when
the previous one's stages return) until ``--seconds`` have passed. Each
batch is generated in this process between stage calls, outside the timed
region, with its own seed-derived content, so no two batches share inputs.

With ``--trace 1`` batches alternate untraced and traced; the per-layer
metrics come from the traced ones, and the tracing overhead is the median
traced batch time minus the median untraced one. Writes ``result.json``
(and ``spans.jsonl`` when tracing) to ``--work``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402


def invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one ``cruxkit`` command in-process; returns (exit code, stdout, stderr)."""
    import click

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main.main(args=argv, prog_name="cruxkit", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
    if code is None:
        code = 0
    return (code if isinstance(code, int) else 1), out.getvalue(), err.getvalue()


def plan(workload: str, files: dict, batch: str, expected: dict) -> list[tuple[str, list[str]]]:
    """The (stage, argv) calls that make up one batch."""
    base = ["--config", files["config"]]

    def p(name: str) -> str:
        return os.path.join(batch, name)

    if workload == "eval-sweep":
        return [("evaluate", base + [
            "evaluate", "--tasks", p("tasks.jsonl"), "--candidates", p("candidates.jsonl"),
            "--testbenches", p("testbenches"), "--toolchain", files["toolchain"],
            "--output-dir", p("out")])]
    if workload == "rl-groups":
        return [("reward", base + [
            "reward", "--groups", p("groups.jsonl"), "--tasks", p("tasks.jsonl"),
            "--testbenches", p("testbenches"), "--toolchain", files["toolchain"],
            "--provider", files["provider"], "--output", p("rewards.jsonl")])]
    if workload == "no-sim":
        return [
            ("categorize", base + ["categorize", "--input", p("pairs.jsonl"),
                                   "--verdicts", p("verdicts.jsonl"), "--output", p("categorized.jsonl")]),
            ("derive-crux", base + ["derive-crux", "--input", p("categorized.jsonl"), "--live",
                                    "--provider", files["provider"], "--output", p("derived.jsonl")]),
            ("build-dataset", base + ["build-dataset", "--input", p("categorized.jsonl"),
                                      "--transcripts", p("transcripts.jsonl"),
                                      "--output", p("records.jsonl"),
                                      "--reclassified", p("reclassified.jsonl")]),
            ("grpo-check", base + ["--seed", str(expected["grpo_seed"]), "grpo-check",
                                   "--instances", str(expected["instances"])]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def verify(workload: str, batch: str, expected: dict, stdout: dict, tally: check.Tally) -> int:
    """Check a batch's outputs; returns the headline operations it completed."""
    if workload == "eval-sweep":
        return check.check_eval(batch, expected, tally)
    if workload == "rl-groups":
        return check.check_rl(batch, expected, tally)
    return check.check_no_sim(batch, expected, tally)


# stages whose summed wall time is the workload's headline time; grpo-check
# in no-sim is timed on its own
HEADLINE_STAGES = ("evaluate", "reward", "categorize", "derive-crux", "build-dataset")


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(args: argparse.Namespace) -> dict:
    import cruxkit.cli as cli

    with open(os.path.join(args.work, "files.json"), encoding="utf-8") as f:
        files = json.load(f)
    tracer = Tracer() if args.trace else None
    tally = check.Tally()
    batches = []
    first_expected = None
    min_batches = 2 if tracer else 1
    hard_stop = time.perf_counter() + args.seconds + 90
    deadline = time.perf_counter() + args.seconds
    index = 0
    while (index < min_batches or time.perf_counter() < deadline) and time.perf_counter() < hard_stop:
        batch = os.path.join(args.work, f"batch-{index}")
        expected = gen.make_batch(args.workload, args.seed, index, batch, args.size)
        first_expected = first_expected or expected
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            cpu_before = child_cpu_s()
        stage_s, stdout = {}, {}
        for stage, argv in plan(args.workload, files, batch, expected):
            start = time.perf_counter()
            if traced:
                code, out, err = tracer.stage(stage, lambda: invoke(cli, argv), f"batch-{index}")
            else:
                code, out, err = invoke(cli, argv)
            stage_s[stage] = time.perf_counter() - start
            tally.stage(stage, code, err)
            stdout[stage] = out
        if traced:
            tracer.uninstall()
            tracer.batches += 1
            tracer.child_cpu_s += child_cpu_s() - cpu_before
        ops = verify(args.workload, batch, expected, stdout, tally)
        positions = check.check_grpo(stdout["grpo-check"], expected, tally) if "grpo-check" in stdout else 0
        batches.append({
            "traced": traced,
            "ops": ops,
            "wall_s": sum(s for stage, s in stage_s.items() if stage in HEADLINE_STAGES),
            "positions": positions,
            "grpo_s": stage_s.get("grpo-check", 0.0),
        })
        shutil.rmtree(batch)
        index += 1

    plain = [b for b in batches if not b["traced"]]
    result = {
        "workload": args.workload,
        "batches": len(batches),
        "ops": sum(b["ops"] for b in plain),
        # work completed per second of the headline stages, over the whole run
        "ops_per_s": sum(b["ops"] for b in plain) / sum(b["wall_s"] for b in plain),
        "batch_s": [b["wall_s"] for b in batches],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "sim_calls": first_expected["sim_calls"],
        "sim_distinct": first_expected["sim_distinct"],
    }
    if args.workload == "no-sim":
        result["gradcheck_positions_per_s"] = (
            sum(b["positions"] for b in plain) / sum(b["grpo_s"] for b in plain)
        )
    if tracer is not None:
        traced_s = statistics.median(b["wall_s"] for b in batches if b["traced"])
        plain_s = statistics.median(b["wall_s"] for b in plain)
        overhead = traced_s - plain_s
        result["layers"] = tracer.metrics(overhead * 1000.0, overhead / plain_s)
        tracer.write_spans(os.path.join(args.work, "spans.jsonl"))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(gen.SIZES), default="full")
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
