"""Acceptance gate: nine numbered criteria, one printed pass/fail line each.

Run with plain ``pytest`` (the lines print even under capture) or
``pytest tests/test_acceptance.py -v`` for per-criterion test results.
"""

import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cruxkit.cli import main as cli_main
from cruxkit.corpus import (
    AugmentationPolicy,
    Category,
    RawPair,
    assemble_record,
    build_realspec,
)
from cruxkit.cruxdoc import interface_mismatches, parse_crux, render_crux
from cruxkit.grpo import (
    AdvantageSet,
    Rollout,
    RolloutGroup,
    clipped_objective,
    group_advantages,
    objective_gradient_check,
    random_toy_instance,
)
from cruxkit.harness import SimJob, ToolchainConfig, ToolchainMissing, pass_at_k, run_sim
from cruxkit.interface import (
    DegradationPolicy,
    Direction,
    degrade_interface,
    parse_module_header,
)
from cruxkit.rewards import (
    LATE_WEIGHTS,
    TokenLogProbSeq,
    WeightSchedule,
    crux_reward,
    reward_vector,
)

ROOT = Path(__file__).resolve().parents[1]
TOY = ROOT / "src" / "cruxkit" / "data" / "toy_corpus"


def _say(line: str) -> None:
    print(line, file=sys.__stdout__, flush=True)
    try:
        import conftest

        conftest.ACCEPTANCE_LINES.append(line)
    except ImportError:
        pass


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        _say(f"[acceptance] criterion {num} ({name}): SKIP - {exc}")
        raise
    except BaseException:
        _say(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    _say(
        f"[acceptance] criterion {num} ({name}): PASS"
        f" ({time.perf_counter() - start:.2f}s)"
    )


def read_jsonl(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    return [r for r in rows if set(r) != {"meta"}]


def test_criterion_1_pass_at_k_exactness():
    with criterion(1, "pass@k exactness"):
        start = time.perf_counter()
        for n in range(1, 21):
            for c in range(n + 1):
                for k in (1, 5, 10):
                    if k > n:
                        continue
                    oracle = 1 - Fraction(math.comb(n - c, k), math.comb(n, k))
                    assert abs(pass_at_k(n, c, k) - float(oracle)) <= 1e-12, (n, c, k)
        # exhaustive subset enumeration, exact in integer arithmetic
        for n in range(1, 13):
            for c in range(n + 1):
                for k in (1, 5, 10):
                    if k > n:
                        continue
                    hits = sum(
                        1
                        for subset in combinations(range(n), k)
                        if any(i < c for i in subset)
                    )
                    enumerated = Fraction(hits, math.comb(n, k))
                    closed_form = 1 - Fraction(math.comb(n - c, k), math.comb(n, k))
                    assert enumerated == closed_form, (n, c, k)
                    assert abs(pass_at_k(n, c, k) - float(enumerated)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_crux_reward_identity():
    with criterion(2, "exp-mean-logprob equals geometric mean"):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            length = int(rng.integers(1, 41))
            logprobs = tuple(float(x) for x in -rng.uniform(0.0, 5.0, size=length))
            seq = TokenLogProbSeq(tuple(range(length)), logprobs)
            geometric = math.prod(math.exp(lp) for lp in logprobs) ** (1.0 / length)
            assert abs(crux_reward(seq) - geometric) <= 1e-12
        # boundary: certain tokens give exactly 1.0
        sure = TokenLogProbSeq((1, 2, 3), (0.0, 0.0, 0.0))
        assert crux_reward(sure) == 1.0
        # raising any single token strictly raises the reward
        base_lps = (-1.0, -0.5, -2.0, -0.25)
        base = crux_reward(TokenLogProbSeq((0, 1, 2, 3), base_lps))
        for i in range(len(base_lps)):
            bumped = tuple(
                lp + 0.1 if j == i else lp for j, lp in enumerate(base_lps)
            )
            assert crux_reward(TokenLogProbSeq((0, 1, 2, 3), bumped)) > base


def test_criterion_3_grpo_gradients():
    with criterion(3, "GRPO objective gradient"):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(200):
            group_size = 2 + seed % 4  # G in 2..5
            beta = 0.04 if seed % 2 else 0.0
            instance = random_toy_instance(
                seed, group_size=group_size, max_tokens=8, vocab=11,
                with_ref=beta > 0,
            )
            report = objective_gradient_check(instance, epsilon=0.2, beta=beta)
            assert report.passed, f"seed {seed}: rel err {report.max_rel_error:.2e}"
            worst = max(worst, report.max_rel_error)
        assert worst < 1e-3
        # theta == theta_old: ratios all exactly 1
        lps = [(-0.3, -0.7), (-1.1,), (-0.2, -0.4, -0.9), (-0.5, -0.5)]
        rollouts = tuple(
            Rollout("c", "v", TokenLogProbSeq(tuple(range(len(x))), x),
                    TokenLogProbSeq(tuple(range(len(x))), x))
            for x in lps
        )
        adv = group_advantages([1.0, 3.0, 4.0, 9.0])
        out = clipped_objective(RolloutGroup("t", rollouts), adv, epsilon=0.2)
        assert out["surrogate"] == float(np.mean(adv.per_rollout))
        assert out["clip_fraction"] == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_4_advantage_standardization():
    with criterion(4, "advantage standardization"):
        rng = np.random.default_rng(1)
        for _ in range(300):
            size = int(rng.integers(2, 9))
            rewards = [float(x) for x in rng.normal(5.0, 3.0, size=size)]
            adv = group_advantages(rewards)
            if adv.degenerate:
                continue
            values = np.array(adv.per_rollout)
            assert abs(values.mean()) <= 1e-9
            assert abs(values.std() - 1.0) <= 1e-9
        # exact shift and positive-scale invariance on exact-arithmetic inputs
        base = [1.0, 5.0, 2.0, 8.0, 4.0]
        shifted = [x + 23.0 for x in base]
        scaled = [x * 8.0 for x in base]
        both = [x * 0.25 + 6.0 for x in base]
        want = group_advantages(base).per_rollout
        assert group_advantages(shifted).per_rollout == want
        assert group_advantages(scaled).per_rollout == want
        assert group_advantages(both).per_rollout == want
        # degenerate groups standardize to all zeros
        assert group_advantages([3.5] * 4).per_rollout == (0.0,) * 4
        assert group_advantages([3.5] * 4).degenerate


def test_criterion_5_reward_schedule():
    with criterion(5, "reward schedule"):
        sched = WeightSchedule(steps_per_epoch=520)
        assert sched.switch_step == 52
        late_full = reward_vector((1.0, 1.0, 1.0, 1.0), sched, 52)
        assert late_full.weights_phase == "late"
        assert late_full.mixed == 14.0
        assert math.fsum(LATE_WEIGHTS) == 14.0
        # the step before the switch still uses early weights
        assert reward_vector((1.0, 0.0, 0.0, 0.0), sched, 51).mixed == 1.0
        assert reward_vector((1.0, 0.0, 0.0, 0.0), sched, 52).mixed == 0.5
        for steps, want in ((520, 52), (519, 51), (10, 1), (1000, 100)):
            assert WeightSchedule(steps).switch_step == want


def test_criterion_6_degradation_statistics():
    with criterion(6, "degradation statistics"):
        start = time.perf_counter()
        iface = parse_module_header(
            "module m(input clk, input [7:0] d, output reg [7:0] q, inout [1:0] pad);"
            "\nendmodule"
        )
        policy = DegradationPolicy()
        n_seeds = 10_000
        full = 0
        include_trials = include_hits = 0
        dir_trials = dir_hits = 0
        width_trials = width_hits = 0
        for seed in range(n_seeds):
            deg = degrade_interface(iface, policy, seed)
            if deg.fully_retained:
                full += 1
                continue
            kept = {p.name: (d, w) for p, d, w in deg.retained_ports}
            for port in iface.ports:
                include_trials += 1
                if port.name not in kept:
                    continue
                include_hits += 1
                shows_direction, shows_width = kept[port.name]
                if port.direction is not Direction.INOUT:
                    dir_trials += 1
                    dir_hits += shows_direction
                width_trials += 1
                width_hits += shows_width

        def within(hits, trials, p):
            sigma = math.sqrt(p * (1 - p) / trials)
            return abs(hits / trials - p) <= 3 * sigma

        assert within(full, n_seeds, 0.2), f"full retention {full / n_seeds:.4f}"
        assert within(include_hits, include_trials, 0.5)
        assert within(dir_hits, dir_trials, 0.5)
        assert within(width_hits, width_trials, 0.5)

        pair = RawPair("stat", "Paragraph one.\n\nParagraph two.", "module m(input x);\nendmodule")
        degraded = degrade_interface(
            parse_module_header(pair.reference_code), DegradationPolicy(p_full_retain=1.0), 0
        )
        aug = AugmentationPolicy(p_prefix=0.0, p_suffix=0.0)
        mid = 0
        for seed in range(n_seeds):
            text = build_realspec(pair, Category.NORMAL_DATA, degraded, aug, seed)
            if text.split("\n\n")[1].startswith("Module name:"):
                mid += 1
        assert within(mid, n_seeds, 24.0 / 165.0), f"middle insert {mid / n_seeds:.4f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 6 took {elapsed:.2f}s"


def test_criterion_7_parser_fidelity_fixtures():
    with criterion(7, "fixture round-trip fidelity"):
        pairs = {r["id"]: r for r in read_jsonl(TOY / "pairs.jsonl")}
        transcripts = {
            (r["id"], r["stage"]): r["text"] for r in read_jsonl(TOY / "transcripts.jsonl")
        }
        docs = {}
        for task_id, stage in (("dff8p", "extract"), ("ece241_2013_q8", "circuit_parse")):
            report = parse_crux(transcripts[(task_id, stage)])
            assert report.doc is not None, task_id
            docs[task_id] = report.doc
        clk = pairs["clkgenerator"]
        easy = assemble_record(
            RawPair("clkgenerator", clk["description"], clk["reference_code"]),
            Category.EASY_QUESTION,
            "realspec",
            parse_module_header(clk["reference_code"]),
        )
        docs["clkgenerator"] = parse_crux(easy["crux"]).doc
        for task_id, doc in docs.items():
            reference = parse_module_header(pairs[task_id]["reference_code"])
            reparsed = parse_crux(render_crux(doc))
            assert reparsed.doc == doc, f"{task_id} round-trip drift"
            assert interface_mismatches(reparsed.doc.interface, reference) == []
            got = {p.name: p for p in reparsed.doc.interface.ports}
            for port in reference.ports:
                assert got[port.name].direction == port.direction
                assert got[port.name].width_bits == port.width_bits
                assert got[port.name].is_reg == port.is_reg, (task_id, port.name)
        clk = docs["clkgenerator"].interface
        assert clk.parameters == (("PERIOD", "10"),)
        assert clk.port("clk").is_reg


def _run_chain(tmp_path: Path, toolchain_file: Path) -> None:
    """categorize -> derive -> build -> evaluate -> reward on the toy corpus."""
    runner = CliRunner()

    def cli(*args):
        result = runner.invoke(cli_main, [str(a) for a in args])
        assert result.exit_code == 0, result.output
        return result

    categorized = tmp_path / "categorized.jsonl"
    cli("categorize", "--input", TOY / "pairs.jsonl",
        "--verdicts", TOY / "verdicts.jsonl", "--output", categorized)
    transcripts = tmp_path / "transcripts.jsonl"
    cli("derive-crux", "--input", categorized, "--live",
        "--mock-provider", TOY / "mock_provider.json", "--output", transcripts)
    records = tmp_path / "records.jsonl"
    cli("build-dataset", "--input", categorized, "--transcripts", transcripts,
        "--output", records)
    assert len(read_jsonl(records)) == 5

    pairs = read_jsonl(TOY / "pairs.jsonl")
    correct = tmp_path / "correct.jsonl"
    with open(correct, "w") as f:
        for row in pairs:
            f.write(json.dumps(
                {"task_id": row["id"], "candidates": [row["reference_code"]]}
            ) + "\n")
    eval_dir = tmp_path / "eval_correct"
    cli("evaluate", "--tasks", TOY / "pairs.jsonl", "--candidates", correct,
        "--testbenches", TOY / "testbenches", "--toolchain", toolchain_file,
        "--output-dir", eval_dir, "-k", 1)
    for row in read_jsonl(eval_dir / "per_task.jsonl"):
        assert row["pass@1"] == 1.0, row

    broken = tmp_path / "broken.jsonl"
    with open(broken, "w") as f:
        for row in pairs:
            bad = row["reference_code"].replace("endmodule", "SYNTAX_ERROR\nendmodule")
            f.write(json.dumps({"task_id": row["id"], "candidates": [bad]}) + "\n")
    eval_bad = tmp_path / "eval_broken"
    cli("evaluate", "--tasks", TOY / "pairs.jsonl", "--candidates", broken,
        "--testbenches", TOY / "testbenches", "--toolchain", toolchain_file,
        "--output-dir", eval_bad, "-k", 1)
    for row in read_jsonl(eval_bad / "outcomes.jsonl"):
        assert row["compile_ok"] is False, row
    for row in read_jsonl(eval_bad / "per_task.jsonl"):
        assert row["pass@1"] == 0.0


def test_criterion_8_end_to_end_real_simulator(tmp_path):
    with criterion(8, "end-to-end with real simulator"):
        start = time.perf_counter()
        default = ToolchainConfig()
        try:
            default.check_available()
        except ToolchainMissing:
            pytest.skip(
                "no IEEE-1364 simulator on PATH (iverilog/vvp not found); "
                "criterion applies only when one is installed - the hermetic "
                "echo-toolchain chain below exercises the same pipeline"
            )
        tc_file = tmp_path / "toolchain.json"
        tc_file.write_text(json.dumps(
            {"compile_cmd": default.compile_cmd, "run_cmd": default.run_cmd}
        ))
        _run_chain(tmp_path, tc_file)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion 8 took {elapsed:.2f}s"


def test_end_to_end_hermetic_echo_chain(tmp_path):
    """Always-run variant of the chain using the bundled echo toolchain."""
    echo = ToolchainConfig.echo()
    tc_file = tmp_path / "toolchain.json"
    tc_file.write_text(json.dumps(
        {"compile_cmd": echo.compile_cmd, "run_cmd": echo.run_cmd}
    ))
    _run_chain(tmp_path, tc_file)
    _say("[acceptance] hermetic echo-toolchain chain: PASS")


def test_toy_corpus_designs_match_their_emit_transcripts():
    """The echo lane and a real simulator see the same toy corpus: each design's
    directive transcript is self-consistent under the echo toolchain."""
    echo = ToolchainConfig.echo()
    for row in read_jsonl(TOY / "pairs.jsonl"):
        tb = (TOY / "testbenches" / f"{row['id']}_tb.v").read_text()
        outcome = run_sim(SimJob(row["reference_code"], tb, row["id"]), echo)
        assert outcome.ran_ok, row["id"]
        assert outcome.match_fraction == 1.0


def test_criterion_9_non_reproducibility_note():
    with criterion(9, "non-reproducibility note in README"):
        readme = (ROOT / "README.md").read_text().lower()
        assert "not reproducible" in readme or "not desk-reproducible" in readme
        assert "trained" in readme
        assert "pass@k" in readme
