"""The four reward channels and the two-phase weight schedule."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cruxkit import jsonl
from cruxkit.cruxdoc import CruxDoc, render_crux
from cruxkit.grpo import Rollout, check_log_ratios
from cruxkit.harness import SimOutcome
from cruxkit.interface import parse_module_header
from cruxkit.rewards import (
    EARLY_WEIGHTS,
    EmptySequence,
    LATE_WEIGHTS,
    RewardVector,
    TokenLogProbSeq,
    WeightSchedule,
    code_reward,
    compile_reward,
    crux_reward,
    format_reward,
    parse_rollout,
    reward_vector,
    score_group,
)

REF = parse_module_header(
    "module TopModule(input clk, input [7:0] d, output reg [7:0] q);\nendmodule"
)
GOOD_TEXT = render_crux(
    CruxDoc(REF, ("Registers d into q on each clock",), ("No reset",))
)


def outcome(match=None, compiled=True):
    ran = match is not None
    return SimOutcome(
        compile_ok=compiled or ran, ran_ok=ran, stdout_lines=(),
        match_fraction=match, timed_out=False,
        returncode=0 if ran else 1, log="", scratch_dir="",
    )


class TestFormatReward:
    def test_perfect_document(self):
        assert format_reward(GOOD_TEXT, REF) == 1.0

    def test_wrong_width_drops_one_check(self):
        text = GOOD_TEXT.replace("[7:0] d", "[3:0] d")
        assert format_reward(text, REF) == 0.75

    def test_unparsable_interface(self):
        text = GOOD_TEXT.replace("module TopModule (", "module (")
        # interface check and mismatch check both fail
        assert format_reward(text, REF) == 0.5

    def test_missing_section(self):
        text = GOOD_TEXT.split("## Key Considerations")[0]
        assert format_reward(text, REF) == 0.75

    def test_garbage_scores_zero(self):
        assert format_reward("I refuse to answer in the requested format.", REF) == 0.0

    def test_quarter_steps_only(self):
        for text in (GOOD_TEXT, "", "## Core Functions\n\n- x\n"):
            assert format_reward(text, REF) in (0.0, 0.25, 0.5, 0.75, 1.0)


class TestBinaryRewards:
    def test_compile_reward(self):
        assert compile_reward(outcome(match=1.0)) == 1.0
        assert compile_reward(outcome(match=None, compiled=True)) == 1.0
        assert compile_reward(outcome(match=None, compiled=False)) == 0.0

    def test_code_reward_is_match_fraction(self):
        assert code_reward(outcome(match=0.75)) == 0.75
        assert code_reward(outcome(match=None, compiled=True)) == 0.0
        assert code_reward(outcome(match=None, compiled=False)) == 0.0


class TestCruxReward:
    def test_geometric_mean_identity(self):
        seq = TokenLogProbSeq((1, 2, 3), (math.log(0.5),) * 3)
        assert crux_reward(seq) == pytest.approx(0.5, abs=1e-15)

    def test_single_token(self):
        seq = TokenLogProbSeq((7,), (math.log(0.25),))
        assert crux_reward(seq) == pytest.approx(0.25, abs=1e-15)

    def test_none_scores_zero(self):
        assert crux_reward(None) == 0.0

    def test_empty_sequence_raises(self):
        with pytest.raises(EmptySequence):
            crux_reward(TokenLogProbSeq((), ()))

    def test_monotone_in_any_logprob(self):
        base = TokenLogProbSeq((1, 2), (-0.5, -1.0))
        better = TokenLogProbSeq((1, 2), (-0.5, -0.9))
        assert crux_reward(better) > crux_reward(base)

    def test_bounds(self):
        seq = TokenLogProbSeq((1,), (0.0,))
        assert crux_reward(seq) == 1.0

    @given(st.lists(st.floats(min_value=-20, max_value=0), min_size=1, max_size=30))
    def test_always_in_unit_interval(self, logprobs):
        seq = TokenLogProbSeq(tuple(range(len(logprobs))), tuple(logprobs))
        assert 0.0 <= crux_reward(seq) <= 1.0


class TestTokenLogProbSeq:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TokenLogProbSeq((1, 2), (-0.5,))

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            TokenLogProbSeq((1,), (0.1,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TokenLogProbSeq((1,), (float("-inf"),))

    def test_len(self):
        assert len(TokenLogProbSeq((1, 2), (-0.1, -0.2))) == 2


class TestWeightSchedule:
    def test_switch_step_is_floor_of_fraction(self):
        assert WeightSchedule(520).switch_step == 52
        assert WeightSchedule(519).switch_step == 51
        assert WeightSchedule(10, switch_fraction=0.25).switch_step == 2

    def test_phase_boundary(self):
        sched = WeightSchedule(520)
        assert sched.weights_at(51) == EARLY_WEIGHTS
        assert sched.weights_at(52) == LATE_WEIGHTS
        assert sched.phase_at(0) == "early"
        assert sched.phase_at(52) == "late"

    def test_both_phases_sum_to_fourteen(self):
        assert math.fsum(EARLY_WEIGHTS) == 14.0
        assert math.fsum(LATE_WEIGHTS) == 14.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSchedule(0)
        with pytest.raises(ValueError):
            WeightSchedule(10, switch_fraction=1.5)


class TestRewardVector:
    def test_mix_uses_phase_weights(self):
        sched = WeightSchedule(520)
        early = reward_vector((1.0, 1.0, 1.0, 1.0), sched, 0)
        late = reward_vector((1.0, 1.0, 1.0, 1.0), sched, 52)
        assert early.mixed == 14.0
        assert late.mixed == 14.0
        assert early.weights_phase == "early"
        assert late.weights_phase == "late"

    def test_phase_change_visible_with_skewed_parts(self):
        sched = WeightSchedule(520)
        early = reward_vector((1.0, 0.0, 0.0, 0.0), sched, 51)
        late = reward_vector((1.0, 0.0, 0.0, 0.0), sched, 52)
        assert early.mixed == 1.0
        assert late.mixed == 0.5

    def test_component_ranges_validated(self):
        with pytest.raises(ValueError):
            RewardVector(1.5, 0.0, 0.0, 0.0, 0.0, "early")
        with pytest.raises(ValueError):
            RewardVector(0.5, 0.5, 0.0, 0.0, 0.0, "early")  # compile is binary

    @given(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            st.sampled_from([0.0, 1.0]),
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
        ),
        st.integers(min_value=0, max_value=600),
    )
    def test_mixed_bounded_by_fourteen(self, parts, step):
        sched = WeightSchedule(520)
        vec = reward_vector(parts, sched, step)
        assert 0.0 <= vec.mixed <= 14.0


RL_GROUPS_TINY = Path(__file__).resolve().parent / "fixtures" / "rl-groups-tiny"


def _rl_groups_tiny():
    """(groups row, reference interface) for each group of the committed batch."""
    def rows(name):
        lines = (RL_GROUPS_TINY / name).read_text().splitlines()
        return [json.loads(line) for line in lines if line.strip()]

    tasks = {task["id"]: task for task in rows("tasks.jsonl")}
    return [(row, parse_module_header(tasks[row["task_id"]]["reference_code"]))
            for row in rows("groups.jsonl")]


GROUPS = _rl_groups_tiny()
CONFIG = json.loads((RL_GROUPS_TINY / "config.json").read_text())

OUTCOMES = st.one_of(
    st.just(SimOutcome(compile_ok=False, ran_ok=False, returncode=1)),
    st.just(SimOutcome(compile_ok=True, ran_ok=False, timed_out=True)),
    st.floats(min_value=0.0, max_value=1.0).map(
        lambda f: SimOutcome(compile_ok=True, ran_ok=True, match_fraction=f, returncode=0)
    ),
)
SCORES = st.one_of(
    st.just("provider unreachable after 3 attempts"),
    st.lists(st.floats(min_value=-8.0, max_value=0.0), min_size=1, max_size=12).map(
        lambda lps: TokenLogProbSeq(tuple(range(len(lps))), tuple(lps))
    ),
)


class TestScoreGroup:
    def _score(self, row, interface, order, outcomes, scores):
        payloads = [row["rollouts"][i] for i in order]
        parsed = [parse_rollout(p, p["code_text"]) for p in payloads]
        # a None score is the rollout's own crux_score
        scores = [own if scores[i] is None else scores[i] for i, (_, own) in zip(order, parsed)]
        return score_group(
            row["task_id"], row["step"], [r for r, _ in parsed], [outcomes[i] for i in order],
            scores, interface,
            WeightSchedule(**CONFIG["schedule"]),
            epsilon=0.2, beta=CONFIG["grpo"]["beta"], eps_std=1e-8,
        )

    @settings(max_examples=40, deadline=None)
    @given(group=st.sampled_from(range(len(GROUPS))), data=st.data())
    def test_permuting_rollouts_permutes_the_row(self, group, data):
        """Group standardization is permutation-equivariant: permuting the
        rollouts with their outcomes and scores permutes the reward rows and
        advantages, and leaves the objective and degeneracy as they were."""
        row, interface = GROUPS[group]
        n = len(row["rollouts"])
        outcomes = data.draw(st.lists(OUTCOMES, min_size=n, max_size=n))
        # a rollout with a crux_score of its own is scored from it
        scores = [None if "crux_score" in r else data.draw(SCORES) for r in row["rollouts"]]
        perm = data.draw(st.permutations(range(n)))
        base = self._score(row, interface, range(n), outcomes, scores)
        permuted = self._score(row, interface, perm, outcomes, scores)
        assert permuted["rewards"] == [base["rewards"][i] for i in perm]
        for got, i in zip(permuted["advantages"], perm):
            assert abs(got - base["advantages"][i]) <= 1e-12
        for name, value in base["objective"].items():
            assert abs(permuted["objective"][name] - value) <= 1e-12
        assert permuted["degenerate"] == base["degenerate"]
        assert (permuted["task_id"], permuted["step"]) == (base["task_id"], base["step"])

    def test_failed_scoring_call_scores_zero_with_a_diagnostic(self):
        row, interface = GROUPS[0]
        n = len(row["rollouts"])
        outcome = SimOutcome(compile_ok=True, ran_ok=True, match_fraction=1.0, returncode=0)
        scores = ["boom"] + [TokenLogProbSeq((0,), (-0.5,))] * (n - 1)
        out = self._score(row, interface, range(n), [outcome] * n, scores)
        assert out["rewards"][0]["crux_r"] == 0.0
        assert out["rewards"][0]["diagnostics"] == ["scoring failed: boom"]
        assert all(r["diagnostics"] == [] for r in out["rewards"][1:])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), group_size=st.integers(min_value=2, max_value=6),
           n_tokens=st.integers(min_value=1, max_value=4),
           beta=st.sampled_from([0.0, 0.04, 1e300]))
    def test_row_is_strict_json_unless_the_row_check_rejects_it(
        self, data, group_size, n_tokens, beta
    ):
        """Any finite logprobs <= 0: the log-ratio check ``reward`` makes
        before its sims rejects the group, or ``score_group``'s row holds no
        NaN or infinity, so the strict encoder writes it."""
        logprobs = st.lists(st.one_of(
            st.floats(min_value=-720.0, max_value=0.0),
            st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
        ), min_size=n_tokens, max_size=n_tokens)
        tokens = tuple(range(n_tokens))
        rollouts = [
            Rollout("## Module Interface\n", "",
                    *(TokenLogProbSeq(tokens, tuple(data.draw(logprobs))) for _ in range(3)))
            for _ in range(group_size)
        ]
        try:
            for rollout in rollouts:
                check_log_ratios(rollout, group_size, beta)
        except ValueError:
            return
        row = score_group(
            "t", 0, rollouts, data.draw(st.lists(OUTCOMES, min_size=group_size,
                                                 max_size=group_size)),
            data.draw(st.lists(SCORES, min_size=group_size, max_size=group_size)),
            GROUPS[0][1], WeightSchedule(**CONFIG["schedule"]),
            epsilon=data.draw(st.sampled_from([0.2, 0.9, 5.0])), beta=beta, eps_std=1e-8,
        )
        jsonl.encode_row(row)
