"""The four reward components, the progressive mixing schedule, and the
scoring of one rollout group.

A rollout produces a CRUX document followed by Verilog code. Rewards:
format (does the CRUX have the right shape, scored on a four-check rubric),
compile (did the code compile), crux (how probable is the reference code
given the produced CRUX, the geometric mean of token probabilities), and
code (fraction of testbench output lines matching the reference run).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

from .cruxdoc import ALL_SECTIONS, interface_mismatches, parse_crux
from .gateway import TokenLogProbSeq
from .grpo import Rollout, RolloutGroup, clipped_objective, group_advantages
from .harness import SimOutcome
from .interface import ModuleInterface
from .jsonl import check


class EmptySequence(ValueError):
    """A logprob-based reward was asked to score zero tokens."""


def format_reward(crux_text: str, reference_interface: ModuleInterface) -> float:
    """Score CRUX well-formedness on a rubric of four equally-weighted checks:
    all three sections present, interface parses, interface agrees exactly
    with the reference header, Core Functions nonempty. Returns k/4."""
    report = parse_crux(crux_text)
    checks = (
        report.sections_found == ALL_SECTIONS,
        report.interface is not None,
        report.interface is not None
        and not interface_mismatches(report.interface, reference_interface),
        report.core_functions_nonempty,
    )
    return sum(checks) / 4.0


def compile_reward(outcome: SimOutcome) -> float:
    return 1.0 if outcome.compile_ok else 0.0


def code_reward(outcome: SimOutcome) -> float:
    """Functional score: the testbench match fraction, 0 when the run never
    completed."""
    if outcome.ran_ok and outcome.match_fraction is not None:
        return outcome.match_fraction
    return 0.0


def crux_reward(seq: TokenLogProbSeq | None) -> float:
    """Geometric mean of the reference code's token probabilities under the
    policy conditioned on (task, produced CRUX): exp(mean of logprobs).

    ``None`` means the gateway could not score; that scores 0 rather than
    raising, so batch scoring never aborts, and the rollout's row carries
    the ``scoring failed:`` diagnostic.
    """
    if seq is None:
        return 0.0
    if len(seq) == 0:
        raise EmptySequence("cannot score an empty token sequence")
    return math.exp(math.fsum(seq.logprobs) / len(seq))


EARLY_WEIGHTS = (1.0, 3.0, 4.0, 6.0)
LATE_WEIGHTS = (0.5, 1.5, 4.0, 8.0)


@dataclass(frozen=True)
class WeightSchedule:
    """Progressive reward weights over (format, compile, crux, code).

    The early weights hold for the first tenth of an epoch, then the late
    weights take over: the switch step is floor(switch_fraction *
    steps_per_epoch) and the late phase starts at that step.
    """

    steps_per_epoch: int
    early: tuple[float, float, float, float] = EARLY_WEIGHTS
    late: tuple[float, float, float, float] = LATE_WEIGHTS
    switch_fraction: float = 0.1

    def __post_init__(self) -> None:
        check("schedule", None, vars(self))

    @property
    def switch_step(self) -> int:
        return math.floor(self.switch_fraction * self.steps_per_epoch)

    def weights_at(self, global_step: int) -> tuple[float, float, float, float]:
        if global_step < 0:
            raise ValueError("global_step must be >= 0")
        return self.early if global_step < self.switch_step else self.late

    def phase_at(self, global_step: int) -> str:
        return "early" if global_step < self.switch_step else "late"


@dataclass(frozen=True)
class RewardVector:
    """The four component scores plus their scheduled mix."""

    format_r: float
    compile_r: float
    crux_r: float
    code_r: float
    mixed: float
    weights_phase: str

    def __post_init__(self) -> None:
        for name in ("format_r", "compile_r", "crux_r", "code_r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.compile_r not in (0.0, 1.0):
            raise ValueError(f"compile_r is binary, got {self.compile_r}")
        if self.weights_phase not in ("early", "late"):
            raise ValueError(f"unknown weights_phase: {self.weights_phase!r}")


def reward_vector(
    parts: tuple[float, float, float, float],
    schedule: WeightSchedule,
    global_step: int,
) -> RewardVector:
    """The four parts and their weighted sum at this step."""
    weights = schedule.weights_at(global_step)
    return RewardVector(
        format_r=parts[0],
        compile_r=parts[1],
        crux_r=parts[2],
        code_r=parts[3],
        mixed=math.fsum(w * p for w, p in zip(weights, parts)),
        weights_phase=schedule.phase_at(global_step),
    )


def parse_rollout(payload: dict, code: str) -> tuple[Rollout, TokenLogProbSeq | None]:
    """A rollout row's payloads, each parsed once: the rollout that simulated
    ``code`` and the row's own CRUX score or None. ``ValueError`` names a bad one."""
    seqs = {}
    for key in ("logprobs_new", "logprobs_old", "logprobs_ref", "crux_score"):
        if payload.get(key) is None:
            continue
        try:
            seqs[key] = TokenLogProbSeq.from_payload(payload[key])
        except KeyError as exc:
            raise ValueError(f"bad {key!r}: no {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {key!r}: {exc}") from exc
        if not seqs[key]:
            raise ValueError(f"bad {key!r}: no tokens")
    return Rollout(payload["crux_text"], code, seqs["logprobs_new"], seqs["logprobs_old"],
                   seqs.get("logprobs_ref")), seqs.get("crux_score")


def score_group(
    task_id: str,
    step: int,
    rollouts: Sequence[Rollout],
    outcomes: Sequence[SimOutcome],
    scores: Sequence[TokenLogProbSeq | str],
    reference_interface: ModuleInterface,
    schedule: WeightSchedule,
    epsilon: float,
    beta: float,
    eps_std: float,
) -> dict:
    """The output row of one rollout group: each rollout's four rewards and
    their mix, the group-standardized advantages and the clipped objective.

    Each rollout carries the code it simulated, and ``outcomes`` holds
    those sims. ``scores`` holds each rollout's CRUX score sequence, its own
    or a scoring call's, or the message of a failed scoring call, which
    scores 0 and is kept as a diagnostic. No I/O, no sims, no gateway.
    """
    rows, mixed = [], []
    for rollout, outcome, score in zip(rollouts, outcomes, scores):
        failed = isinstance(score, str)
        parts = (format_reward(rollout.crux_text, reference_interface), compile_reward(outcome),
                 crux_reward(None if failed else score), code_reward(outcome))
        vec = reward_vector(parts, schedule, step)
        mixed.append(vec.mixed)
        rows.append({**asdict(vec), "diagnostics": [f"scoring failed: {score}"] if failed else []})
    advantages = group_advantages(mixed, eps_std)
    objective = clipped_objective(RolloutGroup(task_id, tuple(rollouts)), advantages, epsilon, beta)
    return {"task_id": task_id, "step": step, "rewards": rows,
            "advantages": list(advantages.per_rollout), "degenerate": advantages.degenerate,
            "objective": objective}
