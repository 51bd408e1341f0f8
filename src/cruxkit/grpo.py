"""Group-relative policy optimization math, checked against finite differences.

Rewards are standardized within each rollout group to form advantages; the
objective averages a clipped importance-weighted surrogate per token, per
rollout, then across the group, optionally minus a KL penalty against a
reference policy (the exp(d) - d - 1 estimator on d = ref - new).

Everything here is plain Python (``math.exp``, sums taken left to right);
no cruxkit command loads numpy, which the tests keep as a reference only.
``_rollout_terms`` is the one implementation of the clipped surrogate and the
KL term; both ``clipped_objective`` and the gradient check call it. The
gradient check scores a toy differentiable policy (``random_toy_instance``,
``_log_softmax`` and ``objective_gradient_check``) drawn with ``random``.
``log_ratio_bound`` is how far a rollout's log-ratios may reach with every
value of its group's objective row still a finite float. Of the other
cruxkit modules only ``jsonl`` is imported at run time, for the ``grpo``
kind the coefficients are checked against.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from random import Random
from typing import TYPE_CHECKING

from .jsonl import check

if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    from .gateway import TokenLogProbSeq


class GroupTooSmall(ValueError):
    """Advantage standardization needs at least two rollouts."""


class LengthMismatch(ValueError):
    """New/old/ref logprob sequences disagree on tokens."""


class MissingRefLogprobs(ValueError):
    """KL penalty requested but some rollout has no reference logprobs."""


EPS_STD_DEFAULT = 1e-8
# the largest x whose e**x is a finite float; math.exp raises past it
_EXP_MAX = math.log(sys.float_info.max)


def _exp(values: Iterable[float]) -> list[float]:
    """e**v for each value: inf past ``_EXP_MAX``, as IEEE (and numpy's) exp gives."""
    return [math.exp(v) if v <= _EXP_MAX else math.inf for v in values]


def _mean(values: Sequence[float]) -> float:
    """The sum taken left to right, over the count: np.mean's order below 8
    values. ``sum`` is not used, because from Python 3.12 it compensates."""
    return reduce(operator.add, values) / len(values)


@dataclass(frozen=True)
class Rollout:
    """One sampled output with its logprobs under the three policies."""

    crux_text: str
    code_text: str
    token_logprobs_new: TokenLogProbSeq
    token_logprobs_old: TokenLogProbSeq
    token_logprobs_ref: TokenLogProbSeq | None = None

    def __post_init__(self) -> None:
        if len(self.token_logprobs_new) == 0:
            raise ValueError("rollout must have at least one token")
        for other in (self.token_logprobs_old, self.token_logprobs_ref):
            if other is not None and other.tokens != self.token_logprobs_new.tokens:
                raise LengthMismatch("logprob sequences must cover identical tokens")


@dataclass(frozen=True)
class RolloutGroup:
    """All rollouts sampled for one task prompt."""

    task_id: str
    rollouts: tuple[Rollout, ...]

    def __post_init__(self) -> None:
        if not self.rollouts:
            raise ValueError("a rollout group cannot be empty")


@dataclass(frozen=True)
class AdvantageSet:
    """Standardized per-rollout advantages. A degenerate group (reward spread
    below eps_std) gets all-zero advantages instead of a blow-up."""

    per_rollout: tuple[float, ...]
    degenerate: bool


def group_advantages(rewards: list[float], eps_std: float = EPS_STD_DEFAULT) -> AdvantageSet:
    """Standardize rewards within a group: (r - mean) / population std."""
    if len(rewards) < 2:
        raise GroupTooSmall(f"need at least 2 rollouts, got {len(rewards)}")
    if not all(math.isfinite(r) for r in rewards):
        raise ValueError("rewards must be finite")
    mean = _mean(rewards)
    std = math.sqrt(_mean([(r - mean) * (r - mean) for r in rewards]))
    if std < eps_std:
        return AdvantageSet((0.0,) * len(rewards), degenerate=True)
    return AdvantageSet(tuple((r - mean) / std for r in rewards), degenerate=False)


def check_coefficients(epsilon: float, beta: float) -> None:
    """Reject a clip range or KL weight the objective is not defined for."""
    check("grpo", None, {"epsilon": epsilon, "beta": beta})


def _rollout_terms(
    new: Sequence[float],
    old: Sequence[float],
    ref: Sequence[float] | None,
    advantage: float,
    epsilon: float,
) -> tuple[float, float, list[float], list[float], list[bool]]:
    """One rollout's token-mean clipped surrogate A * mean(min(r, clip(r)))
    (max for A < 0) and its k3 KL term mean(exp(d) - d - 1) on d = ref - new,
    the gradients of both with respect to ``new``, and the mask of tokens
    where the clip binds. The KL term and its gradient are 0 without ``ref``.

    Factoring A out of the token mean keeps the r == 1 identity exact in
    floating point: the mean of all-ones is exactly 1.0.
    """
    n_tokens = len(new)
    ratios = _exp(map(operator.sub, new, old))
    # min(r, clip(r)) is r capped at 1 + eps, and max(r, clip(r)) is r floored at 1 - eps
    if advantage > 0:
        high = 1.0 + epsilon
        scores = [high if r > high else r for r in ratios]
        active = [r > high for r in ratios]
    elif advantage < 0:
        low = 1.0 - epsilon
        scores = [low if r < low else r for r in ratios]
        active = [r < low for r in ratios]
    else:
        scores = ratios
        active = [False] * n_tokens
    surrogate = advantage * _mean(scores)
    # gradient flows only through the unclipped branch
    surrogate_grad = [0.0 if a else advantage * r / n_tokens for r, a in zip(ratios, active)]
    if ref is None:
        return surrogate, 0.0, surrogate_grad, [0.0] * n_tokens, active
    d = list(map(operator.sub, ref, new))
    exp_d = _exp(d)
    kl = _mean([e - x - 1.0 for e, x in zip(exp_d, d)])
    return surrogate, kl, surrogate_grad, [(1.0 - e) / n_tokens for e in exp_d], active


def log_ratio_bound(group_size: int, n_tokens: int, beta: float) -> float:
    """How far a rollout of ``n_tokens`` in a group of ``group_size`` may
    reach, in new - old (upwards) and, when ``beta`` > 0, in ref - new
    (either way), for every value of its group's objective row to stay a
    finite float under any standardized advantage (|A| <= sqrt(G - 1)).

    Under a bound L each ratio and each KL token term is at most e**L, so
    every sum the objective takes (over a rollout's tokens, over the group's
    surrogates or KL terms, and surrogate - beta * kl) is at most
    2 n e**L, with n = max(n_tokens, G sqrt(G - 1), beta). L is where that
    is a quarter of the largest float, which leaves room for rounding.
    """
    scale = max(n_tokens, group_size * math.sqrt(group_size - 1), beta)
    return _EXP_MAX - math.log(8.0 * scale)


def check_log_ratios(rollout: Rollout, group_size: int, beta: float) -> None:
    """``ValueError`` naming the first token whose log-ratio passes
    ``log_ratio_bound``, past which the objective of its group could overflow."""
    new = rollout.token_logprobs_new.logprobs
    bound = log_ratio_bound(group_size, len(new), beta)
    for t, x in enumerate(map(operator.sub, new, rollout.token_logprobs_old.logprobs)):
        if x > bound:
            raise ValueError(f"logprobs_new - logprobs_old is {x:.6g} at token {t}, "
                             f"above {bound:.6g}, past which the group's objective can overflow")
    if beta > 0:
        for t, d in enumerate(map(operator.sub, rollout.token_logprobs_ref.logprobs, new)):
            if abs(d) > bound:
                raise ValueError(f"logprobs_ref - logprobs_new is {d:.6g} at token {t}, beyond "
                                 f"+-{bound:.6g}, past which the group's objective can overflow")


def clipped_objective(
    group: RolloutGroup,
    advantages: AdvantageSet,
    epsilon: float,
    beta: float = 0.0,
) -> dict:
    """The ``objective`` row ``score_group`` writes for a group: the mean over
    rollouts of the token-mean clipped surrogate, minus beta times the k3 KL
    penalty when beta > 0, and the share of tokens where the clip binds.

    Each rollout's advantage is broadcast to all of its tokens.
    """
    if len(advantages.per_rollout) != len(group.rollouts):
        raise LengthMismatch("one advantage per rollout required")
    check_coefficients(epsilon, beta)
    if beta > 0 and any(r.token_logprobs_ref is None for r in group.rollouts):
        raise MissingRefLogprobs("beta > 0 requires ref logprobs on every rollout")

    surrogates = []
    kl_terms = []
    clipped_tokens = 0
    total_tokens = 0
    for rollout, advantage in zip(group.rollouts, advantages.per_rollout):
        new = rollout.token_logprobs_new.logprobs
        ref = rollout.token_logprobs_ref.logprobs if beta > 0 else None
        surrogate, kl, _, _, active = _rollout_terms(
            new, rollout.token_logprobs_old.logprobs, ref, advantage, epsilon
        )
        surrogates.append(surrogate)
        kl_terms.append(kl)
        clipped_tokens += active.count(True)
        total_tokens += len(new)
    surrogate = _mean(surrogates)
    kl_term = _mean(kl_terms)
    return {"surrogate": surrogate, "kl_term": kl_term, "total": surrogate - beta * kl_term,
            "clip_fraction": clipped_tokens / total_tokens}


# --- toy differentiable policy for gradient checking -----------------------


@dataclass
class ToyRollout:
    """A rollout whose new-policy logprobs come from explicit logits, so the
    objective is differentiable with respect to them."""

    logits: list[list[float]]  # T rows of V logits
    token_ids: list[int]  # T ids in [0, V)
    old_logprobs: list[float]  # T
    ref_logprobs: list[float] | None = None


@dataclass
class ToyGroupInstance:
    rollouts: list[ToyRollout]
    rewards: list[float]
    eps_std: float = EPS_STD_DEFAULT


def _log_softmax(logits: Sequence[float]) -> list[float]:
    """log(softmax(logits)), shifted by the largest logit so no exp overflows.
    ``math.fsum`` rounds the same on every Python, which ``sum`` does not."""
    top = max(logits)
    shifted = [x - top for x in logits]
    logz = math.log(math.fsum(map(math.exp, shifted)))
    return [x - logz for x in shifted]


def random_toy_instance(
    seed: int,
    group_size: int = 4,
    max_tokens: int = 8,
    vocab: int = 11,
    with_ref: bool = False,
) -> ToyGroupInstance:
    """A random small instance; old/ref policies are noisy copies of the new
    logits so importance ratios straddle the clip boundaries."""
    rng = Random(seed)

    def noisy_logprobs(logits: list[list[float]], ids: list[int]) -> list[float]:
        return [_log_softmax([x + rng.gauss(0.0, 0.3) for x in row])[i]
                for row, i in zip(logits, ids)]

    rollouts = []
    for _ in range(group_size):
        n_tokens = rng.randint(1, max_tokens)
        logits = [[rng.gauss(0.0, 1.0) for _ in range(vocab)] for _ in range(n_tokens)]
        ids = [rng.randrange(vocab) for _ in range(n_tokens)]
        old = noisy_logprobs(logits, ids)
        ref = noisy_logprobs(logits, ids) if with_ref else None
        rollouts.append(ToyRollout(logits, ids, old, ref))
    rewards = [rng.gauss(0.0, 1.0) for _ in range(group_size)]
    return ToyGroupInstance(rollouts, rewards)


@dataclass
class GradientCheckReport:
    checked_positions: int
    skipped_near_kink: int
    max_rel_error: float
    passed: bool


def objective_gradient_check(
    instance: ToyGroupInstance,
    epsilon: float = 0.2,
    beta: float = 0.0,
    h: float = 1e-5,
    rel_tol: float = 1e-3,
) -> GradientCheckReport:
    """Compare the analytic objective gradient (w.r.t. every toy logit)
    against central finite differences.

    Rollout j's logits enter only rollout j's term of the group mean, so each
    difference re-scores that one term, a bumped token sequence at a time:
    token t's logprob under row t with one logit bumped by +-h. Token
    positions whose log-ratio lies within 10*h of a clip kink are excluded:
    the objective is not differentiable there. The relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-4).
    """
    check_coefficients(epsilon, beta)
    if beta > 0 and any(r.ref_logprobs is None for r in instance.rollouts):
        raise MissingRefLogprobs("beta > 0 requires ref logprobs on every rollout")
    advantages = group_advantages(instance.rewards, instance.eps_std).per_rollout
    group_size = len(instance.rollouts)
    kinks = [math.log(1.0 + epsilon)] + ([math.log(1.0 - epsilon)] if epsilon < 1.0 else [])

    checked = 0
    skipped = 0
    max_rel = 0.0
    for rollout, advantage in zip(instance.rollouts, advantages):
        old = rollout.old_logprobs
        ref = rollout.ref_logprobs if beta > 0 else None

        def term(new: list[float]) -> tuple[float, list[float]]:
            """This rollout's share of the group objective and its gradient."""
            surrogate, kl, surrogate_grad, kl_grad, _ = _rollout_terms(
                new, old, ref, advantage, epsilon
            )
            return (
                (surrogate - beta * kl) / group_size,
                [(s - beta * k) / group_size for s, k in zip(surrogate_grad, kl_grad)],
            )

        log_probs = [_log_softmax(row) for row in rollout.logits]
        new = [lp[i] for lp, i in zip(log_probs, rollout.token_ids)]
        _, coeff = term(new)
        for t, (row, token) in enumerate(zip(rollout.logits, rollout.token_ids)):
            log_ratio = new[t] - old[t]
            if any(abs(log_ratio - kink) < 10.0 * h for kink in kinks):
                skipped += len(row)
                continue
            before, after = new[:t], new[t + 1:]
            for v in range(len(row)):
                # d new[t] / d logits[t, v] = [v == token t] - softmax(row t)[v]
                analytic = coeff[t] * ((1.0 if v == token else 0.0) - math.exp(log_probs[t][v]))
                up, down = (
                    term([*before, _log_softmax([*row[:v], row[v] + step, *row[v + 1:]])[token],
                          *after])[0]
                    for step in (h, -h)
                )
                numeric = (up - down) / (2.0 * h)
                rel_err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
                max_rel = max(max_rel, rel_err)
            checked += len(row)
    return GradientCheckReport(
        checked_positions=checked,
        skipped_near_kink=skipped,
        max_rel_error=max_rel,
        passed=max_rel < rel_tol,
    )
