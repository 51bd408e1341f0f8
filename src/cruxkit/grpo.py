"""Group-relative policy optimization math, checked against finite differences.

Rewards are standardized within each rollout group to form advantages; the
objective averages a clipped importance-weighted surrogate per token, per
rollout, then across the group, optionally minus a KL penalty against a
reference policy (the exp(d) - d - 1 estimator on d = ref - new).

numpy is imported inside the numeric functions, not at module level, so
commands that only validate coefficients or build rollouts never load it;
of the other cruxkit modules only ``jsonl`` is imported at run time, for the
``grpo`` kind the coefficients are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .jsonl import check

if TYPE_CHECKING:
    from .gateway import TokenLogProbSeq


class GroupTooSmall(ValueError):
    """Advantage standardization needs at least two rollouts."""


class LengthMismatch(ValueError):
    """New/old/ref logprob sequences disagree on tokens."""


class MissingRefLogprobs(ValueError):
    """KL penalty requested but some rollout has no reference logprobs."""


EPS_STD_DEFAULT = 1e-8


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
    import numpy as np

    if len(rewards) < 2:
        raise GroupTooSmall(f"need at least 2 rollouts, got {len(rewards)}")
    arr = np.asarray(rewards, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("rewards must be finite")
    std = float(arr.std())
    if std < eps_std:
        return AdvantageSet((0.0,) * len(rewards), degenerate=True)
    adv = (arr - arr.mean()) / std
    return AdvantageSet(tuple(float(a) for a in adv), degenerate=False)


def check_coefficients(epsilon: float, beta: float) -> None:
    """Reject a clip range or KL weight the objective is not defined for."""
    check("grpo", None, {"epsilon": epsilon, "beta": beta})


@dataclass(frozen=True)
class ObjectiveBreakdown:
    surrogate: float
    kl_term: float
    total: float
    clip_fraction: float


def _rollout_terms(
    new: np.ndarray,
    old: np.ndarray,
    ref: np.ndarray | None,
    advantage: float,
    epsilon: float,
) -> tuple:
    """One rollout's token-mean clipped surrogate A * mean(min(r, clip(r)))
    (max for A < 0) and its k3 KL term mean(exp(d) - d - 1) on d = ref - new,
    the gradients of both with respect to ``new``, and the mask of tokens
    where the clip binds. The KL term and its gradient are 0 without ``ref``.

    Tokens lie on the last axis, so ``new`` may carry leading batch axes.
    Factoring A out of the token mean keeps the r == 1 identity exact in
    floating point: the mean of all-ones is exactly 1.0.
    """
    import numpy as np

    n_tokens = new.shape[-1]
    ratios = np.exp(new - old)
    clipped = np.clip(ratios, 1.0 - epsilon, 1.0 + epsilon)
    if advantage > 0:
        scores = np.minimum(ratios, clipped)
        active = ratios > 1.0 + epsilon
    elif advantage < 0:
        scores = np.maximum(ratios, clipped)
        active = ratios < 1.0 - epsilon
    else:
        scores = ratios
        active = np.zeros_like(ratios, dtype=bool)
    surrogate = advantage * np.mean(scores, axis=-1)
    # gradient flows only through the unclipped branch
    surrogate_grad = np.where(active, 0.0, advantage * ratios / n_tokens)
    if ref is None:
        return surrogate, 0.0, surrogate_grad, 0.0, active
    d = ref - new
    kl = np.mean(np.exp(d) - d - 1.0, axis=-1)
    return surrogate, kl, surrogate_grad, (1.0 - np.exp(d)) / n_tokens, active


def clipped_objective(
    group: RolloutGroup,
    advantages: AdvantageSet,
    epsilon: float = 0.2,
    beta: float = 0.0,
) -> ObjectiveBreakdown:
    """The group objective: mean over rollouts of the token-mean clipped
    surrogate, minus beta times the k3 KL penalty when beta > 0.

    Each rollout's advantage is broadcast to all of its tokens.
    """
    import numpy as np

    if len(advantages.per_rollout) != len(group.rollouts):
        raise LengthMismatch("one advantage per rollout required")
    check_coefficients(epsilon, beta)
    if beta > 0 and any(r.token_logprobs_ref is None for r in group.rollouts):
        raise MissingRefLogprobs("beta > 0 requires ref logprobs on every rollout")

    rollout_terms = np.empty(len(group.rollouts))
    kl_terms = np.zeros(len(group.rollouts))
    clipped_tokens = 0
    total_tokens = 0
    for idx, (rollout, advantage) in enumerate(zip(group.rollouts, advantages.per_rollout)):
        new = np.asarray(rollout.token_logprobs_new.logprobs)
        ref = np.asarray(rollout.token_logprobs_ref.logprobs) if beta > 0 else None
        surrogate, kl, _, _, active = _rollout_terms(
            new, np.asarray(rollout.token_logprobs_old.logprobs), ref, advantage, epsilon
        )
        rollout_terms[idx] = surrogate
        kl_terms[idx] = kl
        clipped_tokens += int(np.count_nonzero(active))
        total_tokens += len(new)
    surrogate = float(np.mean(rollout_terms))
    kl_term = float(np.mean(kl_terms)) if beta > 0 else 0.0
    return ObjectiveBreakdown(
        surrogate=surrogate,
        kl_term=kl_term,
        total=surrogate - beta * kl_term,
        clip_fraction=clipped_tokens / total_tokens,
    )


# --- toy differentiable policy for gradient checking -----------------------


@dataclass
class ToyRollout:
    """A rollout whose new-policy logprobs come from explicit logits, so the
    objective is differentiable with respect to them."""

    logits: np.ndarray  # (T, V) float64
    token_ids: np.ndarray  # (T,) ints in [0, V)
    old_logprobs: np.ndarray  # (T,)
    ref_logprobs: np.ndarray | None = None


@dataclass
class ToyGroupInstance:
    rollouts: list[ToyRollout]
    rewards: list[float]
    eps_std: float = EPS_STD_DEFAULT


def _logprobs_from_logits(logits: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, read at ``token_ids`` (one id per row)."""
    import numpy as np

    top = logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(logits - top).sum(axis=-1)) + top[..., 0]
    return np.take_along_axis(logits, token_ids[..., None], axis=-1)[..., 0] - logz


def random_toy_instance(
    seed: int,
    group_size: int = 4,
    max_tokens: int = 8,
    vocab: int = 11,
    with_ref: bool = False,
) -> ToyGroupInstance:
    """A random small instance; old/ref policies are noisy copies of the new
    logits so importance ratios straddle the clip boundaries."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rollouts = []
    for _ in range(group_size):
        n_tokens = int(rng.integers(1, max_tokens + 1))
        logits = rng.normal(0.0, 1.0, size=(n_tokens, vocab))
        ids = rng.integers(0, vocab, size=n_tokens)
        old = _logprobs_from_logits(logits + rng.normal(0.0, 0.3, logits.shape), ids)
        ref = None
        if with_ref:
            ref = _logprobs_from_logits(logits + rng.normal(0.0, 0.3, logits.shape), ids)
        rollouts.append(ToyRollout(logits, ids, old, ref))
    rewards = [float(r) for r in rng.normal(0.0, 1.0, size=group_size)]
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
    difference re-scores that one term, a token row at a time: the 2V copies
    of row t bumped by +-h on each logit are scored as one batch. Token
    positions whose log-ratio lies within 10*h of a clip kink are excluded:
    the objective is not differentiable there. The relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-4).
    """
    import numpy as np

    check_coefficients(epsilon, beta)
    if beta > 0 and any(r.ref_logprobs is None for r in instance.rollouts):
        raise MissingRefLogprobs("beta > 0 requires ref logprobs on every rollout")
    advantages = group_advantages(instance.rewards, instance.eps_std).per_rollout
    group_size = len(instance.rollouts)

    checked = 0
    skipped = 0
    max_rel = 0.0
    for rollout, advantage in zip(instance.rollouts, advantages):
        n_tokens, vocab = rollout.logits.shape
        ref = rollout.ref_logprobs if beta > 0 else None

        def term(new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """This rollout's share of the group objective and its gradient."""
            surrogate, kl, surrogate_grad, kl_grad, _ = _rollout_terms(
                new, rollout.old_logprobs, ref, advantage, epsilon
            )
            return (
                (surrogate - beta * kl) / group_size,
                (surrogate_grad - beta * kl_grad) / group_size,
            )

        new = _logprobs_from_logits(rollout.logits, rollout.token_ids)
        _, coeff = term(new)
        probs = np.exp(rollout.logits - rollout.logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        # d new[t] / d logits[t, v] = [v == token t] - probs[t, v]
        analytic = coeff[:, None] * (np.eye(vocab)[rollout.token_ids] - probs)

        log_ratio = new - rollout.old_logprobs
        near_kink = np.abs(log_ratio - np.log(1.0 + epsilon)) < 10.0 * h
        if epsilon < 1.0:
            near_kink |= np.abs(log_ratio - np.log(1.0 - epsilon)) < 10.0 * h

        bump = np.stack([h * np.eye(vocab), -h * np.eye(vocab)])  # (2, V, V)
        for t in range(n_tokens):
            if near_kink[t]:
                skipped += vocab
                continue
            bumped_new = np.broadcast_to(new, (2, vocab, n_tokens)).copy()
            bumped_new[..., t] = _logprobs_from_logits(
                rollout.logits[t] + bump, np.full((2, vocab), rollout.token_ids[t])
            )
            (up, down), _ = term(bumped_new)
            numeric = (up - down) / (2.0 * h)
            abs_err = np.abs(analytic[t] - numeric)
            rel_err = abs_err / np.maximum(np.maximum(np.abs(analytic[t]), np.abs(numeric)), 1e-4)
            max_rel = max(max_rel, float(rel_err.max()))
            checked += vocab
    return GradientCheckReport(
        checked_positions=checked,
        skipped_near_kink=skipped,
        max_rel_error=max_rel,
        passed=max_rel < rel_tol,
    )

