"""Group-standardized advantages, the clipped surrogate, and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cruxkit import grpo
from cruxkit.grpo import (
    AdvantageSet,
    GroupTooSmall,
    LengthMismatch,
    MissingRefLogprobs,
    Rollout,
    RolloutGroup,
    clipped_objective,
    group_advantages,
    objective_gradient_check,
    random_toy_instance,
)
from cruxkit.rewards import TokenLogProbSeq


def seq(*logprobs):
    return TokenLogProbSeq(tuple(range(len(logprobs))), tuple(logprobs))


def one_token_rollout(log_ratio: float, ref_delta: float | None = None):
    old = -1.0
    new = old + log_ratio
    ref = None if ref_delta is None else seq(new + ref_delta)
    return Rollout("c", "v", seq(new), seq(old), ref)


def group_of(*rollouts):
    return RolloutGroup("t", tuple(rollouts))


class TestAdvantages:
    def test_closed_form(self):
        adv = group_advantages([1.0, 2.0, 3.0])
        expected = 1.224744871391589  # sqrt(3/2): deviation 1 over population std
        assert adv.per_rollout == pytest.approx((-expected, 0.0, expected), abs=1e-15)
        assert not adv.degenerate

    def test_mean_zero_unit_std(self):
        adv = group_advantages([0.5, 1.25, 7.0, 3.5])
        values = np.array(adv.per_rollout)
        assert abs(values.mean()) < 1e-12
        assert abs(values.std() - 1.0) < 1e-12

    def test_degenerate_group_zeroes(self):
        adv = group_advantages([2.0, 2.0, 2.0])
        assert adv.per_rollout == (0.0, 0.0, 0.0)
        assert adv.degenerate

    def test_near_degenerate_eps(self):
        adv = group_advantages([1.0, 1.0 + 1e-12])
        assert adv.degenerate

    def test_group_too_small(self):
        with pytest.raises(GroupTooSmall):
            group_advantages([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            group_advantages([1.0, float("nan")])

    def test_exact_shift_invariance(self):
        # integer shifts keep every fp intermediate exact, so bitwise equality holds
        base = [1.0, 2.0, 5.0, 8.0]
        shifted = [x + 7.0 for x in base]
        assert group_advantages(base).per_rollout == group_advantages(shifted).per_rollout

    def test_exact_scale_invariance_pow2(self):
        base = [1.0, 2.0, 5.0, 8.0]
        scaled = [x * 4.0 for x in base]
        assert group_advantages(base).per_rollout == group_advantages(scaled).per_rollout

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2, max_size=10,
        )
    )
    def test_standardization_property(self, rewards):
        adv = group_advantages(rewards)
        values = np.array(adv.per_rollout)
        if adv.degenerate:
            assert np.all(values == 0.0)
        else:
            assert abs(values.mean()) < 1e-9
            assert abs(values.std() - 1.0) < 1e-9


class TestClippedObjective:
    def test_positive_advantage_clips_high_ratio(self):
        # ratio e^{ln 2} = 2 with A=+1 and eps=0.2 clips to 1.2
        rollout = one_token_rollout(math.log(2.0))
        out = clipped_objective(group_of(rollout), AdvantageSet((1.0,), False), 0.2)
        assert out["surrogate"] == pytest.approx(1.2, abs=1e-12)
        assert out["clip_fraction"] == 1.0

    def test_negative_advantage_keeps_high_ratio(self):
        # pessimism is asymmetric: A=-1 at ratio 2 stays -2, unclipped
        rollout = one_token_rollout(math.log(2.0))
        out = clipped_objective(group_of(rollout), AdvantageSet((-1.0,), False), 0.2)
        assert out["surrogate"] == pytest.approx(-2.0, abs=1e-12)
        assert out["clip_fraction"] == 0.0

    def test_negative_advantage_clips_low_ratio(self):
        rollout = one_token_rollout(math.log(0.5))
        out = clipped_objective(group_of(rollout), AdvantageSet((-1.0,), False), 0.2)
        assert out["surrogate"] == pytest.approx(-0.8, abs=1e-12)
        assert out["clip_fraction"] == 1.0

    def test_zero_advantage_contributes_zero(self):
        rollout = one_token_rollout(math.log(2.0))
        out = clipped_objective(group_of(rollout), AdvantageSet((0.0,), True), 0.2)
        assert out["surrogate"] == 0.0
        assert out["clip_fraction"] == 0.0

    def test_identity_at_theta_old(self):
        # when new == old every ratio is exactly 1, the mean over tokens is
        # exactly 1, and the surrogate equals the advantage mean bitwise
        rollouts = tuple(
            Rollout("c", "v", seq(*lps), seq(*lps))
            for lps in ((-0.3, -0.7), (-1.1,), (-0.2, -0.4, -0.9))
        )
        adv = group_advantages([1.0, 4.0, 5.0])
        out = clipped_objective(RolloutGroup("t", rollouts), adv, 0.2)
        assert out["surrogate"] == float(np.mean(adv.per_rollout))
        assert out["clip_fraction"] == 0.0

    def test_token_mean_within_rollout(self):
        # two tokens at ratios 1 and 2 with A=+1, eps large: mean(1, 2) = 1.5
        new = seq(-1.0, -1.0 + math.log(2.0))
        old = seq(-1.0, -1.0)
        rollout = Rollout("c", "v", new, old)
        out = clipped_objective(group_of(rollout), AdvantageSet((1.0,), False), 5.0)
        assert out["surrogate"] == pytest.approx(1.5, abs=1e-12)

    def test_ratio_past_the_float_range_is_inf(self):
        # e**800 is past the largest float: the ratio and the KL term are inf,
        # as IEEE exp gives, and not an OverflowError
        rollout = Rollout("c", "v", seq(-800.0), seq(-1600.0), seq(0.0))
        high = clipped_objective(group_of(rollout), AdvantageSet((1.0,), False), 0.2, beta=0.1)
        assert (high["surrogate"], high["clip_fraction"]) == (1.2, 1.0)
        assert high["kl_term"] == math.inf
        low = clipped_objective(group_of(rollout), AdvantageSet((-1.0,), False), 0.2)
        assert (low["surrogate"], low["clip_fraction"]) == (-math.inf, 0.0)

    @pytest.mark.parametrize("group_size, n_tokens, beta", [
        (2, 1, 0.0), (2, 3, 0.04), (8, 1000, 0.04), (64, 2, 0.04), (3, 5, 1e300),
    ])
    def test_objective_at_the_log_ratio_bound_is_finite(self, group_size, n_tokens, beta):
        """Every new - old log-ratio at ``log_ratio_bound``, ref - new at
        either end of it, and the most negative advantage a group can hold,
        -sqrt(G - 1): the check passes and every value of the row is finite.
        Just past the bound, the check rejects the rollout."""
        bound = grpo.log_ratio_bound(group_size, n_tokens, beta)

        def rollout(new, old, ref):
            tokens = tuple(range(n_tokens))
            return Rollout("c", "v", *(TokenLogProbSeq(tokens, (lp,) * n_tokens)
                                       for lp in (new, old, ref)))

        rollouts = [rollout(-bound, -2.0 * bound, 0.0)] + [
            rollout(-bound, -2.0 * bound, -2.0 * bound)] * (group_size - 1)
        for r in rollouts:
            grpo.check_log_ratios(r, group_size, beta)
        low = math.sqrt(group_size - 1)
        advantages = AdvantageSet((-low,) + (1.0 / low,) * (group_size - 1), False)
        out = clipped_objective(RolloutGroup("t", tuple(rollouts)), advantages, 0.2, beta)
        assert all(math.isfinite(value) for value in out.values()), out
        past = bound + 1e-6
        # ref - new is checked only under beta > 0; a beta of 1 leaves the bound as it is
        for new, old, ref in ((0.0, -past, 0.0), (-past, -past, 0.0), (0.0, 0.0, -past)):
            with pytest.raises(ValueError, match="can overflow"):
                grpo.check_log_ratios(rollout(new, old, ref), group_size, beta or 1.0)

    def test_rollout_mean_across_group(self):
        r1 = one_token_rollout(0.0)
        r2 = one_token_rollout(0.0)
        out = clipped_objective(group_of(r1, r2), AdvantageSet((2.0, -1.0), False), 0.2)
        assert out["surrogate"] == pytest.approx((2.0 - 1.0) / 2.0, abs=1e-15)

    def test_clip_fraction_counts_tokens(self):
        new = seq(-1.0 + math.log(2.0), -1.0)
        old = seq(-1.0, -1.0)
        rollout = Rollout("c", "v", new, old)
        out = clipped_objective(group_of(rollout), AdvantageSet((1.0,), False), 0.2)
        assert out["clip_fraction"] == 0.5

    def test_kl_zero_when_ref_equals_new(self):
        rollout = one_token_rollout(0.3, ref_delta=0.0)
        out = clipped_objective(group_of(rollout), AdvantageSet((1.0,), False), 0.2, beta=0.5)
        assert out["kl_term"] == 0.0
        assert out["total"] == out["surrogate"]

    def test_kl_closed_form(self):
        d = 0.4  # ref logprob minus new logprob
        rollout = one_token_rollout(0.0, ref_delta=d)
        out = clipped_objective(group_of(rollout), AdvantageSet((0.0,), True), 0.2, beta=0.5)
        want_kl = math.exp(d) - d - 1.0
        assert out["kl_term"] == pytest.approx(want_kl, abs=1e-12)
        assert out["total"] == pytest.approx(out["surrogate"] - 0.5 * want_kl, abs=1e-12)

    def test_kl_nonnegative(self):
        for d in (-1.0, -0.25, 0.0, 0.25, 1.0):
            rollout = one_token_rollout(0.0, ref_delta=d)
            out = clipped_objective(
                group_of(rollout), AdvantageSet((0.0,), True), 0.2, beta=1.0
            )
            assert out["kl_term"] >= 0.0

    def test_beta_requires_ref(self):
        rollout = one_token_rollout(0.1)
        with pytest.raises(MissingRefLogprobs):
            clipped_objective(group_of(rollout), AdvantageSet((1.0,), False), 0.2, beta=0.1)

    def test_advantage_count_checked(self):
        rollout = one_token_rollout(0.1)
        with pytest.raises(LengthMismatch):
            clipped_objective(group_of(rollout), AdvantageSet((1.0, 2.0), False), 0.2)

    def test_epsilon_validated(self):
        rollout = one_token_rollout(0.1, ref_delta=0.0)
        instance = random_toy_instance(0, with_ref=True)
        for epsilon, beta in ((0.0, 0.0), (-0.5, 0.0), (0.2, -1.0)):
            with pytest.raises(ValueError):
                clipped_objective(group_of(rollout), AdvantageSet((1.0,), False), epsilon, beta)
            # the gradient checker applies the same check
            with pytest.raises(ValueError):
                objective_gradient_check(instance, epsilon, beta)


class TestGroupModel:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            RolloutGroup("t", ())

    def test_rollout_needs_tokens(self):
        with pytest.raises(ValueError):
            Rollout("c", "v", TokenLogProbSeq((), ()), TokenLogProbSeq((), ()))

    def test_old_must_cover_same_tokens(self):
        # a shorter sequence, and one as long with a different token
        for old_tokens in ((1,), (1, 3)):
            with pytest.raises(LengthMismatch):
                Rollout(
                    "c", "v",
                    TokenLogProbSeq((1, 2), (-0.5, -0.5)),
                    TokenLogProbSeq(old_tokens, (-0.5,) * len(old_tokens)),
                )


class TestGradientCheck:
    def test_toy_instance_shapes(self):
        inst = random_toy_instance(0, group_size=3, max_tokens=5, vocab=7)
        assert len(inst.rollouts) == 3
        assert len(inst.rewards) == 3
        for r in inst.rollouts:
            assert 1 <= len(r.logits) <= 5
            assert all(len(row) == 7 for row in r.logits)
            assert len(r.token_ids) == len(r.old_logprobs) == len(r.logits)

    def test_deterministic(self):
        a = random_toy_instance(42)
        b = random_toy_instance(42)
        assert all(
            np.array_equal(x.logits, y.logits)
            for x, y in zip(a.rollouts, b.rollouts)
        )

    @settings(max_examples=200, derandomize=True)
    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=16))
    def test_log_softmax_matches_numpy(self, logits):
        """The toy policy's log-softmax is numpy's max-shifted one to 1e-12."""
        x = np.array(logits)
        top = x.max()
        expected = x - (np.log(np.exp(x - top).sum()) + top)
        assert np.allclose(grpo._log_softmax(logits), expected, rtol=0.0, atol=1e-12)

    def test_passes_without_kl(self):
        report = objective_gradient_check(random_toy_instance(0))
        assert report.passed
        assert report.checked_positions > 0
        assert report.max_rel_error < 1e-3

    def test_passes_with_kl(self):
        inst = random_toy_instance(1, with_ref=True)
        report = objective_gradient_check(inst, beta=0.04)
        assert report.passed

    def test_fails_on_a_wrong_gradient(self, monkeypatch):
        # the checker must see a 1% error in the analytic gradient
        rollout_terms = grpo._rollout_terms

        def scaled(*args):
            surrogate, kl, surrogate_grad, kl_grad, active = rollout_terms(*args)
            return (surrogate, kl, [1.01 * g for g in surrogate_grad],
                    [1.01 * g for g in kl_grad], active)

        monkeypatch.setattr(grpo, "_rollout_terms", scaled)
        for beta in (0.0, 0.04):
            inst = random_toy_instance(0, with_ref=beta > 0)
            report = objective_gradient_check(inst, beta=beta)
            assert not report.passed
            assert report.max_rel_error > 5e-3

    @settings(max_examples=15)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.0, 0.04]),
        st.integers(min_value=2, max_value=5),
    )
    def test_gradient_check_any_seed(self, seed, beta, group_size):
        inst = random_toy_instance(seed, group_size=group_size, with_ref=beta > 0)
        report = objective_gradient_check(inst, beta=beta)
        assert report.passed
