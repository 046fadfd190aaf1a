"""RetryPolicy in isolation: jitter determinism, caps, deadline clamps.

The policy backs every durable write (base writes, journal
commits).  These tests pin its contract directly:
attempt ``k`` sleeps ``min(base_delay * 2**k, max_delay)`` scaled by a
jitter factor drawn from a generator seeded with ``seed``.
"""

import math

import pytest

from repro.persist.journal import JournalUnavailable, commit_with_retry
from repro.persist.journal import RetryPolicy
from repro.robustness import Budget, BudgetExceededError, Governor


def test_seeded_jitter_is_deterministic():
    policy = RetryPolicy(attempts=6, base_delay=0.01, max_delay=1.0, jitter=0.5, seed=7)
    assert list(policy.delays()) == list(policy.delays())
    # A different seed draws a different jitter sequence.
    other = RetryPolicy(attempts=6, base_delay=0.01, max_delay=1.0, jitter=0.5, seed=8)
    assert list(policy.delays()) != list(other.delays())


def test_delay_count_is_attempts_minus_one():
    assert len(list(RetryPolicy(attempts=4).delays())) == 3
    assert list(RetryPolicy(attempts=1).delays()) == []
    assert list(RetryPolicy(attempts=0).delays()) == []


def test_delays_grow_exponentially_within_jitter_bounds():
    policy = RetryPolicy(attempts=5, base_delay=0.02, max_delay=10.0, jitter=0.25)
    for attempt, delay in enumerate(policy.delays()):
        base = 0.02 * (2**attempt)
        assert base * 0.75 <= delay <= base * 1.25


def test_max_delay_caps_the_exponential():
    policy = RetryPolicy(
        attempts=10, base_delay=0.02, max_delay=0.1, jitter=0.0, seed=0
    )
    delays = list(policy.delays())
    # 0.02, 0.04, 0.08 then pinned at the cap for every later attempt.
    assert delays[:3] == pytest.approx([0.02, 0.04, 0.08])
    assert all(d == pytest.approx(0.1) for d in delays[3:])
    assert max(delays) <= 0.1 + 1e-12


def test_zero_jitter_is_exactly_the_base_schedule():
    policy = RetryPolicy(attempts=4, base_delay=0.01, max_delay=1.0, jitter=0.0)
    assert list(policy.delays()) == pytest.approx([0.01, 0.02, 0.04])


def test_jitter_never_produces_negative_or_nan_delays():
    policy = RetryPolicy(attempts=8, base_delay=0.005, max_delay=0.5, jitter=1.0, seed=3)
    for delay in policy.delays():
        assert delay >= 0.0
        assert math.isfinite(delay)


class _NeverSyncs:
    """A journal stub whose fsync always fails transiently."""

    class _Tracer:
        enabled = False

    tracer = _Tracer()

    def __init__(self):
        self.attempts = 0

    def commit(self, record):
        self.attempts += 1
        raise OSError("injected")


def test_retry_loop_sleeps_the_policy_schedule(monkeypatch):
    policy = RetryPolicy(attempts=4, base_delay=0.02, max_delay=1.0, jitter=0.0)
    journal = _NeverSyncs()
    slept = []
    with pytest.raises(JournalUnavailable):
        commit_with_retry(journal, None, policy=policy, sleep=slept.append)
    assert journal.attempts == 4
    assert slept == pytest.approx([0.02, 0.04, 0.08])


def test_deadline_clamps_every_backoff_sleep():
    """A governor with little remaining time must clamp each sleep to
    the remaining budget instead of honoring the full schedule."""
    policy = RetryPolicy(attempts=4, base_delay=10.0, max_delay=10.0, jitter=0.0)
    governor = Governor(Budget(timeout=60.0))
    remaining = governor.remaining()
    assert remaining is not None and remaining <= 60.0
    journal = _NeverSyncs()
    slept = []
    with pytest.raises(JournalUnavailable):
        commit_with_retry(
            journal, None, policy=policy, governor=governor, sleep=slept.append
        )
    assert slept and all(s <= remaining for s in slept)


def test_expired_deadline_aborts_before_attempting():
    policy = RetryPolicy(attempts=4, base_delay=0.01, jitter=0.0)
    governor = Governor(Budget(timeout=0.0))
    journal = _NeverSyncs()
    with pytest.raises(BudgetExceededError):
        commit_with_retry(journal, None, policy=policy, governor=governor)
    assert journal.attempts == 0
