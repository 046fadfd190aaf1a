"""The retry loop in isolation: its schedule and its deadline clamps.

Every durable write (base writes, journal commits) retries on the one
schedule ``RETRY_DELAYS``: one attempt more than it has delays, the
governor checked before each attempt, each sleep clamped to the
deadline.
"""

import pytest

from repro.persist.journal import JournalUnavailable, commit_with_retry
from repro.robustness import Budget, BudgetExceededError, Governor
from repro.robustness.budget import RETRY_DELAYS


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


def test_retry_loop_sleeps_the_policy_schedule():
    assert RETRY_DELAYS == pytest.approx((0.02, 0.04, 0.08))
    journal = _NeverSyncs()
    slept = []
    with pytest.raises(JournalUnavailable, match="after 4 attempts"):
        commit_with_retry(journal, None, sleep=slept.append)
    assert journal.attempts == 4
    assert slept == pytest.approx([0.02, 0.04, 0.08])


def test_deadline_clamps_every_backoff_sleep():
    """A governor with little remaining time must clamp each sleep to
    the remaining budget instead of honoring the full schedule."""
    clock = [0.0]
    governor = Governor(Budget(timeout=60.0), clock=lambda: clock[0])
    clock[0] = 60.0 - 0.005
    journal = _NeverSyncs()
    slept = []
    with pytest.raises(JournalUnavailable):
        commit_with_retry(journal, None, governor=governor, sleep=slept.append)
    assert len(slept) == 3 and all(s <= 0.005 + 1e-12 for s in slept)


def test_expired_deadline_aborts_before_attempting():
    governor = Governor(Budget(timeout=0.0))
    journal = _NeverSyncs()
    with pytest.raises(BudgetExceededError):
        commit_with_retry(journal, None, governor=governor)
    assert journal.attempts == 0
