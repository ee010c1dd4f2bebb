"""Fixture: a violation silenced by a *justified* pragma."""


def interval_unchanged(timeout, previous_timeout):
    # fdlint: disable=float-time-equality (fixture: change detection against the exact value assigned, not an ordering test)
    return timeout == previous_timeout
