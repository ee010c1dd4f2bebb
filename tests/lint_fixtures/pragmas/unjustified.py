"""Fixture: a pragma with no written reason suppresses nothing."""


def same_instant(arrival_time, deadline):
    return arrival_time == deadline  # fdlint: disable=float-time-equality
