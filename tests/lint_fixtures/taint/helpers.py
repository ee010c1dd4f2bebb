"""Helpers whose clock/randomness use should taint their callers."""

import random
import time


def wall_clock_now() -> float:
    # A direct FDL010 finding here; the chain findings are at *callers*.
    return time.time()


def stamp() -> float:
    # One hop of indirection: still tainted, transitively.
    return wall_clock_now()


def pick(options):
    # Ambient stdlib randomness: seed-taints every caller.
    return random.choice(options)


def pure_delay(base: float, jitter: float) -> float:
    # No primitives anywhere below: never taints.
    return base + jitter
