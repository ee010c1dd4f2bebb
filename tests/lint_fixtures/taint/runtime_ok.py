"""A live-runtime module the fixture config whitelists for taint."""

import time


def runtime_now() -> float:
    # fdlint: disable=clock-seed-taint (fixture: stands in for a whitelisted live-runtime clock bridge)
    return time.time()
