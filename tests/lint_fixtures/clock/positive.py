"""Positive fixture: every statement below violates clock-seed-taint."""

import asyncio
import time
from datetime import datetime
from time import perf_counter as pc


def naive_timestamp():
    return time.time()


def naive_pause():
    time.sleep(0.5)


def naive_monotonic():
    return time.monotonic()


def naive_datetime():
    return datetime.now()


def aliased_perf_counter():
    return pc()


async def naive_async_pause():
    await asyncio.sleep(1.0)
