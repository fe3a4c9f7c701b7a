"""An open-loop load generator over a bounded set of keep-alive clients.

Requests are sent on a schedule, whatever the server's speed: a stalled
server makes requests queue for a connection, and each request's
latency is timed from when it was *due*, so that wait is counted.
:func:`repro.serving.loadgen.run_load` is a closed loop and starts its
clock only after acquiring its concurrency gate, which leaves the
queueing wait out; hence this generator.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Tuple

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Tuple[Optional[float], int]:
    """Nearest-rank ``q`` quantile and the sample count.

    A tail quantile (``q > 0.5``) is None unless at least
    :data:`MIN_BEYOND` samples lie strictly beyond its rank, so a p99
    needs 1000 samples.  The median needs only one sample.
    """
    n = len(values)
    if n == 0:
        return None, 0
    rank = max(0, math.ceil(q * n) - 1)
    if q > 0.5 and n - rank - 1 < MIN_BEYOND:
        return None, n
    return sorted(values)[rank], n


def poisson_offsets(rate: float, count: int, rng: random.Random) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process at ``rate``/s."""
    offsets, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def connection_limit(requested: int) -> int:
    """Clients never outnumber the host's processors."""
    return max(1, min(requested, os.cpu_count() or 1))


@dataclass
class Sample:
    """One request: when it was due, got a connection, and finished."""

    index: int
    due: float
    got: float
    done: float
    outcome: Any

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def wait(self) -> float:
        return self.got - self.due


@dataclass
class PhaseReport:
    rate: float
    samples: List[Sample]
    lags: List[float]

    def latencies(self) -> List[float]:
        return [s.latency for s in self.samples]

    def growing_backlog(self) -> bool:
        """True when the last fifth of the phase waited much longer
        than the first: the queue was still growing when it ended."""
        lat = self.latencies()
        fifth = len(lat) // 5
        if fifth < MIN_BEYOND:
            return False
        head = sorted(lat[:fifth])[fifth // 2]
        tail = sorted(lat[-fifth:])[fifth // 2]
        return tail > 2 * head and tail - head > 0.005


async def run_open_loop(
    schedule: Sequence[Tuple[float, Any]],
    clients: Sequence[Any],
    handle: Callable[[Any, Any], Awaitable[Any]],
    rate: float = 0.0,
) -> PhaseReport:
    """Send ``schedule`` (``(offset_s, item)`` pairs) open-loop.

    ``handle(client, item)`` performs one request and returns its
    outcome; it must not raise.  A due request waits for an idle
    client; at most ``len(clients)`` requests are in flight.
    """
    idle: asyncio.Queue = asyncio.Queue()
    for client in clients:
        idle.put_nowait(client)
    samples: List[Optional[Sample]] = [None] * len(schedule)
    lags: List[float] = []

    async def one(index: int, due: float, item: Any) -> None:
        client = await idle.get()
        got = time.perf_counter()
        try:
            outcome = await handle(client, item)
        finally:
            idle.put_nowait(client)
        samples[index] = Sample(index, due, got, time.perf_counter(), outcome)

    tasks = []
    start = time.perf_counter() + 0.002  # a little lead for the first send
    for index, (offset, item) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - due))
        tasks.append(asyncio.ensure_future(one(index, due, item)))
    await asyncio.gather(*tasks)
    return PhaseReport(rate, [s for s in samples if s is not None], lags)
