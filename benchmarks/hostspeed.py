"""Host speed probe, for timings that do not move with the load of a shared box.

The box the benchmark runs on is shared with other tenants, and its speed
drifts: the same pure-Python loop took 0.12 s and 0.35-0.45 s twenty minutes
apart, with nothing else running in the container. A fixed pure-Python
computation (the probe) is timed right before and after each request and,
through a SIGALRM interval timer, every SAMPLE_INTERVAL_S while it runs. A
timing t is then also reported rescaled to the reference speed:

    t_ref = (t - probe time spent inside t) * REF_PROBE_S / mean(probe times)

The mean, not the median, of the probe times estimates the share of the
host the work got: a probe preempted by another tenant takes much longer,
and it is preempted about as often as the work around it. No thread or
process is started; the probe runs in the main thread between bytecodes of
the request, like any signal handler.
"""

from __future__ import annotations

import signal
import statistics
import time
import tracemalloc

REF_PROBE_S = 5e-4  # probe duration that defines the reference speed
SAMPLE_INTERVAL_S = 0.025
_PROBE_ROUNDS = 4_000


def probe() -> float:
    """Duration of a fixed interpreter-bound computation, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    items = []
    for i in range(_PROBE_ROUNDS):
        acc += (i % 7) * 0.5
        items.append(acc)
    items.sort()
    return time.perf_counter() - t0


class Sampler:
    """Probe durations collected while a block runs, plus one before and after."""

    def __init__(self) -> None:
        self.inside: list[float] = []
        self.around: list[float] = []

    def _sample(self, signum, frame) -> None:
        # tracemalloc slows the probe several times over; its cost belongs
        # to the traced work, so no sample is taken while it runs
        if not tracemalloc.is_tracing():
            self.inside.append(probe())

    def __enter__(self) -> "Sampler":
        self.around.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.around.append(probe())

    def rescale(self, elapsed: float) -> float:
        """``elapsed`` (measured inside the block) at the reference speed."""
        speed = REF_PROBE_S / statistics.mean(self.inside + self.around)
        return (elapsed - sum(self.inside)) * speed
