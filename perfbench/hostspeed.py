"""Host-speed probe, so that op times from different runs compare.

On the shared 2-core host the benchmark was built on, the speed of
pure-Python code drifted by a factor of up to 1.6 over minutes: identical
work read 6.8 s in one set of runs and 4.7 s half an hour later, and 1 s
medians of a fixed loop ranged over 0.67x to 1.36x.  No statistic inside
one run removes drift that slow, so each op is also timed against a probe:
a fixed elimination over ``Fraction`` on a constant matrix, the same kind of
interpreter and big-integer work as dimgroup's exact kernels.  An op's
scaled time is its wall time times REFERENCE_NS over the mean of the probes
just before and just after it; the probe lives here, outside the package,
so no change to dimgroup moves it.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

_SIZE = 6
_rng = random.Random("perfbench host-speed probe")
_MATRIX = tuple(tuple(_rng.randrange(1, 2 ** 61) for _ in range(_SIZE))
                for _ in range(_SIZE))

# A probe between op batches runs PROBE_ROUNDS eliminations; while ops run,
# a timer signal runs one every SAMPLE_INTERVAL_S (about 0.2 % of the time),
# so a long op is scaled by the speed during it, not only at its ends.
PROBE_ROUNDS = 20
SAMPLE_INTERVAL_S = 0.25

# Time of one elimination that defines the reference speed: scaled seconds
# are seconds on a host where one round takes this long (about a median
# host here).
REFERENCE_NS = 600_000


def probe_ns(rounds: int = PROBE_ROUNDS) -> float:
    """Mean wall time of one fixed rational elimination, in ns."""
    start = time.perf_counter_ns()
    for _ in range(rounds):
        m = [[Fraction(x) for x in row] for row in _MATRIX]
        for c in range(_SIZE):
            inv = 1 / m[c][c]
            for r in range(c + 1, _SIZE):
                f = m[r][c] * inv
                for j in range(c, _SIZE):
                    m[r][j] -= f * m[c][j]
    return (time.perf_counter_ns() - start) / rounds


class HostSpeed:
    """Scales op times by the host speed probed around and during them.

    Use as a context manager, which runs the sampling timer.  Batches of
    ops must be timed one after another: the probe taken after one batch is
    the probe before the next."""

    def __enter__(self) -> "HostSpeed":
        self._samples = [probe_ns()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self._samples.append(probe_ns(1))

    def scale(self, wall_ns: list[int]) -> list[float]:
        """Call right after a batch of ops that took ``wall_ns`` each; their
        scaled times in ns."""
        after = probe_ns()
        window = self._samples + [after]
        self._samples = [after]
        factor = REFERENCE_NS * len(window) / sum(window)
        return [t * factor for t in wall_ns]
