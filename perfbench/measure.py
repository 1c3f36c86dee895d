"""Statistics and correctness helpers shared by the workloads.

The percentile rule: a timing is reported as its median and its highest
percentile that still has at least :data:`MIN_BEYOND` samples beyond it,
with the sample count.  A failed or refused op is a sample that missed
every latency limit: it counts as ``+inf``.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

MIN_BEYOND = 10


class GateFailure(Exception):
    """A correctness, determinism or sampling gate did not hold."""


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n))


def percentile(samples: Sequence[float], q: float, failed: int = 0) -> Tuple[float, int]:
    """Nearest-rank ``q`` percentile over ``samples`` plus ``failed``
    infinite samples; returns ``(value, sample_count)``.

    Raises :class:`GateFailure` when fewer than :data:`MIN_BEYOND`
    samples lie beyond the percentile (the median is exempt: half the
    samples lie beyond it).
    """
    n = len(samples) + failed
    if n == 0:
        raise GateFailure(f"no samples for p{q * 100:g}")
    if q > 0.5 and samples_beyond(n, q) < MIN_BEYOND:
        raise GateFailure(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {samples_beyond(n, q)}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n))
    value = ordered[rank - 1] if rank <= len(ordered) else math.inf
    return value, n


def padded_equal(stored: bytes, value: bytes) -> bool:
    """A store returns records zero-padded to their capacity."""
    return (
        len(stored) >= len(value)
        and stored[: len(value)] == value
        and stored.count(0, len(value)) == len(stored) - len(value)
    )


def compare_oracle(
    stored: Mapping[int, bytes], oracle: Mapping[int, Optional[bytes]]
) -> List[str]:
    """Differences between a store's contents and the oracle of
    acknowledged writes (``None`` marks a deleted key); empty when equal."""
    problems: List[str] = []
    expected = {k: v for k, v in oracle.items() if v is not None}
    for key in sorted(expected.keys() - stored.keys()):
        problems.append(f"key {key}: acknowledged but missing")
    for key in sorted(stored.keys() - expected.keys()):
        problems.append(f"key {key}: present but never acknowledged")
    for key in sorted(expected.keys() & stored.keys()):
        if not padded_equal(stored[key], expected[key]):
            problems.append(f"key {key}: value differs from the last acknowledged write")
    return problems


def digest(parts: Iterable[object]) -> str:
    """Stable hex digest of a sequence of reprs (ints, floats, strings,
    tuples and dicts of those)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


#: reference-loop iterations per second of the host that host times are
#: scaled to (the two-CPU host the benchmark was built on reads 15-20 M
#: in its fast phases)
REFERENCE_RATE = 20e6

_TABLE = {i: i for i in range(256)}


def reference_rate(duration_s: float = 0.01) -> float:
    """Iterations per second of a fixed interpreter loop (dict lookups
    and integer adds; it allocates no container, so the program's heap
    and garbage collector do not change its speed)."""
    table = _TABLE
    n = 0
    start = time.perf_counter()
    while True:
        acc = 0
        for i in range(256):
            acc += table[i]
        n += 256
        now = time.perf_counter()
        if now - start >= duration_s:
            return n / (now - start)


class HostSpeed:
    """Scales host seconds to the speed of the reference host.

    The shared host's speed drifts by tens of percent from minute to
    minute with the load of other tenants, and a busy process stays on
    whichever CPU it started on, whose speed differs from the other's.
    Each timed segment is bracketed by a short run of
    :func:`reference_rate`; the segment's seconds are multiplied by the
    mean of the two rates over :data:`REFERENCE_RATE`.  Over six served
    runs this cut the spread of throughput from 0.27 to 0.05.
    """

    def __init__(self) -> None:
        self._last = reference_rate()

    def factor(self) -> float:
        """The scale for the segment that ended just now."""
        rate = reference_rate()
        factor = (self._last + rate) / 2 / REFERENCE_RATE
        self._last = rate
        return factor
