"""Process-parallel fan-out with deterministic merge.

Every sweep in this repo — crash points, nemesis seeds, shard groups,
benchmark cells — is a bag of *independent* jobs: each one builds its
own simulated stack from picklable parameters, runs it, and returns a
picklable result.  :func:`fan_out` runs such a bag over a
``multiprocessing.Pool`` and returns the results **in job order**, so a
parallel sweep merges exactly like the serial one: the caller folds the
ordered result list and gets byte-identical reports for 1 or N workers
(the invariance the worker-count tests pin).

Rules the call sites follow:

* the job function must be **module-level** (picklable) and must not
  touch global mutable state — all inputs travel in the job tuple;
* results are merged by walking the ordered list, never by completion
  order (``Pool.map``, not ``imap_unordered``);
* ``workers <= 1`` short-circuits to a plain in-process loop — the
  same code path the merge logic is tested against.

Per-worker counter snapshots fold with their class's ``merge``
(:class:`repro.counters.Counters`), in result order, so a fanned sweep
reports the same totals as its serial twin.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def cpu_count() -> int:
    """Usable CPUs (what ``workers="auto"`` resolves to)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count knob: ``None``/``"auto"``/negative →
    one process per usable CPU; 0/1 → serial."""
    if workers is None or workers < 0:
        return cpu_count()
    return workers


def fan_out(
    fn: Callable[[T], R],
    jobs: Sequence[T],
    workers: int = 0,
) -> List[R]:
    """Run ``fn`` over ``jobs``, optionally on a process pool.

    Results come back in job order regardless of completion order, so
    the caller's merge is deterministic.  ``workers <= 1`` (or a single
    job) runs serially in-process — bit-identical results, no pool.
    """
    jobs = list(jobs)
    workers = resolve_workers(workers)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    gc.collect()  # or each forked worker's collector copies inherited garbage
    with multiprocessing.Pool(min(workers, len(jobs))) as pool:
        return pool.map(fn, jobs)
