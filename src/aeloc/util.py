"""Small shared helpers."""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from pathlib import Path

KM_S_TO_MM_S = 1e6


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def fmt(x: float) -> str:
    """Shortest decimal representation that round-trips the float exactly."""
    return repr(float(x))


def parse_number(text: str, where: str, kind=float):
    """``kind(text)``; a malformed number raises ``ValueError`` prefixed with ``where``."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def worker_count() -> int:
    """The CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def process_map(fn, items) -> list:
    """``[fn(x) for x in items]``, computed on forked worker processes, one per CPU.

    Results keep the input order, and the first failing item in that order
    raises its own exception.  At most two jobs per worker are in flight, so
    ``items`` may be a generator that is consumed as results complete.  ``fn``
    and each item are pickled, so ``fn`` must be a module-level function.
    Runs the plain loop with one CPU, without ``fork``, or when other threads
    are alive, since a forked child gets a copy of locks they may hold.
    """
    workers = worker_count()
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return [fn(x) for x in items]
    items = iter(items)
    results = []
    # fork, not spawn: a worker starts in milliseconds with numpy and scipy already imported
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        pending = deque(pool.submit(fn, x) for x in islice(items, 2 * workers))
        while pending:
            results.append(pending.popleft().result())
            pending.extend(pool.submit(fn, x) for x in islice(items, 1))
    return results
