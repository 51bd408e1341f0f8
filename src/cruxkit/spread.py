"""How cruxkit spreads work: ``window`` over a pool's futures, in order, and
``map_slices`` over forked row slices (Linux-only, like the harness's
pidfd). Importing this module loads no pool, subprocess or pickle."""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator


def window(items: Iterable, submit: Callable[[object], dict], bound: int) -> Iterator[tuple]:
    """``(item, submit(item))`` for each item, in item order, once all the
    futures ``submit`` returned for it (the dict's values) are done. Items
    are read and submitted ahead while fewer than ``bound`` distinct futures
    are unfinished (one that two items share counts once). An error from
    reading or submitting an item is raised in its turn, after every item
    before it is yielded, and no item after it is read."""
    from concurrent.futures import FIRST_COMPLETED, wait

    items, ahead, running, error = iter(items), deque(), set(), None
    while True:
        running = {f for f in running if not f.done()}
        while items and len(running) < bound:
            try:
                item = next(items)
                futures = submit(item)
            except StopIteration:
                items = None
            except Exception as exc:  # noqa: BLE001 - raised in its item's turn
                items, error = None, exc
            else:
                ahead.append((item, futures))
                running.update(futures.values())
        if not ahead:
            if error is not None:
                raise error
            return
        if all(f.done() for f in ahead[0][1].values()):
            yield ahead.popleft()
        else:
            wait(running, return_when=FIRST_COMPLETED)


# the fewest rows build-dataset gives a slice: on a 2-vCPU host, building
# 128 rows as two slices already took less time than as one
MIN_SLICE_ROWS = 64


def _run_slice(fn, rows: list) -> tuple[list, Exception | None]:
    """``fn`` of each row up to the first that raises, and that error."""
    results = []
    try:
        for row in rows:
            results.append(fn(row))
    except Exception as exc:  # noqa: BLE001 - raised by the caller in its row's turn
        return results, exc
    return results, None


def map_slices(fn, rows: list) -> list:
    """``[fn(row) for row in rows]`` over contiguous slices, one per CPU
    this process may use but none shorter than ``MIN_SLICE_ROWS``. The first
    slice runs here and each other in a forked child, which pickles its
    results and its slice's first error into an unnamed temporary file and
    leaves through ``os._exit``. Every child is reaped before this returns or
    raises. Results keep row order and the error raised is the first in row
    order, so only a child that dies without its result (exit 1, as an
    internal error) tells this apart from the serial loop. A process running
    other threads builds every row itself: a child forked from it could wait
    forever on a lock one of them held."""
    count = min(len(os.sched_getaffinity(0)), len(rows) // MIN_SLICE_ROWS)
    if count < 2 or threading.active_count() > 1:
        return [fn(row) for row in rows]
    import pickle
    import tempfile
    from contextlib import ExitStack

    bounds = [len(rows) * i // count for i in range(count + 1)]
    children = []
    with ExitStack() as files:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                out = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        pickle.dump(_run_slice(fn, rows[lo:hi]), out, pickle.HIGHEST_PROTOCOL)
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append((pid, out))
            first = _run_slice(fn, rows[: bounds[1]])
        finally:
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        results, error = first
        for (_, out), status, lo, hi in zip(children, statuses, bounds[1:], bounds[2:]):
            if error is not None:
                break
            if status != 0:
                raise RuntimeError(f"the process building rows {lo + 1}-{hi} "
                                   f"exited with status {status} and no result")
            out.seek(0)
            part, error = pickle.load(out)
            results.extend(part)
    if error is not None:
        raise error
    return results
