"""spread.window on a real thread pool: item order, the bound on unfinished
futures, and errors raised in their item's turn."""

import concurrent.futures
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from cruxkit.spread import window


class Items:
    """Items 0..count-1, each read recorded; reading ``bad`` raises, and a
    read after it would go on to the next item."""

    def __init__(self, count, bad=None):
        self.count, self.bad, self.reads = count, bad, []

    def __iter__(self):
        return self

    def __next__(self):
        i = len(self.reads)
        if i == self.count:
            raise StopIteration
        self.reads.append(i)
        if i == self.bad:
            raise ValueError(f"item {i} is unreadable")
        return i


def test_items_come_back_in_item_order_when_later_ones_finish_first():
    finished, last_done = [], threading.Event()

    def job(i):
        if i == 0:
            assert last_done.wait(timeout=5)
        finished.append(i)
        if i == 2:
            last_done.set()
        return i

    got = []
    with ThreadPoolExecutor(3) as pool:
        for item, futures in window(range(3), lambda i: {"own": pool.submit(job, i)}, 3):
            assert all(f.done() for f in futures.values())
            got.append((item, futures["own"].result()))
    assert got == [(0, 0), (1, 1), (2, 2)]
    assert finished.index(2) < finished.index(0)


def test_at_most_bound_distinct_futures_are_unfinished(monkeypatch):
    """Every item shares one future and items 1 and 4 add one each: with a
    bound of 3, items 0-4 are read before the first wait and item 5 is not.
    Counted once per item, the shared future would stop the reads at item 1."""
    release = threading.Event()
    items, submitted, peaks, waits = Items(6), [], [], []
    real_wait = concurrent.futures.wait

    def unfinished():
        return len({f for f in submitted if not f.done()})

    def wait(fs, return_when):
        waits.append((list(items.reads), unfinished()))
        release.set()
        return real_wait(fs, return_when=return_when)

    monkeypatch.setattr(concurrent.futures, "wait", wait)
    with ThreadPoolExecutor(4) as pool:
        shared = pool.submit(release.wait, 5)

        def submit(i):
            futures = {"shared": shared}
            if i in (1, 4):
                futures["own"] = pool.submit(release.wait, 5)
            submitted.extend(futures.values())
            peaks.append(unfinished())
            return futures

        got = [item for item, _ in window(items, submit, 3)]
    assert got == [0, 1, 2, 3, 4, 5]
    assert waits[0] == ([0, 1, 2, 3, 4], 3)
    assert max(peaks) <= 3


@pytest.mark.parametrize("where", ["read", "submit"])
def test_an_error_is_raised_in_its_items_turn(where):
    """An error from reading or submitting item 2 comes after items 0 and 1
    are yielded, and item 3 is never read, though the bound would allow it."""
    items, yielded = Items(6, bad=2 if where == "read" else None), []
    with ThreadPoolExecutor(2) as pool:

        def submit(i):
            if where == "submit" and i == 2:
                raise ValueError("item 2 cannot be submitted")
            return {"own": pool.submit(pow, i, 2)}

        with pytest.raises(ValueError, match="item 2"):
            for item, futures in window(items, submit, 8):
                yielded.append((item, futures["own"].result()))
    assert yielded == [(0, 0), (1, 1)]
    assert items.reads == [0, 1, 2]
