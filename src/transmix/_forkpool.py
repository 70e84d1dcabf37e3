"""Ordered map of a picklable function over batches, in forked workers.

``ordered_map(fn, batches)`` yields ``fn(batch)`` for each batch, in order.
It reads up to one batch per CPU in the affinity mask, then forks one worker
per batch read, and keeps at most two batches a worker in flight: it reads
the input only as that window empties. It stays in-process if the mask holds
one CPU, the platform cannot fork, another thread runs (a fork could
deadlock the child) or the input holds fewer than two batches. Workers
ignore SIGINT, which Ctrl-C sends them too, take SIGTERM's default action
whatever handler the parent set, and exit once the parent is gone. An error
raised by ``fn`` is raised at its batch's turn; one raised by the input is
raised as it is read, dropping the results in flight. Closing the generator
cancels unstarted batches and shuts the workers down, so none outlives it.
"""

import itertools
import multiprocessing
import os
import signal
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator


def ordered_map(fn: Callable, batches: Iterable) -> Iterator:
    batches = iter(batches)  # the head read below must not be read again
    forkable = (hasattr(os, "sched_getaffinity")
                and "fork" in multiprocessing.get_all_start_methods())
    head = list(itertools.islice(batches, len(os.sched_getaffinity(0)) if forkable else 1))
    workers = len(head) if len(head) > 1 and threading.active_count() == 1 else 1
    batches = itertools.chain(head, batches)
    if workers == 1:
        yield from map(fn, batches)
    else:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start_worker)
        pending: deque = deque()  # futures, oldest first
        try:
            for batch in batches:
                pending.append(pool.submit(fn, batch))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            for future in pending:
                yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)


def _start_worker() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    # returns once the parent's end of a pipe closes (later workers hold it too)
    multiprocessing.parent_process().join()
    os._exit(1)
