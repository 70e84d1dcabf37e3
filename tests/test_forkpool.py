"""The ordered pool of forked workers, on a patched affinity mask."""

import multiprocessing
import os
import time

import pytest

from transmix import dedup
from transmix._forkpool import ordered_map
from transmix.corpus import Document


@pytest.fixture
def cpus(monkeypatch):
    """Sets the affinity mask ``ordered_map`` sees to ``n`` CPUs."""

    def patch(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    patch(2)
    return patch


def tagged(batch):
    """The batch, the process that ran it and when it finished; batch 0 sleeps."""
    if batch == 0:
        time.sleep(0.3)
    return batch, os.getpid(), time.monotonic()


def fail_on_3(batch):
    if batch == 3:
        raise ValueError(batch, os.getpid())
    return tagged(batch)


def test_results_come_in_input_order_when_later_batches_finish_first(cpus):
    results = list(ordered_map(tagged, range(6)))
    assert [batch for batch, _, _ in results] == list(range(6))
    assert os.getpid() not in {pid for _, pid, _ in results}
    finished = [at for _, _, at in results]
    assert finished[1] < finished[0]


def test_input_is_read_at_most_two_batches_a_worker_ahead(cpus):
    taken, ahead = [], []

    def batches():
        for batch in range(20):
            ahead.append(batch + 1 - len(taken))  # batches read but not taken
            yield batch

    for batch, pid, _ in ordered_map(tagged, batches()):
        assert pid != os.getpid()
        taken.append(batch)
    assert taken == list(range(20))
    assert max(ahead) == 2 * 2


def test_an_error_in_a_worker_comes_at_its_batch_turn(cpus):
    results = []
    with pytest.raises(ValueError) as failure:
        for batch, _, _ in ordered_map(fail_on_3, range(10)):
            results.append(batch)
    assert results == [0, 1, 2]
    batch, pid = failure.value.args
    assert batch == 3 and pid != os.getpid()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("read", [0, 3])
def test_an_error_reading_the_input_is_raised_and_leaves_no_worker(read, n, cpus):
    # ``read`` batches come before the error, none of them a whole window
    cpus(n)

    def batches():
        yield from range(read)
        raise OSError("input gone")

    with pytest.raises(OSError, match="input gone"):
        list(ordered_map(tagged, batches()))
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("count", [0, 1])
def test_fewer_than_two_batches_run_in_process(count, cpus):
    results = list(ordered_map(tagged, range(count)))
    assert [(batch, pid) for batch, pid, _ in results] == [(b, os.getpid()) for b in range(count)]


def test_dedup_of_an_empty_input_keeps_nothing(cpus):
    result = dedup.dedup_corpus(iter([]))
    assert (result.kept_ids, result.removed_ids, result.clusters) == ([], set(), [])


def test_dedup_forks_no_more_workers_than_batches(cpus, monkeypatch):
    # three batches on an eight-CPU mask
    cpus(8)
    workers = []
    append = dedup.LshIndex._append

    def counting(self, doc_id):
        workers.append(len(multiprocessing.active_children()))
        return append(self, doc_id)

    monkeypatch.setattr(dedup.LshIndex, "_append", counting)
    docs = [Document(id=f"d{i:03d}", lang="en", text=f"word{i} " * 20) for i in range(130)]
    assert len(dedup.dedup_corpus(iter(docs)).kept_ids) == 130
    assert 2 * dedup._BATCH < len(docs) <= 3 * dedup._BATCH
    assert set(workers) == {3}
    assert not multiprocessing.active_children()
