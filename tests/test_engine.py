"""The replication engine: order, fail-fast and the cause of a failure."""

import mmap
import time

import pytest

from taperspec._engine import map_reps
from taperspec.errors import ReplicationError
from taperspec.models import derive_seed


def _runs(reps):
    """(make(fail, pause), the marks): make gives a replication function that
    marks each replication it runs in memory shared with forked children,
    sleeps pause(r) seconds, then raises if r is in `fail`."""
    marks = memoryview(mmap.mmap(-1, reps))

    def make(fail, pause):
        def fn(r):
            marks[r] = 1
            time.sleep(pause(r))
            if r in fail:
                raise ValueError(f"bad rep {r}")
            return r
        return fn

    return make, marks


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_results_come_back_in_replication_order(workers):
    assert map_reps(lambda r: r * r, 7, workers, seed=0) == [r * r for r in range(7)]


@pytest.mark.parametrize("workers, fail", [(2, 1), (3, 2), (3, 0)])
def test_a_failure_stops_every_process(workers, fail):
    # 120 replications of 5 ms each: a share takes >= 0.2 s run to its end
    make, marks = _runs(120)
    with pytest.raises(ReplicationError, match=f"replication {fail} "):
        map_reps(make({fail}, lambda r: 0.0 if r == fail else 0.005), 120, workers, seed=0)
    assert sum(marks) < 40


def test_the_lowest_failure_is_named_though_a_higher_one_came_first():
    # the child's rep 3 fails at once, the parent's rep 2 only after reps 0
    # and 2 have slept; a process skips only replications above a failure
    make, marks = _runs(8)
    seed = derive_seed(11, 2)
    with pytest.raises(ReplicationError) as info:
        map_reps(make({2, 3}, lambda r: 0.1 if r in (0, 2) else 0.0), 8, 2, seed=11)
    assert str(info.value) == f"replication 2 (seed {seed}) failed: ValueError: bad rep 2"
    assert list(marks[:4]) == [1, 1, 1, 1]


def test_the_failure_is_chained_to_its_cause():
    make, _ = _runs(4)
    with pytest.raises(ReplicationError) as info:
        map_reps(make({1}, lambda r: 0.0), 4, 1, seed=0)
    assert isinstance(info.value.__cause__, ValueError)
    # a child's exception comes back as its formatted traceback
    with pytest.raises(ReplicationError) as info:
        map_reps(make({1}, lambda r: 0.0), 4, 2, seed=0)
    remote = str(info.value.__cause__)
    assert "Traceback" in remote and "ValueError: bad rep 1" in remote
