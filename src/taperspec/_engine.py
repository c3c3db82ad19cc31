"""Seeded replication engine: `map_reps(fn, reps, workers, seed)` is
[fn(0), ..., fn(reps - 1)].

With w = min(workers, reps) > 1 the calling process computes replications
0, w, 2w, ... and forks w - 1 children, child k computing k, k + w, ... and
sending its results back through a pipe.  Forked children inherit `fn` and
all it closes over (a study's parsed options, memoized grids and tapers),
so nothing is pickled but results; the fork start method is required.

A process stops at its first failing replication and posts it to a slot
shared by all of them; each skips every replication above the lowest one
posted.  All replications below it have then run, so the run raises
ReplicationError naming the lowest failing replication and its
`derive_seed` seed: the one a single process stops at, so the text is the
same for every worker count.  Its cause is the exception itself, or the
traceback a child formatted.  Every child is joined before `map_reps`
returns or raises, and terminated first if the parent is interrupted or a
child dies.
"""

from __future__ import annotations

import mmap
import multiprocessing
import traceback

from .errors import ReplicationError
from .models import derive_seed


class _ChildTraceback(Exception):
    """A child's formatted traceback, the cause of the ReplicationError it led to."""

    def __str__(self):
        return "\n" + self.args[0]


def _share(fn, reps: int, w: int, k: int, posted) -> tuple:
    """(results of replications k, k + w, ... below the lowest failure in
    `posted`, (rep, text, exception) of this process's failure or None).
    posted[k] is this process's slot."""
    out = []
    for r in range(k, reps, w):
        if r > min(posted):
            break
        try:
            out.append(fn(r))
        except Exception as exc:
            posted[k] = r
            return out, (r, f"{type(exc).__name__}: {exc}", exc)
    return out, None


def _child(conn, fn, reps: int, w: int, k: int, posted) -> None:
    out, failure = _share(fn, reps, w, k, posted)
    if failure is not None:  # a traceback pickles; the exception may not
        r, text, exc = failure
        failure = r, text, _ChildTraceback("".join(traceback.format_exception(exc)))
    conn.send((out, failure))
    conn.close()


def _forked_shares(fn, reps: int, w: int) -> list:
    ctx = multiprocessing.get_context("fork")
    posted = memoryview(mmap.mmap(-1, 8 * w)).cast("q")  # shared with the children
    for k in range(w):
        posted[k] = reps
    children = []
    try:
        for k in range(1, w):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(send, fn, reps, w, k, posted), daemon=True)
            proc.start()
            send.close()  # the child holds the only write end: EOF if it dies
            children.append((proc, recv))
        shares = [_share(fn, reps, w, 0, posted)]
        for proc, recv in children:
            try:
                shares.append(recv.recv())
            except EOFError:
                proc.join()
                raise ReplicationError(
                    f"replication worker exited with code {proc.exitcode}") from None
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()
    return shares


def map_reps(fn, reps: int, workers: int, seed: int) -> list:
    """fn(r) for r = 0..reps-1 over min(workers, reps) processes;
    replication r draws from derive_seed(seed, r)."""
    w = max(1, min(workers, reps))
    shares = [_share(fn, reps, 1, 0, [reps])] if w == 1 else _forked_shares(fn, reps, w)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        r, text, cause = min(failures, key=lambda failure: failure[0])
        raise ReplicationError(
            f"replication {r} (seed {derive_seed(seed, r)}) failed: {text}") from cause
    results = [None] * reps
    for k, (share, _) in enumerate(shares):
        results[k::w] = share
    return results
