"""Host-speed probe: a fixed piece of numerical work that does not use taperspec.

On a shared machine the speed of one core can change by 2x within
seconds and drift by a third over minutes, for reasons outside the
benchmark (measured wall and CPU time agree, so this is not time spent
waiting to be scheduled).  Such drift moves every timing the same way.
The benchmark therefore times this probe next to every study and every
set-up sample and reports each timing at a reference speed: the speed
at which the probe takes `REFERENCE_S`.  A change to taperspec cannot
change the probe, so the ratio of two commits' timings is kept while
the host's drift cancels.

The probe mixes the kinds of work the package does: Python-level
recursion, NumPy calls on scalars, vectorized NumPy with an FFT, and
QUADPACK calling back into Python.  A study on two workers keeps both
cores busy, so `HostProbe` can also time the probe on both cores at once.
"""

from __future__ import annotations

import math
import multiprocessing
import time

import numpy as np
from scipy import integrate

REFERENCE_S = 0.025  # probe time on the reference host

_VECTOR = np.random.default_rng(1).standard_normal(1 << 16)


def _simpson(fn, a: float, b: float, tol: float) -> float:
    def step(a, fa, b, fb, m, fm, whole, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 40 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (step(a, fa, m, fm, lm, flm, left, depth + 1)
                + step(m, fm, b, fb, rm, frm, right, depth + 1))

    fa, fb, m = fn(a), fn(b), 0.5 * (a + b)
    fm = fn(m)
    return step(a, fa, b, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb), 0)


def _work() -> None:
    for _ in range(40):
        _simpson(lambda x: math.cos(3.0 * x) ** 2, 0.0, 1.0, 1e-11)
    for _ in range(60):
        _simpson(lambda x: float(np.cos(3.0 * x)) ** 2, 0.0, 1.0, 1e-9)
    for _ in range(4):
        y = np.fft.irfft(np.fft.rfft(_VECTOR) * 0.5)
        np.cumsum(np.cos(y) * y)
    for j in range(40):
        integrate.quad(lambda x: math.cos(j * x) / (1.1 + math.sin(x)), 0.0, 6.28, limit=200)


def probe_s() -> float:
    """Seconds the probe's fixed work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def speed(probes) -> float:
    """Host speed relative to the reference, from probe times around a measurement."""
    return REFERENCE_S * len(probes) / math.fsum(probes)


def _helper(conn) -> None:
    while conn.recv():
        conn.send(probe_s())


class HostProbe:
    """Probe times on one core and, with cores=2, on both cores at once.

    Calling it returns {1: seconds} or {1: seconds, 2: seconds}: the
    probe alone, then the mean of the probe run here and in a helper
    process at the same time.  Use it as a context manager; leaving the
    context stops the helper.
    """

    def __init__(self, cores: int = 1):
        self.cores = cores
        self._conn = None
        self._helper = None

    def __enter__(self):
        if self.cores == 2:
            ctx = multiprocessing.get_context("spawn")
            self._conn, child = ctx.Pipe()
            self._helper = ctx.Process(target=_helper, args=(child,), daemon=True)
            self._helper.start()
            child.close()
        return self

    def __exit__(self, *exc):
        if self._helper is not None:
            self._conn.send(False)
            self._helper.join(10)
            if self._helper.is_alive():
                self._helper.kill()
                self._helper.join()
            self._conn.close()
        return False

    def __call__(self) -> dict:
        out = {1: probe_s()}
        if self._helper is not None:
            self._conn.send(True)
            mine = probe_s()
            out[2] = 0.5 * (mine + self._conn.recv())
        return out
