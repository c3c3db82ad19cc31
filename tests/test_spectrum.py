"""Frequency grids, tapered DFT, and periodogram identities."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperspec.errors import DomainError
from taperspec.models import AR1, WhiteNoise, gaussian, make_rng
from taperspec.spectrum import FrequencyGrid, canonical_grid, tapered_dft, tapered_periodogram
from taperspec.taper import get_taper

TAPER_NAMES = ("rect", "linear", "tukey")


def test_canonical_grid_layout():
    g = canonical_grid(100, False)
    assert g.N == 512
    assert not g.shifted
    assert g.weight == pytest.approx(2.0 * math.pi / 512)
    pts = g.points
    assert np.all(np.diff(pts) > 0)
    assert pts[0] > -math.pi
    assert pts[-1] == pytest.approx(math.pi)
    assert float(np.sum(g.fold_weights)) * g.weight == pytest.approx(2.0 * math.pi)


def test_canonical_grid_size_is_the_next_power_of_two_at_least_4t():
    for T, n in ((1, 4), (2, 8), (3, 16), (48, 256), (128, 512), (129, 1024), (4096, 16384)):
        assert canonical_grid(T, False).N == canonical_grid(T, True).N == n
        assert n == 1 << math.ceil(math.log2(4 * T))


def test_canonical_grid_is_memoized_read_only():
    g = canonical_grid(300, True)
    again = canonical_grid(300, True)
    assert again is g and again.constants is g.constants
    assert canonical_grid(300, False) is not g
    fresh = canonical_grid.__wrapped__(300, True)
    assert np.array_equal(fresh.points, g.points) and fresh.weight == g.weight
    assert not g.points.flags.writeable
    with pytest.raises(ValueError):
        g.points[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.weight = 1.0
    # a bad argument raises on every call; nothing is cached for it
    for _ in range(2):
        with pytest.raises(ValueError, match="positive"):
            canonical_grid(0, False)


def test_canonical_grid_memo_keys_on_the_values():
    # the one call form, (T, shifted) positionally, is one entry per value
    # pair: an equal T of another integer type or an equal flag shares it,
    # and a second call form is refused rather than keyed apart
    assert canonical_grid.cache_info().maxsize == 8
    for call in (lambda: canonical_grid(72), lambda: canonical_grid(72, shifted=False),
                 lambda: canonical_grid(T=72, shifted=False)):
        with pytest.raises(TypeError):
            call()
    before = canonical_grid.cache_info()
    g = canonical_grid(72, False)
    assert canonical_grid(np.int64(72), False) is g
    assert canonical_grid(72, 0) is g
    assert canonical_grid(72, True) is canonical_grid(72, np.True_)
    assert canonical_grid(72, True) is not g
    after = canonical_grid.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 4)
    x = np.arange(72.0)
    assert tapered_periodogram(x, get_taper("rect")).grid is g
    assert tapered_periodogram(x, get_taper("tukey"), shifted=True).grid is canonical_grid(72, True)
    for _ in range(2):
        with pytest.raises(ValueError, match="positive"):
            canonical_grid(-3, True)


def _mirrored(grid, on_nodes):
    """An even function given on the nodes of a folded grid, on every point."""
    h = grid.N // 2 - 1  # index of lam = 0
    return np.concatenate((on_nodes[1:h + 1][::-1], on_nodes))


def test_folded_grid_nodes_and_weights():
    for T in (1, 100, 97):
        g = canonical_grid(T, False)
        assert not g.shifted and g.nodes.size == g.N // 2 + 1
        assert g.nodes[0] == 0.0 and g.nodes[-1] == pytest.approx(math.pi)
        # -lam_j and the node lam_j agree up to the rounding of the points
        assert np.allclose(_mirrored(g, g.nodes), np.abs(g.points), rtol=0.0, atol=1e-15)
        assert g.fold_weights[0] == g.fold_weights[-1] == 1.0
        assert np.all(g.fold_weights[1:-1] == 2.0) and np.sum(g.fold_weights) == g.N
        assert not g.fold_weights.flags.writeable
    off = canonical_grid(100, True)
    assert off.nodes is off.points and off.fold_weights is None
    w = np.linspace(-1.0, 2.0, off.N)
    assert off.fold(w) is w



def test_grids_compare_and_hash_by_identity():
    a, b = canonical_grid.__wrapped__(8, False), canonical_grid.__wrapped__(8, False)
    assert a == a and a != b and not (a == b)
    assert {a: 1, b: 2}[a] == 1 and len({a, b, a}) == 2
    assert canonical_grid(8, False) == canonical_grid(8, False)  # the memo returns one grid

@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 2048), seed=st.integers(0, 2**32 - 1))
def test_folded_sum_is_the_full_grid_sum(T, seed):
    # an even function summed over the nodes with the fold weights, and
    # times a weight that is not even folded as w(lam) + w(-lam), gives the
    # full-grid sum up to summation round-off: a few ulps times N of the
    # sum of magnitudes
    grid = canonical_grid(T, False)
    rng = make_rng(seed)
    x = rng.standard_normal(grid.nodes.size) * np.exp(rng.uniform(-3.0, 3.0))
    full = _mirrored(grid, x)
    w = rng.uniform(-1.0, 2.0, grid.N)
    ulps = 4 * np.finfo(float).eps * grid.N
    assert abs(grid.sum(x) - np.sum(full)) <= ulps * np.sum(np.abs(full))
    assert abs(grid.sum(x, grid.fold(w)) - np.sum(full * w)) <= ulps * np.sum(np.abs(full * w))
    assert abs(grid.sum(x, grid.fold_weights) - np.sum(full)) <= ulps * np.sum(np.abs(full))


@pytest.mark.parametrize("shifted", [False, True])
def test_periodogram_keeps_its_node_values_and_mirrors_the_rest(shifted):
    ts = AR1(theta=0.6).simulate(gaussian(), 300, seed=8)
    pg = tapered_periodogram(ts, get_taper("tukey"), shifted)
    grid = pg.grid
    assert grid is canonical_grid(300, shifted)
    assert pg.node_values.size == grid.nodes.size and not pg.node_values.flags.writeable
    if shifted:
        assert pg.values is pg.node_values
    else:
        assert np.array_equal(pg.values, _mirrored(grid, pg.node_values))
    assert pg.values is pg.values  # mirrored once


def _former_periodogram(x, taper, grid):
    """The periodogram as it was computed before its study constants were
    cached: DFT rotated as complex, sign, phase and sum of squares rebuilt."""
    T = x.shape[0]
    h = taper.values(T)
    n = grid.N
    t = np.arange(1, T + 1)
    y = h * x * np.where(t % 2 == 0, 1.0, -1.0)
    if grid.shifted:
        y = y * np.exp(-1j * math.pi * t / n)
    a = np.zeros(n, dtype=y.dtype)
    a[1:T + 1] = y
    d = np.fft.fft(a)
    if not grid.shifted:
        d = np.roll(d, -1)
    c_norm = 2.0 * math.pi * float(np.sum(h ** 2))
    return d, (d.real**2 + d.imag**2) / c_norm, c_norm


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("name", TAPER_NAMES)
@pytest.mark.parametrize("T,seed_offset", [(101, 4), (250, 2), (97, 8), (128, 1), (512, 1)])
def test_periodogram_matches_the_former_formula_bitwise(name, shifted, T, seed_offset):
    # T odd, T even, and T a power of two, where N = 4T exactly.
    # The shifted grid keeps the former complex FFT, bit for bit.  The
    # unshifted one takes a real FFT and unfolds it by Hermitian symmetry:
    # d(-lambda) = conj d(lambda) and I is even, exactly.  That moves d by
    # FFT round-off, O(eps log2 N) of |h x|_2 per bin (at most 1.2 times
    # that measured over the three tapers, T up to 4096 and AR(1) theta
    # -0.9, 0.6 and 0.95; 4 allowed), and so I = |d|^2 / C_T by at most
    # (2 |d| + |dd|) |dd| / C_T.
    taper = get_taper(name)
    grid = canonical_grid(T, shifted)
    x = AR1(theta=0.6).simulate(gaussian(), T, seed=T + seed_offset).values
    d_old, vals_old, c_old = _former_periodogram(x, taper, grid)
    n = grid.N
    tol_d = 4.0 * np.finfo(float).eps * math.log2(n) * math.sqrt(
        float(np.sum((taper.values(T) * x) ** 2)))
    tol_i = (2.0 * float(np.max(np.abs(d_old))) + tol_d) * tol_d / c_old
    mirror = n - 2 - np.arange(n - 1)  # lambda_{N-2-j} = -lambda_j on the unshifted grid
    for _ in range(2):  # the second call reads every cached constant
        pg = tapered_periodogram(x, taper, shifted)
        d = tapered_dft(x, taper, shifted)
        assert pg.grid is grid
        assert pg.c_norm == c_old
        if shifted:
            assert pg.values.tobytes() == vals_old.tobytes()
            assert d.tobytes() == d_old.tobytes()
            continue
        assert np.array_equal(pg.values[mirror], pg.values[:-1])
        assert np.array_equal(d[mirror], np.conj(d[:-1]))
        assert d[-1].imag == 0.0 and d[n // 2 - 1].imag == 0.0  # lambda = pi and 0
        assert np.max(np.abs(d - d_old)) <= tol_d
        assert np.max(np.abs(pg.values - vals_old)) <= tol_i
    assert not pg.values.flags.writeable


def test_shift_phase_is_built_once_per_grid(monkeypatch):
    built = []
    phase = FrequencyGrid.__dict__["shift_phase"]

    def counted(grid):
        built.append(grid)
        return phase.func(grid)

    prop = functools.cached_property(counted)
    prop.__set_name__(FrequencyGrid, "shift_phase")
    monkeypatch.setattr(FrequencyGrid, "shift_phase", prop)
    canonical_grid.cache_clear()  # fresh grids, built under the counter
    taper = get_taper("tukey")
    for seed in range(20):
        x = AR1(theta=0.3).simulate(gaussian(), 300, seed=seed)
        grid = tapered_periodogram(x, taper, shifted=True).grid
    assert built == [grid]
    unshifted = tapered_periodogram(x, taper).grid
    assert built == [grid] and "shift_phase" not in vars(unshifted)


def test_shifted_grid_avoids_origin_and_endpoints():
    g = canonical_grid(64, True)
    assert np.all(np.abs(g.points) > 1e-12)
    assert g.points[0] == pytest.approx(-math.pi + math.pi / g.N)
    assert g.points[-1] == pytest.approx(math.pi - math.pi / g.N)
    plain = canonical_grid(64, False)
    assert np.any(np.abs(plain.points) < 1e-15)


def _direct_dft(x, h, lam):
    T = x.shape[0]
    t = np.arange(1, T + 1)
    return np.array([np.sum(h * x * np.exp(-1j * l * t)) for l in lam])


@pytest.mark.parametrize("name", TAPER_NAMES)
@pytest.mark.parametrize("shifted", [False, True])
def test_fft_dft_matches_direct_sum(name, shifted):
    # every sample, the shortest included, is transformed on its own grid
    rng = np.random.default_rng(7)
    tp = get_taper(name)
    for T in (1, 2, 3, 4, 10, 37):
        x = rng.standard_normal(T)
        fast = tapered_dft(x, tp, shifted)
        slow = _direct_dft(x, tp.values(T), canonical_grid(T, shifted).points)
        assert fast.shape == slow.shape == (canonical_grid(T, shifted).N,)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow)), T


@pytest.mark.parametrize("name", TAPER_NAMES)
def test_parseval_identity_exact(name):
    rng = np.random.default_rng(11)
    T = 100
    x = rng.standard_normal(T)
    tp = get_taper(name)
    pg = tapered_periodogram(x, tp)
    h = tp.values(T)
    lhs = float(np.sum(pg.values) * pg.grid.weight)
    rhs = float(np.sum(h**2 * x**2) / np.sum(h**2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_periodogram_nonnegative_and_normalized():
    x = AR1(theta=0.5).simulate(gaussian(), 256, seed=1)
    tp = get_taper("tukey")
    pg = tapered_periodogram(x, tp)
    assert np.all(pg.values >= 0.0)
    assert pg.taper_id == "tukey"
    assert pg.T == 256
    assert pg.c_norm == pytest.approx(2.0 * math.pi * np.sum(tp.values(256) ** 2))


def test_periodogram_mean_tracks_density():
    # E[I(lambda)] -> f(lambda); checked loosely by averaging replications.
    m = AR1(theta=0.5)
    tp = get_taper("rect")
    grid = canonical_grid(512, False)
    acc = np.zeros(grid.N)
    reps = 400
    for rep in range(reps):
        ts = m.simulate(gaussian(), 512, seed=1000 + rep)
        acc += tapered_periodogram(ts.values, tp).values
    mean_i = acc / reps
    f = m.density(grid.points)
    idx = [grid.N // 8, grid.N // 4, grid.N // 2 + 5, 3 * grid.N // 4]
    for i in idx:
        assert mean_i[i] == pytest.approx(f[i], rel=0.15)


def test_periodogram_accepts_timeseries_and_array():
    ts = WhiteNoise().simulate(gaussian(), 64, seed=0)
    tp = get_taper("rect")
    a = tapered_periodogram(ts, tp).values
    b = tapered_periodogram(ts.values, tp).values
    assert np.array_equal(a, b)


@pytest.mark.filterwarnings("error")
def test_periodogram_refuses_a_taper_that_vanishes_on_the_sample():
    # the linear taper is h(1) = 0 at T = 1, so sum h^2 = 0 and no
    # normalization exists
    with pytest.raises(DomainError, match="'linear' vanishes on the sample"):
        tapered_periodogram(np.ones(1), get_taper("linear"))
    assert tapered_periodogram(np.ones(2), get_taper("linear")).c_norm > 0.0
