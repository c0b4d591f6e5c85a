import math
import tracemalloc

import numpy as np
import pytest

import hqoc.gkp as gkp
from hqoc.gkp import (
    PAD_SIGMAS,
    SAMPLES_PER_SIGMA,
    CombStateSpec,
    aux_spec,
    comb_family,
    comb_spec,
    comb_wavefunction,
    default_comb_grid,
    overlap_check,
    support_set,
    untruncated_comb_wavefunction,
)
from hqoc.moments import ceil_log2
from hqoc.simulator import (
    GRID_ODD_FACTORS, MIN_GRID_POINTS, GridError, centered_grid, energy_expectation, trace_distance,
)


def test_canonical_params_dyadic():
    p = comb_spec(1 / 16, 4, 0)
    assert p.eps == pytest.approx(1 / 8)
    assert p.L == 16


def test_canonical_params_non_dyadic_delta():
    p = comb_spec(0.1, 2, 0)
    assert p.eps == pytest.approx(1 / 4)
    assert p.L == 64  # ceil(log2 10) = 4, exponent 2(4-1)


def test_aux_params():
    p = aux_spec(1 / 16, 2)
    assert (p.d, p.j) == (2, 0)
    assert p.eps == pytest.approx(2.0 ** -3)
    assert p.L == 2 ** (2 * (4 - 2))


def test_params_validation():
    with pytest.raises(ValueError):
        comb_spec(0.3, 4, 0)
    with pytest.raises(ValueError):
        comb_spec(0.01, 1, 0)
    with pytest.raises(ValueError, match="eps must lie"):  # eps > 1/(2d)
        CombStateSpec(delta=0.1, d=4, eps=0.3, L=4, j=0)
    with pytest.raises(ValueError, match="j out of range"):
        comb_spec(0.1, 4, 4)


def test_comb_norm_and_peaks():
    spec = comb_spec(1 / 32, 4, 0)
    grid = default_comb_grid(spec)
    st = comb_wavefunction(spec, grid)
    assert st.norm() == pytest.approx(1.0, abs=1e-10)
    # density maxima sit on the predicted peak centers
    dens = np.abs(st.amps) ** 2
    xs = grid.xs
    top = xs[np.argsort(dens)[-spec.L:]]
    assert np.allclose(np.sort(top), np.sort(spec.peak_centers), atol=grid.dx)


def test_peak_centers_formula():
    # j=0, d=4, Delta=1/32: maxima at sqrt(8 pi) z
    spec = comb_spec(1 / 32, 4, 0)
    zs = np.arange(-32, 32)
    assert np.allclose(spec.peak_centers, math.sqrt(8 * math.pi) * zs)
    spec1 = comb_spec(1 / 32, 4, 1)
    assert np.allclose(spec1.peak_centers - spec.peak_centers,
                       math.sqrt(2 * math.pi / 4))


def test_orthonormal_family():
    states = comb_family(1 / 16, 4)
    gram = np.array([[np.vdot(a.amps, b.amps) for b in states] for a in states])
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_support_set_geometry():
    # ell=1: centers 2 sqrt(pi) z, half-width sqrt(pi/4)
    spec = comb_spec(1 / 16, 2, 0)
    intervals = support_set(spec)
    assert len(intervals) == spec.L
    lo, hi = intervals[spec.L // 2]  # the z=0 interval
    assert (lo, hi) == pytest.approx((-math.sqrt(math.pi / 4), math.sqrt(math.pi / 4)))
    centers = spec.peak_centers
    assert np.allclose(np.diff(centers), 2 * math.sqrt(math.pi))


def test_supports_disjoint_across_logical_indices():
    # at eps = 1/(2d) code states of distinct j have disjoint supports (orthonormal family)
    all_intervals = []
    for j in range(4):
        all_intervals += [(lo, hi, j) for lo, hi in support_set(comb_spec(1 / 16, 4, j))]
    all_intervals.sort()
    for (lo1, hi1, j1), (lo2, hi2, j2) in zip(all_intervals, all_intervals[1:]):
        if j1 != j2:
            assert hi1 <= lo2 + 1e-12


def test_support_contains_post_preimage_of_peaks():
    from hqoc.pipeline import discretize

    for j in range(4):
        spec = comb_spec(1 / 16, 4, j)
        for lo, hi in support_set(spec):
            for x in np.linspace(lo + 1e-9, hi - 1e-9, 7):
                assert int(discretize(x, 2)) == j


def test_grid_too_coarse_rejected():
    spec = comb_spec(1 / 32, 4, 0)
    grid = centered_grid(512, 1.0)
    with pytest.raises(GridError):
        comb_wavefunction(spec, grid)


def test_grid_too_small_rejected():
    spec = comb_spec(1 / 32, 4, 0)
    grid = centered_grid(256, spec.peak_sigma / 10)
    with pytest.raises(GridError):
        comb_wavefunction(spec, grid)


def test_overlap_examples():
    ov, bound = overlap_check(0.05, 0.25, 16)
    assert bound == pytest.approx(1 - 16 * 0.05 ** 2 - 2 * math.exp(-25.0))
    assert ov >= bound
    ov, bound = overlap_check(0.02, 0.1, 16)
    assert bound == pytest.approx(1 - 16 * 0.02 ** 2 - 2 * math.exp(-25.0))
    assert ov >= bound
    # eps = 10 Delta: exponential term negligible
    _, bound = overlap_check(0.02, 0.2, 16)
    assert bound == pytest.approx(1 - 16 * 0.02 ** 2, abs=1e-10)


def test_energy_grows_with_squeezing():
    energies = []
    for delta in (1 / 8, 1 / 16, 1 / 32):
        spec = comb_spec(delta, 4, 0)
        st = comb_wavefunction(spec, default_comb_grid(spec))
        energies.append(energy_expectation(st)[1])
    assert all(np.isfinite(energies))
    assert energies[0] < energies[1] < energies[2]


def test_trace_distance_identity():
    spec0 = comb_spec(1 / 16, 4, 0)
    grid = default_comb_grid(spec0)
    a = comb_wavefunction(spec0, grid)
    b = comb_wavefunction(comb_spec(1 / 16, 4, 1), grid)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-8)
    assert trace_distance(a, b) == pytest.approx(2.0, abs=1e-8)
    # |<a, c>| = 0.8 -> distance 1.2
    from hqoc.simulator import HybridState

    mix = HybridState(1, 0, a.grids, 0.8 * a.amps + 0.6 * b.amps)
    assert trace_distance(a, mix) == pytest.approx(1.2, abs=1e-8)


def test_untruncated_comb_normalized():
    grid = centered_grid(4096, 0.01)
    st = untruncated_comb_wavefunction(8, 0.05, grid)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_untruncated_comb_bit_identical_to_full_grid_sum():
    # each peak is evaluated near its centre only; the sum must not change by one bit
    for L, delta, n, dx in ((8, 0.05, 1024, 0.01), (256, 0.02, 1 << 17, 0.0076), (4, 0.2, 256, 0.07)):
        grid = centered_grid(n, dx)
        psi = np.zeros(n)
        for z in range(-L // 2, L // 2):
            psi += np.exp(-((grid.xs - z) ** 2) / (2 * delta ** 2))
        full = psi.astype(complex)
        full /= np.linalg.norm(full)
        assert np.array_equal(untruncated_comb_wavefunction(L, delta, grid).amps, full)


def _comb_reference(spec, grid):
    """The comb from the closed form with whole-array temporaries."""
    u = (grid.xs - spec.shift) / spec.scale
    z = np.rint(u)
    w = u - z
    inside = (np.abs(w) < spec.eps) & (z >= -spec.L // 2) & (z <= spec.L // 2 - 1)
    psi = np.where(inside, np.exp(-w ** 2 / (2 * spec.delta ** 2)), 0.0)
    amps = psi.astype(complex)
    amps /= np.linalg.norm(amps)
    return amps


def test_comb_wavefunction_in_place_peak_and_bits():
    from hqoc.pipeline import EncodingLayout, encoding_grid

    grid = encoding_grid(EncodingLayout(n=2, m=1), 0.01)  # 9 * 2^17 cells
    spec = comb_spec(0.01, 4, 1)
    tracemalloc.start()
    try:
        st = comb_wavefunction(spec, grid)
        peak = tracemalloc.get_traced_memory()[1] / (16 * grid.n_points)
    finally:
        tracemalloc.stop()
    assert peak <= 2.0
    assert st.amps.tobytes() == _comb_reference(spec, grid).tobytes()
    small = default_comb_grid(comb_spec(1 / 16, 4, 3))
    for j in range(4):
        spec = comb_spec(1 / 16, 4, j)
        assert comb_wavefunction(spec, small).amps.tobytes() == _comb_reference(spec, small).tobytes()


def _smallest_allowed_size(need):
    """Smallest m 2^k (m in GRID_ODD_FACTORS, k >= 1) holding max(MIN_GRID_POINTS, need) points."""
    need = max(MIN_GRID_POINTS, need)
    return min(m << k for m in GRID_ODD_FACTORS for k in range(1, 40) if m << k >= need)


def _check_smallest_allowed(grid, need, dx):
    assert grid.dx == dx
    assert grid.n_points == _smallest_allowed_size(need)
    assert grid.n_points <= 1 << max(8, math.ceil(math.log2(need)))  # no larger than the power of two it replaced
    assert grid.x0 == -(grid.n_points // 2) * dx  # centred by whole cells


# criterion 4 and `hqoc sample --n 2 --m 1` (0.02, 0.01), one mode of `hqoc sample --n 4 --m 2`
# (0.125), comb_family of criteria 1 and 9 (1/32)
COMB_GRID_POINTS = {(0.02, 4): 147456, (0.01, 4): 1179648, (0.125, 4): 640, (1 / 32, 4): 18432}


@pytest.mark.parametrize("delta, d", [
    (delta, d) for d in (2, 3, 4, 8) for delta in (0.2, 0.125, 0.1, 1 / 16, 0.05, 1 / 32, 0.02, 0.01)
    if d < 8 or delta <= 0.1  # d = 8 has a canonical family (L >= 2) only from here
])
def test_default_comb_grid_takes_the_smallest_allowed_size(delta, d):
    spec = comb_spec(delta, d, 0)
    fine = math.sqrt(2 * math.pi / d)
    dx = fine / 2 ** max(0, ceil_log2(SAMPLES_PER_SIGMA * fine / spec.peak_sigma))
    top = spec.scale * (spec.L // 2 + 1)
    need = 2 * (top + spec.half_support + PAD_SIGMAS * spec.peak_sigma) / dx
    grid = default_comb_grid(spec)
    _check_smallest_allowed(grid, need, dx)
    assert grid.n_points == COMB_GRID_POINTS.get((delta, d), grid.n_points)
    # the smaller grid still holds the state of the largest shift
    assert comb_wavefunction(comb_spec(delta, d, d - 1), grid).norm() == pytest.approx(1.0)


def test_overlap_check_grids_take_the_smallest_allowed_size(monkeypatch):
    grids = []

    def capture(L, delta, grid):
        grids.append(grid)
        return untruncated_comb_wavefunction(L, delta, grid)

    monkeypatch.setattr(gkp, "untruncated_comb_wavefunction", capture)
    for delta, eps in [(0.05, 0.25), (0.1, 0.25), (0.02, 0.1)]:  # criterion 2
        overlap_check(delta, eps, 16)
        _check_smallest_allowed(grids[-1], 2 * (8 + 1 + 12 * delta) / (delta / 16), delta / 16)
    assert [g.n_points for g in grids] == [6144, 3840, 15360]


@pytest.mark.parametrize(
    "delta, d", [(0.02, 4), (0.125, 4), (0.01, 4), (0.05, 8), (1 / 32, 2), (2.0 ** -9, 256)]
)
def test_comb_support_is_the_nonzero_cells_of_the_dense_comb(delta, d):
    grid = default_comb_grid(comb_spec(delta, d, 0))
    for j in sorted({0, 1, d // 2, d - 1}):
        spec = comb_spec(delta, d, j)
        support = gkp.comb_support(spec, grid)
        assert support.cells.dtype == np.int64 and support.grid == grid
        assert np.array_equal(support.cells, np.flatnonzero(comb_wavefunction(spec, grid).amps))
        windows = gkp._window_cells(grid, spec.peak_centers - spec.half_support,
                                    spec.peak_centers + spec.half_support, pad=1)[1]
        assert windows.sum() <= gkp.comb_support_size(spec, grid)


def test_comb_support_size_bounds_the_windows_of_a_coarse_grid():
    # the grid of the code prep's final state, whose oracle samples a peak about twice a sigma
    from hqoc.pipeline import SIM_MARGIN, _prep_spec, build_code_prep
    from hqoc.simulator import apply_circuit, auto_grid, vacuum_state

    c = build_code_prep(1, 0.02)
    grid = apply_circuit(vacuum_state(1, 1, auto_grid(c, base_margin=SIM_MARGIN)), c).grids[0]
    spec = _prep_spec(1, 0.02)
    support = gkp.comb_support(spec, grid, samples_per_sigma=1.0)
    windows = gkp._window_cells(grid, spec.peak_centers - spec.half_support,
                                spec.peak_centers + spec.half_support, pad=1)[1]
    assert support.cells.size <= windows.sum() <= gkp.comb_support_size(spec, grid)
