import math

import numpy as np
import pytest
from scipy.special import erfinv

from hqoc.bounds import (
    DiscreteDistribution,
    DonohoStarkKernel,
    conditioned_on_interval,
    corollary_scalings,
    diam_delta,
    distribution_from_arrays,
    donoho_stark_eigs,
    donoho_stark_kernel,
    donoho_stark_trace,
    energy_lower_bound_from_radius,
    minimal_interval,
    radius_dimension_bound,
    state_symradius,
    symradius_delta,
)
from hqoc.gkp import comb_family, comb_spec, comb_wavefunction, default_comb_grid
from hqoc.simulator import centered_grid, energy_expectation, vacuum_state


def uniform_dist(lo, hi, k=4001):
    xs = np.linspace(lo, hi, k)
    return distribution_from_arrays(xs, np.full(k, 1.0 / k))


def test_symradius_point_mass():
    d = distribution_from_arrays([3.0], [1.0])
    assert symradius_delta(d, 0.1) == 3.0


def test_symradius_uniform():
    d = uniform_dist(-1.0, 1.0)
    assert symradius_delta(d, 0.5) == pytest.approx(0.5, abs=2e-3)


def test_symradius_vacuum_state():
    grid = centered_grid(4096, 24.0 / 4096)
    v = vacuum_state(1, 0, [grid])
    r = symradius_delta(distribution_from_arrays(grid.xs, v.position_density(0)), 0.05)
    assert r == pytest.approx(float(erfinv(0.95)), abs=0.01)
    # the state-level radius agrees (position and momentum marginals coincide)
    assert state_symradius(v, 0.05) == pytest.approx(r, abs=0.01)


def test_diam_uniform():
    d = uniform_dist(0.0, 1.0)
    assert diam_delta(d, 0.2) == pytest.approx(0.8, abs=2e-3)


def test_diam_shift_invariance():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=50)
    probs = rng.dirichlet(np.ones(50))
    d1 = distribution_from_arrays(vals, probs)
    d2 = distribution_from_arrays(vals + 17.3, probs)
    assert diam_delta(d1, 0.1) == pytest.approx(diam_delta(d2, 0.1), rel=1e-12)


def test_diam_at_most_twice_symradius():
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(2, 40))
        d = distribution_from_arrays(rng.normal(size=k) * rng.uniform(0.1, 3),
                                     rng.dirichlet(np.ones(k)))
        delta = float(rng.uniform(0.05, 0.5))
        assert diam_delta(d, delta) <= 2 * symradius_delta(d, delta) + 1e-12


def test_popoviciu_conditioned_form():
    # Popoviciu's inequality, the step of the diam^delta <= 2 sigma delta^{-1/2}
    # lemma: on the minimal 1-delta interval, 2 sigma of the conditioned
    # variable is at most its width
    rng = np.random.default_rng(13)
    for _ in range(200):
        k = int(rng.integers(3, 50))
        d = distribution_from_arrays(rng.normal(size=k) * rng.uniform(0.2, 4),
                                     rng.dirichlet(np.ones(k)))
        delta = float(rng.uniform(0.05, 0.4))
        lo, hi = minimal_interval(d, delta)
        cond = conditioned_on_interval(d, lo, hi)
        assert 2 * cond.sigma <= (hi - lo) + 1e-12
        assert hi - lo == pytest.approx(diam_delta(d, delta))


def test_energy_lower_bound_direction_vacuum():
    grid = centered_grid(4096, 24.0 / 4096)
    v = vacuum_state(1, 0, [grid])
    per_mode, total = energy_lower_bound_from_radius(v, 0.05)
    assert per_mode == pytest.approx(0.05 * erfinv(0.95) ** 2, abs=0.01)
    assert per_mode <= energy_expectation(v)[1]


def test_energy_lower_bound_comb_state():
    spec = comb_spec(1 / 16, 4, 0)
    st = comb_wavefunction(spec, default_comb_grid(spec))
    per_mode, _ = energy_lower_bound_from_radius(st, 0.01)
    assert per_mode <= energy_expectation(st)[1]


def test_radius_dimension_examples():
    assert radius_dimension_bound(2, 1, 0, 1 / 36) == pytest.approx(math.sqrt(math.pi) / 2)
    got = radius_dimension_bound(16, 2, 3, 0.01)
    want = math.sqrt(math.pi / 4) * (16 * 0.7 / 8) ** 0.25
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.9640, abs=5e-4)


def test_radius_dimension_delta_guard():
    with pytest.raises(ValueError):
        radius_dimension_bound(4, 1, 0, 0.2)


def test_comb_family_beats_radius_bound():
    radii = [state_symradius(st, 0.01) for st in comb_family(1 / 16, 4)]
    assert max(radii) >= radius_dimension_bound(4, 1, 0, 0.01)


def test_corollary_scalings():
    # corollary of the radius-dimension theorem: log2 radius grows as n / (2m)
    out = corollary_scalings(8, 2, 0)
    assert out["log2_radius_scaling"] == pytest.approx(2.0)
    assert out["energy_lower_bound"] > 0


def test_donoho_stark_trace_values():
    tr, _ = donoho_stark_trace(1.0, 1024)
    assert tr == pytest.approx(4 / math.pi, rel=0.005)
    tr2, _ = donoho_stark_trace(2.0, 1024)
    assert tr2 == pytest.approx(16 / math.pi, rel=0.005)


def test_donoho_stark_spectrum():
    for R in (1.0, 5.0):
        eigs = donoho_stark_eigs(donoho_stark_kernel(R, 512))
        assert eigs[0] >= -1e-9
        assert eigs[-1] <= 1 + 1e-6


def test_donoho_stark_kernel_symmetry():
    kern = donoho_stark_kernel(1.5, 128)
    assert kern.values.shape == kern.weights.shape == kern.grid.shape == (128,)
    assert np.array_equal(kern.weights, kern.weights[::-1])
    # diagonal of the raw kernel is 2R/pi, on the dense oracle too
    assert kern.values[0] == pytest.approx(2 * 1.5 / math.pi, rel=1e-12)
    oracle = outer_difference_kernel(1.5, 128)
    assert np.allclose(oracle, oracle.T)
    i = 64
    assert oracle[i, i] / kern.weights[i] == pytest.approx(kern.values[0], rel=1e-12)
    assert kern.trace() == pytest.approx(float(np.trace(oracle)), rel=1e-12)


def test_donoho_stark_validation():
    with pytest.raises(ValueError):
        donoho_stark_trace(-1.0, 256)
    with pytest.raises(ValueError):
        donoho_stark_trace(1.0, 32)


def outer_difference_kernel(R, n_quad):
    """The kernel matrix built from the n x n table of grid differences (the direct build)."""
    xs = np.linspace(-R, R, n_quad)
    w = np.full(n_quad, xs[1] - xs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = xs[:, None] - xs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sin(2.0 * R * diff) / (math.pi * diff)
    np.fill_diagonal(K, 2.0 * R / math.pi)
    sw = np.sqrt(w)
    A = sw[:, None] * K * sw[None, :]
    return 0.5 * (A + A.T)


def dense_from_values(kern):
    """The n x n matrix sqrt(w_i) f[|i - j|] sqrt(w_j) of a kernel's values, symmetrised.

    The spectral oracle of the parity split: the outer-difference build rounds
    ``x_i - x_j`` differently from ``|i - j| h``, which alone moves its
    spectrum by up to 2.8e-13 at R = 5, n_quad = 1023.
    """
    i = np.arange(kern.values.size)
    sw = np.sqrt(kern.weights)
    A = sw[:, None] * kern.values[np.abs(i[:, None] - i[None, :])] * sw[None, :]
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("n_quad", [64, 65, 127, 512, 1023])
@pytest.mark.parametrize("R", [1.0, 2.0, 5.0])
def test_donoho_stark_toeplitz_build_matches_outer_differences(R, n_quad):
    kern = donoho_stark_kernel(R, n_quad)
    assert kern.values.shape == (n_quad,)
    A = dense_from_values(kern)
    oracle = outer_difference_kernel(R, n_quad)
    assert np.abs(A - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert np.array_equal(np.diag(A), np.diag(oracle))
    # mirror-symmetric weights make the matrix centrosymmetric, the parity split's premise
    assert np.array_equal(kern.weights, kern.weights[::-1])
    assert kern.trace() == pytest.approx(float(np.trace(oracle)), rel=1e-12)


@pytest.mark.parametrize("n_quad", [64, 65, 127, 512, 1023])
@pytest.mark.parametrize("R", [1.0, 2.0, 5.0])
def test_donoho_stark_parity_split_matches_full_spectrum(R, n_quad):
    kern = donoho_stark_kernel(R, n_quad)
    eigs = donoho_stark_eigs(kern)
    assert eigs.shape == (n_quad,)
    assert np.all(np.diff(eigs) >= 0)
    assert np.abs(eigs - np.linalg.eigvalsh(dense_from_values(kern))).max() <= 1e-14


def test_donoho_stark_eigs_rejects_a_matrix_that_is_not_centrosymmetric():
    # the kernel values are Toeplitz by construction; only the weights can break the mirror
    kern = donoho_stark_kernel(1.0, 64)
    weights = kern.weights.copy()
    weights[0] *= 1.5
    with pytest.raises(ValueError, match="centrosymmetric"):
        donoho_stark_eigs(DonohoStarkKernel(kern.R, kern.grid, weights, kern.values))


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0])
def test_donoho_stark_rejects_non_finite_or_non_positive_R(R):
    with pytest.raises(ValueError, match="R must be positive and finite"):
        donoho_stark_kernel(R, 256)


def test_momentum_marginal_of_squeezed_state():
    from hqoc.circuit import squeeze
    from hqoc.simulator import apply_gate

    grid = centered_grid(4096, 40.0 / 4096)
    v = vacuum_state(1, 0, [grid])
    st = apply_gate(v, squeeze(0, 2.0))
    mom = distribution_from_arrays(st.grids[0].momenta, st.momentum_density(0))
    assert mom.second_moment == pytest.approx(0.125, abs=1e-6)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        distribution_from_arrays([0.0], [-1.0])
