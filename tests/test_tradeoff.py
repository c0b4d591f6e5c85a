import math

import numpy as np
import pytest

from hqoc.tradeoff import (
    DERIVED_CONSTANTS,
    _fit_power_exponent,
    _fit_residuals,
    implementation_energy_bound,
    log2_delta_max,
    log2_required_energy,
    log2_sampling_error_bound,
    regime_table,
    required_energy,
    sampling_error_bound,
)


def test_bound_formula():
    # (n=10, m=10, s=100, E): 2^46 * 110^2 * 2^24 * E^{-1/42}
    log2_e = 420.0
    got = log2_sampling_error_bound(10, 10, 100, log2_e)
    want = 46 + 2 * math.log2(110) + 24 - log2_e / 42
    assert got == pytest.approx(want, rel=1e-14)


def test_bound_clamped_and_vanishing():
    assert sampling_error_bound(10, 10, 100, energy=1.0) == 2.0
    assert log2_sampling_error_bound(4, 4, 10, 1e9) < math.log2(1e-200)


def test_bound_monotonicity():
    base = log2_sampling_error_bound(16, 4, 100, 4200.0)
    assert log2_sampling_error_bound(16, 4, 100, 4300.0) < base
    assert log2_sampling_error_bound(16, 4, 200, 4200.0) > base
    assert log2_sampling_error_bound(20, 4, 100, 4200.0) > base
    assert log2_sampling_error_bound(16, 2, 100, 4200.0) > base  # fewer modes


def test_inversion_round_trip():
    for n, m, s, eps in [(10, 2, 50, 0.5), (64, 8, 4096, 1e-3), (7, 7, 10, 2.0)]:
        log2_e = log2_required_energy(n, m, s, eps)
        back = log2_sampling_error_bound(n, m, s, log2_e)
        assert back == pytest.approx(math.log2(eps), rel=1e-12, abs=1e-12)
        assert back <= math.log2(eps * (1 + 1e-12))


def test_epsilon_halving_costs_2_to_42():
    a = log2_required_energy(12, 3, 100, 0.5)
    b = log2_required_energy(12, 3, 100, 0.25)
    assert b - a == pytest.approx(42.0, rel=1e-12)


def test_doubling_modes_halves_mode_exponent():
    # with s >> m the (s+m)^2 factor change is negligible
    n, s, eps = 48, 10 ** 9, 1.0
    drop = log2_required_energy(n, 2, s, eps) - log2_required_energy(n, 4, s, eps)
    assert drop == pytest.approx(42 * 12 * n / 2, rel=1e-6)


def test_required_energy_overflow_goes_log2():
    # the constant 2^{42*46} alone exceeds the float range, so the linear
    # field is informative only through the log2 value
    log2_e, linear = required_energy(100, 1, 1000, 1e-3)
    assert linear == math.inf
    assert log2_e > 100000


def test_derived_constants():
    assert DERIVED_CONSTANTS["log2_C"] == 42 * 46
    assert DERIVED_CONSTANTS["delta"] == 1008
    assert DERIVED_CONSTANTS["mu_eps"] == 42


def test_implementation_energy_point_value():
    impl = implementation_energy_bound(1, 1, 0.25)
    assert impl.log2_energy == pytest.approx(995.0, abs=1e-9)
    assert impl.energy == pytest.approx(2.0 ** 995)


def test_implementation_energy_components():
    impl = implementation_energy_bound(10, 2, 1e-3)
    assert impl.xi_bar_wtot == pytest.approx(72 * 10 * 4 + 10 * math.log2(1000))
    assert impl.log2_g_bar_wtot == pytest.approx(10 + 296 + 3 * math.log2(1000))
    assert impl.log2_g_wu == 8 + 148 * 2
    with pytest.raises(ValueError):
        implementation_energy_bound(10, 2, 0.2)  # delta > 2^-(ell+1)


def test_delta_max_selection():
    # the largest Delta meeting an energy budget under the implementation bound
    # below the knee the 2^-(ell+1) cap binds; for huge energies the other term
    assert log2_delta_max(1, 1, 100.0) == -2.0
    huge = log2_delta_max(1, 1, 10 ** 6)
    assert huge == pytest.approx((891 + 62 - 10 ** 6) / 21.0)
    assert huge < -2.0


def test_regime_table_classes():
    ns = [16, 32, 64, 128, 256, 512, 1024]
    rows = {r.label: r for r in regime_table(ns)}
    assert abs(rows["m=1"].fitted_exponent - 1.0) <= 0.1
    assert rows["m=1"].growth_class == "exponential"
    assert abs(rows["m=ceil(sqrt(n))"].fitted_exponent - 0.5) <= 0.05
    assert rows["m=ceil(sqrt(n))"].growth_class == "subexponential"
    assert rows["m=n"].growth_class == "polynomial"
    # energies are increasing in n in every regime
    for row in rows.values():
        assert all(a < b for a, b in zip(row.log2_energy, row.log2_energy[1:]))


def test_regime_table_models_n_squared_gates_at_error_one_over_n():
    ns = [16, 64, 256, 1024]
    m_of = {"m=1": lambda n: 1, "m=ceil(sqrt(n))": lambda n: math.ceil(math.sqrt(n)), "m=n": lambda n: n}
    for row in regime_table(ns):
        want = tuple(log2_required_energy(n, m_of[row.label](n), n * n, 1.0 / n) for n in ns)
        assert row.log2_energy == want


def test_input_validation():
    with pytest.raises(ValueError):
        log2_required_energy(4, 2, 10, 3.0)
    for energy in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="energy must be > 0"):
            sampling_error_bound(4, 2, 10, energy=energy)
    with pytest.raises(ValueError, match="energy must be > 0 and finite, got inf"):
        sampling_error_bound(4, 2, 10, energy=math.inf)


@pytest.mark.parametrize("n, m, s", [(0, 1, 10), (4, 0, 10), (4, -1, 10), (4, 2, -1), (math.nan, 1, 10)])
def test_counts_out_of_range_rejected(n, m, s):
    with pytest.raises(ValueError, match="need n >= 1, m >= 1 and s >= 0"):
        log2_required_energy(n, m, s, 0.1)
    with pytest.raises(ValueError, match="need n >= 1, m >= 1 and s >= 0"):
        log2_sampling_error_bound(n, m, s, 100.0)


def test_regime_table_rejects_n_below_one():
    with pytest.raises(ValueError, match="need n >= 1"):
        regime_table([0, 1])


@pytest.mark.parametrize("ns", [[16], [16, 32], [16, 32, 16]])
def test_regime_table_needs_three_distinct_n(ns):
    # y ~ a + b n^beta has three parameters: through two points every beta fits
    with pytest.raises(ValueError, match="at least 3 distinct n values"):
        regime_table(ns)
    assert len(regime_table([16, 64, 256])) == 3


def test_smallest_counts_accepted():
    assert log2_required_energy(1, 1, 0, 2.0) == 42.0 * (46.0 + 24.0 - 1.0)


def _lstsq_residual(ns, ys, beta):
    """Reference: the residual of y ~ a + b n^beta from ``np.linalg.lstsq``."""
    A = np.stack([np.ones_like(ns), ns ** beta], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(np.sum((A @ coef - ys) ** 2))


def _lstsq_fit(ns, ys):
    """Reference fit: the same grid and ternary refinement on ``lstsq`` residuals."""
    betas = np.linspace(0.02, 1.4, 277)
    best = betas[int(np.argmin([_lstsq_residual(ns, ys, b) for b in betas]))]
    lo, hi = max(0.01, best - 0.01), best + 0.01
    for _ in range(40):
        mid1, mid2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if _lstsq_residual(ns, ys, mid1) < _lstsq_residual(ns, ys, mid2):
            hi = mid2
        else:
            lo = mid1
    return (lo + hi) / 2


def test_closed_form_fit_matches_lstsq():
    rng = np.random.default_rng(7)
    for _ in range(40):
        ns = np.unique(np.rint(2.0 ** rng.uniform(1, 11, size=int(rng.integers(3, 9)))))
        beta0 = rng.uniform(0.05, 1.35)
        ys = rng.uniform(-50, 50) + rng.uniform(0.5, 40) * ns ** beta0
        ys += rng.normal(scale=1e-3 * np.ptp(ys), size=ys.size)
        betas = rng.uniform(0.01, 1.42, 16)
        got = _fit_residuals(ns, ys, betas)
        want = np.array([_lstsq_residual(ns, ys, b) for b in betas])
        assert np.all(np.abs(got - want) <= 1e-9 * float(np.sum((ys - ys.mean()) ** 2)))
        # near the minimum both residuals are flat to rounding over the last
        # brackets of the refinement (0.02 (2/3)^k wide), so the exponents agree
        # to a few final brackets; criterion 10's rows agree to 1e-9 (below)
        assert abs(_fit_power_exponent(ns, ys) - _lstsq_fit(ns, ys)) <= 1e-8
    # a constant n^beta column (n all equal) fits the mean, like lstsq's minimum-norm solution
    ns, ys = np.full(4, 3.0), np.array([1.0, 2.0, 4.0, 8.0])
    assert _fit_residuals(ns, ys, [0.5])[0] == pytest.approx(_lstsq_residual(ns, ys, 0.5), rel=1e-12)


def test_criterion_10_exponents_match_lstsq_fit():
    ns = [16, 32, 64, 128, 256, 512, 1024]
    for row in regime_table(ns):
        ref = _lstsq_fit(np.asarray(ns, dtype=float), np.asarray(row.log2_energy))
        assert abs(row.fitted_exponent - ref) <= 1e-9
