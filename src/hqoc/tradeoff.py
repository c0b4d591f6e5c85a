"""Energy-versus-modes trade-off calculators.

The headline sampling bound is

    ``||p - q||_1 <= 2^46 (s+m)^2 2^{24 n/m} energy^{-1/42}``

inverted by ``required_energy``.  Quantities routinely exceed the float range
(values like 2^995), so everything is carried in log2 form; linear values are
reported alongside whenever they are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import exp2_or_inf

LOG2_C = 46.0
SIZE_EXPONENT = 2.0
MODE_EXPONENT = 24.0
ENERGY_EXPONENT = 1.0 / 42.0


def _check_counts(n: int, m: int = 1, s: int = 0) -> None:
    if not (n >= 1 and m >= 1 and s >= 0):
        raise ValueError(f"need n >= 1, m >= 1 and s >= 0, got n={n}, m={m}, s={s}")


def _log2_prefactor(n: int, m: int, s: int) -> float:
    """log2 of 2^46 (s+m)^2 2^{24 n/m}; ``ValueError`` unless n >= 1, m >= 1 and s >= 0."""
    _check_counts(n, m, s)
    return LOG2_C + SIZE_EXPONENT * math.log2(s + m) + MODE_EXPONENT * n / m


def log2_sampling_error_bound(n: int, m: int, s: int, log2_energy: float) -> float:
    return _log2_prefactor(n, m, s) - ENERGY_EXPONENT * log2_energy


def sampling_error_bound(n: int, m: int, s: int, energy: float) -> float:
    """min(2, 2^46 (s+m)^2 2^{24 n/m} energy^{-1/42})."""
    if not (0 < energy < math.inf):
        raise ValueError(f"energy must be > 0 and finite, got {energy}")
    return min(2.0, exp2_or_inf(log2_sampling_error_bound(n, m, s, math.log2(energy))))


def log2_required_energy(n: int, m: int, s: int, epsilon: float) -> float:
    if not (0 < epsilon <= 2):
        raise ValueError("epsilon must lie in (0, 2]")
    return 42.0 * (_log2_prefactor(n, m, s) - math.log2(epsilon))


def required_energy(n: int, m: int, s: int, epsilon: float) -> tuple[float, float]:
    """(log2 energy, linear energy or inf) achieving L1 error epsilon."""
    log2_e = log2_required_energy(n, m, s, epsilon)
    return log2_e, exp2_or_inf(log2_e)


# Constants of the corollary form energy = C (2^{n/m})^delta (s, eps powers),
# derived by expanding the 42nd power of the inverted main bound.
DERIVED_CONSTANTS = {
    "log2_C": 42.0 * LOG2_C,  # 1932
    "delta": 42.0 * MODE_EXPONENT,  # 1008
    "mu_size": 42.0 * SIZE_EXPONENT,  # 84, applied to (s + m)
    "mu_eps": 42.0,  # inverse-error power
}


# -- implementation-side bounds -----------------------------------------------------


@dataclass(frozen=True)
class ImplementationEnergy:
    """log2-form evaluation of the compiled-scheme energy bound."""

    log2_energy: float
    energy: float
    xi_bar_wtot: float  # 72 s 2^ell + 10 log2(1/Delta)
    log2_g_bar_wtot: float  # log2(1024 2^{148 ell} / Delta^3)
    log2_xi_wu: float
    log2_g_wu: float


def _log2_impl_prefactor(s: int, ell: int) -> float:
    """log2 of s^3 2^{891 ell + 62}."""
    return 3.0 * math.log2(s) + 891.0 * ell + 62.0


def implementation_energy_bound(s: int, ell: int, delta: float) -> ImplementationEnergy:
    """energy(W_tot) <= s^3 2^{891 ell + 62} / Delta^21, with the composite parameters."""
    if s < 1 or ell < 1:
        raise ValueError("s and ell must be positive")
    if not (0 < delta < 2.0 ** -(ell + 1)) and delta != 2.0 ** -(ell + 1):
        raise ValueError("hypothesis requires delta <= 2^-(ell+1)")
    log2_inv_delta = -math.log2(delta)
    log2_energy = _log2_impl_prefactor(s, ell) + 21.0 * log2_inv_delta
    return ImplementationEnergy(
        log2_energy=log2_energy,
        energy=exp2_or_inf(log2_energy),
        xi_bar_wtot=72.0 * s * 2.0 ** ell + 10.0 * log2_inv_delta,
        log2_g_bar_wtot=10.0 + 148.0 * ell + 3.0 * log2_inv_delta,
        log2_xi_wu=math.log2(72.0 * s) + ell,
        log2_g_wu=8.0 + 148.0 * ell,
    )


def log2_delta_max(s: int, ell: int, log2_energy: float) -> float:
    """log2 of min{2^-(ell+1), s^{3/21} 2^{(891 ell + 62)/21} energy^{-1/21}}."""
    return min(
        -(ell + 1.0),
        (_log2_impl_prefactor(s, ell) - log2_energy) / 21.0,
    )


# -- regime table --------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeRow:
    label: str
    n_values: tuple[int, ...]
    log2_energy: tuple[float, ...]
    fitted_exponent: float
    growth_class: str


def _fit_residuals(ns, ys, betas) -> np.ndarray:
    """Least-squares residual of y ~ a + b n^beta for each beta, all at once.

    For fixed beta the best line through (x, y) = (n^beta, y) has slope
    ``b = <xc, yc> / <xc, xc>`` on the centred values, and residual
    ``sum (b xc - yc)^2``; a constant x (``<xc, xc> = 0``) fits ``b = 0``.
    """
    xc = ns ** np.asarray(betas, dtype=float)[:, None]
    xc -= xc.mean(axis=1, keepdims=True)
    yc = ys - ys.mean()
    sxx = np.einsum("ij,ij->i", xc, xc)
    b = np.divide(xc @ yc, sxx, out=np.zeros_like(sxx), where=sxx > 0)
    return ((b[:, None] * xc - yc) ** 2).sum(axis=1)


def _fit_power_exponent(ns, ys) -> float:
    """Least-squares exponent beta of y ~ a + b n^beta: grid search, then ternary refinement."""
    ns = np.asarray(ns, dtype=float)
    ys = np.asarray(ys, dtype=float)
    betas = np.linspace(0.02, 1.4, 277)
    best = betas[int(np.argmin(_fit_residuals(ns, ys, betas)))]
    lo, hi = max(0.01, best - 0.01), best + 0.01
    for _ in range(40):
        mid1 = lo + (hi - lo) / 3
        mid2 = hi - (hi - lo) / 3
        r1, r2 = _fit_residuals(ns, ys, (mid1, mid2))
        if r1 < r2:
            hi = mid2
        else:
            lo = mid1
    return float((lo + hi) / 2)


def classify_growth(beta: float) -> str:
    if beta >= 0.85:
        return "exponential"
    if beta <= 0.25:
        return "polynomial"
    return "subexponential"


# Mode-count regimes of ``regime_table``: label -> m(n).
MODE_REGIMES = {
    "m=1": lambda n: 1,
    "m=ceil(sqrt(n))": lambda n: math.ceil(math.sqrt(n)),
    "m=n": lambda n: n,
}


def regime_table(n_values) -> list[RegimeRow]:
    """Required-energy growth for mode counts m in {1, ceil(sqrt n), n}.

    The model circuit has s(n) = n^2 gates and targets the error 1/n.
    Growth classes are for the ENERGY as a function of n: a log2-energy
    fitted power ~1 means exponential energy, ~1/2 subexponential, and a
    sublinear/logarithmic log2-energy means polynomial energy.  The fit
    y ~ a + b n^beta needs at least three distinct n (``ValueError``): with
    fewer, every beta fits.
    """
    for n in n_values:
        _check_counts(n)
    if len(set(n_values)) < 3:
        raise ValueError(f"the regime fit needs at least 3 distinct n values, got {list(n_values)}")
    rows = []
    for label, m_fn in MODE_REGIMES.items():
        log2s = tuple(log2_required_energy(n, m_fn(n), n * n, 1.0 / n) for n in n_values)
        beta = _fit_power_exponent(n_values, log2s)
        rows.append(
            RegimeRow(
                label=label,
                n_values=tuple(n_values),
                log2_energy=log2s,
                fitted_exponent=beta,
                growth_class=classify_growth(beta),
            )
        )
    return rows
