"""Concentration quantities and energy lower bounds.

For a real random variable (here: discrete distributions or homodyne
marginals of simulated states):

* ``diam_delta``: width of a minimal interval carrying mass >= 1 - delta;
* ``symradius_delta``: smallest R with mass >= 1 - delta in [-R, R];
* ``delta * symradius^2 <= E[X^2]`` lower-bounds second moments, hence for
  states ``delta * symradius^2 / m <= energy`` per mode;
* the radius-dimension theorem lower-bounds the max symmetric radius of any
  orthonormal family via the trace of the kernel
  ``k(x, y) = sin(2R(x-y)) / (pi (x-y))`` restricted to ``[-R, R]^2``
  (a product of projectors, so PSD with eigenvalues <= 1 and trace
  ``4 R^2 / pi``).

The kernel is discretised on a uniform trapezoid grid of step ``h``, so its
weighted matrix ``A = W^{1/2} K W^{1/2}`` is Toeplitz inside the weights,
``K[i, j] = f[|i - j|]`` with ``f[k] = sin(2 R k h) / (pi k h)`` and
``f[0] = 2 R / pi``.  The kernel is held as those n values and the weights,
never as an n x n matrix; its trace is ``f[0]`` times the sum of the weights.
The kernel and the weights are even under ``x -> -x``, so ``A`` is
centrosymmetric (``J A J = A`` with ``J`` the exchange matrix).  With
``h = n // 2`` its spectrum is that of the even block ``A11 + A12 J`` together
with that of the odd block ``A11 - A12 J``, where
``(A11 +- A12 J)[i, j] = w_i^{1/2} (f[|i - j|] +- f[n - 1 - i - j]) w_j^{1/2}``
for ``i, j < h``: a Toeplitz part plus or minus a Hankel part, both read as
views of ``f``.  For odd ``n`` the middle row and column join the even block,
scaled by ``sqrt(2)``.  The blocks are built and solved one at a time, so the
spectrum needs the larger block and ``eigvalsh``'s copy of it, about
``4 n^2`` bytes, at a quarter of the flops of the full problem.

Distributions are sorted ``(value, mass)`` arrays; interval infima are found
by exact two-pointer sweeps, no continuous optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import DEFAULT_MEM_CAP_MB, HybridState, ResourceCapError


@dataclass(frozen=True)
class DiscreteDistribution:
    values: np.ndarray  # sorted ascending
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.ndim != 1 or v.shape != p.shape or v.size == 0:
            raise ValueError("distribution needs matching non-empty 1-d arrays")
        if np.any(np.diff(v) < 0):
            raise ValueError("values must be sorted ascending")
        if np.any(p < 0) or p.sum() <= 0:
            raise ValueError("probabilities must be non-negative with positive total")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p / p.sum())

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    @property
    def second_moment(self) -> float:
        return float(np.dot(self.probs, self.values ** 2))

    @property
    def sigma(self) -> float:
        return math.sqrt(max(0.0, self.second_moment - self.mean ** 2))


def distribution_from_arrays(values, probs) -> DiscreteDistribution:
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(values, kind="stable")
    return DiscreteDistribution(values[order], probs[order])


def symradius_delta(dist: DiscreteDistribution, delta: float) -> float:
    """Smallest R with P(|X| <= R) >= 1 - delta."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    absv = np.abs(dist.values)
    order = np.argsort(absv, kind="stable")
    cum = np.cumsum(dist.probs[order])
    k = int(np.searchsorted(cum, 1.0 - delta - 1e-15, side="left"))
    k = min(k, absv.size - 1)
    return float(absv[order][k])


def minimal_interval(dist: DiscreteDistribution, delta: float) -> tuple[float, float]:
    """One minimal-width interval with mass >= 1 - delta (two-pointer sweep)."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    v, p = dist.values, dist.probs
    target = 1.0 - delta - 1e-15
    best = (v[0], v[-1])
    acc = 0.0
    lo = 0
    for hi in range(v.size):
        acc += p[hi]
        while acc - p[lo] >= target:
            acc -= p[lo]
            lo += 1
        if acc >= target and v[hi] - v[lo] < best[1] - best[0]:
            best = (v[lo], v[hi])
    return float(best[0]), float(best[1])


def diam_delta(dist: DiscreteDistribution, delta: float) -> float:
    """Width of a minimal interval with mass >= 1 - delta."""
    lo, hi = minimal_interval(dist, delta)
    return hi - lo


def conditioned_on_interval(dist: DiscreteDistribution, lo: float, hi: float) -> DiscreteDistribution:
    mask = (dist.values >= lo) & (dist.values <= hi)
    return DiscreteDistribution(dist.values[mask], dist.probs[mask])


def state_symradius(state: HybridState, delta: float) -> float:
    """Symmetric delta-radius of a state: product projectors over all modes, max over Q/P."""
    return max(
        symradius_delta(_joint_max_abs(state, momentum=False), delta),
        symradius_delta(_joint_max_abs(state, momentum=True), delta),
    )


def _joint_max_abs(state: HybridState, momentum: bool) -> DiscreteDistribution:
    """Distribution of ``max_alpha |coordinate_alpha|`` over the mode axes (qubits traced out)."""
    amps = state.amps
    if momentum:
        for a in range(state.m):
            amps = np.fft.fft(amps, axis=a, norm="ortho")
        coords = [g.momenta for g in state.grids]
    else:
        coords = [g.xs for g in state.grids]
    dens = np.abs(amps) ** 2
    dens = dens.sum(axis=tuple(range(state.m, dens.ndim)))
    maxabs = np.zeros(dens.shape)
    for a in range(state.m):
        shape = [1] * state.m
        shape[a] = len(coords[a])
        maxabs = np.maximum(maxabs, np.abs(coords[a]).reshape(shape))
    return distribution_from_arrays(maxabs.ravel(), dens.ravel())


def energy_lower_bound_from_radius(state: HybridState, delta: float) -> tuple[float, float]:
    """(per-mode bound, total bound): delta * symradius^2 / m <= energy."""
    total = delta * state_symradius(state, delta) ** 2
    return total / state.m, total


def radius_dimension_bound(d: int, m: int, r: int, delta: float) -> float:
    """sqrt(pi/4) (d (1 - 3 sqrt(delta)) / 2^r)^{1/(2m)} for delta in (0, 1/9)."""
    if not (0 < delta < 1.0 / 9.0):
        raise ValueError("delta must lie in (0, 1/9)")
    if d < 1 or m < 1 or r < 0:
        raise ValueError("invalid family parameters")
    return math.sqrt(math.pi / 4.0) * (d * (1.0 - 3.0 * math.sqrt(delta)) / 2 ** r) ** (
        1.0 / (2.0 * m)
    )


def corollary_scalings(n: int, m: int, r: int, delta: float = 1.0 / 36.0) -> dict:
    """The derived family-size scalings s(n) = Omega(2^{n/2m}), E(n) = Omega(2^{n/m}/m)."""
    radius = radius_dimension_bound(2 ** n, m, r, delta)
    return {
        "radius_lower_bound": radius,
        "log2_radius_scaling": n / (2.0 * m),
        "energy_lower_bound": delta * radius ** 2 / m,
        "log2_energy_scaling": n / m - math.log2(m) if m > 0 else math.nan,
    }


# -- Donoho-Stark kernel --------------------------------------------------------------


@dataclass(frozen=True)
class DonohoStarkKernel:
    """Trapezoid discretisation of the Donoho-Stark kernel, held in O(n) memory.

    ``values[k] = f[k]`` is the kernel at separation ``k h``, so the weighted
    matrix is ``sqrt(w_i) values[|i - j|] sqrt(w_j)``; it is never formed.
    ``donoho_stark_eigs`` solves it as two parity blocks, about ``4 n^2`` bytes.
    """

    R: float
    grid: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def trace(self) -> float:
        """Quadrature trace ``f[0] * sum(w)``; tends to ``4 R^2 / pi``."""
        return float(self.values[0] * self.weights.sum())


def donoho_stark_kernel(R: float, n_quad: int) -> DonohoStarkKernel:
    """Trapezoid discretization of k(x,y) = sin(2R(x-y))/(pi(x-y)) on [-R,R]^2."""
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"R must be positive and finite, got {R}")
    if n_quad < 64:
        raise ValueError("n_quad must be >= 64")
    xs = np.linspace(-R, R, n_quad)
    h = xs[1] - xs[0]
    w = np.full(n_quad, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    f = np.empty(n_quad)  # f[k] = k(x, x + k h)
    f[0] = 2.0 * R / math.pi  # removable singularity
    kh = h * np.arange(1, n_quad)
    f[1:] = np.sin(2.0 * R * kh) / (math.pi * kh)
    return DonohoStarkKernel(R=R, grid=xs, weights=w, values=f)


def donoho_stark_eigs(kern: DonohoStarkKernel) -> np.ndarray:
    """Ascending eigenvalues of a discretized kernel (in [0, 1] up to quadrature error).

    Solved as the even and the odd half-size blocks of the centrosymmetric
    matrix (see the module docstring); raises ``ValueError`` for weights that
    are not mirror-symmetric, which would make the matrix not centrosymmetric.
    """
    w = kern.weights
    if not np.array_equal(w, w[::-1]):
        raise ValueError("Donoho-Stark matrix must be centrosymmetric (mirror-symmetric weights)")
    return np.sort(np.concatenate((_parity_block_eigs(kern, True), _parity_block_eigs(kern, False))))


def _parity_block_eigs(kern: DonohoStarkKernel, even: bool) -> np.ndarray:
    """Eigenvalues of the even or the odd parity block, built from ``f``."""
    f = kern.values
    n = f.size
    h = n // 2
    size = n - h if even else h  # odd n: the middle point joins the even block
    window = np.lib.stride_tricks.sliding_window_view
    # row i of the Toeplitz part is window h-1-i of f[h-1], ..., f[1], f[0], ..., f[h-1];
    # row i of the Hankel part f[n-1-i-j] is window i of f reversed
    toeplitz = window(np.concatenate((f[h - 1 : 0 : -1], f[:h])), h)[::-1]
    hankel = window(f[::-1], h)[:h]
    block = np.empty((size, size))
    (np.add if even else np.subtract)(toeplitz, hankel, out=block[:h, :h])
    if size > h:
        block[:h, h] = block[h, :h] = math.sqrt(2.0) * f[h:0:-1]
        block[h, h] = f[0]
    sw = np.sqrt(kern.weights[:size])
    block *= sw[:, None]
    block *= sw[None, :]
    return np.linalg.eigvalsh(block)


def donoho_stark_trace(
    R: float, n_quad: int, mem_cap_mb: float = DEFAULT_MEM_CAP_MB
) -> tuple[float, float]:
    """(quadrature trace, max eigenvalue); trace -> 4R^2/pi, eigenvalues in [0, 1].

    Raises ``ResourceCapError`` before building anything if the spectrum's
    peak, the even block and ``eigvalsh``'s copy of it, would exceed ``mem_cap_mb``.
    """
    mb = 2 * 8 * (n_quad - n_quad // 2) ** 2 / 1e6
    if mb > mem_cap_mb:
        raise ResourceCapError(f"Donoho-Stark blocks need {mb:g} MB > cap {mem_cap_mb:g} MB")
    kern = donoho_stark_kernel(R, n_quad)
    return kern.trace(), float(donoho_stark_eigs(kern)[-1])
