"""Rectangular-envelope truncated GKP comb states.

The base comb ``|Sha^eps_{L,Delta}>`` is ``1/sqrt(L)`` times a sum of ``L``
truncated, individually normalized Gaussians of width ``Delta`` centered at
the integers ``z = -L/2 .. L/2-1``, each cut to the open interval
``|x - z| < eps``; the float rounding of ``x - z`` decides whether a cell
centre exactly on an edge is kept.  The code state of logical index ``j`` in
dimension ``d`` is

    ``|Sha^eps_{L,Delta}(j)_d> = e^{-i sqrt(2 pi / d) j P} M_{sqrt(2 pi d)} |Sha^eps_{L,Delta}>``

so its peaks sit at ``sqrt(2 pi d) z + sqrt(2 pi / d) j`` with Gaussian width
``sqrt(2 pi d) Delta`` and half-support ``sqrt(2 pi d) eps``.  For the
canonical truncation ``eps = 1/(2d)``, states of distinct ``j`` have disjoint
(open) supports and form an orthonormal family.

States are constructed analytically (sampled closed form, renormalized on the
grid), which makes them an oracle independent of the preparation circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import ceil_log2
from .simulator import EXP_UNDERFLOW_REACH, GridError, GridSpec, HybridState, centered_grid, grid_sizes

# Default resolution of a comb state: samples per peak sigma.
SAMPLES_PER_SIGMA = 8
# Padding of ``default_comb_grid`` past the outermost support, in peak sigmas.
PAD_SIGMAS = 12.0


@dataclass(frozen=True)
class CombStateSpec:
    """One comb state: width Delta, code dimension d, truncation eps, peak count L, logical index j."""

    delta: float
    d: int
    eps: float
    L: int
    j: int

    def __post_init__(self):
        if not (0 < self.delta < 0.25):
            raise ValueError("delta must lie in (0, 1/4)")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not (0 < self.eps <= 1.0 / (2 * self.d)):
            raise ValueError("eps must lie in (0, 1/(2d)]")
        if self.L % 2 or self.L < 2:
            raise ValueError("L must be a positive even integer")
        if not (0 <= self.j < self.d):
            raise ValueError("logical index j out of range")

    @property
    def scale(self) -> float:
        return math.sqrt(2 * math.pi * self.d)

    @property
    def fine(self) -> float:
        return math.sqrt(2 * math.pi / self.d)

    @property
    def shift(self) -> float:
        return self.fine * self.j

    @property
    def peak_centers(self) -> np.ndarray:
        zs = np.arange(-self.L // 2, self.L // 2)
        return self.scale * zs + self.shift

    @property
    def peak_sigma(self) -> float:
        return self.scale * self.delta

    @property
    def half_support(self) -> float:
        return self.scale * self.eps


def _peak_count(delta: float, ell: int, what: str) -> int:
    n_exp = 2 * (ceil_log2(1.0 / delta) - ell)
    if n_exp < 1:
        raise ValueError(f"delta too large for this {what} (L < 2)")
    return 2 ** n_exp


def comb_spec(delta: float, d: int, j: int) -> CombStateSpec:
    """Canonical code state: eps = 1/(2d), L = 2^{2(ceil(log2 1/Delta) - floor(log2 d))}."""
    if not (0 < delta < 0.25):
        raise ValueError("delta must lie in (0, 1/4)")
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError("d must be an integer >= 2")
    L = _peak_count(delta, int(d).bit_length() - 1, "code dimension")
    return CombStateSpec(delta=float(delta), d=int(d), eps=1.0 / (2 * d), L=L, j=j)


def aux_spec(delta: float, ell: int) -> CombStateSpec:
    """Auxiliary qubit state: d = 2, j = 0, eps = 2^-(ell+1) and L = L_{Delta, 2^ell}; ell >= 1."""
    L = _peak_count(delta, ell, "ell")
    return CombStateSpec(delta=float(delta), d=2, eps=2.0 ** -(ell + 1), L=L, j=0)


def comb_family(delta: float, d: int) -> list[HybridState]:
    """The d code states j = 0 .. d-1 of the canonical family, on one default grid."""
    grid = default_comb_grid(comb_spec(delta, d, 0))
    return [comb_wavefunction(comb_spec(delta, d, j), grid) for j in range(d)]


def support_set(spec: CombStateSpec) -> list[tuple[float, float]]:
    """The L support intervals ``[c - h, c + h]``, closed; the comb keeps their open interiors.

    At ``eps = 1/(2d)`` the closed intervals of neighbouring j touch at their
    ends; only the open interiors are disjoint across distinct j.
    """
    h = spec.half_support
    return [(c - h, c + h) for c in spec.peak_centers]


def _check_grid(spec: CombStateSpec, grid: GridSpec, samples_per_sigma: float) -> None:
    if grid.dx > spec.peak_sigma / samples_per_sigma * (1 + 1e-9):
        raise GridError(
            f"grid too coarse: dx={grid.dx:.4g} > peak_sigma/{samples_per_sigma:g}"
            f"={spec.peak_sigma / samples_per_sigma:.4g}"
        )
    lo = spec.peak_centers[0] - spec.half_support
    hi = spec.peak_centers[-1] + spec.half_support
    if grid.x0 > lo - 2 * grid.dx or grid.x0 + grid.extent < hi + 2 * grid.dx:
        raise GridError("grid too small: comb support escapes the grid")


@dataclass(frozen=True, eq=False)
class ModeSupport:
    """One mode's state held as its support: ``values`` at ``cells`` of ``grid``, 0 elsewhere.

    ``cells`` are ascending int64 cell indices and ``values`` the amplitudes
    there up to one factor (a comb's are its peaks' Gaussians before
    normalization).  A cell of real value is 16 B, as one complex amplitude of a grid is.
    """

    grid: GridSpec
    cells: np.ndarray
    values: np.ndarray


def comb_support(
    spec: CombStateSpec, grid: GridSpec, samples_per_sigma: float = SAMPLES_PER_SIGMA
) -> ModeSupport:
    """The support of the comb state ``spec`` on ``grid``: its cells inside a peak and their Gaussians.

    ``GridError`` if ``grid`` is coarser than ``samples_per_sigma`` samples a
    peak sigma or does not hold the support.
    """
    _check_grid(spec, grid, samples_per_sigma)
    return _truncated_peaks(grid, spec.shift, spec.scale, spec.delta, spec.eps, spec.L)


def comb_support_size(spec: CombStateSpec, grid: GridSpec) -> int:
    """Most cells ``comb_support(spec, grid)`` computes, counted without building it.

    Each of the L peak windows holds the cells of ``[c - h, c + h)``, at most
    ``ceil(2 h / dx) + 1`` when the float positions round at both ends, and one
    padding cell on each side.
    """
    return spec.L * (math.ceil(2 * spec.half_support / grid.dx) + 3)


def comb_wavefunction(
    spec: CombStateSpec, grid: GridSpec, samples_per_sigma: float = SAMPLES_PER_SIGMA, r: int = 0
) -> HybridState:
    """Sampled, renormalized closed-form comb state on one mode, times ``r`` qubits at |0...0>.

    The state is the comb's support (``comb_support``) written into the
    |0...0> branch of a zeroed array and normalized over that branch.  The
    default resolution requirement (8 samples per peak sigma) suits
    decoding and quadrature use.  ``auto_grid`` sizes simulation grids by the
    Nyquist band alone, so at the end of a preparation circuit they sample a
    peak only a few times per sigma (2.20 for the ell=1, Delta=0.02 code prep
    at ``base_margin=0.3``); oracles compared against them lower
    ``samples_per_sigma`` (``code_prep_target`` passes 1), which is sound
    when the truncation edges are negligible (``delta << eps``).
    """
    support = comb_support(spec, grid, samples_per_sigma)
    return HybridState(1, r, (grid,), _real_amps(grid, r, support.cells, support.values))


def _real_amps(grid: GridSpec, r: int, cells, values: np.ndarray) -> np.ndarray:
    """Unit-norm amplitudes of one mode and ``r`` qubits: ``values`` at ``cells`` of the |0...0> branch.

    A comb is real: only the real parts of that branch are written, so no
    one-mode array is copied in.  ``sqrt(re . re)`` is the sum
    ``np.linalg.norm`` takes, without its copy of a strided view, and numpy
    divides a complex array by a real as a product with the reciprocal: at
    ``r = 0`` this is ``a / np.linalg.norm(a)`` bit for bit.  ``GridError``
    when the norm is 0.
    """
    amps = np.zeros((grid.n_points,) + (2,) * r, dtype=complex)
    re = amps[(slice(None),) + (0,) * r].real
    re[cells] = values
    nrm = np.sqrt(re.dot(re))
    if nrm == 0:
        raise GridError("comb support does not intersect the grid")
    re *= 1.0 / nrm
    return amps


def _window_cells(grid: GridSpec, lo: np.ndarray, hi: np.ndarray, pad: int = 0):
    """Cells ``[cell_index(lo) - pad, cell_index(hi) + pad)`` of each window, window after window.

    Returns the cell indices and the number of cells in each window.
    """
    first = np.maximum(grid.cell_index(lo) - pad, 0)
    counts = np.maximum(np.minimum(grid.cell_index(hi) + pad, grid.n_points) - first, 0)
    starts = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(first - starts, counts), counts


def _truncated_peaks(
    grid: GridSpec, shift: float, scale: float, delta: float, eps: float, L: int
) -> ModeSupport:
    """Support of the sum of width-Delta Gaussians cut at ``|u - z| < eps``, z = -L/2 .. L/2-1.

    ``u = (x - shift) / scale`` over the cells x of ``grid``.  Only the cells
    of each peak's window (its support, padded by a cell on each side) are
    computed, with the same float steps as over the whole grid; the Gaussian
    is evaluated on those inside a peak.
    """
    centres = scale * np.arange(-L // 2, L // 2) + shift
    cells, _ = _window_cells(grid, centres - scale * eps, centres + scale * eps, pad=1)
    w = grid.xs_at(cells)  # u, then w = u - z, then the Gaussian
    w -= shift
    w /= scale
    z = np.rint(w)
    w -= z
    inside = (z >= -L // 2) & (z <= L // 2 - 1) & (np.abs(w) < eps)
    cells, w = cells[inside], w[inside]
    np.square(w, out=w)
    np.negative(w, out=w)
    w /= 2 * delta ** 2
    np.exp(w, out=w)
    return ModeSupport(grid, cells, w)


def untruncated_comb_wavefunction(L: int, delta: float, grid: GridSpec, r: int = 0) -> HybridState:
    """``|Sha_{L,Delta}>``: full (untruncated) Gaussians at L integer centers, times ``r`` qubits at |0...0>.

    Each Gaussian is evaluated only on the cells within ``EXP_UNDERFLOW_REACH``
    widths of its centre, all peaks in one array, and ``np.add.at`` adds them
    into each cell in ascending z: the full-grid sum bit for bit, since a
    peak out of reach adds an exact 0.  The peaks' cells and values are
    freed before the state is allocated beside the sum.
    """
    zs = np.arange(-L // 2, L // 2)
    reach = delta * EXP_UNDERFLOW_REACH
    cells, counts = _window_cells(grid, zs - reach, zs + reach)
    gauss = np.exp(-((grid.xs_at(cells) - np.repeat(zs, counts)) ** 2) / (2 * delta ** 2))
    psi = np.zeros(grid.n_points)
    np.add.at(psi, cells, gauss)
    del cells, gauss
    return HybridState(1, r, (grid,), _real_amps(grid, r, ..., psi))


def default_comb_grid(spec: CombStateSpec) -> GridSpec:
    """Centred grid with peak centers exactly on cell centers.

    ``dx = sqrt(2 pi / d) / 2^k`` with k minimal such that the peak Gaussian
    is sampled at least ``SAMPLES_PER_SIGMA`` times per sigma; the size is the
    first of ``grid_sizes`` past ``PAD_SIGMAS`` peak sigmas beyond the support.
    """
    k = max(0, ceil_log2(SAMPLES_PER_SIGMA * spec.fine / spec.peak_sigma))
    dx = spec.fine / 2 ** k
    top = spec.scale * (spec.L // 2) + spec.scale  # covers shifts for all j < d
    reach = top + spec.half_support + PAD_SIGMAS * spec.peak_sigma
    return centered_grid(grid_sizes(2.0 * reach / dx)[0], dx)


def overlap_check(delta: float, eps: float, L: int) -> tuple[float, float]:
    """Numeric |<Sha, Sha^eps>|^2 against the bound 1 - 16 Delta^2 - 2 e^{-(eps/Delta)^2}."""
    if not (0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    if not (0 < delta < 0.25):
        raise ValueError("delta must lie in (0, 1/4)")
    dx = delta / 16.0
    reach = L / 2 + 1.0 + 12.0 * delta
    grid = centered_grid(grid_sizes(2 * reach / dx)[0], dx)
    full = untruncated_comb_wavefunction(L, delta, grid)
    trunc = _truncated_peaks(grid, 0.0, 1.0, delta, eps, L)
    overlap_sq = abs(np.vdot(full.amps, _real_amps(grid, 0, trunc.cells, trunc.values))) ** 2
    bound = 1.0 - 16.0 * delta ** 2 - 2.0 * math.exp(-((eps / delta) ** 2))
    return float(overlap_sq), float(bound)

