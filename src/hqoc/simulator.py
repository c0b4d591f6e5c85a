"""Grid state-vector simulation of hybrid qubit-oscillator circuits.

A :class:`HybridState` holds the complex amplitudes of ``m`` oscillator modes
(position grids, one axis per mode) tensored with ``r`` qubits (trailing axes
of size 2).  A mode's grid holds ``2^k`` points (``k >= 1``) times one odd
factor of ``GRID_ODD_FACTORS = (1, 3, 5, 9, 15)``: even sizes that numpy's
FFT splits into radices 2, 3 and 5, so a grid (:func:`grid_sizes`) can stop
short of the next power of two.  Amplitudes are stored so that ``sum |amps|^2 = 1``; the
wavefunction value at a cell is ``amp / sqrt(dx)``.

Gate kernels:

* ``e^{itQ}``: pointwise phase ``e^{itx}``;
* ``e^{-itP}``: exact roll when ``t`` is an integer number of cells, otherwise
  a phase multiply in the discrete Fourier domain (exact for band-limited
  states on a periodic grid); the overflow guard then reads only ``EDGE_CELLS``
  cells at each edge, so it sees mass drifting onto an edge, not a shift past
  it, nor momentum aliasing;
  :func:`auto_grid` snaps ``dx`` so that, where one ``dx`` can, every shift
  of a mode is a roll (the circuits of the paper's preparations all are);
* ``M_alpha``: exact grid-metadata rescale ``dx -> alpha dx`` (no
  interpolation; legal because the gate set has no controlled squeezing, so
  ``dx`` is global per mode);
* qubit gates: a 2^k x 2^k gate as one real 2^(k+1) x 2^(k+1) ``matmul`` on
  the float64 view of the amplitudes, the qubit axes next to its (re, im)
  axis, chunk by chunk;
* controlled displacements act on the control-bit-1 qubit branches only.

Both displacement phases are linear in the cell index and are built from two
~sqrt(n) tables of ``exp`` (:func:`_linear_phase`).  The kernels update the
amplitudes in place: :func:`apply_circuit` copies the input amplitudes once
and runs every gate on that one private copy, so the caller's state is never
written; :func:`apply_gate` runs it on a one-gate circuit.  The state
handed to an ``apply_circuit`` callback is the working state itself, valid
until the callback returns: copy it to keep it, and do not write it.

Occupied blocks.  Mode 0's axis is cut into blocks of one ``_linear_phase``
table row (at least two cells; 256 on the 147,456-point code-prep grid).
:func:`apply_circuit` reads once which blocks hold a nonzero amplitude and
keeps their runs (maximal stretches of occupied blocks) from gate to gate in
an :class:`_Occupancy`; every amplitude outside the runs is exactly 0.  The
qubit gates and the displacements of mode 0 touch only the runs:

* the private copy is the runs written into a zeroed array;
* a phase multiplies each run by the phases of its own table rows;
* a qubit gate writes each run's product back into the run, chunk by chunk;
* a whole-cell shift whose runs stay inside the grid moves each run in place,
  runs in the shift's direction first, and zeroes the cells it vacates; a
  controlled shift adds the moved runs to the old ones;
* a shift whose runs would cross an edge, a fractional (Fourier) shift and a
  fully occupied axis run the whole-axis kernel above on one full run, after
  which the axis counts as full.

A displacement of another mode runs its whole-array kernel along that mode's
axis, which maps an all-zero slice of mode 0 to zeros.

The values equal the whole-array kernels' exactly (a whole-array product can
write -0.0 where the runs leave +0.0).

Vacuum convention: ``psi(x) = pi^{-1/4} e^{-x^2/2}``, i.e.
``<Q^2> = <P^2> = 1/2`` and energy ``<Q^2 + P^2> = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .circuit import KINDS, Circuit, Gate, gate_matrix, mode_gates, target_modes
from .moments import AnalysisError, generator_mlf, require_elementary

# Radius containing all but <= 1e-12 of the vacuum's position/momentum mass.
VACUUM_TAIL_RADIUS = 5.1

BOUNDARY_MASS_TOL = 1e-8
# Cells at each grid edge that the overflow guard reads.
EDGE_CELLS = 2
# |u| past which ``exp(-u^2 / 2)`` underflows to 0 in double precision
# (exponent below -746): Gaussians are evaluated only within this reach.
EXP_UNDERFLOW_REACH = math.sqrt(2 * 746.0)
# Fewest points ``auto_grid`` gives a mode.
MIN_GRID_POINTS = 256
# Odd parts m of the grid sizes n = m 2^k (k >= 1).
GRID_ODD_FACTORS = (1, 3, 5, 9, 15)
# Memory cap in MB of a run's working set when the caller gives none.
DEFAULT_MEM_CAP_MB = 1024.0
# Most cells of mode 0 in one qubit-gate product, the gate's only temporary:
# 4,096 cells of one mode and one qubit are 128 KiB, where the largest run of
# the code prep (l=1, Delta=0.02; 112,896 cells) made 3.6 MB.  OpenBLAS hands
# a product to its worker thread (whose buffers the process keeps) once
# rows x N x K passes 262,144.  On one mode the real product of a k-qubit
# gate has 4,096 x 2^(r-k) rows and N = K = 2^(k+1), so it stays on one
# thread for r - 1 <= 2 with one qubit and only at r = 2 with two (no
# benchmarked circuit has r > 2).  A power of two, as blocks are, so every
# chunk holds at least two cells.  Prep benchmark peak RSS (2 cores, 60 s
# runs): 53.2-54.2 MB.
QUBIT_CHUNK_CELLS = 4096

# Peak memory of a run, in copies of 16 B a counted cell, as ``check_cells_cap``
# counts it.  A simulated run counts the cells of its amplitude array
# (``check_mem_cap``).  ``apply_circuit`` holds the caller's state and its
# private copy, i.e. 2 copies; one kernel's temporaries come on top: a qubit
# gate's product of one chunk, the phases of the occupied cells (half a copy
# with one qubit), a moved run's buffer, or on the whole-axis path a shift's
# roll or transform and the FFT plan.  Measured ``tracemalloc`` peaks: 2.45
# for ``apply_circuit`` of the code prep (l=1, Delta=0.02; 147,456 points) with
# the caller's vacuum held, a controlled kick's phases on top (2.62 for the
# comb prep, n=8; 36,864 points); 2.00 for either when the vacuum is freed
# once copied.  The sampling run counts the cells of one comb support
# (``gkp.comb_support_size``, the support's peak windows), not its grid's
# points: building the support peaks at 2.53-2.55 copies (n=2, m=1,
# Delta=0.01-0.05; 4,288-265,216 cells), sampling it at less, and the shot
# arrays are counted apart.  Rounded up to 4.
WORKING_SET_COPIES = 4


class GridError(ValueError):
    """Grid is inadequate for the requested construction."""


class GridOverflowError(GridError):
    """Mass on a grid's ``EDGE_CELLS`` edge cells after a shift (not a jump past them)."""


class GridMismatchError(ValueError):
    """Binary operation on states living on different grids."""


class ResourceCapError(RuntimeError):
    """Requested allocation exceeds the configured memory cap."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid: ``n_points`` cells at spacing ``dx`` from ``x0``.

    ``n_points`` is ``m 2^k`` with ``k >= 1`` and ``m`` in ``GRID_ODD_FACTORS``;
    any other size raises ``GridError``.
    """

    n_points: int
    dx: float
    x0: float

    def __post_init__(self):
        n = self.n_points
        if n < 2 or n % 2 or n // (n & -n) not in GRID_ODD_FACTORS:
            raise GridError(
                f"n_points must be m * 2^k with m in {GRID_ODD_FACTORS} and k >= 1, got {n}"
            )
        if not (math.isfinite(self.dx) and math.isfinite(self.x0)):
            raise GridError(f"grid geometry not finite: dx={self.dx}, x0={self.x0}")
        if not (self.dx > 0):
            raise GridError("dx must be positive")

    @property
    def xs(self) -> np.ndarray:
        return self.xs_at(np.arange(self.n_points))

    def xs_at(self, cells: np.ndarray) -> np.ndarray:
        """Positions of the given cells, equal to ``xs[cells]`` bit for bit."""
        return self.x0 + self.dx * cells

    def cell_index(self, x) -> np.ndarray:
        """``np.searchsorted(xs, x)``, the first cell at or past each ``x``, without ``xs``.

        The estimate ``ceil((x - x0) / dx)`` steps one cell at a time until the
        float positions of the cells on either side bracket ``x``.
        """
        x = np.asarray(x, dtype=float)
        i = np.clip(np.ceil((x - self.x0) / self.dx), 0, self.n_points).astype(np.int64)
        while True:
            down = (i > 0) & (self.xs_at(i - 1) >= x)
            up = (i < self.n_points) & (self.xs_at(i) < x)
            if not (down.any() or up.any()):
                return i
            i = i - down + up

    @property
    def extent(self) -> float:
        return self.n_points * self.dx

    @property
    def p_max(self) -> float:
        """Nyquist momentum pi/dx."""
        return math.pi / self.dx

    @property
    def momenta(self) -> np.ndarray:
        """Momentum values in FFT ordering."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)


def centered_grid(n_points: int, dx: float) -> GridSpec:
    """Grid whose cell ``n_points/2`` sits exactly at x = 0."""
    return GridSpec(n_points=n_points, dx=dx, x0=-(n_points // 2) * dx)


def _marginal(amps: np.ndarray, mode: int) -> np.ndarray:
    """``|amps|^2`` summed over every axis but ``mode``."""
    dens = np.abs(amps) ** 2
    return dens.sum(axis=tuple(ax for ax in range(dens.ndim) if ax != mode))


class HybridState:
    """Amplitudes of ``m`` modes and ``r`` qubits on per-mode grids."""

    def __init__(self, m: int, r: int, grids, amps: np.ndarray):
        self.m = m
        self.r = r
        self.grids = tuple(grids)
        expected = tuple(g.n_points for g in self.grids) + (2,) * r
        if amps.shape != expected:
            raise ValueError(f"amplitude shape {amps.shape} != expected {expected}")
        self.amps = np.asarray(amps, dtype=complex)

    def copy(self) -> "HybridState":
        return HybridState(self.m, self.r, self.grids, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "HybridState":
        """Scale to unit norm in place; ``ValueError`` unless the norm is finite and > 0."""
        nrm = np.linalg.norm(self.amps)
        if not (math.isfinite(nrm) and nrm > 0):
            raise ValueError(f"cannot normalize a state of norm {nrm}")
        self.amps /= nrm
        return self

    def position_density(self, mode: int = 0) -> np.ndarray:
        """Marginal |psi|^2 * dx per cell of one mode (sums to 1)."""
        return _marginal(self.amps, mode)

    def momentum_amps(self, mode: int) -> np.ndarray:
        """Amplitudes in the momentum basis of one mode (FFT ordering)."""
        return np.fft.fft(self.amps, axis=mode, norm="ortho")

    def momentum_density(self, mode: int = 0) -> np.ndarray:
        """Momentum marginal of one mode in FFT ordering (sums to 1); one FFT."""
        return _marginal(self.momentum_amps(mode), mode)

    def boundary_mass(self) -> float:
        """Largest per-mode probability mass within ``EDGE_CELLS`` of a grid edge.

        Reads only the edge slices of each mode axis, not the whole array.
        """
        worst = 0.0
        for a in range(self.m):
            amps = np.moveaxis(self.amps, a, 0)
            edges = np.concatenate((amps[:EDGE_CELLS], amps[-EDGE_CELLS:]))
            worst = max(worst, float(np.vdot(edges, edges).real))
        return worst


def vacuum_state(m: int, r: int, grids) -> HybridState:
    """Product of vacuum Gaussians, qubits at |0...0>.

    Each Gaussian is evaluated only on the cells with
    ``|x| <= EXP_UNDERFLOW_REACH``, found by :meth:`GridSpec.cell_index`, and
    the product is written into the |0...0> branch of one zeroed array.
    """
    grids = tuple(grids)
    if len(grids) != m:
        raise GridError(f"need {m} grids, got {len(grids)}")
    support, block = [], np.ones((), dtype=complex)
    for g in grids:
        lo, hi = g.cell_index((-EXP_UNDERFLOW_REACH, EXP_UNDERFLOW_REACH)).tolist()
        psi = np.exp(-g.xs_at(np.arange(lo, hi)) ** 2 / 2.0).astype(complex)
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise GridError("grid too small to hold the vacuum state")
        psi /= nrm
        support.append(slice(lo, hi))
        block = np.multiply.outer(block, psi)
    amps = np.zeros(tuple(g.n_points for g in grids) + (2,) * r, dtype=complex)
    amps[tuple(support) + (0,) * r] = block
    state = HybridState(m, r, grids, amps)
    if state.boundary_mass() > BOUNDARY_MASS_TOL:
        raise GridError("grid too small to hold the vacuum state")
    return state


def _phase_row(n: int) -> int:
    """Row width ``b`` of :func:`_linear_phase`'s tables on ``n`` cells."""
    return 1 << min((n.bit_length() - 1) // 2, (n & -n).bit_length() - 2)


def _linear_phase(v0: float, step: float, n: int, fft_order: bool = False, rows=None) -> np.ndarray:
    """``exp(i (v0 + step k))`` for the cells k of a grid of ``n = m 2^k`` points.

    The outer product ``hi[a] lo[j]`` of two ~sqrt(n) ``exp`` tables, with
    ``k = a b + j``: 2 sqrt(n) complex exponentials instead of n.  ``b`` is the
    largest power of two that is at most sqrt(n) and divides ``n / 2``, so the
    ``n / b`` rows split evenly in half.  With ``fft_order`` k runs over the FFT
    ordering (0, ..., n/2 - 1, -n/2, ..., -1) of :attr:`GridSpec.momenta`,
    which only reorders the rows of ``hi``.  ``rows`` (ascending) keeps only
    those rows: the phases of their cells, one row after the other.
    """
    b = _phase_row(n)
    if rows is None:
        rows = np.arange(n // b)
        if fft_order:
            rows[len(rows) // 2 :] -= len(rows)
    hi = np.exp(1j * (v0 + step * b * rows))
    lo = np.exp(1j * step * np.arange(b))
    return np.multiply.outer(hi, lo).ravel()


def _runs(blocks: np.ndarray, b: int) -> list[tuple[int, int]]:
    """Cell ranges ``[lo, hi)`` of the maximal runs of true blocks of ``b`` cells."""
    padded = np.zeros(len(blocks) + 2, dtype=bool)
    padded[1:-1] = blocks
    edges = (np.flatnonzero(padded[1:] != padded[:-1]) * b).tolist()
    return list(zip(edges[::2], edges[1::2]))


class _Occupancy:
    """Blocks of mode 0's axis that may hold amplitude; every other amplitude is exactly 0.

    Read once from the amplitudes, then kept from gate to gate.  ``runs`` are
    the occupied blocks as cell ranges; ``full`` says they are the whole axis.
    """

    def __init__(self, state: HybridState):
        if state.m:
            n = state.grids[0].n_points
            self.b = max(2, _phase_row(n))  # whole table rows, and two cells for matmul
            blocks = state.amps.reshape(n // self.b, -1).any(axis=1)
        else:  # no mode axis: the whole array is one block
            self.b = state.amps.size
            blocks = np.ones(1, dtype=bool)
        self._set(blocks)

    def private_copy(self, state: HybridState) -> HybridState:
        """A copy of ``state``: its runs written into a zeroed array, or all of it when full."""
        if self.full:  # also the 0-d array of a state with no mode and no qubit
            return state.copy()
        amps = np.zeros(state.amps.shape, dtype=complex)
        for lo, hi in self.runs:
            amps[lo:hi] = state.amps[lo:hi]
        return HybridState(state.m, state.r, state.grids, amps)

    def _set(self, blocks: np.ndarray) -> None:
        self.blocks = blocks
        self.runs = _runs(blocks, self.b)
        self.full = self.runs == [(0, blocks.size * self.b)]

    def fill(self) -> None:
        if not self.full:
            self.blocks = np.ones_like(self.blocks)
            self.runs, self.full = [(0, self.blocks.size * self.b)], True

    def shift(self, view: np.ndarray, cells: int, controlled: bool) -> bool:
        """Shift the runs of ``view`` by ``cells`` along mode 0 in place, and the blocks with them.

        Runs go in the shift's direction first, so no source is overwritten
        before it is read, and the cells they vacate are zeroed; a
        ``controlled`` shift keeps the old blocks too (the other branch stays).
        Returns False, changing nothing, when an occupied block would leave
        the axis.
        """
        if self.full:
            return False
        occupied = np.flatnonzero(self.blocks)
        if not occupied.size:
            return True
        q, s = divmod(cells, self.b)
        if occupied[0] + q < 0 or occupied[-1] + q + (s > 0) >= len(self.blocks):
            return False
        for lo, hi in reversed(self.runs) if cells > 0 else self.runs:
            view[lo + cells : hi + cells] = view[lo:hi]
            if cells > 0:
                view[lo : min(hi, lo + cells)] = 0
            else:
                view[max(lo, hi + cells) : hi] = 0
        blocks = self.blocks.copy() if controlled else np.zeros_like(self.blocks)
        blocks[occupied + q] = True
        if s:
            blocks[occupied + q + 1] = True
        self._set(blocks)
        return True


def _real_matrix(mat: np.ndarray) -> np.ndarray:
    """The real 2^(k+1) x 2^(k+1) form ``R`` of ``mat.T``: ``x @ mat.T`` is ``x_f @ R``.

    ``x_f`` interleaves each complex entry of a row ``x`` as (re, im), so
    block ``(j, i)`` of ``R`` is ``[[a, b], [-b, a]]`` for ``mat.T[j, i] = a + ib``.
    """
    mt = mat.T
    real = np.empty((2 * len(mt), 2 * len(mt)))
    real[0::2, 0::2] = real[1::2, 1::2] = mt.real
    real[0::2, 1::2] = mt.imag
    real[1::2, 0::2] = -mt.imag
    return real


def _apply_qubit_matrix(
    state: HybridState, mat: np.ndarray, axes: tuple[int, ...], occ: _Occupancy
) -> None:
    """Apply a 2^k x 2^k matrix on the given qubit axes (first axis slowest) in place.

    One real product: the float64 view of ``state.amps``, its qubit axes
    moved next to the trailing (re, im) axis, times :func:`_real_matrix`.
    Each run goes in chunks of at most ``QUBIT_CHUNK_CELLS`` cells of mode 0,
    each chunk's product written back through that view before the next.
    Rows are independent and a chunk holds at least two cells, so each
    ``matmul`` takes the BLAS path of one over the whole array, bit for bit.
    """
    floats, k = state.amps[..., None].view(np.float64), len(axes)
    moved = np.moveaxis(floats, axes, range(floats.ndim - 1 - k, floats.ndim - 1))
    real = _real_matrix(mat)
    for lo, hi in occ.runs:
        for start in range(lo, hi, QUBIT_CHUNK_CELLS):
            chunk = moved[start : min(start + QUBIT_CHUNK_CELLS, hi)]
            chunk[...] = np.matmul(chunk.reshape(-1, 2 ** (k + 1)), real).reshape(chunk.shape)


def _momentum_phase(grid: GridSpec, t: float) -> np.ndarray:
    """``exp(-i t p)`` over ``grid.momenta`` (FFT ordering)."""
    return _linear_phase(0.0, -2.0 * math.pi * t / grid.extent, grid.n_points, fft_order=True)


def _whole_cells(t: float, dx: float, n: int) -> int | None:
    """``t / dx`` if a shift by ``t`` is a roll: whole cells (to 1e-9), fewer than ``n``."""
    cells = t / dx
    nearest = round(cells)
    if abs(cells - nearest) < 1e-9 and abs(nearest) < n:
        return nearest
    return None


def _apply_inplace(state: HybridState, g: Gate, occ: _Occupancy) -> None:
    """Apply one elementary gate to ``state``, overwriting its amplitudes and grids.

    A gate on the qubits or on mode 0 touches only the runs of ``occ``, the
    :class:`_Occupancy` of ``state``, and updates it.  Every kernel writes
    ``state.amps`` in place (a controlled displacement through its branch
    view); a squeezer replaces ``state.grids``.  Raises ``GridOverflowError``
    when a shift leaves mass on the edge cells (not when it jumps past them),
    and ``GridError`` when a squeezer leaves a non-finite grid.
    """
    if g.kind == "blackbox":
        raise AnalysisError("blackbox nodes cannot be simulated")
    if g.kind == "qubit_gate":
        _apply_qubit_matrix(state, gate_matrix(g), tuple(state.m + q for q in g.qubits), occ)
        return

    grid = state.grids[g.mode]
    if g.kind == "squeeze":
        grids = list(state.grids)
        grids[g.mode] = replace(grid, dx=grid.dx * g.alpha, x0=grid.x0 * g.alpha)
        state.grids = tuple(grids)
        return

    spec = KINDS[g.kind]
    view = state.amps
    if spec.controlled:  # act on the control-bit-1 branch only
        view = view[(slice(None),) * (state.m + g.qubit) + (1,)]
    shape = [1] * view.ndim
    shape[g.mode] = grid.n_points
    if spec.shifts == "p":
        if g.mode == 0:  # the phases of the runs' own table rows, run after run
            per_block = occ.b // _phase_row(grid.n_points)
            rows = None if occ.full else np.flatnonzero(np.repeat(occ.blocks, per_block))
            phase = _linear_phase(g.t * grid.x0, g.t * grid.dx, grid.n_points, rows=rows)
            end = 0
            for lo, hi in occ.runs:
                shape[0] = hi - lo
                view[lo:hi] *= phase[end : end + hi - lo].reshape(shape)
                end += hi - lo
        else:  # another mode: the whole array
            view *= _linear_phase(g.t * grid.x0, g.t * grid.dx, grid.n_points).reshape(shape)
        return
    cells = _whole_cells(g.t, grid.dx, grid.n_points)
    if g.mode or cells is None or not occ.shift(view, cells, spec.controlled):
        # another mode, a fractional shift, or a run would cross an edge: the whole axis
        if cells is not None:
            view[...] = np.roll(view, cells, axis=g.mode)
        else:
            view[...] = np.fft.fft(view, axis=g.mode, norm="ortho")
            view *= _momentum_phase(grid, g.t).reshape(shape)
            view[...] = np.fft.ifft(view, axis=g.mode, norm="ortho")
        if g.mode == 0:  # along another axis a zero slice of mode 0 stays 0
            occ.fill()
    _check_overflow(state)


def apply_gate(state: HybridState, g: Gate) -> HybridState:
    """Apply one elementary gate, returning a new state (blackboxes rejected)."""
    return apply_circuit(state, Circuit(state.m, state.r, (g,)))


def _check_overflow(state: HybridState) -> None:
    mass = state.boundary_mass()
    if mass > BOUNDARY_MASS_TOL:
        raise GridOverflowError(
            f"grid overflow: boundary mass {mass:.3e} exceeds {BOUNDARY_MASS_TOL}"
        )


def apply_circuit(state: HybridState, c: Circuit, callback=None) -> HybridState:
    """Apply all gates in order to a private copy of ``state`` and return it.

    The input state is never written.  ``callback(i, st)`` runs after gate i
    (1-based) with the working state itself: it is valid only until the callback
    returns, and the next gate overwrites it, so copy it (``st.copy()``) to
    keep it.  A ``GridError`` raised by gate i names ``gate i``.
    """
    if c.m != state.m or c.r != state.r:
        raise ValueError("circuit and state shapes disagree")
    occ = _Occupancy(state)
    state = occ.private_copy(state)
    for i, g in enumerate(c.gates, start=1):
        try:
            _apply_inplace(state, g, occ)
        except GridError as exc:
            raise type(exc)(f"{exc} at gate {i}") from exc
        if callback is not None:
            callback(i, state)
    return state


# -- observables -------------------------------------------------------------------


class ModeMarginals(NamedTuple):
    """One mode's grid coordinates and its two marginals (each sums to 1)."""

    xs: np.ndarray
    position: np.ndarray
    momenta: np.ndarray  # FFT ordering
    momentum: np.ndarray

    @property
    def energy(self) -> float:
        """``<Q^2 + P^2>`` by position/Fourier quadrature."""
        q2 = float(np.dot(self.position, self.xs ** 2))
        p2 = float(np.dot(self.momentum, self.momenta ** 2))
        return q2 + p2


def mode_marginals(state: HybridState, mode: int) -> ModeMarginals:
    """Coordinates and position/momentum marginals of one mode, from one FFT."""
    grid = state.grids[mode]
    return ModeMarginals(
        grid.xs, state.position_density(mode), grid.momenta, state.momentum_density(mode)
    )


def energy_expectation(state: HybridState) -> tuple[list[float], float]:
    """Per-mode ``<Q^2 + P^2>`` by position/Fourier quadrature, and the max."""
    energies = [mode_marginals(state, a).energy for a in range(state.m)]
    return energies, max(energies) if energies else 0.0


def inner_product(a: HybridState, b: HybridState) -> complex:
    """Quadrature inner product <a, b>; requires matching grids."""
    _check_same_grids(a, b)
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: HybridState, b: HybridState) -> float:
    return abs(inner_product(a, b)) ** 2


def trace_distance(a: HybridState, b: HybridState) -> float:
    """Pure-state trace distance 2 sqrt(1 - |<a,b>|^2)."""
    ov = min(1.0, abs(inner_product(a, b)) ** 2)
    return 2.0 * math.sqrt(1.0 - ov)


def _check_same_grids(a: HybridState, b: HybridState) -> None:
    if a.m != b.m or a.r != b.r:
        raise GridMismatchError("state shapes differ")
    for ga, gb in zip(a.grids, b.grids):
        if ga.n_points != gb.n_points:
            raise GridMismatchError("grid sizes differ")
        if not (
            math.isclose(ga.dx, gb.dx, rel_tol=1e-9)
            and math.isclose(ga.x0, gb.x0, rel_tol=1e-9, abs_tol=1e-9 * ga.dx)
        ):
            raise GridMismatchError("grid geometries differ")


# -- homodyne sampling ----------------------------------------------------------


def homodyne_sample(
    state: HybridState, shots: int, seed: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (y, z) jointly: mode cells and qubit bits from ``|amps|^2``.

    Returns ``(ys, zs)`` with shapes ``(shots, m)`` and ``(shots, r)``;
    positions are reported at cell centers, computed for the sampled cells
    only.  The stream is a deterministic function of the seed; a Generator
    passed as ``seed`` is used as it is, so successive calls can share one.
    Raises ``ValueError`` unless the total probability is finite and > 0.
    """
    rng = np.random.default_rng(seed)
    cells = np.unravel_index(sample_cells(state.amps.ravel(), shots, rng), state.amps.shape)
    ys = np.empty((shots, state.m))
    for a, grid in enumerate(state.grids):
        np.multiply(cells[a], grid.dx, out=ys[:, a])  # no float temporary beside ys
        ys[:, a] += grid.x0
    zs = np.empty((shots, state.r), dtype=np.int64)
    for q in range(state.r):
        zs[:, q] = cells[state.m + q]
    return ys, zs


def sample_cells(amps: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of ``shots`` draws from ``|amps|^2``, cell probabilities up to one factor.

    The cumulative sum of the density, in one float64 array, is divided by
    its last partial sum; each of ``rng.random(shots)`` picks the first cell
    whose partial sum passes it (``searchsorted``, side right), so a cell of
    probability 0 is never drawn.  Raises ``ValueError`` unless the total is
    finite and > 0.
    """
    density = np.abs(amps)
    density *= density
    np.cumsum(density, out=density)
    total = density[-1] if density.size else 0.0  # a NaN or inf anywhere carries into the last
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"cannot sample a state of total probability {total}")
    density /= total
    flat = np.searchsorted(density, rng.random(shots), side="right")
    return np.minimum(flat, density.size - 1, out=flat)


# -- automatic grid sizing --------------------------------------------------------


def auto_grid(
    c: Circuit,
    base_margin: float = 0.25,
    mem_cap_mb: float = DEFAULT_MEM_CAP_MB,
    n_points: int | None = None,
) -> list[GridSpec]:
    """Size per-mode grids from the analyzer's windows, walking each mode's gates once.

    From the vacuum's effective window (radius covering all but 1e-12 of the
    mass), each mode's gates (``mode_gates``) compose the exact generator maps
    into that mode's windows of ``circuit_window_trajectory``; a blackbox
    raises ``AnalysisError`` naming its gate.  The band ``dx`` keeps the
    largest momentum window inside the Nyquist band ``[-pi/dx, pi/dx]``;
    ``n_req`` band cells cover the largest position window, both widened by
    ``1 + base_margin``.  A grid of ``n`` points then has the fill ``dx``, the
    band ``dx`` shrunk until ``n`` cells land exactly on that extent.
    Returned grids refer to t=0: squeezers rescale ``dx`` during simulation,
    and the squeeze factors of the walk account for that.

    Size and snap rule: the candidate sizes are, for each odd factor ``m`` in
    ``GRID_ODD_FACTORS``, the smallest ``m 2^k >= max(MIN_GRID_POINTS, n_req)``,
    up to the power of two among them (just ``MIN_GRID_POINTS`` when
    ``n_req`` is no more).  ``n`` is the smallest candidate on which some
    ``dx`` in ``[fill, band]`` makes every position shift of the mode a whole
    number of cells, so each shift runs as an exact roll; ``dx`` is the
    smallest such value.  The extent still covers every position window,
    ``dx <= band`` keeps every momentum window inside the Nyquist band, and
    no grid is larger than the power of two.  Where no candidate has such a
    ``dx`` (incommensurate shifts, a lone shift of less than one cell) the
    grid is the smallest candidate's fill grid.  ``base_margin`` must be
    finite and ``>= 0`` (``ValueError``).

    ``n_points`` forces that many points on every mode, centred on x = 0 at
    the snapped ``dx``.  Such a grid is refused (``GridError`` naming the
    mode and the gate) when a position window of the walk, without margin,
    leaves its extent ``[-n dx / 2, n dx / 2]`` in that prefix's squeezed
    frame.  The memory cap is checked on the grids returned.
    """
    if not (math.isfinite(base_margin) and base_margin >= 0):
        raise ValueError(f"base_margin must be finite and >= 0, got {base_margin}")
    require_elementary(c)
    r0 = VACUUM_TAIL_RADIUS
    specs = []
    for mode, gates in enumerate(mode_gates(c)):
        # the mode's window and cumulative squeeze factor after each of its gates
        w, s = (-r0, r0, -r0, r0), 1.0
        steps = [(w, s)]
        for j, g in enumerate(gates, start=1):
            w = generator_mlf(g)(w)
            if g.kind == "squeeze":
                s *= g.alpha
                if not 0 < s < math.inf:
                    raise GridError(
                        f"mode {mode}'s squeeze factor leaves the float range {_prefix_name(c, mode, j)}"
                    )
            if not all(map(math.isfinite, w)):
                axis = "position" if not all(map(math.isfinite, w[:2])) else "momentum"
                raise GridError(
                    f"mode {mode}'s {axis} window leaves the float range {_prefix_name(c, mode, j)}"
                )
            steps.append((w, s))
        try:  # finite windows can still ask for a cell or a cell count past the float range
            dx0 = min(
                math.pi / ((1.0 + base_margin) * max(abs(w[2]), abs(w[3])) * s) for w, s in steps
            )
            n_req = max(
                2.0 * max(abs(w[0]), abs(w[1])) * (1.0 + base_margin) / (dx0 * s) for w, s in steps
            )
            spec = _snap_grid(gates, dx0, n_req)
        except (OverflowError, ZeroDivisionError) as exc:
            raise GridError(
                f"mode {mode}'s grid leaves the float range {_prefix_name(c, mode, len(gates))}"
            ) from exc
        if n_points is not None:
            spec = centered_grid(n_points, spec.dx)
            for j, (w, s) in enumerate(steps):
                half = spec.extent * s / 2
                if w[0] < -half or w[1] > half:
                    raise GridError(
                        f"{n_points}-point grid too narrow for mode {mode} {_prefix_name(c, mode, j)}:"
                        f" position window [{w[0]:g}, {w[1]:g}] leaves the extent +-{half:g}"
                    )
        specs.append(spec)

    check_mem_cap(specs, c.r, mem_cap_mb)
    return specs


def _prefix_name(c: Circuit, mode: int, j: int) -> str:
    """The prefix after ``mode``'s ``j``-th gate, named by that gate's 1-based place in ``c``."""
    if j == 0:
        return "at the vacuum"
    acting = [i for i, g in enumerate(c.gates, start=1) if mode in target_modes(g)]
    return f"at gate {acting[j - 1]}"


def grid_sizes(n_req: float) -> list[int]:
    """Allowed sizes ``m 2^k`` for ``n_req`` points, smallest first (``auto_grid``'s size rule)."""
    if n_req <= MIN_GRID_POINTS:
        return [MIN_GRID_POINTS]
    sizes = [m << max(1, math.ceil(math.log2(n_req / m) - 1e-12)) for m in GRID_ODD_FACTORS]
    return sorted(n for n in sizes if n <= sizes[0])  # sizes[0]: m = 1, the power of two


def _snap_grid(gates, dx_band: float, n_req: float) -> GridSpec:
    """Grid of one mode, given its gates in order, by ``auto_grid``'s size and snap rule.

    For each candidate size ``n`` the fill ``dx`` is ``dx_band n_req / n``.
    Each trial ``dx`` puts ``k`` cells on the shortest shift and is checked
    with the kernel's own float products ``dx * alpha`` through the squeezers.
    """
    sizes = grid_sizes(n_req)
    track = [g for g in gates if g.kind == "squeeze" or KINDS[g.kind].shifts == "x"]

    def shifts(dx):  # (t, dx at its prefix) of each position shift
        for g in track:
            if g.kind == "squeeze":
                dx = dx * g.alpha
            else:
                yield g.t, dx

    lengths = [abs(t / d) for t, d in shifts(1.0) if t]  # in t=0 units
    if lengths:
        r = min(lengths)
        for n in sizes:
            dx_fill = dx_band * n_req / n
            for k in range(math.floor(r / dx_fill), math.ceil(r / dx_band) - 1, -1):
                dx = r / k
                if dx_fill <= dx <= dx_band and all(
                    _whole_cells(t, d, n) is not None for t, d in shifts(dx)
                ):
                    return centered_grid(n, dx)
    return centered_grid(sizes[0], dx_band * n_req / sizes[0])


def check_mem_cap(grids, r: int, mem_cap_mb: float) -> None:
    """Raise ``ResourceCapError`` if a simulated run's working set on the joint grid exceeds the cap.

    The grid's cells are its ``2^r`` qubit branches on the product of the
    modes' points; :func:`check_cells_cap` counts them.  The sampling run
    counts the cells of one comb support instead (``pipeline``).
    """
    check_cells_cap(2 ** r * math.prod(g.n_points for g in grids), "grid", mem_cap_mb)


def check_cells_cap(cells: int, what: str, mem_cap_mb: float, shots_mb: float = 0.0) -> None:
    """Raise ``ResourceCapError`` if ``cells`` cells of ``what`` and the shots exceed the cap.

    The working set is ``WORKING_SET_COPIES`` arrays of 16 B a cell (a
    complex amplitude of a grid, or an int64 index and a float64 value of a
    support), plus ``shots_mb`` of a sampler's shot arrays held beside them.
    The byte count stays an integer, since many modes' joint grid passes the
    float range.
    """
    nbytes = 16 * cells
    if WORKING_SET_COPIES * nbytes > (mem_cap_mb - shots_mb) * 1e6:
        try:
            mb = f"{nbytes / 1e6:g}"
        except OverflowError:
            mb = f"{Decimal(nbytes).scaleb(-6):.6g}"
        shots = f" + {shots_mb:g} MB of shots" if shots_mb else ""
        raise ResourceCapError(
            f"{what} needs {WORKING_SET_COPIES} x {mb} MB{shots} > cap {mem_cap_mb:g} MB"
        )


def state_dump(state: HybridState) -> dict:
    """JSON-ready dump of a one-mode state: (x, Re psi, Im psi) per qubit branch.

    Every zero is written as ``0.0``: the sign of an exact zero depends on
    which kernel wrote the cell, not on the state.
    """
    if state.m != 1:
        raise ValueError("state dumps are defined for one-mode states")
    grid = state.grids[0]
    xs = grid.xs
    scale = 1.0 / math.sqrt(grid.dx)
    branches = {}
    flat = state.amps.reshape(grid.n_points, -1)
    for b in range(flat.shape[1]):
        label = format(b, f"0{state.r}b") if state.r else "0"
        psi = flat[:, b] * scale + 0.0  # -0.0 + 0.0 is +0.0
        branches[label] = [
            [float(x), float(v.real), float(v.imag)] for x, v in zip(xs, psi)
        ]
    return {
        "grid": {"n_points": grid.n_points, "dx": grid.dx, "x0": grid.x0},
        "branches": branches,
    }
