"""The simulator's occupied-block kernels against dense per-gate references.

``apply_circuit`` keeps the runs of mode 0's blocks that may hold amplitude
and lets every kernel touch only them.  These tests run random circuits on
states confined to random blocks and compare every prefix with a reference
written here from the dense kernels: ``np.roll`` or the Fourier shift over the
whole axis, the full ``_linear_phase`` vector, and one real-form ``matmul``
over the whole array (the simulator's qubit-gate arithmetic, which
``test_real_form_product_matches_the_complex_matmul`` pins against the complex
product).  Values must agree exactly; only the sign of an exact zero may
differ (a dense product can write -0.0 where the runs leave +0.0).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hqoc.circuit import (
    Circuit,
    ctrl_disp_p,
    ctrl_disp_q,
    disp_p,
    disp_q,
    gate_matrix,
    qubit_gate,
    squeeze,
)
from hqoc.simulator import (
    BOUNDARY_MASS_TOL,
    EDGE_CELLS,
    EXP_UNDERFLOW_REACH,
    QUBIT_CHUNK_CELLS,
    GridOverflowError,
    GridSpec,
    HybridState,
    _linear_phase,
    _momentum_phase,
    _Occupancy,
    _apply_inplace,
    _phase_row,
    _real_matrix,
    _whole_cells,
    apply_circuit,
    apply_gate,
    auto_grid,
    centered_grid,
    vacuum_state,
)

# sizes m 2^k with phase-table rows b = 1, 4, 8, 16 and 32
GRID_SIZES = (30, 48, 160, 256, 1536)
QUBIT_NAMES = ("H", "S", "T", "X", "Z")


def _real_form_product(amps, mat, axes, runs):
    """A copy of ``amps`` with ``mat`` on the qubit ``axes``: one real-form ``matmul`` per run of mode 0.

    The product acts on the float64 view, the qubit axes moved next to its
    (re, im) axis, as ``_apply_qubit_matrix`` does, but unchunked.
    """
    amps, k = amps.copy(), len(axes)
    floats = amps[..., None].view(np.float64)
    moved = np.moveaxis(floats, axes, range(floats.ndim - 1 - k, floats.ndim - 1))
    for lo, hi in runs:
        run = moved[lo:hi]
        run[...] = np.matmul(run.reshape(-1, 2 ** (k + 1)), _real_matrix(mat)).reshape(run.shape)
    return amps


def _dense_gate(amps, grids, m, g):
    """One gate by the dense kernels; returns (amps, grids); raises on edge mass after a shift."""
    if g.kind == "qubit_gate":
        axes = tuple(m + q for q in g.qubits)
        return _real_form_product(amps, gate_matrix(g), axes, [(0, amps.shape[0])]), list(grids)
    amps, grids = amps.copy(), list(grids)
    grid = grids[g.mode]
    if g.kind == "squeeze":
        grids[g.mode] = GridSpec(grid.n_points, grid.dx * g.alpha, grid.x0 * g.alpha)
        return amps, grids
    view = amps if g.qubit is None else amps[(slice(None),) * (m + g.qubit) + (1,)]
    shape = [1] * view.ndim
    shape[g.mode] = grid.n_points
    if g.kind.endswith("_q"):
        view *= _linear_phase(g.t * grid.x0, g.t * grid.dx, grid.n_points).reshape(shape)
        return amps, grids
    cells = _whole_cells(g.t, grid.dx, grid.n_points)
    if cells is not None:
        view[...] = np.roll(view, cells, axis=g.mode)
    else:
        spec = np.fft.fft(view, axis=g.mode, norm="ortho") * _momentum_phase(grid, g.t).reshape(shape)
        view[...] = np.fft.ifft(spec, axis=g.mode, norm="ortho")
    for a in range(m):
        edges = np.moveaxis(amps, a, 0)
        edges = np.concatenate((edges[:EDGE_CELLS], edges[-EDGE_CELLS:]))
        if np.vdot(edges, edges).real > BOUNDARY_MASS_TOL:
            raise GridOverflowError("edge mass")
    return amps, grids


def _dense_prefixes(state, gates):
    """The dense reference after each gate, and the 1-based gate that overflowed (or None)."""
    amps, grids, out = state.amps, state.grids, []
    for i, g in enumerate(gates, start=1):
        try:
            amps, grids = _dense_gate(amps, grids, state.m, g)
        except GridOverflowError:
            return out, i
        out.append(amps)
    return out, None


def _same_values(a, b):
    """Equal value for value: ``==`` on the real and imaginary parts (0.0 == -0.0)."""
    return np.array_equal(a.real, b.real) and np.array_equal(a.imag, b.imag)


def _block_state(rng, m, r, sizes):
    """Random amplitudes on a random set of mode-0 blocks, zero on the edge cells of every mode."""
    n0 = sizes[0]
    b = max(2, _phase_row(n0))
    amps = rng.normal(size=tuple(sizes) + (2,) * r) + 1j * rng.normal(size=tuple(sizes) + (2,) * r)
    amps *= rng.random(amps.shape) < rng.uniform(0.3, 1.0)  # exact zeros inside blocks too
    nb = n0 // b
    lo, hi = sorted(rng.integers(0, nb + 1, size=2))
    keep = np.zeros(nb, dtype=bool)
    keep[lo:hi] = rng.random(hi - lo) < rng.uniform(0.05, 0.8)  # blocks within a random span
    if not keep.any():
        keep[rng.integers(0, nb)] = True
    amps[~np.repeat(keep, b)] = 0
    for a in range(m):
        edges = np.moveaxis(amps, a, 0)
        edges[:EDGE_CELLS] = 0
        edges[-EDGE_CELLS:] = 0
    if not np.any(amps):
        amps[(n0 // 2,) + (EDGE_CELLS,) * (m - 1) + (0,) * r] = 1.0
    grids = [centered_grid(n, 0.1 * (a + 1)) for a, n in enumerate(sizes)]
    return HybridState(m, r, grids, amps / np.linalg.norm(amps))


@st.composite
def block_circuits(draw):
    m = draw(st.sampled_from((1, 2)))
    r = draw(st.sampled_from((0, 1, 2)))
    sizes = [draw(st.sampled_from(GRID_SIZES))] + [draw(st.sampled_from((30, 48)))] * (m - 1)
    state = _block_state(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), m, r, sizes)
    kinds = ["disp_q", "disp_p", "squeeze"] + (["ctrl_disp_q", "ctrl_disp_p", "qubit_gate"] * 2 if r else [])
    gates = []
    dx = [g.dx for g in state.grids]
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "qubit_gate":
            if r == 2 and draw(st.booleans()):
                pair = draw(st.permutations((0, 1)))
                gates.append(qubit_gate(draw(st.sampled_from(("CNOT", "CZ"))), tuple(pair)))
            else:
                gates.append(qubit_gate(draw(st.sampled_from(QUBIT_NAMES)), draw(st.integers(0, r - 1))))
            continue
        mode = draw(st.integers(0, m - 1))
        if kind == "squeeze":
            alpha = draw(st.sampled_from((0.5, 2.0, 1.25)))
            gates.append(squeeze(mode, alpha))
            dx[mode] *= alpha
            continue
        n = sizes[mode]
        if kind.endswith("_q"):
            t = draw(st.floats(-4.0, 4.0, allow_nan=False))
        else:  # whole cells either way, a few blocks or up to a wrap past the far edge, or fractional
            reach = draw(st.sampled_from((n // 8, n // 8, n - 1)))
            cells = draw(st.integers(-reach, reach))
            t = (cells + draw(st.sampled_from((0.0, 0.0, 0.0, 0.37)))) * dx[mode]
        q = draw(st.integers(0, r - 1)) if kind.startswith("ctrl") else None
        gates.append({"disp_q": disp_q, "disp_p": disp_p}[kind](mode, t) if q is None
                     else {"ctrl_disp_q": ctrl_disp_q, "ctrl_disp_p": ctrl_disp_p}[kind](mode, q, t))
    return state, Circuit(m, r, tuple(gates))


@settings(max_examples=200, deadline=None)
@given(block_circuits())
def test_block_kernels_match_dense_reference(case):
    state, c = case
    ref, overflow_at = _dense_prefixes(state, c.gates)
    seen = []  # kept as the callback contract says: st.copy()
    before = state.amps.copy()
    if overflow_at is None:
        out = apply_circuit(state, c, callback=lambda i, s: seen.append(s.copy().amps))
        assert _same_values(out.amps, ref[-1])
    else:
        with pytest.raises(GridOverflowError, match=f"gate {overflow_at}$"):
            apply_circuit(state, c, callback=lambda i, s: seen.append(s.copy().amps))
    assert np.array_equal(state.amps, before)  # the input is never written
    assert len(seen) == len(ref)
    for got, want in zip(seen, ref):  # the callback sees every dense prefix
        assert _same_values(got, want)

    # the kept runs cover every nonzero amplitude after each gate
    occ = _Occupancy(state)
    work = occ.private_copy(state)
    for g, want in zip(c.gates, ref):
        _apply_inplace(work, g, occ)
        outside = np.ones(work.amps.shape[0], dtype=bool)
        for lo, hi in occ.runs:
            outside[lo:hi] = False
        assert not np.any(work.amps[outside])
        assert _same_values(work.amps, want)


def _check_against_dense(state, gates):
    c = Circuit(state.m, state.r, tuple(gates))
    ref, overflow_at = _dense_prefixes(state, c.gates)
    assert overflow_at is None
    seen = []
    apply_circuit(state, c, callback=lambda i, s: seen.append(s.amps.copy()))
    assert all(_same_values(got, want) for got, want in zip(seen, ref))
    occ = _Occupancy(state)
    work = occ.private_copy(state)
    for g in c.gates:
        _apply_inplace(work, g, occ)
        outside = np.ones(work.amps.shape[0], dtype=bool)
        for lo, hi in occ.runs:
            outside[lo:hi] = False
        assert not np.any(work.amps[outside])
    return occ


@pytest.mark.parametrize("past", [0, 1, 5, 16])
def test_shift_to_the_last_block_moves_in_place_and_past_it_rolls(past):
    # 256 cells in blocks of 16; the amplitude sits in cells 100..103 of block 6
    grid = centered_grid(256, 0.1)
    amps = np.zeros((256, 1), dtype=complex)
    amps[100:104, 0] = [0.5, 0.5j, -0.5, 0.5]
    state = HybridState(1, 0, [grid], amps[:, 0])
    cells = 256 - 112 + past  # block 6 ends at cell 112: land on the last block's end, or past it
    occ = _check_against_dense(state, [disp_p(0, cells * grid.dx)])
    assert occ.full == (past > 0)  # a block crossing the edge rolls the whole axis


def test_qubit_gates_act_on_the_moved_runs():
    # H writes each run in place; the shift moves the runs away and zeroes what
    # they vacate; the next qubit gates must act on the moved runs only
    grid = centered_grid(256, 0.1)
    amps = np.zeros((256, 2), dtype=complex)
    amps[40:60, 0] = np.linspace(0.1, 1.0, 20)
    state = HybridState(1, 1, [grid], amps / np.linalg.norm(amps))
    gates = [qubit_gate("H", 0), disp_p(0, 80 * grid.dx), qubit_gate("H", 0),
             disp_p(0, -30 * grid.dx), qubit_gate("S", 0), ctrl_disp_p(0, 0, 64 * grid.dx), qubit_gate("H", 0)]
    _check_against_dense(state, gates)


def test_displacements_of_another_mode_keep_mode_0s_runs():
    # mode 0 holds amplitude in blocks 4..5 and 10 of 16 cells; every kernel on
    # mode 1 runs on the whole array and leaves mode 0's all-zero slices zero
    grids = [centered_grid(256, 0.1), centered_grid(48, 0.2)]
    amps = np.zeros((256, 48, 2), dtype=complex)
    rng = np.random.default_rng(3)
    packet = np.exp(-((np.arange(48) - 24) / 3.0) ** 2 / 2)  # smooth, so a Fourier shift stays off the edges
    for lo, hi in ((64, 96), (160, 176)):
        amps[lo:hi] = (rng.normal(size=(hi - lo, 1, 2)) + 1j * rng.normal(size=(hi - lo, 1, 2))) * packet[:, None]
    state = HybridState(2, 1, grids, amps / np.linalg.norm(amps))
    dx = grids[1].dx
    gates = [disp_q(1, 0.7), ctrl_disp_q(1, 0, -1.3), disp_p(1, 3 * dx), ctrl_disp_p(1, 0, -4 * dx),
             disp_p(1, 2.37 * dx), ctrl_disp_p(1, 0, -1.5 * dx), qubit_gate("H", 0)]
    occ = _check_against_dense(state, gates)
    assert occ.runs == [(64, 96), (160, 176)] and not occ.full


def _searchsorted_vacuum(m, r, grids):
    """Reference vacuum: reach cells by ``searchsorted`` on the whole ``xs``."""
    support, block = [], np.ones((), dtype=complex)
    for g in grids:
        xs = g.xs
        lo, hi = np.searchsorted(xs, (-EXP_UNDERFLOW_REACH, EXP_UNDERFLOW_REACH))
        psi = np.exp(-xs[lo:hi] ** 2 / 2.0).astype(complex)
        psi /= np.linalg.norm(psi)
        support.append((lo, hi))
        block = np.multiply.outer(block, psi)
    amps = np.zeros(tuple(g.n_points for g in grids) + (2,) * r, dtype=complex)
    amps[tuple(slice(lo, hi) for lo, hi in support) + (0,) * r] = block
    return support, amps


def _reach_grids():
    R = EXP_UNDERFLOW_REACH
    yield centered_grid(256, 0.1)
    yield centered_grid(1280, 0.096)
    yield centered_grid(768, 0.05)
    yield centered_grid(96, 1.0)
    # both edges of the reach exactly on cell centres: x0 = -R, and 2R is 64 cells of a power-of-two split
    yield GridSpec(96, 2 * R / 64, -R)
    yield GridSpec(160, 2 * R / 128, -R - 8 * (2 * R / 128))
    # non-centred grids: the reach cut at either end, or not reached at all
    yield GridSpec(512, 0.1, -30.0)
    yield GridSpec(512, 0.1, -21.2)
    yield GridSpec(384, 0.25, -70.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.choice((96, 256, 640)))
        dx = float(rng.uniform(0.15, 0.5))
        yield GridSpec(n, dx, float(rng.uniform(-n * dx + 6.0, -6.0)))


@pytest.mark.parametrize("grid", list(_reach_grids()), ids=lambda g: f"{g.n_points}-{g.dx:.4g}-{g.x0:.4g}")
def test_vacuum_reach_matches_searchsorted(grid):
    values = np.array([-EXP_UNDERFLOW_REACH, EXP_UNDERFLOW_REACH])
    xs = grid.xs
    values = np.concatenate((values, xs[[0, grid.n_points // 3, -1]], [np.nextafter(xs[-1], math.inf)]))
    assert np.array_equal(grid.cell_index(values), np.searchsorted(xs, values))
    for r in (0, 1):
        support, want = _searchsorted_vacuum(1, r, [grid])
        if not np.any(want):
            continue  # the grid misses the reach; vacuum_state raises
        got = vacuum_state(1, r, [grid]).amps
        assert got.tobytes() == want.tobytes()


def test_two_mode_vacuum_reach_matches_searchsorted():
    grids = [GridSpec(96, 2 * EXP_UNDERFLOW_REACH / 64, -EXP_UNDERFLOW_REACH), centered_grid(256, 0.1)]
    for r in (0, 2):
        _, want = _searchsorted_vacuum(2, r, grids)
        assert vacuum_state(2, r, grids).amps.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "m, r, gate",
    [
        (1, 1, qubit_gate("H", 0)),
        (1, 2, qubit_gate(np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4))[0], (1, 0))),
        (2, 1, qubit_gate("H", 0)),
    ],
    ids=["H-r1", "4x4-r2", "H-m2"],
)
def test_qubit_gate_chunks_equal_the_unchunked_product(m, r, gate):
    # 12,288 cells of mode 0 in blocks of 64; two runs of 9,024 and 2,112 cells:
    # the first spans three chunks, the last of them a part chunk
    n0 = 3 * 2 ** 12
    rng = np.random.default_rng(11)
    shape = (n0,) + (6,) * (m - 1) + (2,) * r
    amps = np.zeros(shape, dtype=complex)
    for lo, hi in ((64 * 10, 64 * 151), (64 * 155, 64 * 188)):
        amps[lo:hi] = rng.normal(size=(hi - lo,) + shape[1:]) + 1j * rng.normal(size=(hi - lo,) + shape[1:])
    grids = [centered_grid(n0, 0.01)] + [centered_grid(6, 0.5)] * (m - 1)
    state = HybridState(m, r, grids, amps / np.linalg.norm(amps))
    runs = _Occupancy(state).runs
    assert [hi - lo for lo, hi in runs] == [9024, 2112]
    assert 2 * QUBIT_CHUNK_CELLS < 9024 < 3 * QUBIT_CHUNK_CELLS
    want = _real_form_product(state.amps, gate_matrix(gate), tuple(m + q for q in gate.qubits), runs)
    assert apply_gate(state, gate).amps.tobytes() == want.tobytes()


def _complex_product(amps, mat, axes):
    """``amps`` with ``mat`` on the qubit ``axes`` by one complex ``matmul`` over the whole array."""
    k = len(axes)
    moved = np.moveaxis(amps, axes, range(amps.ndim - k, amps.ndim))
    flat = np.matmul(moved.reshape(-1, 2 ** k), mat.T).reshape(moved.shape)
    return np.moveaxis(flat, range(amps.ndim - k, amps.ndim), axes)


@pytest.mark.parametrize("name", ["H", "X", "Z", "S", "CZ", "CNOT", "T", "U4"])
def test_real_form_product_matches_the_complex_matmul(name):
    # where every entry of the gate is real or imaginary (H, X, Z, S, CZ,
    # CNOT), each term of the complex sum is one real product, and OpenBLAS
    # gives both forms the same bytes; an entry with both parts (T, a random
    # unitary) makes two real products per term, which the forms round apart
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(1536, 2, 2)) + 1j * rng.normal(size=(1536, 2, 2))
    state = HybridState(1, 2, [centered_grid(1536, 0.01)], amps)
    tol = 4 * np.finfo(float).eps * np.abs(amps).max()
    u4 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    for qubits in ((0,), (1,)) if name in ("H", "X", "Z", "S", "T") else ((0, 1), (1, 0)):
        gate = qubit_gate(u4 if name == "U4" else name, qubits)
        got = apply_gate(state, gate).amps
        want = _complex_product(amps, gate_matrix(gate), tuple(1 + q for q in qubits))
        if name in ("T", "U4"):
            assert np.abs(got - want).max() <= tol
        else:
            assert got.tobytes() == want.tobytes()


def test_qubit_gate_allocates_one_chunk_not_one_run():
    # the code prep's state holds one run of 112,896 of its 147,456 cells; one
    # product over that run would be 0.77 of a copy of the amplitudes
    from hqoc.pipeline import SIM_MARGIN, build_code_prep

    c = build_code_prep(1, 0.02)
    state = apply_circuit(vacuum_state(1, 1, auto_grid(c, base_margin=SIM_MARGIN)), c)
    assert [hi - lo for lo, hi in _Occupancy(state).runs] == [112_896]
    apply_gate(state, qubit_gate("H", 0))  # first-call allocations of numpy
    tracemalloc.start()
    try:
        apply_gate(state, qubit_gate("H", 0))
        peak = tracemalloc.get_traced_memory()[1] / state.amps.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 1.05  # the private copy, and one chunk's product (0.028 copies)
