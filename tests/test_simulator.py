import math
import tracemalloc

import numpy as np
import pytest

from hqoc.acceptance import random_circuit
from hqoc.circuit import (
    Circuit,
    ctrl_disp_p,
    disp_p,
    disp_q,
    qubit_gate,
    squeeze,
)
from hqoc.moments import circuit_window_trajectory
from hqoc.simulator import (
    GRID_ODD_FACTORS,
    VACUUM_TAIL_RADIUS,
    WORKING_SET_COPIES,
    GridError,
    GridMismatchError,
    GridOverflowError,
    GridSpec,
    HybridState,
    _linear_phase,
    _momentum_phase,
    ResourceCapError,
    apply_circuit,
    apply_gate,
    auto_grid,
    centered_grid,
    check_mem_cap,
    energy_expectation,
    fidelity,
    homodyne_sample,
    inner_product,
    mode_marginals,
    state_dump,
    trace_distance,
    vacuum_state,
)

GRID = centered_grid(2048, 32.0 / 2048)


def make_vacuum(r=1):
    return vacuum_state(1, r, [GRID])


def mean_q(state, power=1):
    return float(np.dot(state.position_density(0), state.grids[0].xs ** power))


def mean_p2(state):
    return float(np.dot(state.momentum_density(0), state.grids[0].momenta ** 2))


def test_vacuum_moments():
    v = make_vacuum()
    assert mean_q(v) == pytest.approx(0.0, abs=1e-9)
    assert mean_q(v, 2) == pytest.approx(0.5, abs=1e-6)
    assert v.norm() == pytest.approx(1.0, abs=1e-12)
    energies, emax = energy_expectation(v)
    assert emax == pytest.approx(1.0, abs=1e-6)


def test_vacuum_rejects_tiny_grid():
    with pytest.raises(GridError):
        vacuum_state(1, 0, [centered_grid(16, 0.1)])
    with pytest.raises(GridError):  # the Gaussian underflows to 0 on every cell
        vacuum_state(1, 0, [GridSpec(256, 0.1, 100.0)])
    with pytest.raises(GridError):  # cells inside the reach where exp is still 0
        vacuum_state(1, 0, [GridSpec(2, 0.01, 38.61)])


def _full_grid_vacuum(grids, r):
    """Vacuum amplitudes built on every cell: one ``exp`` per cell, outer products."""
    amps = np.ones((), dtype=complex)
    for g in grids:
        psi = np.exp(-g.xs ** 2 / 2.0).astype(complex)
        psi /= np.linalg.norm(psi)
        amps = np.multiply.outer(amps, psi)
    if r:
        qubits = np.zeros((2,) * r, dtype=complex)
        qubits[(0,) * r] = 1.0
        amps = np.multiply.outer(amps, qubits)
    return amps


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_vacuum_matches_full_grid_expression(m, r):
    # the first grid reaches |x| = 61 > sqrt(2 * 746), where exp underflows to 0
    grids = [centered_grid(1280, 0.096), centered_grid(768, 0.05)][:m]
    amps = vacuum_state(m, r, grids).amps
    ref = _full_grid_vacuum(grids, r)
    assert amps.shape == ref.shape
    assert np.all(np.abs(amps - ref) <= np.spacing(np.abs(ref)))


def test_displacement_shifts_mean():
    v = make_vacuum()
    out = apply_gate(v, disp_p(0, 1.375))
    assert mean_q(out) == pytest.approx(1.375, abs=1e-6)
    # roll path (integer cells) agrees with the FFT path
    t_cells = 64 * GRID.dx
    a = apply_gate(v, disp_p(0, t_cells))
    b = apply_gate(v, disp_p(0, t_cells + 1e-7))
    assert fidelity(a, b) > 1 - 1e-6


def test_phase_gate_leaves_density():
    v = make_vacuum()
    out = apply_gate(v, disp_q(0, math.pi))
    assert np.allclose(out.position_density(0), v.position_density(0), atol=1e-14)
    # momentum shifts by t: energy picks up theta^2 (vacuum mean p = 0)
    e0 = energy_expectation(v)[1]
    e1 = energy_expectation(out)[1]
    assert e1 - e0 == pytest.approx(math.pi ** 2, abs=1e-5)


def test_squeeze_rescales_moments():
    v = make_vacuum()
    out = apply_gate(v, squeeze(0, 2.0))
    assert mean_q(out, 2) == pytest.approx(2.0, abs=1e-5)
    assert mean_p2(out) == pytest.approx(0.125, abs=1e-6)
    assert energy_expectation(out)[1] == pytest.approx(2.125, abs=1e-5)


def test_controlled_displacement_acts_on_branch():
    v = make_vacuum()
    v = apply_gate(v, qubit_gate("H", 0))
    out = apply_gate(v, ctrl_disp_p(0, 0, 2.0))
    dens0 = np.abs(out.amps[:, 0]) ** 2
    dens1 = np.abs(out.amps[:, 1]) ** 2
    xs = GRID.xs
    assert np.dot(dens0, xs) / dens0.sum() == pytest.approx(0.0, abs=1e-6)
    assert np.dot(dens1, xs) / dens1.sum() == pytest.approx(2.0, abs=1e-6)


def test_norm_preserved_by_gates():
    rng = np.random.default_rng(2)
    v = make_vacuum()
    gates = [disp_p(0, 0.7), disp_q(0, -1.3), squeeze(0, 1.4), qubit_gate("H", 0),
             ctrl_disp_p(0, 0, -0.8), qubit_gate("T", 0)]
    st = v
    for g in gates:
        st = apply_gate(st, g)
        assert st.norm() == pytest.approx(1.0, abs=1e-9)


def test_displacement_composition():
    v = make_vacuum()
    a = apply_gate(apply_gate(v, disp_p(0, 0.31)), disp_p(0, 0.47))
    b = apply_gate(v, disp_p(0, 0.78))
    assert fidelity(a, b) >= 1 - 1e-10


def test_fourier_round_trip():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=512) + 1j * rng.normal(size=512)
    back = np.fft.ifft(np.fft.fft(psi, norm="ortho"), norm="ortho")
    assert np.abs(back - psi).max() <= 1e-12


def test_qubit_gate_two_qubit():
    v = vacuum_state(1, 2, [GRID])
    st = apply_gate(v, qubit_gate("H", 0))
    st = apply_gate(st, qubit_gate("CNOT", (0, 1)))
    dens = np.abs(st.amps) ** 2
    lam = dens.sum(axis=0)
    assert lam[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert lam[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert lam[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_homodyne_statistics_and_determinism():
    v = make_vacuum()
    ys, zs = homodyne_sample(v, 100_000, seed=123)
    assert ys.shape == (100_000, 1)
    assert zs.shape == (100_000, 1)
    assert np.all(zs == 0)
    assert ys.var() == pytest.approx(0.5, abs=0.02)
    ys2, zs2 = homodyne_sample(v, 100_000, seed=123)
    assert np.array_equal(ys, ys2) and np.array_equal(zs, zs2)
    ys3, _ = homodyne_sample(v, 1000, seed=124)
    assert not np.array_equal(ys[:1000], ys3)


def test_homodyne_without_modes_samples_qubit_bits():
    # m = 0: a two-qubit state (0.6|00> + 0.8|11>)
    st = HybridState(0, 2, (), np.array([[0.6, 0.0], [0.0, 0.8]], dtype=complex))
    ys, zs = homodyne_sample(st, 20_000, seed=5)
    assert ys.shape == (20_000, 0) and zs.shape == (20_000, 2)
    assert np.array_equal(zs[:, 0], zs[:, 1])
    assert zs[:, 0].mean() == pytest.approx(0.64, abs=0.015)


def test_homodyne_without_qubits():
    v = vacuum_state(1, 0, [GRID])
    ys, zs = homodyne_sample(v, 50_000, seed=6)
    assert ys.shape == (50_000, 1) and zs.shape == (50_000, 0)
    assert np.all(np.isin(ys[:, 0], GRID.xs))  # cell centres
    assert ys.var() == pytest.approx(0.5, abs=0.02)


def test_homodyne_branch_dependence():
    v = make_vacuum()
    st = apply_gate(v, qubit_gate("H", 0))
    st = apply_gate(st, ctrl_disp_p(0, 0, 4.0))
    ys, zs = homodyne_sample(st, 4000, seed=9)
    y = ys[:, 0]
    z = zs[:, 0]
    assert abs(y[z == 0].mean()) < 0.1
    assert abs(y[z == 1].mean() - 4.0) < 0.1


def test_trace_distance_errors_on_grid_mismatch():
    a = make_vacuum()
    b = vacuum_state(1, 1, [centered_grid(2048, 30.0 / 2048)])
    with pytest.raises(GridMismatchError):
        trace_distance(a, b)


def test_auto_grid_empty_circuit():
    specs = auto_grid(Circuit(1, 0, ()), base_margin=0.25)
    g = specs[0]
    want = 2 * VACUUM_TAIL_RADIUS * 1.25
    assert g.extent == pytest.approx(want, rel=1e-9)
    assert g.p_max >= VACUUM_TAIL_RADIUS * 1.25


@pytest.mark.parametrize("margin", [-1.0, -0.5, -math.inf, math.inf, math.nan])
def test_auto_grid_rejects_negative_or_non_finite_margin(margin):
    with pytest.raises(ValueError, match="base_margin must be finite and >= 0"):
        auto_grid(Circuit(1, 0, ()), base_margin=margin)


def test_auto_grid_accepts_zero_margin():
    assert auto_grid(Circuit(1, 0, ()), base_margin=0.0)[0].n_points >= 256


def test_auto_grid_squeeze_scales_windows():
    base = auto_grid(Circuit(1, 0, ()), base_margin=0.25)[0]
    squeezed = auto_grid(Circuit(1, 0, (squeeze(0, 2.0),)), base_margin=0.25)[0]
    # final grid after the M_2 rescale: extent doubles, Nyquist halves
    final_dx = squeezed.dx * 2.0
    assert squeezed.n_points * final_dx >= 2 * base.extent * 0.99
    assert math.pi / final_dx <= base.p_max / 2 * 1.01


def _support_radius(values, density, keep=1 - 1e-12):
    """Smallest |value| holding ``keep`` of the mass (symmetric about 0)."""
    order = np.argsort(np.abs(values))
    cum = np.cumsum(density[order])
    return abs(values[order][np.searchsorted(cum, keep * cum[-1])])


def test_auto_grid_prep_circuit_resolution():
    from hqoc.pipeline import build_prep_circuit, prep_target_state

    n, delta = 3, 0.04
    c = build_prep_circuit(n, delta)
    g = auto_grid(c, base_margin=0.3)[0]
    assert g.extent * delta >= 2 * 2 ** (n - 1)  # covers the 2^n-peak comb (net squeeze Delta)

    # run on a grid 8x finer (same extent, 8x the Nyquist band), so the
    # momentum support is measured free of aliasing at every prefix
    fine = centered_grid(8 * g.n_points, g.dx / 8)

    def inside_band(i, st):
        grid = st.grids[0]
        radius = _support_radius(grid.momenta, st.momentum_density(0))
        assert radius <= grid.p_max / 8, f"prefix {i}: support {radius} > pi/dx"

    st0 = vacuum_state(1, 1, [fine])
    assert _support_radius(fine.momenta, st0.momentum_density(0)) <= g.p_max
    out_fine = apply_circuit(st0, c, callback=inside_band)
    out = apply_circuit(vacuum_state(1, 1, [g]), c)
    td = trace_distance(out, prep_target_state(n, delta, out.grids[0]))
    td_fine = trace_distance(out_fine, prep_target_state(n, delta, out_fine.grids[0]))
    assert td == pytest.approx(td_fine, abs=1e-6)


def _shift_cells(c, grid):
    """Cells of each position shift of mode 0, following dx through the squeezers."""
    dx, out = grid.dx, []
    for g in c.gates:
        if g.kind == "squeeze":
            dx = dx * g.alpha
        elif g.kind in ("disp_p", "ctrl_disp_p"):
            out.append(g.t / dx)
    return out


def test_prep_shifts_are_exact_rolls(monkeypatch):
    from hqoc.pipeline import build_code_prep, build_prep_circuit

    circuits = [(build_code_prep(1, 0.02), 9 * 2 ** 14), (build_prep_circuit(8, 0.02), 9 * 2 ** 12),
                (build_code_prep(2, 0.01), 9 * 2 ** 15)]
    grids = []
    for c, n in circuits:
        g = auto_grid(c, base_margin=0.3)[0]
        assert g.n_points == n
        cells = _shift_cells(c, g)
        assert len(cells) > 1
        assert all(abs(k - round(k)) < 1e-9 for k in cells), cells
        grids.append(g)
    assert auto_grid(circuits[2][0])[0].n_points == 9 * 2 ** 15  # default margin too

    def no_fft(*args, **kwargs):
        raise AssertionError("a position shift ran through the FFT")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "ifft", no_fft)
    for (c, _), g in zip(circuits[:2], grids):
        assert apply_circuit(vacuum_state(1, 1, [g]), c).norm() == pytest.approx(1.0, abs=1e-12)


def _required(c, base_margin):
    """Band ``dx`` of mode 0 and the points ``n_req`` that cover its windows at it."""
    r0 = VACUUM_TAIL_RADIUS
    traj = circuit_window_trajectory(c, (-r0, r0, -r0, r0))
    scales = [1.0]
    for g in c.gates:
        scales.append(scales[-1] * (g.alpha if g.kind == "squeeze" else 1.0))
    grow = 1.0 + base_margin
    dx0 = min(math.pi / (grow * max(abs(w[0][2]), abs(w[0][3])) * s) for w, s in zip(traj, scales))
    n_req = max(2 * grow * max(abs(w[0][0]), abs(w[0][1])) / (dx0 * s) for w, s in zip(traj, scales))
    return dx0, n_req


def _allowed_sizes(lo, hi):
    """Every grid size m 2^k (k >= 1, m in 1, 3, 5, 9, 15) in ``[lo, hi]``, ascending."""
    return sorted(m << k for m in (1, 3, 5, 9, 15) for k in range(1, 40) if lo <= m << k <= hi)


def _old_pow2(n_req):
    """The size before odd factors: the power of two >= max(256, n_req)."""
    return max(256, 1 << math.ceil(math.log2(n_req)))


def _fill_grid(c, base_margin):
    """The grid without a snap: the smallest size >= max(256, n_req), the band dx shrunk to fill it."""
    dx0, n_req = _required(c, base_margin)
    n = _allowed_sizes(max(256, n_req), math.inf)[0]
    return centered_grid(n, dx0 * n_req / n)


def test_auto_grid_keeps_fill_grid_without_commensurate_dx():
    from hqoc.acceptance import random_circuit

    lone = Circuit(1, 0, (disp_p(0, 1e-3),))  # less than one cell
    rand = random_circuit(np.random.default_rng(0))  # five incommensurate shifts
    wide = Circuit(1, 0, (disp_p(0, 60.0), disp_p(0, -math.e)))  # n_req ~ 357: 384, not 512
    assert len(_shift_cells(rand, auto_grid(rand)[0])) == 5
    for c in (lone, rand, wide):
        for margin in (0.25, 0.3):
            assert auto_grid(c, base_margin=margin) == [_fill_grid(c, margin)]
    assert auto_grid(wide, base_margin=0.3)[0].n_points == 384 < _old_pow2(_required(wide, 0.3)[1])


def _rolls_on(c, n, dx_lo, dx_hi):
    """Whether some ``dx`` in ``[dx_lo, dx_hi]`` puts every position shift of mode 0 on whole cells."""
    lengths = [abs(k) for k in _shift_cells(c, centered_grid(n, 1.0)) if k]  # in t=0 units
    r = min(lengths)
    for k in range(math.ceil(r / dx_hi), math.floor(r / dx_lo) + 1):
        if dx_lo <= r / k <= dx_hi and all(
            abs(v - round(v)) < 1e-9 for v in _shift_cells(c, centered_grid(n, r / k))
        ):
            return True
    return False


def test_prep_grids_take_the_smallest_size_that_snaps():
    from hqoc.pipeline import build_code_prep, build_prep_circuit

    for c in (build_code_prep(1, 0.02), build_prep_circuit(8, 0.02), build_code_prep(3, 0.01),
              build_prep_circuit(3, 0.04)):
        for margin in (0.25, 0.3):
            dx0, n_req = _required(c, margin)
            top = _old_pow2(n_req)
            sizes = _allowed_sizes(max(256, n_req), top)
            snapping = [n for n in sizes if _rolls_on(c, n, dx0 * n_req / n, dx0)]
            g = auto_grid(c, base_margin=margin)[0]
            assert g.n_points == snapping[0] < top
            assert dx0 * n_req / g.n_points <= g.dx <= dx0
            assert all(abs(k - round(k)) < 1e-9 for k in _shift_cells(c, g))


def test_position_windows_hold_support_tightly():
    from hqoc.pipeline import build_code_prep, build_prep_circuit

    r0 = VACUUM_TAIL_RADIUS
    for c in (build_prep_circuit(3, 0.04), build_code_prep(1, 0.02)):
        traj = circuit_window_trajectory(c, (-r0, r0, -r0, r0))
        slack = []

        def check(i, st):
            xs, dens = st.grids[0].xs, st.position_density(0)
            half = st.grids[0].dx / 2
            w = traj[i][0]
            # all but 1e-12 of the mass lies in cells that meet the window
            assert dens[(xs + half < w[0]) | (xs - half > w[1])].sum() <= 1e-12, i
            slack.append(max(abs(w[0]), abs(w[1])) / _support_radius(xs, dens))

        v = vacuum_state(1, 1, auto_grid(c, base_margin=0.3))
        check(0, v)
        apply_circuit(v, c, callback=check)
        assert len(slack) == len(c.gates) + 1
        assert max(slack) <= 1.1, max(slack)


def test_auto_grid_code_prep_fits_default_cap():
    from hqoc.pipeline import build_code_prep

    g = auto_grid(build_code_prep(1, 0.01))[0]  # default cap 1024 MB
    assert g.n_points * 2 * 16 / 1e6 <= 135


def test_auto_grid_memory_cap():
    c = Circuit(1, 0, ())
    with pytest.raises(ResourceCapError):
        auto_grid(c, mem_cap_mb=0.001)


def test_mem_cap_counts_a_joint_grid_past_the_float_range():
    # 64 modes of 2^20 cells and 4 qubits hold 2^1288 bytes: a float byte count overflows
    grids = [centered_grid(2 ** 20, 0.1)] * 64
    with pytest.raises(ResourceCapError, match=r"^grid needs 4 x 5\.32886e\+381 MB > cap 1e\+300 MB$"):
        check_mem_cap(grids, 4, 1e300)


@pytest.mark.parametrize("gates, message", [
    ((disp_p(0, 1e308),) * 2, "position window leaves the float range at gate 2"),
    ((disp_q(0, 1e308),) * 2, "momentum window leaves the float range at gate 2"),
    ((ctrl_disp_p(0, 0, 1e308),) * 2, "position window leaves the float range at gate 2"),
    # finite windows whose grid needs more cells than a float counts
    ((disp_p(0, 1e300), disp_q(0, 1e300)), "grid leaves the float range at gate 2"),
], ids=["disp_p", "disp_q", "ctrl_disp_p", "cells"])
def test_auto_grid_refuses_a_window_past_the_float_range(gates, message):
    with pytest.raises(GridError, match=f"^mode 0's {message}$"):
        auto_grid(Circuit(1, 1, gates))


@pytest.mark.parametrize("alpha", [1e-200, 1e200])
def test_auto_grid_refuses_a_squeeze_factor_past_the_float_range(alpha):
    # the mode's cumulative factor becomes 0 or inf at its second squeezer, gate 3 of the circuit
    c = Circuit(2, 0, (disp_q(0, 0.5), squeeze(0, alpha), disp_q(1, 0.5), squeeze(0, alpha)))
    with pytest.raises(GridError, match="^mode 0's squeeze factor leaves the float range at gate 4$"):
        auto_grid(c)
    assert auto_grid(Circuit(1, 0, (squeeze(0, alpha), squeeze(0, 1 / alpha))))[0].n_points == 256


def test_auto_grid_forced_size_keeps_the_snapped_dx():
    c = Circuit(1, 1, (squeeze(0, 1.5), disp_p(0, 4.0)))
    auto = auto_grid(c)[0]
    forced = auto_grid(c, n_points=1024)[0]
    assert forced == centered_grid(1024, auto.dx)


def test_auto_grid_refuses_a_forced_size_the_shift_leaves():
    # mode 0's packet moves to [14.9, 25.1] at gate 3, the first gate of its own walk
    c = Circuit(2, 1, (qubit_gate("H", 0), disp_p(1, 3.0), disp_p(0, 20.0)))
    with pytest.raises(GridError, match="96-point grid too narrow for mode 0 at gate 3"):
        auto_grid(c, n_points=96)


def test_auto_grid_refuses_a_forced_size_below_the_vacuum():
    with pytest.raises(GridError, match="too narrow for mode 0 at the vacuum"):
        auto_grid(Circuit(1, 0, (disp_q(0, 2000.0),)), n_points=4096)


def test_auto_grid_forced_size_may_sit_on_the_window():
    # the kick leaves the position window at +-5.1, exactly the 8192-point grid's half extent
    c = Circuit(1, 0, (disp_q(0, 2000.0),))
    g = auto_grid(c, n_points=8192)[0]
    assert g.extent / 2 == VACUUM_TAIL_RADIUS


def test_auto_grid_checks_the_cap_on_the_forced_grid():
    # the automatic grid has 10,240 points (4 x 0.164 MB); 8192 forced points need 4 x 0.131 MB
    c = Circuit(1, 0, (disp_q(0, 2000.0),))
    assert auto_grid(c)[0].n_points == 10240
    with pytest.raises(ResourceCapError):
        auto_grid(c, mem_cap_mb=0.6)
    assert auto_grid(c, mem_cap_mb=0.6, n_points=8192)[0].n_points == 8192
    with pytest.raises(ResourceCapError):
        auto_grid(c, mem_cap_mb=0.5, n_points=8192)


def test_grid_overflow_reports_gate():
    v = vacuum_state(1, 0, [centered_grid(256, 24.0 / 256)])
    c = Circuit(1, 0, (disp_p(0, 9.0),))
    with pytest.raises(GridOverflowError, match="gate 1"):
        apply_circuit(v, c)


def test_non_finite_grid_geometry_names_gate():
    for dx, x0 in ((math.inf, 0.0), (math.nan, 0.0), (0.1, -math.inf), (0.1, math.nan)):
        with pytest.raises(GridError, match="not finite"):
            GridSpec(256, dx, x0)
    # dx = 0.1 -> 1e149 -> 1e299 -> inf: the third squeezer overflows
    v = vacuum_state(1, 0, [centered_grid(256, 0.1)])
    with pytest.raises(GridError, match="gate 3"):
        apply_circuit(v, Circuit(1, 0, (squeeze(0, 1e150),) * 3))


def _bits(state):
    return state.amps.tobytes(), state.grids


def test_kernels_never_write_their_input():
    # squeeze and the qubit gate lead, so a kernel that wrote through a
    # shared array (or skipped the copy) would change the input
    gates = (squeeze(0, 1.3), qubit_gate("H", 0), ctrl_disp_p(0, 0, 0.37),
             disp_q(0, 0.8), disp_p(0, -0.29), squeeze(0, 1 / 1.3))
    v = make_vacuum()
    before = _bits(v)
    out = apply_circuit(v, Circuit(1, 1, gates))
    assert _bits(v) == before
    st = v
    for g in gates:
        before = _bits(st)
        nxt = apply_gate(st, g)
        assert _bits(st) == before, g.kind
        st = nxt
    assert np.array_equal(st.amps, out.amps)


def test_overflow_mid_circuit_leaves_input():
    v = vacuum_state(1, 1, [centered_grid(256, 24.0 / 256)])
    c = Circuit(1, 1, (qubit_gate("H", 0), disp_q(0, 0.5), disp_p(0, 2.01), disp_p(0, 9.01)))
    before = _bits(v)
    with pytest.raises(GridOverflowError, match="gate 4"):
        apply_circuit(v, c)
    assert _bits(v) == before


@pytest.mark.parametrize(
    "n", [2, 4, 6, 8, 10, 18, 30, 256, 2 ** 15, 2 ** 19, 9 * 2 ** 14]
    + [m * 2 ** 8 for m in GRID_ODD_FACTORS[1:]],
)
def test_linear_phase_matches_exp(n):
    for v0, step in ((0.0, 0.1), (-3.7, 1e-3), (12.0, -0.77)):
        theta = v0 + step * np.arange(n)
        err = np.abs(_linear_phase(v0, step, n) - np.exp(1j * theta)).max()
        assert err <= 1e-15 * (8 + np.abs(theta).max())


@pytest.mark.parametrize("log2_n", [1, 2, 9, 10, 15, 16])
def test_momentum_phase_matches_exp(log2_n):
    for m in GRID_ODD_FACTORS:
        grid = centered_grid(m * 2 ** log2_n, 0.013)
        for t in (0.3, -2.17, 37.1):
            theta = -t * grid.momenta
            err = np.abs(_momentum_phase(grid, t) - np.exp(1j * theta)).max()
            assert err <= 1e-15 * (8 + np.abs(theta).max())


@pytest.mark.parametrize("n", [0, 1, 3, 15, 25 * 2 ** 4, 7 * 2 ** 8, 1000])
def test_grid_spec_rejects_sizes_outside_the_rule(n):
    with pytest.raises(GridError, match=r"m \* 2\^k with m in \(1, 3, 5, 9, 15\)"):
        GridSpec(n, 0.1, 0.0)


def test_fractional_shift_matches_fft_reference():
    v = apply_gate(make_vacuum(), qubit_gate("H", 0))
    t = 0.7371  # 47.17 cells
    spec = np.fft.fft(v.amps, axis=0, norm="ortho") * np.exp(-1j * t * GRID.momenta)[:, None]
    ref = np.fft.ifft(spec, axis=0, norm="ortho")
    assert np.abs(apply_gate(v, disp_p(0, t)).amps - ref).max() <= 1e-12
    ref_ctrl = v.amps.copy()
    ref_ctrl[:, 1] = ref[:, 1]
    assert np.abs(apply_gate(v, ctrl_disp_p(0, 0, t)).amps - ref_ctrl).max() <= 1e-12
    ref_kick = v.amps * np.exp(1j * t * GRID.xs)[:, None]
    assert np.abs(apply_gate(v, disp_q(0, t)).amps - ref_kick).max() <= 1e-12


def _peak_copies(run, amp_bytes):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / amp_bytes
    finally:
        tracemalloc.stop()


def test_working_set_within_mem_cap_constant():
    from hqoc.gkp import comb_spec, comb_support_size
    from hqoc.pipeline import EncodingLayout, build_prep_circuit, encoding_grid, run_sampling_scheme

    c = build_prep_circuit(8, 0.02)
    grids = auto_grid(c, base_margin=0.3)
    cells = 2 ** c.r * grids[0].n_points
    peak = _peak_copies(lambda: apply_circuit(vacuum_state(1, 1, grids), c), 16 * cells)
    assert peak <= WORKING_SET_COPIES

    # the sampling run counts the cells of one comb support, not its grid's points
    u = Circuit(0, 2, (qubit_gate("X", 0), qubit_gate("X", 1)))
    cells = comb_support_size(comb_spec(0.01, 4, 0), encoding_grid(EncodingLayout(n=2, m=1), 0.01))
    peak = _peak_copies(lambda: run_sampling_scheme(u, 2, 1, 0.01, 1000, 1), 16 * cells)
    assert peak <= WORKING_SET_COPIES


def test_apply_circuit_holds_one_private_copy():
    # the caller's vacuum (1 copy, allocated before tracing) and the private copy
    # the gates run on; a second full array for the qubit gates would make it 3.45
    from hqoc.pipeline import build_code_prep

    c = build_code_prep(1, 0.02)
    v = vacuum_state(1, 1, auto_grid(c, base_margin=0.3))
    peak = 1 + _peak_copies(lambda: apply_circuit(v, c), v.amps.nbytes)
    assert peak < 3.0


@pytest.mark.parametrize(
    "value", [0.0, math.nan, math.inf, complex(0.0, math.nan)], ids=["zero", "nan", "inf", "nan-imag"]
)
def test_normalize_and_sampling_refuse_a_state_without_finite_mass(value):
    amps = np.zeros((GRID.n_points, 2), dtype=complex)
    amps[GRID.n_points // 2, 0] = value
    state = HybridState(1, 1, [GRID], amps)
    with pytest.raises(ValueError, match="cannot normalize a state of norm"):
        state.copy().normalize()
    with pytest.raises(ValueError, match="cannot sample a state of total probability"):
        homodyne_sample(state, 5, 1)


def _sample_with_grid_xs(state, shots, seed):
    """Reference sampler: the positions are looked up in the whole ``grid.xs``."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(np.abs(state.amps.ravel()) ** 2)
    cdf /= cdf[-1]
    flat = np.searchsorted(cdf, rng.random(shots), side="right")
    cells = np.unravel_index(np.minimum(flat, cdf.size - 1), state.amps.shape)
    ys = np.empty((shots, state.m))
    for a, grid in enumerate(state.grids):
        ys[:, a] = grid.xs[cells[a]]
    zs = np.empty((shots, state.r), dtype=np.int64)
    for q in range(state.r):
        zs[:, q] = cells[state.m + q]
    return ys, zs


def test_homodyne_sample_reads_only_sampled_positions():
    from hqoc.gkp import comb_spec, comb_wavefunction
    from hqoc.pipeline import EncodingLayout, encoding_grid

    # the comb of bits (1, 0) on 9 * 2^17 cells
    st = comb_wavefunction(comb_spec(0.01, 4, 2), encoding_grid(EncodingLayout(n=2, m=1), 0.01))
    peak = _peak_copies(lambda: homodyne_sample(st, 1000, seed=3), st.amps.nbytes)
    assert peak <= 0.75  # the density array is 0.5 copies; evaluating grid.xs adds one more
    hybrid = apply_gate(apply_gate(make_vacuum(), qubit_gate("H", 0)), ctrl_disp_p(0, 0, 3.0))
    for state in (st, hybrid):
        ys, zs = homodyne_sample(state, 1000, seed=3)
        want_ys, want_zs = _sample_with_grid_xs(state, 1000, 3)
        assert np.array_equal(ys, want_ys) and np.array_equal(zs, want_zs)


def test_homodyne_sample_holds_24_bytes_a_shot():
    from hqoc.gkp import comb_spec, comb_wavefunction
    from hqoc.pipeline import EncodingLayout, encoding_grid

    # one 18,432-cell mode
    st = comb_wavefunction(comb_spec(0.05, 4, 0), encoding_grid(EncodingLayout(n=16, m=8), 0.05))
    homodyne_sample(st, 1000, seed=0)  # first-call allocations of numpy
    tracemalloc.start()
    try:
        ys, zs = homodyne_sample(st, 10**6, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # uniforms or flat indices, cell indices and outcomes: 24 MB, plus the 0.15 MB density
    assert peak <= 25e6
    want_ys, want_zs = _sample_with_grid_xs(st, 10**6, 5)
    assert np.array_equal(ys, want_ys) and np.array_equal(zs, want_zs)


def test_inner_product_conjugate_symmetry():
    v = make_vacuum()
    a = apply_gate(v, disp_q(0, 0.3))
    b = apply_gate(v, disp_p(0, 0.2))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def old_energy_expectation(state):
    """Per-mode energy as two separate quadratures, each marginal computed on its own."""
    energies = []
    for a in range(state.m):
        axes = tuple(ax for ax in range(state.amps.ndim) if ax != a)
        pos = (np.abs(state.amps) ** 2).sum(axis=axes)
        mom = (np.abs(np.fft.fft(state.amps, axis=a, norm="ortho")) ** 2).sum(axis=axes)
        q2 = float(np.dot(pos, state.grids[a].xs ** 2))
        p2 = float(np.dot(mom, state.grids[a].momenta ** 2))
        energies.append(q2 + p2)
    return energies


def test_mode_marginals_energy_is_bit_identical_to_separate_quadratures():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = random_circuit(rng)
        seen = []

        def record(i, st):
            mg = mode_marginals(st, 0)
            assert mg.energy == old_energy_expectation(st)[0]
            assert np.array_equal(mg.xs, st.grids[0].xs)
            assert np.array_equal(mg.momenta, st.grids[0].momenta)
            assert np.array_equal(mg.position, st.position_density(0))
            assert np.array_equal(mg.momentum, st.momentum_density(0))
            seen.append(i)

        apply_circuit(vacuum_state(1, 1, auto_grid(c, base_margin=0.3)), c, callback=record)
        assert seen == list(range(1, len(c.gates) + 1))
    # two modes: each mode's energy from its own marginals
    grids = [centered_grid(256, 0.1), centered_grid(512, 0.05)]
    st = apply_circuit(vacuum_state(2, 1, grids), Circuit(2, 1, (
        disp_q(0, 0.7), squeeze(1, 1.5), ctrl_disp_p(1, 0, 0.3), qubit_gate("H", 0),
    )))
    energies, emax = energy_expectation(st)
    assert energies == old_energy_expectation(st)
    assert emax == max(energies)


def test_state_dump_writes_zeros_without_sign():
    # a whole-array phase turns zero cells into -0.0 where cos(t x) < 0; the dump does not show it
    amps = make_vacuum().amps * np.exp(1j * 3.0 * GRID.xs)[:, None]
    amps[::3] *= -0.0
    assert np.any(np.signbit(amps.real) & (amps.real == 0)) and np.any(np.signbit(amps.imag) & (amps.imag == 0))
    values = [v for branch in state_dump(HybridState(1, 1, [GRID], amps))["branches"].values()
              for row in branch for v in row[1:]]
    assert 0.0 in values
    assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in values)
