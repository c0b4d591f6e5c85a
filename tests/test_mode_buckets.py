"""One bucketing pass per circuit: ``circuit_params`` and ``auto_grid`` walk each mode's own gates."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hqoc.circuit import (
    KINDS,
    Circuit,
    Gate,
    blackbox,
    ctrl_disp_q,
    disp_p,
    mode_gates,
    qubit_gate,
    squeeze,
)
from hqoc.moments import AnalysisError, circuit_params, circuit_window_trajectory, g_bar_brute_force
from hqoc.simulator import VACUUM_TAIL_RADIUS, _snap_grid, auto_grid


class CountingGates(tuple):
    """A gate tuple that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _walks(c: Circuit, fn) -> int:
    """How many times ``fn(c)`` iterates ``c.gates``."""
    gates = CountingGates(c.gates)
    object.__setattr__(c, "gates", gates)
    fn(c)
    return gates.walks


def _spread(m: int) -> Circuit:
    """The same 64 gates, four at a time round-robin over ``m`` modes."""
    gates = []
    for a in (i % m for i in range(16)):
        gates += [squeeze(a, 1.5), disp_p(a, 1.0), ctrl_disp_q(a, 0, -2.0), qubit_gate("H", 0)]
    return Circuit(m, 1, tuple(gates))


@pytest.mark.parametrize(
    "fn", [circuit_params, lambda c: auto_grid(c, mem_cap_mb=math.inf)], ids=["circuit_params", "auto_grid"]
)
def test_gates_are_walked_as_often_for_sixteen_modes_as_for_one(fn):
    assert _walks(_spread(16), fn) == _walks(_spread(1), fn)


def test_mode_gates_buckets_by_target_modes():
    box = blackbox((0, 2), (0,), g_bar=2.0, xi_bar=1.0)
    gates = (disp_p(1, 1.0), box, qubit_gate("H", 0), squeeze(2, 2.0))
    assert mode_gates(Circuit(3, 1, gates)) == [[box], [gates[0]], [box, gates[3]]]


ELEMENTARY = [k for k in KINDS if k != "blackbox"]


@st.composite
def elementary_circuits(draw, max_gates=12):
    m = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(ELEMENTARY))
        a = draw(st.integers(0, m - 1))
        if kind == "squeeze":
            gates.append(squeeze(a, draw(st.floats(0.5, 2.0))))
        elif kind == "qubit_gate":
            gates.append(qubit_gate(draw(st.sampled_from(["H", "S", "X"])), 0))
        else:
            qubit = 0 if KINDS[kind].controlled else None
            gates.append(Gate(kind=kind, mode=a, qubit=qubit, t=draw(st.floats(-3.0, 3.0))))
    return Circuit(m, 1, tuple(gates))


def _reference_grids(c: Circuit, base_margin: float):
    """``auto_grid`` from the global window trajectory, by per-prefix formulas over every gate."""
    r0 = VACUUM_TAIL_RADIUS
    traj = circuit_window_trajectory(c, (-r0, r0, -r0, r0))
    grow = 1.0 + base_margin
    specs = []
    for a in range(c.m):
        scale = 1.0
        scales = [1.0]
        for g in c.gates:
            if g.kind == "squeeze" and g.mode == a:
                scale *= g.alpha
            scales.append(scale)
        dx0 = min(math.pi / (grow * max(abs(w[a][2]), abs(w[a][3])) * s) for w, s in zip(traj, scales))
        n_req = max(2.0 * max(abs(w[a][0]), abs(w[a][1])) * grow / (dx0 * s) for w, s in zip(traj, scales))
        specs.append(_snap_grid([g for g in c.gates if g.mode == a], dx0, n_req))
    return specs


@settings(max_examples=150, deadline=None)
@given(elementary_circuits(), st.sampled_from([0.25, 0.3]))
def test_per_mode_walks_match_whole_circuit_references(c, margin):
    got = auto_grid(c, base_margin=margin, mem_cap_mb=math.inf)
    want = _reference_grids(c, margin)
    assert [(g.n_points, g.dx.hex(), g.x0.hex()) for g in got] == [
        (g.n_points, g.dx.hex(), g.x0.hex()) for g in want
    ]
    for a, p in enumerate(circuit_params(c).per_mode):
        own = [g for g in c.gates if g.mode == a]
        assert abs(p.log2_g_bar - math.log2(g_bar_brute_force(Circuit(c.m, c.r, tuple(own)), a))) <= 1e-12
        assert p.xi_bar == sum(abs(g.t) for g in own if KINDS[g.kind].shifts)


def test_auto_grid_names_the_first_blackbox():
    box = blackbox((1,), (0,), g_bar=2.0, xi_bar=1.0)
    c = Circuit(2, 1, (disp_p(0, 1.0), box, blackbox((0,), (0,), g_bar=2.0, xi_bar=1.0)))
    with pytest.raises(AnalysisError, match=r"\(gate 2\)"):
        auto_grid(c)
