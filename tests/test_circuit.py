import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hqoc.circuit import (
    GATE_KINDS,
    Circuit,
    CircuitError,
    Gate,
    StrengthBounds,
    adjoint_circuit,
    adjoint_gate,
    blackbox,
    conforms_to,
    ctrl_disp_p,
    ctrl_disp_q,
    disp_p,
    disp_q,
    gate_from_dict,
    gate_matrix,
    gate_params,
    gate_to_dict,
    parse_circuit,
    qubit_gate,
    serialize_circuit,
    squeeze,
)
from hqoc.moments import AnalysisError, MomentWindowMap, circuit_params, generator_mlf
from hqoc.simulator import apply_gate, centered_grid, vacuum_state


def test_parse_single_squeeze_round_trip():
    text = '{"m":1,"r":1,"gates":[{"kind":"squeeze","mode":0,"alpha":2.0}]}'
    c = parse_circuit(text)
    assert (c.m, c.r) == (1, 1)
    assert c.gates == (squeeze(0, 2.0),)
    assert parse_circuit(serialize_circuit(c)) == c


def test_mode_out_of_range_reports_position():
    text = '{"m":2,"r":0,"gates":[{"kind":"squeeze","mode":3,"alpha":2.0}]}'
    with pytest.raises(CircuitError, match="mode index out of range at gate 1"):
        parse_circuit(text)


def test_blackbox_passthrough():
    text = json.dumps(
        {
            "m": 2,
            "r": 1,
            "gates": [
                {"kind": "blackbox", "modes": [0, 1], "qubits": [0], "g_bar": 4.0,
                 "xi_bar": 36.0, "eta": 1.0, "size": 36}
            ],
        }
    )
    c = parse_circuit(text)
    g = c.gates[0]
    assert (g.g_bar, g.xi_bar, g.eta, g.size) == (4.0, 36.0, 1.0, 36)
    assert parse_circuit(serialize_circuit(c)) == c


@pytest.mark.parametrize(
    "doc",
    [
        {"m": 1.5, "r": 0, "gates": []},
        {"m": 1, "r": True, "gates": []},
        {"m": 2, "r": 0, "gates": [{"kind": "disp_q", "mode": 0.7, "t": 1.0}]},
        {"m": 2, "r": 0, "gates": [{"kind": "disp_q", "mode": True, "t": 1.0}]},
        {"m": 1, "r": 2, "gates": [{"kind": "ctrl_disp_p", "mode": 0, "qubit": 1.0, "t": 1.0}]},
        {"m": 1, "r": 0, "gates": [{"kind": "squeeze", "mode": 0.0, "alpha": 2.0}]},
        {"m": 2, "r": 1, "gates": [{"kind": "blackbox", "modes": [0, 1.0], "g_bar": 2.0, "xi_bar": 1.0}]},
        {"m": 0, "r": 2, "gates": [{"kind": "qubit_gate", "name": "H", "qubits": [False]}]},
        {"m": 0, "r": 1, "gates": [{"kind": "qubit_gate", "name": "Y", "qubits": [0]}]},
    ],
    ids=["m-float", "r-bool", "mode-float", "mode-bool", "qubit-float", "mode-0.0",
         "modes-float", "qubits-bool", "unknown-name"],
)
def test_parser_rejects_bad_gates_with_position(doc):
    with pytest.raises(CircuitError) as err:
        parse_circuit(json.dumps(doc))
    assert err.value.position == (1 if doc["gates"] else None)


def test_validator_rejects_non_integer_index_with_position():
    with pytest.raises(CircuitError, match="not an integer at gate 2") as err:
        Circuit(1, 1, (squeeze(0, 2.0), Gate(kind="disp_p", mode=0.0, t=1.0)))
    assert err.value.position == 2


def test_constructors_take_numpy_integers_and_reject_floats():
    g = ctrl_disp_q(np.int64(1), np.int32(0), 0.5)
    assert type(g.mode) is int and type(g.qubit) is int
    assert Circuit(2, 1, (g, Gate(kind="disp_q", mode=np.int64(1), t=0.5))).m == 2
    assert type(Circuit(np.int64(1), np.int64(0)).m) is int
    for bad in (1.0, True, np.bool_(True)):
        with pytest.raises(TypeError):
            disp_q(bad, 0.5)
        with pytest.raises(TypeError):
            qubit_gate("H", bad)
        with pytest.raises(CircuitError, match="counts must be integers"):
            Circuit(bad, 0)


SAMPLE_GATES = {
    "disp_q": disp_q(0, 0.3),
    "disp_p": disp_p(0, -0.7),
    "ctrl_disp_q": ctrl_disp_q(0, 0, 0.3),
    "ctrl_disp_p": ctrl_disp_p(0, 0, -0.7),
    "squeeze": squeeze(0, 1.5),
    "qubit_gate": qubit_gate("S", 0),
    "blackbox": blackbox((0,), (0,), g_bar=2.0, xi_bar=1.0, eta=0.5, size=3),
}


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_every_kind_is_supported_end_to_end(kind):
    # a kind added to the KINDS table must get a sample gate here and pass every layer
    g = SAMPLE_GATES[kind]
    assert g.kind == kind
    assert gate_from_dict(gate_to_dict(g), 1) == g
    assert adjoint_gate(adjoint_gate(g)) == g
    assert isinstance(generator_mlf(g), MomentWindowMap)
    state = apply_gate(vacuum_state(1, 1, [centered_grid(512, 0.05)]), qubit_gate("H", 0))
    if kind == "blackbox":
        with pytest.raises(AnalysisError):
            apply_gate(state, g)
    else:
        assert apply_gate(state, g).norm() == pytest.approx(1.0, abs=1e-12)


def test_qubit_index_validation():
    with pytest.raises(CircuitError, match="qubit index out of range at gate 2"):
        Circuit(1, 1, (squeeze(0, 2.0), ctrl_disp_p(0, 1, 1.0)))


def test_nonpositive_alpha_rejected():
    with pytest.raises(CircuitError, match="alpha"):
        Circuit(1, 0, (squeeze(0, -1.0),))


def test_non_unitary_matrix_rejected():
    with pytest.raises(CircuitError, match="non-unitary"):
        Circuit(0, 1, (qubit_gate([[1, 0], [0, 2]], 0),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)], ids=["nan", "inf", "nan-imag"])
def test_non_finite_matrix_rejected(bad):
    # NaN compares False against the unitarity tolerance, and json writes and
    # reads it back as a bare NaN token: both ways in are refused at the gate
    g = qubit_gate(((bad, 0), (0, 1)), 0)
    with pytest.raises(CircuitError, match="^non-finite matrix entry at gate 2$"):
        Circuit(0, 1, (qubit_gate("H", 0), g))
    text = json.dumps({"m": 0, "r": 1, "gates": [gate_to_dict(qubit_gate("H", 0)), gate_to_dict(g)]})
    with pytest.raises(CircuitError, match="^non-finite matrix entry at gate 2$") as err:
        parse_circuit(text)
    assert err.value.position == 2


@pytest.mark.parametrize("g_bar, xi_bar", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)])
def test_non_finite_blackbox_parameters_rejected(g_bar, xi_bar):
    # NaN passes the g_bar >= 1 and xi_bar >= 0 comparisons; analysis_report would drop or spread it
    box = blackbox((0,), (), g_bar=g_bar, xi_bar=xi_bar)
    with pytest.raises(CircuitError, match="^blackbox requires finite g_bar and xi_bar at gate 2$"):
        Circuit(1, 0, (squeeze(0, 2.0), box))


def test_named_gates_are_unitary():
    for name in ("H", "S", "T", "X", "Z", "CZ", "CNOT"):
        qubits = (0,) if name not in ("CZ", "CNOT") else (0, 1)
        g = qubit_gate(name, qubits)
        mat = gate_matrix(g)
        assert np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]))


def test_gate_params_table():
    def pair(g):
        p = gate_params(g)
        return (p.eta, p.xi)

    assert pair(squeeze(0, 2.0)) == (2.0, 0.0)
    assert pair(disp_q(0, 0.5)) == (1.0, 0.5)
    assert pair(disp_p(0, -1.5)) == (1.0, 1.5)
    assert pair(ctrl_disp_q(0, 0, -0.25)) == (1.0, 0.25)
    assert pair(qubit_gate("H", 0)) == (1.0, 0.0)
    bb = blackbox((0,), (0,), g_bar=4.0, xi_bar=36.0, eta=1.0)
    assert pair(bb) == (1.0, 36.0)


def test_adjoint_example():
    c = Circuit(1, 0, (disp_q(0, 1.0), squeeze(0, 2.0)))
    a = adjoint_circuit(c)
    assert a.gates == (squeeze(0, 0.5), disp_q(0, -1.0))


def test_adjoint_of_named_gates():
    c = Circuit(0, 2, (qubit_gate("T", 0), qubit_gate("H", 1), qubit_gate("CZ", (0, 1))))
    a = adjoint_circuit(c)
    # H, CZ self-adjoint; T dagger is an explicit matrix
    assert np.allclose(gate_matrix(a.gates[0]), gate_matrix(c.gates[2]))
    assert np.allclose(gate_matrix(a.gates[2]), gate_matrix(c.gates[0]).conj().T)


@st.composite
def circuits(draw, max_gates=10):
    n_gates = draw(st.integers(0, max_gates))
    gates = []
    for _ in range(n_gates):
        kind = draw(st.sampled_from(
            ["disp_q", "disp_p", "ctrl_disp_q", "ctrl_disp_p", "squeeze", "qubit_gate"]))
        if kind == "squeeze":
            gates.append(squeeze(0, draw(st.floats(0.25, 4.0))))
        elif kind == "qubit_gate":
            gates.append(qubit_gate(draw(st.sampled_from(["H", "S", "T", "X", "Z"])), 0))
        elif kind.startswith("ctrl"):
            gates.append(Gate(kind=kind, mode=0, qubit=0,
                              t=draw(st.floats(-3.0, 3.0))))
        else:
            gates.append(Gate(kind=kind, mode=0, t=draw(st.floats(-3.0, 3.0))))
    return Circuit(1, 1, tuple(gates))


def _gates_close(a, b):
    if a.kind != b.kind:
        return False
    if a.kind == "squeeze":
        return math.isclose(a.alpha, b.alpha, rel_tol=1e-12)
    return a == b


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_adjoint_is_involution(c):
    # exact for displacements and qubit gates; 1/(1/alpha) only up to rounding
    back = adjoint_circuit(adjoint_circuit(c))
    assert len(back.gates) == len(c.gates)
    assert all(_gates_close(a, b) for a, b in zip(back.gates, c.gates))


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_adjoint_preserves_circuit_params(c):
    # adjoint invariance of (g_bar, xi_bar): U and U^dag carry the same energy bound
    p = circuit_params(c)
    q = circuit_params(adjoint_circuit(c))
    assert math.isclose(p.g_bar_max, q.g_bar_max, rel_tol=1e-10)
    assert math.isclose(p.xi_bar_max, q.xi_bar_max, rel_tol=1e-10, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_serialize_parse_identity(c):
    assert parse_circuit(serialize_circuit(c)) == c


def test_strength_bounds():
    # membership in the bounded gate set Uelem(alpha, zeta) of the substitution lemma
    c = Circuit(1, 1, (squeeze(0, 2.0), disp_p(0, 1.0)))
    assert conforms_to(c, StrengthBounds(alpha=2.0, zeta=1.0))
    assert not conforms_to(c, StrengthBounds(alpha=1.5, zeta=1.0))
    assert not conforms_to(Circuit(1, 0, (disp_q(0, 1.5),)), StrengthBounds(2.0, 1.0))
    with pytest.raises(ValueError):
        StrengthBounds(alpha=0.5, zeta=1.0)


def test_size_counts_blackbox_declared_sizes():
    c = Circuit(
        1, 1,
        (squeeze(0, 2.0), blackbox((0,), (0,), g_bar=4.0, xi_bar=36.0, eta=1.0, size=36)),
    )
    assert c.size == 37
    assert len(c) == 2


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_parse_serialize_is_byte_identical():
    gates = list(SAMPLE_GATES.values()) + [
        qubit_gate(np.array([[0, 1j], [1j, 0]]), 0),
        qubit_gate("CNOT", (1, 0)),
        blackbox((0, 1), (), g_bar=3.0, xi_bar=0.0),
    ]
    for g in gates:
        text = serialize_circuit(Circuit(2, 2, (g,)))
        assert serialize_circuit(parse_circuit(text)) == text
    w = _perfbench_workloads()
    text = serialize_circuit(w.build_random_circuit(w.random_circuit_arrays(3)))
    assert serialize_circuit(parse_circuit(text)) == text


# (gate object, message) as the per-field decoder reported them: the first
# missing or malformed field in KINDS order; a JSON null passes to validation
MALFORMED_GATES = [
    ({"kind": "disp_q", "t": 0.5},
     "missing field 'mode' for 'disp_q' at gate 2"),
    ({"kind": "disp_q", "mode": 0},
     "missing field 't' for 'disp_q' at gate 2"),
    ({"kind": "disp_q", "mode": None, "t": 0.5},
     "mode index None is not an integer at gate 2"),
    ({"kind": "disp_q", "mode": 0, "t": None},
     "missing displacement strength t at gate 2"),
    ({"kind": "disp_q", "mode": 0, "t": "x"},
     "malformed gate at gate 2: field 't' must be a number, got 'x'"),
    ({"kind": "disp_q", "mode": 1.5, "t": 0.5},
     "malformed gate at gate 2: 'float' object cannot be interpreted as an integer"),
    ({"kind": "disp_q", "mode": True, "t": 0.5},
     "malformed gate at gate 2: boolean True is not an index"),
    ({"kind": "disp_q", "mode": "0", "t": 0.5},
     "malformed gate at gate 2: 'str' object cannot be interpreted as an integer"),
    ({"kind": "disp_p", "mode": 3, "t": 0.5},
     "mode index out of range at gate 2"),
    ({"kind": "disp_p", "mode": 0, "t": [1]},
     "malformed gate at gate 2: field 't' must be a number, got [1]"),
    ({"kind": "disp_p", "mode": 1.5},
     "malformed gate at gate 2: 'float' object cannot be interpreted as an integer"),
    ({"kind": "ctrl_disp_q", "mode": 0, "t": 0.5},
     "missing field 'qubit' for 'ctrl_disp_q' at gate 2"),
    ({"kind": "ctrl_disp_q", "mode": 0, "qubit": 5, "t": 0.5},
     "qubit index out of range at gate 2"),
    ({"kind": "ctrl_disp_p", "mode": 0, "qubit": None, "t": 0.5},
     "qubit index None is not an integer at gate 2"),
    ({"kind": "ctrl_disp_p", "mode": 0, "qubit": 0.0, "t": 0.5},
     "malformed gate at gate 2: 'float' object cannot be interpreted as an integer"),
    ({"kind": "ctrl_disp_p", "qubit": 0, "t": 0.5},
     "missing field 'mode' for 'ctrl_disp_p' at gate 2"),
    ({"kind": "squeeze", "mode": 0},
     "missing field 'alpha' for 'squeeze' at gate 2"),
    ({"kind": "squeeze", "mode": 0, "alpha": -1},
     "non-positive alpha at gate 2"),
    ({"kind": "squeeze", "mode": 0, "alpha": None},
     "non-positive alpha at gate 2"),
    ({"kind": "squeeze", "mode": 0, "alpha": "two"},
     "malformed gate at gate 2: field 'alpha' must be a number, got 'two'"),
    ({"kind": "qubit_gate", "name": "H"},
     "missing field 'qubits' for 'qubit_gate' at gate 2"),
    ({"kind": "qubit_gate", "name": "Q", "qubits": [0]},
     "unknown qubit gate name 'Q' at gate 2"),
    ({"kind": "qubit_gate", "qubits": [0]},
     "missing field 'matrix' for 'qubit_gate' at gate 2"),
    ({"kind": "qubit_gate", "name": "H", "qubits": [0.5]},
     "malformed gate at gate 2: 'float' object cannot be interpreted as an integer"),
    ({"kind": "qubit_gate", "matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]], "qubits": [0]},
     "non-unitary matrix at gate 2"),
    ({"kind": "qubit_gate", "matrix": [[1, 0]], "qubits": [0]},
     "malformed gate at gate 2: cannot unpack non-iterable int object"),
    ({"kind": "blackbox", "modes": [0], "g_bar": 2.0},
     "missing field 'xi_bar' for 'blackbox' at gate 2"),
    ({"kind": "blackbox", "modes": [0], "g_bar": 2.0, "xi_bar": 1.0, "eta": None},
     "blackbox requires eta > 0 at gate 2"),
    ({"kind": "blackbox", "modes": [0.5], "g_bar": 2.0, "xi_bar": 1.0},
     "malformed gate at gate 2: 'float' object cannot be interpreted as an integer"),
    ({"kind": "blackbox", "modes": [0], "g_bar": 2.0, "xi_bar": 1.0, "size": 2.5},
     "malformed gate at gate 2: 'float' object cannot be interpreted as an integer"),
    ({"kind": "blackbox", "modes": [0], "g_bar": 0.5, "xi_bar": 1.0},
     "blackbox requires g_bar >= 1 at gate 2"),
    ({"kind": "teleport", "mode": 0},
     "unknown gate kind 'teleport' at gate 2"),
    ({"kind": ["disp_q"], "mode": 0},
     "unknown gate kind ['disp_q'] at gate 2"),
    ({"mode": 0, "t": 1.0},
     "gate object missing 'kind' at gate 2"),
    ([1, 2],
     "gate object missing 'kind' at gate 2"),
    ({"kind": "blackbox", "modes": None, "g_bar": 2.0, "xi_bar": 1.0},
     "missing field 'modes' for 'blackbox' at gate 2"),
    ({"kind": "blackbox", "modes": [0], "qubits": None, "g_bar": 2.0, "xi_bar": 1.0},
     "missing field 'qubits' for 'blackbox' at gate 2"),
    # booleans and numeric strings are not numbers, though float() takes them
    ({"kind": "disp_q", "mode": 0, "t": True},
     "malformed gate at gate 2: field 't' must be a number, got True"),
    ({"kind": "ctrl_disp_p", "mode": 0, "qubit": 0, "t": "1"},
     "malformed gate at gate 2: field 't' must be a number, got '1'"),
    ({"kind": "squeeze", "mode": 0, "alpha": True},
     "malformed gate at gate 2: field 'alpha' must be a number, got True"),
    ({"kind": "blackbox", "modes": [0], "g_bar": "3", "xi_bar": 1.0},
     "malformed gate at gate 2: field 'g_bar' must be a number, got '3'"),
    ({"kind": "blackbox", "modes": [0], "g_bar": 2.0, "xi_bar": False},
     "malformed gate at gate 2: field 'xi_bar' must be a number, got False"),
    ({"kind": "blackbox", "modes": [0], "g_bar": 2.0, "xi_bar": 1.0, "eta": "1"},
     "malformed gate at gate 2: field 'eta' must be a number, got '1'"),
    ({"kind": "qubit_gate", "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]], "qubits": [0]},
     "malformed gate at gate 2: field 'matrix' must be a number, got True"),
    ({"kind": "qubit_gate", "matrix": [[[0, 0], [1, "0"]], [[1, 0], [0, 0]]], "qubits": [0]},
     "malformed gate at gate 2: field 'matrix' must be a number, got '0'"),
    ({"kind": "blackbox", "modes": [0], "g_bar": math.nan, "xi_bar": 1.0},
     "blackbox requires finite g_bar and xi_bar at gate 2"),
    ({"kind": "blackbox", "modes": [0], "g_bar": 2.0, "xi_bar": math.inf},
     "blackbox requires finite g_bar and xi_bar at gate 2"),
]


@pytest.mark.parametrize("gate,message", MALFORMED_GATES)
def test_malformed_gate_messages(gate, message):
    doc = {"m": 1, "r": 1, "gates": [squeeze(0, 2.0), gate]}
    doc["gates"][0] = gate_to_dict(doc["gates"][0])
    with pytest.raises(CircuitError) as err:
        parse_circuit(json.dumps(doc))
    assert str(err.value) == message
    assert err.value.position == 2


@pytest.mark.parametrize("gates", [5, None, {"kind": "disp_q"}, "[]"])
def test_gates_that_are_not_a_list_are_refused(gates):
    with pytest.raises(CircuitError, match="'gates' must be a list of gate objects"):
        parse_circuit(json.dumps({"m": 1, "r": 0, "gates": gates}))


def test_integer_fields_decode_to_the_floats_they_serialize_from():
    doc = {"m": 1, "r": 1, "gates": [
        {"kind": "disp_q", "mode": 0, "t": 1},
        {"kind": "squeeze", "mode": 0, "alpha": 2},
        {"kind": "qubit_gate", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "qubits": [0]},
        {"kind": "blackbox", "modes": [0], "g_bar": 3, "xi_bar": 0, "eta": 1},
    ]}
    c = parse_circuit(json.dumps(doc))
    assert c == Circuit(1, 1, (disp_q(0, 1.0), squeeze(0, 2.0), qubit_gate("X", 0),
                               blackbox((0,), (), g_bar=3.0, xi_bar=0.0)))
    assert [type(v) for v in (c.gates[0].t, c.gates[1].alpha, c.gates[3].g_bar)] == [float] * 3
