"""Circuit IR for the hybrid qubit-oscillator elementary gate set.

A circuit acts on ``m`` oscillator modes and ``r`` qubits.  Oscillator gates
are single-mode only: displacements ``e^{itQ}`` / ``e^{-itP}``, their
qubit-controlled variants, and squeezers ``M_alpha``.  Qubit gates are named
(H, S, T, X, Z, CZ, CNOT) or explicit 2x2 / 4x4 unitaries.  Opaque "blackbox"
nodes stand in for composite subcircuits (e.g. bit-transfer units) whose
internals are not expanded; they carry declared analysis parameters
``(g_bar, xi_bar, eta)`` and a declared gate count.

Each kind has one record in :data:`KINDS`: its JSON fields, the quadrature a
displacement moves and whether it is qubit-controlled.  Validation,
serialization, adjoints, the analyser's window maps, bounded-strength
substitution and the simulator's kernels all read that record.  Only JSON
decoding (:func:`gate_from_dict`) has a branch per kind, one constructor call
each, because it runs once per gate of every parsed circuit.

Gate lists are stored in application order: ``gates[0]`` is applied first
(an operator product ``U_T ... U_1`` is stored as ``[U_1, ..., U_T]``).

Conventions pinned here and used throughout the package:

* ``disp_q(mode, t)``  is ``e^{itQ}``   (multiplies the wavefunction by ``e^{itx}``),
* ``disp_p(mode, t)``  is ``e^{-itP}``  (translates the wavefunction by ``+t``),
* ``squeeze(mode, alpha)`` is ``M_alpha`` with ``M_alpha^dag Q M_alpha = alpha Q``
  (a state peaked at ``x0`` is mapped to one peaked at ``alpha * x0``).
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class GateKind:
    """One gate kind: its JSON fields and, for displacements, what they move.

    ``shifts`` is ``"x"`` for ``e^{-itP}`` (a translation in position) and
    ``"p"`` for ``e^{itQ}`` (a translation in momentum); ``None`` for
    non-displacements.
    """

    fields: tuple[str, ...]
    shifts: str | None = None
    controlled: bool = False


KINDS: dict[str, GateKind] = {
    "disp_q": GateKind(("mode", "t"), shifts="p"),
    "disp_p": GateKind(("mode", "t"), shifts="x"),
    "ctrl_disp_q": GateKind(("mode", "qubit", "t"), shifts="p", controlled=True),
    "ctrl_disp_p": GateKind(("mode", "qubit", "t"), shifts="x", controlled=True),
    "squeeze": GateKind(("mode", "alpha")),
    # plus exactly one of ``name`` or ``matrix``
    "qubit_gate": GateKind(("qubits",)),
    # a document may omit qubits, eta and size
    "blackbox": GateKind(("modes", "qubits", "g_bar", "xi_bar", "eta", "size")),
}

GATE_KINDS = tuple(KINDS)
DISPLACEMENT_KINDS = tuple(k for k, spec in KINDS.items() if spec.shifts)

_SQRT2 = math.sqrt(2.0)

NAMED_QUBIT_GATES: dict[str, tuple[tuple[complex, ...], ...]] = {
    "H": ((1 / _SQRT2, 1 / _SQRT2), (1 / _SQRT2, -1 / _SQRT2)),
    "X": ((0, 1), (1, 0)),
    "Z": ((1, 0), (0, -1)),
    "S": ((1, 0), (0, 1j)),
    "T": ((1, 0), (0, cmath.exp(1j * math.pi / 4))),
    "CZ": (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, -1),
    ),
    "CNOT": (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    ),
}


class CircuitError(ValueError):
    """Raised on malformed gates/circuits; carries a 1-based gate position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True, eq=False)
class Gate:
    """A single elementary operation (or an opaque blackbox node).

    Only the fields relevant to ``kind`` are set; the rest stay ``None``/empty.
    """

    kind: str
    mode: int | None = None
    qubit: int | None = None
    qubits: tuple[int, ...] = ()
    modes: tuple[int, ...] = ()
    t: float | None = None
    alpha: float | None = None
    name: str | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None
    g_bar: float | None = None
    xi_bar: float | None = None
    eta: float | None = None
    size: int | None = None

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "qubit_gate":
            # Named gates and explicit matrices compare by their resolved unitary.
            return self.qubits == other.qubits and np.array_equal(
                gate_matrix(self), gate_matrix(other)
            )
        return all(getattr(self, f) == getattr(other, f) for f in KINDS[self.kind].fields)


def _index(v) -> int:
    """``operator.index`` with bools rejected: only integers pass, unchanged."""
    if type(v) is int:  # the common case, first: this runs per field of every parsed gate
        return v
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"boolean {v!r} is not an index")
    return operator.index(v)


def _indices(vs) -> tuple[int, ...]:
    return tuple([_index(v) for v in vs])


def disp_q(mode: int, t: float) -> Gate:
    """``e^{itQ}`` on the given mode."""
    return Gate(kind="disp_q", mode=_index(mode), t=float(t))


def disp_p(mode: int, t: float) -> Gate:
    """``e^{-itP}`` on the given mode (position shift by ``t``)."""
    return Gate(kind="disp_p", mode=_index(mode), t=float(t))


def ctrl_disp_q(mode: int, qubit: int, t: float) -> Gate:
    """``ctrl e^{itQ}``: phase ``e^{itx}`` on the control-1 qubit branch."""
    return Gate(kind="ctrl_disp_q", mode=_index(mode), qubit=_index(qubit), t=float(t))


def ctrl_disp_p(mode: int, qubit: int, t: float) -> Gate:
    """``ctrl e^{-itP}``: position shift by ``t`` on the control-1 branch."""
    return Gate(kind="ctrl_disp_p", mode=_index(mode), qubit=_index(qubit), t=float(t))


def squeeze(mode: int, alpha: float) -> Gate:
    """``M_alpha`` on the given mode, ``alpha > 0``."""
    return Gate(kind="squeeze", mode=_index(mode), alpha=float(alpha))


def qubit_gate(name_or_matrix, qubits) -> Gate:
    """A named one-/two-qubit gate or an explicit 2x2 / 4x4 unitary matrix."""
    if isinstance(qubits, (int, np.integer)):
        qubits = (qubits,)
    qubits = _indices(qubits)
    if isinstance(name_or_matrix, str):
        return Gate(kind="qubit_gate", name=name_or_matrix, qubits=qubits)
    mat = np.asarray(name_or_matrix, dtype=complex)
    return Gate(
        kind="qubit_gate",
        matrix=tuple(tuple(complex(v) for v in row) for row in mat),
        qubits=qubits,
    )


def blackbox(
    modes,
    qubits,
    g_bar: float,
    xi_bar: float,
    eta: float = 1.0,
    size: int | None = None,
) -> Gate:
    """An opaque subcircuit node with declared analysis parameters."""
    return Gate(
        kind="blackbox",
        modes=_indices(modes),
        qubits=_indices(qubits),
        g_bar=float(g_bar),
        xi_bar=float(xi_bar),
        eta=float(eta),
        size=None if size is None else _index(size),
    )


def gate_matrix(g: Gate) -> np.ndarray:
    """Resolve a qubit gate to its dense unitary matrix."""
    if g.kind != "qubit_gate":
        raise CircuitError(f"gate of kind {g.kind!r} has no qubit matrix")
    if g.name is not None:
        if g.name not in NAMED_QUBIT_GATES:
            raise CircuitError(f"unknown qubit gate name {g.name!r}")
        return np.asarray(NAMED_QUBIT_GATES[g.name], dtype=complex)
    return np.asarray(g.matrix, dtype=complex)


def target_modes(g: Gate) -> tuple[int, ...]:
    """Modes a gate acts on non-trivially (empty for qubit-only gates)."""
    if g.kind == "blackbox":
        return g.modes
    if g.kind == "qubit_gate":
        return ()
    return (g.mode,)


def mode_gates(c: Circuit) -> list[list[Gate]]:
    """Each mode's gates in order, from one pass: the one place that files a gate under a mode."""
    buckets: list[list[Gate]] = [[] for _ in range(c.m)]
    for g in c.gates:
        for a in target_modes(g):
            buckets[a].append(g)
    return buckets


def _check_index(v, bound: int, what: str, pos: int) -> None:
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
        raise CircuitError(f"{what} index {v!r} is not an integer at gate {pos}", pos)
    if not 0 <= v < bound:
        raise CircuitError(f"{what} index out of range at gate {pos}", pos)


def _validate_gate(g: Gate, m: int, r: int, pos: int) -> None:
    spec = KINDS.get(g.kind)
    if spec is None:
        raise CircuitError(f"unknown gate kind {g.kind!r} at gate {pos}", pos)
    fields = spec.fields
    if "mode" in fields:
        _check_index(g.mode, m, "mode", pos)
    if "qubit" in fields:
        _check_index(g.qubit, r, "qubit", pos)
    for field, bound, what in (("modes", m, "mode"), ("qubits", r, "qubit")):
        vs = getattr(g, field) if field in fields else ()
        if vs is None:  # a JSON null
            raise CircuitError(f"missing field {field!r} for {g.kind!r} at gate {pos}", pos)
        for v in vs:
            _check_index(v, bound, what, pos)
    if "t" in fields and (g.t is None or not math.isfinite(g.t)):
        raise CircuitError(f"missing displacement strength t at gate {pos}", pos)
    if "alpha" in fields and (g.alpha is None or not (g.alpha > 0) or not math.isfinite(g.alpha)):
        raise CircuitError(f"non-positive alpha at gate {pos}", pos)
    if g.kind == "qubit_gate":
        if (g.name is None) == (g.matrix is None):
            raise CircuitError(
                f"qubit gate needs exactly one of name/matrix at gate {pos}", pos
            )
        if g.name is not None and g.name not in NAMED_QUBIT_GATES:
            raise CircuitError(f"unknown qubit gate name {g.name!r} at gate {pos}", pos)
        mat = gate_matrix(g)
        k = len(g.qubits)
        if k not in (1, 2) or mat.shape != (2 ** k, 2 ** k):
            raise CircuitError(
                f"qubit gate needs a 2x2 matrix on 1 qubit or a 4x4 on 2, got "
                f"{mat.shape} on {k} at gate {pos}",
                pos,
            )
        if len(set(g.qubits)) != k:
            raise CircuitError(f"repeated qubit target at gate {pos}", pos)
        if not np.isfinite(mat).all():  # NaN passes the unitarity comparison below
            raise CircuitError(f"non-finite matrix entry at gate {pos}", pos)
        # named gates come from NAMED_QUBIT_GATES, which a test checks for unitarity
        if g.matrix is not None and np.abs(mat @ mat.conj().T - np.eye(2 ** k)).max() > 1e-12:
            raise CircuitError(f"non-unitary matrix at gate {pos}", pos)
    if g.kind == "blackbox":
        if not g.modes:
            raise CircuitError(f"blackbox needs at least one mode at gate {pos}", pos)
        if g.g_bar is None or g.g_bar < 1:
            raise CircuitError(f"blackbox requires g_bar >= 1 at gate {pos}", pos)
        if g.xi_bar is None or g.xi_bar < 0:
            raise CircuitError(f"blackbox requires xi_bar >= 0 at gate {pos}", pos)
        if not (math.isfinite(g.g_bar) and math.isfinite(g.xi_bar)):  # NaN passes both comparisons
            raise CircuitError(f"blackbox requires finite g_bar and xi_bar at gate {pos}", pos)
        if g.eta is None or not (g.eta > 0):
            raise CircuitError(f"blackbox requires eta > 0 at gate {pos}", pos)
        if g.g_bar < max(g.eta, 1.0 / g.eta) - 1e-12:
            raise CircuitError(
                f"blackbox g_bar must dominate max(eta, 1/eta) at gate {pos}", pos
            )


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on ``m`` modes and ``r`` qubits (index 0 applied first)."""

    m: int
    r: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        try:
            object.__setattr__(self, "m", _index(self.m))
            object.__setattr__(self, "r", _index(self.r))
        except TypeError as exc:
            raise CircuitError(f"mode and qubit counts must be integers: {exc}") from exc
        if self.m < 0 or self.r < 0:
            raise CircuitError("mode and qubit counts must be non-negative")
        for i, g in enumerate(self.gates, start=1):
            _validate_gate(g, self.m, self.r, i)

    @property
    def size(self) -> int:
        """Gate count, blackboxes counted at their declared sizes."""
        total = 0
        for g in self.gates:
            total += g.size if (g.kind == "blackbox" and g.size) else 1
        return total

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class StrengthBounds:
    """Strength caps ``(alpha, zeta)`` of the bounded set Uelem(alpha, zeta)."""

    alpha: float = 2.0
    zeta: float = 1.0

    def __post_init__(self):
        if self.alpha < 1 or self.zeta < 1:
            raise ValueError("strength bounds require alpha >= 1 and zeta >= 1")


def conforms_to(c: Circuit, bounds: StrengthBounds) -> bool:
    """Check membership in Uelem(alpha, zeta), closed intervals at the caps."""
    for g in c.gates:
        if g.kind in DISPLACEMENT_KINDS and abs(g.t) > bounds.zeta:
            return False
        if g.kind == "squeeze" and not (
            1.0 / bounds.alpha <= g.alpha <= bounds.alpha
        ):
            return False
        if g.kind == "blackbox":
            return False
    return True


@dataclass(frozen=True)
class GateParams:
    """Per-gate squeezing/displacement scalars ``(eta, xi)``."""

    eta: float
    xi: float


def gate_params(g: Gate) -> GateParams:
    """``eta = alpha`` for squeezers, ``xi = |t|`` for displacements, else (1, 0).

    Blackbox nodes return their declared ``eta`` and total ``xi_bar``.
    """
    if g.kind == "squeeze":
        return GateParams(eta=g.alpha, xi=0.0)
    if KINDS[g.kind].shifts:
        return GateParams(eta=1.0, xi=abs(g.t))
    if g.kind == "blackbox":
        return GateParams(eta=g.eta, xi=g.xi_bar)
    return GateParams(eta=1.0, xi=0.0)


def adjoint_gate(g: Gate) -> Gate:
    """Gate-wise adjoint; blackbox declared parameters are adjoint-invariant."""
    fields = KINDS[g.kind].fields
    if "t" in fields:
        return replace(g, t=-g.t)
    if "alpha" in fields:
        return replace(g, alpha=1.0 / g.alpha)
    if g.kind == "qubit_gate":
        mat = gate_matrix(g).conj().T
        if g.name is not None and np.array_equal(mat, gate_matrix(g)):
            return g  # self-adjoint named gate
        return qubit_gate(mat, g.qubits)
    return g


def adjoint_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and replace each gate by its adjoint."""
    return Circuit(m=c.m, r=c.r, gates=tuple(adjoint_gate(g) for g in reversed(c.gates)))


# -- serialization ------------------------------------------------------------
#
# Circuit document: UTF-8 JSON {"m": int, "r": int, "gates": [...]}.
# Complex matrix entries are [re, im] pairs; reals are IEEE-754 doubles.


def gate_to_dict(g: Gate) -> dict:
    d: dict = {"kind": g.kind}
    for f in KINDS[g.kind].fields:
        v = getattr(g, f)
        if v is not None:
            d[f] = list(v) if isinstance(v, tuple) else v
    if g.name is not None:
        d["name"] = g.name
    elif g.matrix is not None:
        d["matrix"] = [[[v.real, v.imag] for v in row] for row in g.matrix]
    return d


def _maybe(decode, v):
    """``decode(v)``, or None for a JSON null, which validation then reports by field."""
    return None if v is None else decode(v)


def _real(v, field: str) -> float | None:
    """A JSON number as a float (integers widen), None for a JSON null; booleans and strings fail."""
    if type(v) is float or v is None:  # by type: this runs per field of every parsed gate
        return v
    if type(v) is not int:
        raise TypeError(f"field {field!r} must be a number, got {v!r}")
    return float(v)


def gate_from_dict(d: dict, pos: int) -> Gate:
    """One gate from its JSON object, decoded by one constructor call per kind.

    Fields are read and decoded in ``KINDS[kind].fields`` order, so the first
    missing or malformed one is the one reported.
    """
    if not isinstance(d, dict) or "kind" not in d:
        raise CircuitError(f"gate object missing 'kind' at gate {pos}", pos)
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise CircuitError(f"unknown gate kind {kind!r} at gate {pos}", pos)
    try:
        if kind == "disp_q" or kind == "disp_p":
            return Gate(kind, mode=_maybe(_index, d["mode"]), t=_real(d["t"], "t"))
        if kind == "ctrl_disp_q" or kind == "ctrl_disp_p":
            return Gate(kind, mode=_maybe(_index, d["mode"]), qubit=_maybe(_index, d["qubit"]),
                        t=_real(d["t"], "t"))
        if kind == "squeeze":
            return Gate(kind, mode=_maybe(_index, d["mode"]), alpha=_real(d["alpha"], "alpha"))
        if kind == "qubit_gate":
            qubits = d.get("qubits", d.get("qubit"))
            if qubits is None:
                raise KeyError("qubits")
            if "name" in d:
                return qubit_gate(d["name"], qubits)
            mat = [[complex(_real(re, "matrix"), _real(im, "matrix")) for re, im in row]
                   for row in d["matrix"]]
            return qubit_gate(mat, qubits)
        return Gate(  # blackbox
            kind,
            modes=_maybe(_indices, d["modes"]),
            qubits=_maybe(_indices, d.get("qubits", ())),
            g_bar=_real(d["g_bar"], "g_bar"),
            xi_bar=_real(d["xi_bar"], "xi_bar"),
            eta=_real(d.get("eta", 1.0), "eta"),
            size=_maybe(_index, d.get("size")),
        )
    except KeyError as exc:
        raise CircuitError(
            f"missing field {exc.args[0]!r} for {kind!r} at gate {pos}", pos
        ) from exc
    except (TypeError, ValueError) as exc:
        raise CircuitError(f"malformed gate at gate {pos}: {exc}", pos) from exc


def circuit_to_dict(c: Circuit) -> dict:
    return {"m": c.m, "r": c.r, "gates": [gate_to_dict(g) for g in c.gates]}


def circuit_from_dict(doc: dict) -> Circuit:
    if not isinstance(doc, dict):
        raise CircuitError("circuit document must be a JSON object")
    for key in ("m", "r", "gates"):
        if key not in doc:
            raise CircuitError(f"circuit document missing {key!r}")
    if type(doc["gates"]) is not list:
        raise CircuitError("circuit document 'gates' must be a list of gate objects")
    gates = tuple(
        gate_from_dict(g, i) for i, g in enumerate(doc["gates"], start=1)
    )
    return Circuit(m=doc["m"], r=doc["r"], gates=gates)


def serialize_circuit(c: Circuit) -> str:
    return json.dumps(circuit_to_dict(c), sort_keys=True)


def parse_circuit(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitError(f"invalid JSON: {exc}") from exc
    return circuit_from_dict(doc)
