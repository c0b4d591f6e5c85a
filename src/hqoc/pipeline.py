"""Concrete circuits of the sampling scheme, measurement post-processing,
error budget, and the end-to-end run.

Circuit constructors (gate lists in application order):

* ``build_prep_circuit(n, delta)``: the comb preparation
  ``U = H V^{n-1} e^{iP} V H M_{1/2}^n M_{2^{-z}}^{ceil(log2 1/Delta)}`` with
  ``V = (ctrl e^{i pi Q}) H (ctrl e^{-iP}) M_2``; exact size
  ``5n + ceil(log2 1/Delta) + 3``; output approximates the L = 2^n
  integer-spaced comb of width Delta (times the qubit |0>).
* ``build_code_prep`` / ``build_aux_prep``: the comb prep of ``L`` peaks, then
  dyadic squeezers up to ``sqrt(2 pi d)``; the target's ``gkp.CombStateSpec`` sets both.
* ``build_wprep``: one code prep per system mode plus the auxiliary prep,
  all sharing qubit 0.
* ``build_wu``: gate-by-gate recompilation of a logical circuit with opaque
  bit-transfer nodes (declared parameters from their published analysis).

Measurement decoding divides a homodyne outcome by the fine peak spacing
``sqrt(2 pi / d)``, rounds, and reduces mod d; per-mode bit strings are
concatenated and the trailing dummy bits discarded.  It runs on the whole
``(shots, m)`` outcome array at once.

The end-to-end run takes logical X circuits only: it flips the logical bits
classically and samples the support of one j = 0 comb (``gkp.ModeSupport``),
moved by whole cells to each mode's final index; no simulator call and no
grid-sized array is on that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    blackbox,
    ctrl_disp_p,
    ctrl_disp_q,
    disp_p,
    qubit_gate,
    squeeze,
)
from .gkp import (
    CombStateSpec,
    ModeSupport,
    aux_spec,
    comb_spec,
    comb_support,
    comb_support_size,
    comb_wavefunction,
    default_comb_grid,
    untruncated_comb_wavefunction,
)
from .moments import analysis_report, ceil_log2
from .simulator import (
    DEFAULT_MEM_CAP_MB,
    GridSpec,
    HybridState,
    apply_circuit,
    auto_grid,
    check_cells_cap,
    sample_cells,
    trace_distance,
    vacuum_state,
)

# Grid margin (``auto_grid`` ``base_margin``) of the preparation and acceptance simulations.
SIM_MARGIN = 0.3


@dataclass(frozen=True)
class EncodingLayout:
    """Block assignment of n logical qubits to m modes of ell bits each.

    ``K = (-n) mod m`` dummy qubits pad ``n`` to ``n' = n + K`` divisible by
    ``m``.  Logical qubit ``q`` (1-based) lands in mode ``(q-1) // ell`` at
    within-mode bit index ``ell - k`` where ``k = q - (alpha-1) ell``, i.e.
    the first qubit of a block is the most significant bit of the mode's
    logical index.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.m > self.n:
            raise ValueError("layout requires m <= n")

    @property
    def K(self) -> int:
        return (-self.n) % self.m

    @property
    def n_prime(self) -> int:
        return self.n + self.K

    @property
    def ell(self) -> int:
        return self.n_prime // self.m

    @property
    def d(self) -> int:
        return 2 ** self.ell

    def mode_and_bit(self, q: int) -> tuple[int, int]:
        """Logical qubit q (1-based) -> (mode index, iota bit index)."""
        if not (1 <= q <= self.n_prime):
            raise ValueError("logical qubit index out of range")
        alpha = (q - 1) // self.ell
        k = q - alpha * self.ell
        return alpha, self.ell - k

    def indices_for_bits(self, bits) -> list[int]:
        """Logical basis bits (length n) -> per-mode logical indices j."""
        bits = list(bits) + [0] * self.K
        out = []
        for alpha in range(self.m):
            block = bits[alpha * self.ell : (alpha + 1) * self.ell]
            j = 0
            for b in block:  # first bit of the block is the most significant
                j = (j << 1) | int(b)
            out.append(j)
        return out

    def bits_for_indices(self, indices) -> np.ndarray:
        """Per-mode logical indices ``(..., m)`` -> int64 logical bits ``(..., n)``.

        Each index gives ``ell`` bits, most significant first; the trailing
        ``K`` dummy bits are dropped.
        """
        idx = np.asarray(indices, dtype=np.int64)
        bits = (idx[..., None] >> np.arange(self.ell - 1, -1, -1)) & 1
        return bits.reshape(idx.shape[:-1] + (self.n_prime,))[..., : self.n]


def discretize(x, ell: int):
    """round(x / sqrt(2 pi 2^-ell)) mod 2^ell, ties to even, elementwise on arrays.

    Dividing by the fine peak spacing sqrt(2 pi / d) sends the peak at
    sqrt(2 pi d) z + sqrt(2 pi / d) j to z d + j, so the residue mod d is the
    logical index.
    """
    spacing = math.sqrt(2.0 * math.pi * 2.0 ** (-ell))
    return np.mod(np.rint(np.asarray(x) / spacing).astype(np.int64), 2 ** ell)


def post_process(ys, layout: EncodingLayout) -> np.ndarray:
    """Homodyne outcomes ``(..., m)`` -> int64 logical bits ``(..., n)``.

    A bare scalar is one outcome of an ``m = 1`` layout.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if ys.shape[-1] != layout.m:
        raise ValueError(f"expected {layout.m} homodyne values")
    return layout.bits_for_indices(discretize(ys, layout.ell))


# -- preparation circuits ------------------------------------------------------


def z_fraction(value: float) -> tuple[float, int]:
    """(z, reps) with z = log2(value)/ceil(log2 value); M_{2^-z}^reps dilates by 1/value."""
    reps = ceil_log2(value)
    return math.log2(value) / reps, reps


def build_prep_circuit(n: int, delta: float) -> Circuit:
    """Comb preparation circuit on one mode and one qubit; exact closed-form size."""
    if not (0 < delta <= 0.25):
        raise ValueError("delta must lie in (0, 1/4]")
    if n < 1:
        raise ValueError("n must be >= 1")
    z, reps = z_fraction(1.0 / delta)
    v_block = [
        squeeze(0, 2.0),
        ctrl_disp_p(0, 0, 1.0),
        qubit_gate("H", 0),
        ctrl_disp_q(0, 0, math.pi),
    ]
    gates: list[Gate] = []
    gates += [squeeze(0, 2.0 ** -z)] * reps
    gates += [squeeze(0, 0.5)] * n
    gates += [qubit_gate("H", 0)]
    gates += v_block
    gates += [disp_p(0, -1.0)]
    for _ in range(n - 1):
        gates += v_block
    gates += [qubit_gate("H", 0)]
    return Circuit(m=1, r=1, gates=tuple(gates))


def prep_size_formula(n: int, delta: float) -> int:
    return 5 * n + ceil_log2(1.0 / delta) + 3


def _prep_admissible(ell: int, delta: float) -> bool:
    """The prep hypothesis at level ell >= 1: 0 < Delta < 1/4 and Delta <= 2^-(ell+1)."""
    return 0 < delta < 0.25 and delta <= 2.0 ** -(ell + 1)


def _prep_spec(ell: int, delta: float, aux: bool = False) -> CombStateSpec:
    """The j = 0 comb state that the code (or auxiliary) prep of level ell reaches."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not _prep_admissible(ell, delta):
        raise ValueError("code preparation requires delta <= 2^-(ell+1) and delta < 1/4")
    return aux_spec(delta, ell) if aux else comb_spec(delta, 2 ** ell, 0)


def _comb_prep(spec: CombStateSpec) -> Circuit:
    base = build_prep_circuit(spec.L.bit_length() - 1, spec.delta)
    z_d, reps = z_fraction(spec.scale)
    gates = base.gates + tuple(squeeze(0, 2.0 ** z_d) for _ in range(reps))
    return Circuit(m=1, r=1, gates=gates)


def build_code_prep(ell: int, delta: float) -> Circuit:
    """Preparation of the j=0 code state of the 2^ell-dimensional comb code."""
    return _comb_prep(_prep_spec(ell, delta))


def build_aux_prep(ell: int, delta: float) -> Circuit:
    """Preparation of the auxiliary d=2 comb state with parameters from level ell."""
    return _comb_prep(_prep_spec(ell, delta, aux=True))


def build_wprep(m: int, ell: int, delta: float) -> Circuit:
    """Code prep on each of the m system modes, then the auxiliary prep, sharing qubit 0."""
    if m < 1:
        raise ValueError("m must be >= 1")
    code = build_code_prep(ell, delta)
    aux = build_aux_prep(ell, delta)
    gates: list[Gate] = []
    for alpha in range(m):
        gates += [_relabel_mode(g, alpha) for g in code.gates]
    gates += [_relabel_mode(g, m) for g in aux.gates]
    return Circuit(m=m + 1, r=1, gates=tuple(gates))


def _relabel_mode(g: Gate, alpha: int) -> Gate:
    if g.kind == "qubit_gate":
        return g
    return replace(g, mode=alpha)


# -- logical circuit recompilation (blackbox bit-transfer nodes) ------------------


# Largest ell whose declared bit-transfer g_bar, 4 * 2^(37 ell), is a float
# (doubles end below 2^1024).
MAX_BIT_TRANSFER_ELL = 27


def bit_transfer_declared(ell: int) -> dict:
    """Declared analysis parameters of one bit-transfer unit at level ``ell <= MAX_BIT_TRANSFER_ELL``."""
    if ell > MAX_BIT_TRANSFER_ELL:
        raise ValueError(
            f"bit-transfer blackboxes need ell <= {MAX_BIT_TRANSFER_ELL} "
            f"(g_bar = 4 * 2^(37 ell) overflows a float), got {ell}"
        )
    return {
        "g_bar": 4.0 * 2.0 ** (37 * ell),
        "xi_bar": 18.0 * 2.0 ** ell,
        "eta": 1.0,
        "size": 36 * ell,
    }


def build_wu(u_logical: Circuit, m: int, ell: int) -> Circuit:
    """Recompiled implementation of a qubit-only logical circuit.

    Acts on m+1 modes (mode m is auxiliary) and 3 qubits.  Each logical gate
    becomes bit-transfer blackboxes onto qubits 1/2, the physical gate, and
    the adjoint transfers.
    """
    if u_logical.m != 0:
        raise ValueError("logical circuits act on qubits only")
    if u_logical.r > m * ell:
        raise ValueError("logical circuit does not fit the encoding")
    decl = bit_transfer_declared(ell)
    aux = m
    gates: list[Gate] = []
    for g in u_logical.gates:
        if g.kind != "qubit_gate":
            raise ValueError("logical circuits may contain qubit gates only")
        target_bits = g.qubits
        boxes = []
        for idx, q in enumerate(target_bits):
            alpha = q // ell  # mode holding logical qubit q (0-based)
            boxes.append(blackbox((alpha, aux), (0, 1 + idx), **decl))
        gates += boxes
        gates.append(qubit_gate(g.name if g.name else np.asarray(g.matrix),
                                tuple(1 + i for i in range(len(target_bits)))))
        gates += list(reversed(boxes))
    return Circuit(m=m + 1, r=3, gates=tuple(gates))


@dataclass(frozen=True)
class PipelineCircuits:
    w_prep: Circuit
    w_u: Circuit
    w_tot: Circuit


def build_pipeline_circuits(
    u_logical: Circuit, n: int, m: int, delta: float
) -> PipelineCircuits:
    layout = EncodingLayout(n=n, m=m)
    ell = layout.ell
    w_prep = build_wprep(m, ell, delta)
    w_u = build_wu(u_logical, m, ell)
    w_tot = Circuit(m=m + 1, r=3, gates=w_prep.gates + w_u.gates)
    return PipelineCircuits(w_prep=w_prep, w_u=w_u, w_tot=w_tot)


# -- error budget ----------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBudget:
    """Analytic L1 error budget and circuit sizes of the compiled scheme."""

    eps_prep: float
    eps_gate: float
    eps_final: float
    l1_bound: float  # eps_final clamped at the trivial bound 2
    t_prep: int
    t_logical: int
    t_total: int

    def to_dict(self) -> dict:
        return {
            "eps_prep": self.eps_prep,
            "eps_gate": self.eps_gate,
            "eps_final": self.eps_final,
            "l1_bound": self.l1_bound,
            "sizes": {
                "T_prep": self.t_prep,
                "T_logical": self.t_logical,
                "T_total": self.t_total,
            },
        }


def _eps_prep(m: int, ell: int, delta: float) -> float:
    """Preparation error bound 50 m (sqrt(Delta) + 2^{2 ell} Delta^2)."""
    return 50.0 * m * (math.sqrt(delta) + 2.0 ** (2 * ell) * delta ** 2)


def error_budget(m: int, ell: int, delta: float, s: int) -> ErrorBudget:
    """eps_prep = 50 m (sqrt(Delta) + 2^{2 ell} Delta^2), eps_gate = 600 s 2^{2 ell} Delta."""
    if m < 1 or ell < 1 or s < 0 or not (0 < delta < 1):
        raise ValueError("invalid budget parameters")
    eps_prep = _eps_prep(m, ell, delta)
    eps_gate = 600.0 * s * 2.0 ** (2 * ell) * delta
    eps_final = eps_prep + eps_gate
    t_prep = 0
    if _prep_admissible(ell, delta):  # the size of build_wprep(m, ell, delta), without building it
        t_prep = m * build_code_prep(ell, delta).size + build_aux_prep(ell, delta).size
    decl_size = 36 * ell
    t_logical = s * (4 * decl_size + 1)
    return ErrorBudget(
        eps_prep=eps_prep,
        eps_gate=eps_gate,
        eps_final=eps_final,
        l1_bound=min(2.0, eps_final),
        t_prep=t_prep,
        t_logical=t_logical,
        t_total=t_prep + t_logical,
    )


# -- analytic encoding and the end-to-end sampling run -----------------------------


def encoding_grid(layout: EncodingLayout, delta: float) -> GridSpec:
    """Grid of every encoded mode of the layout (see default_comb_grid)."""
    return default_comb_grid(comb_spec(delta, layout.d, 0))


def encode_mode(layout: EncodingLayout, delta: float, j: int) -> ModeSupport:
    """Support of the analytic one-mode comb state of logical index ``j`` on the layout's encoding grid."""
    return comb_support(comb_spec(delta, layout.d, j), encoding_grid(layout, delta))


def _check_support_cap(
    layout: EncodingLayout, delta: float, modes: int, mem_cap_mb: float, shots_mb: float = 0.0
) -> None:
    """``ResourceCapError`` if ``modes`` supports of ``comb_support_size`` cells and the shots pass the cap."""
    cells = modes * comb_support_size(comb_spec(delta, layout.d, 0), encoding_grid(layout, delta))
    check_cells_cap(cells, "comb support", mem_cap_mb, shots_mb)


def encode_basis_state(
    bits, layout: EncodingLayout, delta: float, mem_cap_mb: float = DEFAULT_MEM_CAP_MB
) -> list[ModeSupport]:
    """Analytic encoding of a computational basis state: the supports of its m one-mode comb states.

    A basis state is a product over the modes, so it is held as one support a
    mode.  Raises ``ResourceCapError`` before building any if the m supports,
    each counted as ``comb_support_size`` cells (``simulator.check_cells_cap``),
    would exceed ``mem_cap_mb``.
    """
    bits = tuple(int(b) for b in bits)
    if len(bits) != layout.n:
        raise ValueError(f"expected {layout.n} logical bits")
    _check_support_cap(layout, delta, layout.m, mem_cap_mb)
    return [encode_mode(layout, delta, j) for j in layout.indices_for_bits(bits)]


def encode_state(amplitudes: dict, layout: EncodingLayout, delta: float) -> list[ModeSupport]:
    """Analytic encoding of a superposition {bits: amplitude} on one mode, as a one-support list.

    Each term is its basis comb's support at unit norm times its coefficient;
    the supports are joined, the terms of a cell on two supports (an edge cell
    kept by both) added in the order given, and the join normalized.
    ``ValueError``, before any mode is built, unless some coefficient is
    nonzero and all are finite.
    """
    if layout.m != 1:
        raise ValueError("encoded superpositions are held on one mode (m = 1)")
    coeffs = np.array(list(amplitudes.values()), dtype=complex)
    if not (coeffs.any() and np.isfinite(coeffs).all()):
        raise ValueError("a superposition needs finite coefficients, not all 0")
    if not coeffs.imag.any():
        coeffs = coeffs.real  # real terms keep a real support
    cells, values = [], []
    for bits, coeff in zip(amplitudes, coeffs):
        [basis] = encode_basis_state(bits, layout, delta)
        cells.append(basis.cells)
        values.append(basis.values * (coeff / np.linalg.norm(basis.values)))
        del basis  # free its values before the next one is built
    cells, values = np.concatenate(cells), np.concatenate(values)
    order = np.argsort(cells, kind="stable")  # term order kept where a cell repeats
    cells = cells[order]
    values = values[order]
    del order
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    values = np.add.reduceat(values, first)
    nrm = np.linalg.norm(values)
    if not (math.isfinite(nrm) and nrm > 0):
        raise ValueError(f"cannot normalize a state of norm {nrm}")
    values /= nrm
    return [ModeSupport(encoding_grid(layout, delta), cells[first], values)]


@dataclass(frozen=True)
class SamplingRun:
    samples: np.ndarray  # (shots, n) bits
    budget: ErrorBudget
    energy_report: dict


def run_sampling_scheme(
    u_logical: Circuit, n: int, m: int, delta: float, shots: int, seed: int,
    mem_cap_mb: float = DEFAULT_MEM_CAP_MB,
) -> SamplingRun:
    """End-to-end run for logical circuits of identity/X gates, one mode at a time.

    Such a circuit maps basis states to basis states, so it is evaluated on
    the logical bits: each X flips its qubit's bit, and repeated X gates on
    one qubit cancel.  Each mode is then the support of the comb of its final
    logical index j, sampled and dropped before the next (``_moved_combs``);
    no grid-sized array is built.  Raises ``ResourceCapError`` before encoding
    if one mode's support (``comb_support_size`` cells) and the shot arrays
    together would exceed ``mem_cap_mb``.  The compiled circuit ``w_tot``, its
    energy report and the error budget are built before the first mode, so an
    inadmissible ``delta`` raises before any sampling.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    layout = EncodingLayout(n=n, m=m)
    for i, g in enumerate(u_logical.gates, start=1):
        if g.kind != "qubit_gate" or g.name not in ("X",):
            raise ValueError(
                f"simulable logical gates are restricted to X (gate {i}); "
                "general circuits are analyzed via blackbox recompilation only"
            )
    # Peak of the shot arrays beside one mode's support (``tracemalloc``), 8 B
    # a shot for each of: while sampling, m - 1 outcome columns and 2 arrays of
    # ``sample_encoded_state`` (m + 1 <= 2m + 2); while decoding, m outcomes, m
    # rounded indices and n' int64 bits.  After the run, the returned bits (a
    # view of the n' columns) and their text (``hqoc sample``: uint8 rows,
    # bytes and str of n digits and a newline) may outgrow that.
    per_shot = max(8 * (2 * m + max(2, layout.n_prime)), 8 * layout.n_prime + 3 * (n + 1))
    shots_mb = per_shot * shots / 1e6
    _check_support_cap(layout, delta, 1, mem_cap_mb, shots_mb=shots_mb)
    u_ext = Circuit(m=0, r=layout.n_prime, gates=u_logical.gates)
    energy_report = analysis_report(build_pipeline_circuits(u_ext, n, m, delta).w_tot)
    budget = error_budget(m, layout.ell, delta, s=len(u_logical.gates))
    indices = [0] * m
    for g in u_logical.gates:
        alpha, bit = layout.mode_and_bit(g.qubits[0] + 1)
        indices[alpha] ^= 1 << bit
    samples = sample_encoded_state(_moved_combs(layout, delta, indices), layout, shots, seed)
    return SamplingRun(samples, budget, energy_report)


def _moved_combs(layout: EncodingLayout, delta: float, indices):
    """The comb support of each logical index in turn: one j = 0 support, moved in place.

    Index j is the j = 0 comb displaced by ``sqrt(2 pi / d) j``, which on
    ``encoding_grid`` is exactly j 2^k cells: j 2^k is added to the cells.
    The grid holds every j < d.
    """
    support = encode_mode(layout, delta, 0)
    step = round(math.sqrt(2.0 * math.pi / layout.d) / support.grid.dx)
    cells, at = support.cells, 0
    for j in indices:
        cells += (j - at) * step
        at = j
        yield support


def sample_encoded_state(supports, layout: EncodingLayout, shots: int, seed: int) -> np.ndarray:
    """Homodyne + post-processing of one-mode supports, mode 0 first: ``(shots, n)`` int64 bits.

    Each mode draws its cells from ``|values|^2`` (``simulator.sample_cells``,
    the core of ``homodyne_sample``) and reports them at their cell centres.
    All modes draw from one ``default_rng(seed)``, so mode 0 reads the stream
    of ``homodyne_sample`` on the dense state with that seed; a generator's
    supports are held one at a time.
    """
    rng = np.random.default_rng(seed)
    columns = []
    for support in supports:
        ys = support.cells[sample_cells(support.values, shots, rng)] * support.grid.dx
        ys += support.grid.x0
        columns.append(ys)
        del support  # free this mode before the generator builds the next
    ys = np.column_stack(columns)
    del columns  # decode without the per-mode columns
    return post_process(ys, layout)


def simulate_prep(n: int, delta: float):
    """Simulate the comb preparation from vacuum; returns (state, circuit)."""
    c = build_prep_circuit(n, delta)
    grids = auto_grid(c, base_margin=SIM_MARGIN)
    state = vacuum_state(1, 1, grids)
    return apply_circuit(state, c), c


def prep_target_state(n: int, delta: float, grid: GridSpec) -> HybridState:
    """Analytic target |Sha_{2^n, Delta}> (x) |0> on the given grid."""
    return untruncated_comb_wavefunction(2 ** n, delta, grid, r=1)


def code_prep_target(ell: int, delta: float, grid: GridSpec) -> HybridState:
    """Analytic |Sha*_Delta(0)_{2^ell}> (x) |0> on the given grid, the state of ``build_code_prep``."""
    return comb_wavefunction(_prep_spec(ell, delta), grid, samples_per_sigma=1.0, r=1)


def aux_prep_target(ell: int, delta: float, grid: GridSpec) -> HybridState:
    """Analytic auxiliary state (x) |0> on the given grid, the state of ``build_aux_prep``."""
    spec = _prep_spec(ell, delta, aux=True)
    return comb_wavefunction(spec, grid, samples_per_sigma=1.0, r=1)


def simulate_wprep_factorized(m: int, ell: int, delta: float) -> dict:
    """Verify the initial-state preparation block by block.

    The preparation circuit acts on each mode-qubit pair in sequence and
    approximately returns the shared qubit to |0>, so the m+1 blocks can be
    simulated independently; block trace distances against the analytic
    targets accumulate (triangle inequality) into the preparation error,
    which must stay below 50 m (sqrt(Delta) + 2^{2 ell} Delta^2).
    """
    per_block = []
    for label, circ, target_fn, copies in (  # the m code blocks are one circuit
        ("code", build_code_prep(ell, delta), code_prep_target, m),
        ("aux", build_aux_prep(ell, delta), aux_prep_target, 1),
    ):
        grids = auto_grid(circ, base_margin=SIM_MARGIN)
        state = apply_circuit(vacuum_state(1, 1, grids), circ)
        td = trace_distance(state, target_fn(ell, delta, state.grids[0]))
        dev = 1.0 - float(np.sum(np.abs(state.amps[:, 0]) ** 2))
        per_block += [{"block": label, "trace_distance": td, "qubit_deviation": dev}] * copies
    total = qubit_dev = 0.0
    for b in per_block:  # in block order, one addition at a time
        total += b["trace_distance"]
        qubit_dev += b["qubit_deviation"]
    bound = _eps_prep(m, ell, delta)
    return {
        "per_block": per_block,
        "total_error": total,
        "qubit_deviation": qubit_dev,
        "bound": bound,
        "ok": total <= bound,
    }
