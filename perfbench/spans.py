"""Span recording for the traced benchmark run, from outside the program.

Two mechanisms record spans (name, start, end, parent, op id) in memory:

* function spans: timing wrappers bound at run time over public ``hqoc``
  functions and methods.  A wrapper replaces the original in every ``hqoc``
  module that imported it, and in module-level dicts such as
  ``acceptance.ALL_CRITERIA``, so calls made inside the package are timed too;
* gate spans: ``simulator.apply_circuit`` is called with a ``callback``; the
  time between two successive callbacks is gate i, its overflow guard
  included.  A caller's own callback still runs, after the gate is closed.

Over the prefixes of a simulated circuit the tracer also measures how many
grid cells the state needs (``simulator.grid_oversize``).  That costs an FFT
after each momentum kick, so it runs on a paused clock: all span times and
traced op times are read from ``Tracer.now``, which excludes the paused
intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.fft

GATE_KINDS = ("ctrl_disp_p", "ctrl_disp_q", "disp_p", "disp_q", "squeeze", "qubit_gate")

# span name -> (module, attribute); "Class.method" patches the class.
FUNCTION_SPANS = {
    "simulator.boundary_mass": ("hqoc.simulator", "HybridState.boundary_mass"),
    "simulator.auto_grid": ("hqoc.simulator", "auto_grid"),
    "simulator.energy_expectation": ("hqoc.simulator", "energy_expectation"),
    "simulator.vacuum_state": ("hqoc.simulator", "vacuum_state"),
    "simulator.trace_distance": ("hqoc.simulator", "trace_distance"),
    "simulator.homodyne_sample": ("hqoc.simulator", "homodyne_sample"),
    "pipeline.code_prep_target": ("hqoc.pipeline", "code_prep_target"),
    "pipeline.prep_target_state": ("hqoc.pipeline", "prep_target_state"),
    "gkp.comb_wavefunction": ("hqoc.gkp", "comb_wavefunction"),
    "pipeline.run_sampling_scheme": ("hqoc.pipeline", "run_sampling_scheme"),
    "pipeline.encode_basis_state": ("hqoc.pipeline", "encode_basis_state"),
    "pipeline.error_budget": ("hqoc.pipeline", "error_budget"),
    "pipeline.post_process": ("hqoc.pipeline", "post_process"),
    "pipeline.build_pipeline_circuits": ("hqoc.pipeline", "build_pipeline_circuits"),
    "moments.analysis_report": ("hqoc.moments", "analysis_report"),
    "moments.circuit_window_trajectory": ("hqoc.moments", "circuit_window_trajectory"),
    "moments.substitute_bounded_strength": ("hqoc.moments", "substitute_bounded_strength"),
    "moments.g_bar_brute_force": ("hqoc.moments", "g_bar_brute_force"),
    "bounds.donoho_stark_eigs": ("hqoc.bounds", "donoho_stark_eigs"),
    "circuit.parse_circuit": ("hqoc.circuit", "parse_circuit"),
    "circuit.serialize_circuit": ("hqoc.circuit", "serialize_circuit"),
    "cli.main": ("hqoc.cli", "main"),
    **{f"acceptance.criterion_{k}": ("hqoc.acceptance", f"criterion_{k}") for k in range(1, 13)},
}

# span name -> (counter key, how many units one call processes)
COUNTERS = {
    "simulator.homodyne_sample": ("shots", lambda a, kw: a[1] if len(a) > 1 else kw["shots"]),
    "moments.analysis_report": ("analysed_gates", lambda a, kw: len(a[0].gates)),
}

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    [("simulator.apply_circuit.s", "s")]
    + [(f"simulator.gate.{k}.s", "s") for k in GATE_KINDS]
    + [(f"simulator.gate.{k}.ns_per_cell", "ns/cell") for k in GATE_KINDS]
    + [
        ("simulator.cells", "count"),
        ("simulator.grid_oversize", "ratio"),
        ("simulator.gate.computed_gb_per_s", "GB/s"),
        ("simulator.boundary_mass.s", "s"),
        ("simulator.boundary_mass.calls", "count"),
        ("simulator.auto_grid.s", "s"),
        ("simulator.energy_expectation.s", "s"),
        ("simulator.vacuum_state.s", "s"),
        ("simulator.trace_distance.s", "s"),
        ("simulator.homodyne_sample.s", "s"),
        ("simulator.homodyne_sample.us_per_shot", "us/shot"),
        ("pipeline.code_prep_target.s", "s"),
        ("pipeline.prep_target_state.s", "s"),
        ("gkp.comb_wavefunction.s", "s"),
        ("pipeline.run_sampling_scheme.s", "s"),
        ("pipeline.encode_basis_state.s", "s"),
        ("pipeline.error_budget.s", "s"),
        ("pipeline.post_process.s", "s"),
        ("pipeline.post_process.calls", "count"),
        ("pipeline.build_pipeline_circuits.s", "s"),
        ("moments.analysis_report.s", "s"),
        ("moments.gates_per_s", "gates/s"),
        ("moments.circuit_window_trajectory.s", "s"),
        ("moments.substitute_bounded_strength.s", "s"),
        ("moments.g_bar_brute_force.s", "s"),
        ("bounds.donoho_stark_eigs.s", "s"),
        ("circuit.parse_circuit.s", "s"),
        ("circuit.serialize_circuit.s", "s"),
        ("cli.self_s", "s"),
    ]
    + [(f"acceptance.criterion_{k}.s", "s") for k in range(1, 13)]
    + [("proc.cpu_s", "s"), ("trace.overhead", "ratio")]
)

TAIL_MASS = 1e-12


class Tracer:
    """In-memory span recorder with a clock that stops while it measures."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.gates: list[tuple] = []  # (op id, apply_circuit call, kind, seconds, cells)
        self.counts: dict = defaultdict(float)  # (op id, key) -> total
        self.op_wall: dict = {}  # op id -> traced seconds
        self.op = None
        self._stack: list[int] = []
        self._paused = 0.0
        self._undo: list = []
        self._apply_calls = 0

    # -- clock and spans --------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.now(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = self.now()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Delimit one op; its traced wall time excludes paused intervals."""
        self.op = op_id
        t0 = self.now()
        try:
            yield
        finally:
            self.op_wall[op_id] = self.now() - t0
            self.op = None

    # -- binding wrappers ---------------------------------------------------------

    def install(self) -> None:
        for name, (module, attr) in FUNCTION_SPANS.items():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = getattr(cls, attr)
                setattr(cls, attr, self._wrap(name, orig))
                self._undo.append((setattr, cls, attr, orig))
            else:
                orig = getattr(owner, attr)
                self._rebind(orig, self._wrap(name, orig))
        from hqoc import simulator

        self._rebind(simulator.apply_circuit, self._wrap_apply_circuit(simulator.apply_circuit))

    def uninstall(self) -> None:
        for setter, owner, key, orig in reversed(self._undo):
            setter(owner, key, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper) -> None:
        """Replace ``orig`` wherever an hqoc module holds it (attribute or dict value)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hqoc" or mod_name.startswith("hqoc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, orig))
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is orig:
                            value[dkey] = wrapper
                            self._undo.append((dict.__setitem__, value, dkey, orig))

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                key, units = counter
                tracer.counts[(tracer.op, key)] += units(args, kwargs)
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        return wrapper

    def _wrap_apply_circuit(self, fn):
        tracer = self

        @functools.wraps(fn)
        def apply_circuit(state, c, callback=None):
            tracer._apply_calls += 1
            call = tracer._apply_calls
            op = tracer.op
            tracer.counts[(op, "apply_calls")] += 1
            tracer.counts[(op, "apply_cells")] += state.amps.size
            with tracer.paused():
                cells = [position_cells(state, a) for a in range(state.m)]
                band = [band_share(state, a) for a in range(state.m)]
            idx = tracer._enter("simulator.apply_circuit")
            last = tracer.now()
            mark = len(tracer.spans)

            def on_gate(i, st):
                nonlocal last, mark
                end = tracer.now()
                kind = c.gates[i - 1].kind
                tracer.spans.append([f"simulator.gate.{kind}", last, end, idx, op])
                gate_idx = len(tracer.spans) - 1
                for k in range(mark, gate_idx):  # spans opened during this gate
                    if tracer.spans[k][3] == idx:
                        tracer.spans[k][3] = gate_idx
                tracer.gates.append((op, call, kind, end - last, st.amps.size))
                if callback is not None:
                    callback(i, st)
                mode = c.gates[i - 1].mode
                with tracer.paused():
                    if kind in SHIFT_KINDS:
                        cells[mode] = max(cells[mode], position_cells(st, mode))
                    elif kind in KICK_KINDS:
                        band[mode] = max(band[mode], band_share(st, mode))
                mark = len(tracer.spans)
                last = tracer.now()

            try:
                out = fn(state, c, callback=on_gate)
            finally:
                tracer._exit(idx)
            needed = 2.0 ** state.r * math.prod(max(1.0, x * p) for x, p in zip(cells, band))
            tracer.counts[(op, "oversize_chosen")] += state.amps.size
            tracer.counts[(op, "oversize_needed")] += needed
            return out

        return apply_circuit

    # -- aggregation -------------------------------------------------------------

    def op_metrics(self) -> dict:
        """Per-layer metrics of each traced op: {op id: {metric: value}}."""
        ops = sorted(self.op_wall)
        self_s = self.self_times()
        total = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _parent, op in self.spans:
            total[(op, name)] += end - start
            calls[(op, name)] += 1
        gate_s = defaultdict(float)
        gate_cells = defaultdict(float)
        for op, _call, kind, sec, cells in self.gates:
            gate_s[(op, kind)] += sec
            gate_cells[(op, kind)] += cells

        out = {}
        for op in ops:
            cnt = lambda key: self.counts.get((op, key), 0.0)  # noqa: E731
            m = {}
            for name in list(FUNCTION_SPANS) + ["simulator.apply_circuit"]:
                m[f"{name}.s"] = total.get((op, name), 0.0)
            for kind in GATE_KINDS:
                sec, cells = gate_s.get((op, kind), 0.0), gate_cells.get((op, kind), 0.0)
                m[f"simulator.gate.{kind}.s"] = sec
                m[f"simulator.gate.{kind}.ns_per_cell"] = 1e9 * sec / cells if cells else 0.0
            all_s = sum(gate_s.get((op, k), 0.0) for k in GATE_KINDS)
            all_cells = sum(gate_cells.get((op, k), 0.0) for k in GATE_KINDS)
            # computed traffic: every cell read once and written once, 16 B each
            m["simulator.gate.computed_gb_per_s"] = all_cells * 32 / all_s / 1e9 if all_s else 0.0
            m["simulator.cells"] = cnt("apply_cells") / cnt("apply_calls") if cnt("apply_calls") else 0.0
            needed = cnt("oversize_needed")
            m["simulator.grid_oversize"] = cnt("oversize_chosen") / needed if needed else 0.0
            m["simulator.boundary_mass.calls"] = float(calls.get((op, "simulator.boundary_mass"), 0))
            m["pipeline.post_process.calls"] = float(calls.get((op, "pipeline.post_process"), 0))
            hs = m["simulator.homodyne_sample.s"]
            m["simulator.homodyne_sample.us_per_shot"] = 1e6 * hs / cnt("shots") if cnt("shots") else 0.0
            ar = m["moments.analysis_report.s"]
            m["moments.gates_per_s"] = cnt("analysed_gates") / ar if ar else 0.0
            m["cli.self_s"] = self_s.get((op, "cli.main"), 0.0)
            del m["cli.main.s"]
            out[op] = m
        return out

    def self_times(self) -> dict:
        """Self time per (op id, span name): duration minus child spans."""
        child = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            out[(op, name)] += end - start - child[i]
        return dict(out)

    def coverage(self, op) -> float:
        """Share of the op's traced wall time inside top-level spans."""
        top = sum(e - s for _n, s, e, parent, o in self.spans if o == op and parent is None)
        return top / self.op_wall[op]

    def gate_sum_ratio(self, op) -> float:
        """Per-gate spans summed over kinds, divided by apply_circuit time."""
        gates = sum(sec for o, _c, _k, sec, _cells in self.gates if o == op)
        apply_s = sum(e - s for n, s, e, _p, o in self.spans if o == op and n == "simulator.apply_circuit")
        return gates / apply_s if apply_s else 0.0

    def kind_table(self, op, max_circuits: int = 4) -> list[dict]:
        """Gates, seconds and ns/cell per kind, per circuit of one op.

        Ops that simulate more than ``max_circuits`` circuits get one row per
        kind over all of them (circuit 0).
        """
        mine = [g for g in self.gates if g[0] == op]
        calls = sorted({call for _o, call, _k, _s, _c in mine})
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for _o, call, kind, sec, cells in mine:
            row = rows[(calls.index(call) + 1 if len(calls) <= max_circuits else 0, kind)]
            row[0] += 1
            row[1] += sec
            row[2] += cells
        return [
            {"circuit": circ, "kind": kind, "gates": n, "s": sec, "ns_per_cell": 1e9 * sec / cells}
            for (circ, kind), (n, sec, cells) in sorted(rows.items())
        ]


def median_metrics(per_op: dict) -> dict:
    """Median over ops of every metric; 0.0 when no traced op ran."""
    names = [n for n, _u in PER_LAYER if n not in ("proc.cpu_s", "trace.overhead")]
    if not per_op:
        return {n: 0.0 for n in names}
    return {n: statistics.median(m[n] for m in per_op.values()) for n in names}


def position_cells(state, mode: int) -> float:
    """Grid cells spanned by the position support, symmetric about 0."""
    grid = state.grids[mode]
    return 2.0 * _radius(grid.xs, state.position_density(mode)) / grid.dx


def band_share(state, mode: int) -> float:
    """Share of the Nyquist band [-pi/dx, pi/dx] the momentum support uses."""
    grid = state.grids[mode]
    spec = np.abs(scipy.fft.fft(state.amps, axis=mode, norm="ortho")) ** 2
    dens = spec.sum(axis=tuple(ax for ax in range(spec.ndim) if ax != mode))
    return _radius(np.fft.fftshift(grid.momenta), np.fft.fftshift(dens)) / grid.p_max


# Only these gates can widen a support: shifts change the position density
# alone, kicks the momentum density alone.  Qubit gates keep both marginals
# (they are unitary at every cell), and squeezers rescale the state and dx
# together, which leaves cells spanned and band share unchanged.
SHIFT_KINDS = ("disp_p", "ctrl_disp_p")
KICK_KINDS = ("disp_q", "ctrl_disp_q")


def _radius(values: np.ndarray, density: np.ndarray) -> float:
    """Smallest max(|v_lo|, |v_hi|) with at most TAIL_MASS/2 outside each side."""
    density = density / density.sum()
    lo = int(np.searchsorted(np.cumsum(density), TAIL_MASS / 2, side="right"))
    hi = len(density) - 1 - int(np.searchsorted(np.cumsum(density[::-1]), TAIL_MASS / 2, side="right"))
    return max(abs(float(values[min(lo, len(values) - 1)])), abs(float(values[max(hi, 0)])))
