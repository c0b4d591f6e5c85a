"""Command-line interface.

Subcommands: analyze, substitute, simulate, prep, sample, tradeoff,
lowerbound, verify.  Artifacts are JSON (CSV for samples) and embed the
toolkit version plus the fully resolved configuration, so identical
configurations and seeds produce byte-identical outputs.

Artifacts are standard JSON: a non-finite float (a linear bound that
overflows a double) is written as ``null``, and the ``log2_*`` field beside
it carries the magnitude.

Exit codes: 0 success, 1 validation error, 2 resource-cap error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bounds import donoho_stark_trace, radius_dimension_bound
from .circuit import Circuit, CircuitError, parse_circuit, qubit_gate, serialize_circuit
from .moments import AnalysisError, analysis_report, substitute_bounded_strength
from .pipeline import build_code_prep, build_prep_circuit, run_sampling_scheme
from .simulator import (
    DEFAULT_MEM_CAP_MB, GRID_ODD_FACTORS, WORKING_SET_COPIES, GridError, ResourceCapError,
    apply_circuit, auto_grid, energy_expectation, state_dump, vacuum_state,
)
from .tradeoff import (
    implementation_energy_bound,
    regime_table,
    required_energy,
    sampling_error_bound,
)

MEM_CAP_DEFAULT = f"(default: $HQOC_MEM_CAP_MB, else {DEFAULT_MEM_CAP_MB:g})"
MEM_CAP_HELP = (
    f"memory cap in MB for the run's working set, {WORKING_SET_COPIES}x the state {MEM_CAP_DEFAULT}"
)
SAMPLE_MEM_CAP_HELP = (
    f"memory cap in MB for the run's working set: {WORKING_SET_COPIES} x 16 B for each cell of one"
    f" mode's comb support, plus the shot arrays {MEM_CAP_DEFAULT}"
)


def _mem_cap(args) -> float:
    """``--mem-cap-mb``, else ``$HQOC_MEM_CAP_MB``, else the default; finite and > 0."""
    raw, name = getattr(args, "mem_cap_mb", None), "--mem-cap-mb"
    if raw is None:
        raw, name = os.environ.get("HQOC_MEM_CAP_MB") or DEFAULT_MEM_CAP_MB, "HQOC_MEM_CAP_MB"
    cap = float(raw)
    if not (math.isfinite(cap) and cap > 0):
        raise ValueError(f"{name} must be a finite number of MB > 0, got {raw}")
    return cap


def _emit(payload: dict, path: str | None) -> None:
    payload = {"toolkit_version": __version__, **payload}
    # a round trip turns the non-standard Infinity/NaN tokens into null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _token: None)
    _write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to standard output without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_circuit(path: str) -> Circuit:
    with open(path) as fh:
        return parse_circuit(fh.read())


def _config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_analyze(args) -> int:
    c = _read_circuit(args.circuit)
    report = analysis_report(c)
    _emit({"config": _config(args, ["circuit"]), "report": report}, args.out)
    return 0


def cmd_substitute(args) -> int:
    c = _read_circuit(args.circuit)
    _write(serialize_circuit(substitute_bounded_strength(c)) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    c = _read_circuit(args.circuit)
    grids = auto_grid(
        c, base_margin=args.margin, mem_cap_mb=_mem_cap(args), n_points=args.grid_points
    )
    state = apply_circuit(vacuum_state(c.m, c.r, grids), c)
    energies, emax = energy_expectation(state)
    payload = {
        "config": _config(args, ["circuit", "grid_points", "margin"]),
        "grids": [{"n_points": g.n_points, "dx": g.dx, "x0": g.x0} for g in grids],
        "energy_per_mode": energies,
        "energy_max": emax,
        "norm": state.norm(),
        "analysis": analysis_report(c),
    }
    if args.dump_state:
        with open(args.dump_state, "w") as fh:
            json.dump(state_dump(state), fh)
    _emit(payload, args.out)
    return 0


def cmd_prep(args) -> int:
    if (args.ell is None) == (args.n is None):
        raise CircuitError("prep requires exactly one of --ell and --n")
    if args.ell is not None:
        c = build_code_prep(args.ell, args.delta)
    else:
        c = build_prep_circuit(args.n, args.delta)
    _write(serialize_circuit(c) + "\n", args.emit or args.out)
    return 0


def cmd_sample(args) -> int:
    gates = []
    if args.logical:
        for item in args.logical.split(","):
            name, _, q = item.partition(":")
            if name.strip() != "X":
                raise CircuitError("only logical X gates are simulable directly")
            gates.append(qubit_gate("X", int(q) - 1))
    u = Circuit(0, args.n, tuple(gates))
    run = run_sampling_scheme(
        u, args.n, args.m, args.delta, args.shots, args.seed, mem_cap_mb=_mem_cap(args)
    )
    # one uint8 row per shot: n ASCII digits and a newline
    rows = np.full((args.shots, args.n + 1), ord("\n"), dtype=np.uint8)
    np.add(run.samples, ord("0"), out=rows[:, :-1], casting="unsafe")
    _write(rows.tobytes().decode("ascii"), args.out)
    if args.budget_out:
        _emit(
            {
                "config": _config(args, ["n", "m", "delta", "shots", "seed", "logical"]),
                "budget": run.budget.to_dict(),
                "energy_report": run.energy_report,
            },
            args.budget_out,
        )
    return 0


def cmd_tradeoff(args) -> int:
    payload: dict = {"config": _config(args, ["n", "m", "s", "epsilon", "energy", "ell", "delta"])}
    if args.table:
        ns = [int(v) for v in args.n_values.split(",")]
        rows = regime_table(ns)
        payload["table"] = [
            {
                "regime": r.label,
                "n": list(r.n_values),
                "log2_energy": list(r.log2_energy),
                "fitted_exponent": r.fitted_exponent,
                "growth_class": r.growth_class,
            }
            for r in rows
        ]
    else:
        if args.epsilon is not None:
            log2_e, lin = required_energy(args.n, args.m, args.s, args.epsilon)
            payload["required_energy"] = {"log2": log2_e, "linear": lin}
        if args.energy is not None:
            payload["error_bound"] = sampling_error_bound(args.n, args.m, args.s, energy=args.energy)
        if args.ell is not None and args.delta is not None:
            impl = implementation_energy_bound(args.s, args.ell, args.delta)
            payload["implementation"] = {
                "log2_energy": impl.log2_energy,
                "xi_bar_wtot": impl.xi_bar_wtot,
                "log2_g_bar_wtot": impl.log2_g_bar_wtot,
            }
    _emit(payload, args.out)
    return 0


def cmd_lowerbound(args) -> int:
    payload: dict = {"config": _config(args, ["d", "m", "r", "delta", "R", "n_quad"])}
    payload["radius_dimension_bound"] = radius_dimension_bound(args.d, args.m, args.r, args.delta)
    if args.R is not None:
        trace, max_eig = donoho_stark_trace(args.R, args.n_quad, mem_cap_mb=_mem_cap(args))
        payload["donoho_stark"] = {
            "R": args.R,
            "n_quad": args.n_quad,
            "trace": trace,
            "exact_trace": 4.0 * args.R ** 2 / math.pi,
            "max_eigenvalue": max_eig,
        }
    _emit(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    # lazy: no other subcommand needs the battery
    from .acceptance import ALL_CRITERIA, FAST_CRITERIA, run_criteria

    if args.criteria is not None:
        if not args.criteria.strip():
            raise ValueError("--criteria selects no criteria")
        numbers = [int(v) for v in args.criteria.split(",")]
        unknown = [k for k in numbers if k not in ALL_CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
        repeated = sorted({k for k in numbers if numbers.count(k) > 1})
        if repeated:
            raise ValueError(f"criteria given more than once: {repeated}")
    elif args.full:
        numbers = sorted(ALL_CRITERIA)
    else:
        numbers = list(FAST_CRITERIA)
    results = run_criteria(numbers)
    failed = [r.number for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hqoc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="moment analysis report for a circuit file")
    p.add_argument("circuit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("substitute", help="bounded-strength displacement substitution")
    p.add_argument("circuit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser("simulate", help="simulate a circuit from vacuum")
    p.add_argument("circuit")
    p.add_argument(
        "--grid-points", type=int, dest="grid_points", metavar="N",
        help="points per mode instead of the automatic count, centred on x = 0: "
        f"N = m * 2^k with m in {', '.join(map(str, GRID_ODD_FACTORS))} and k >= 1"
        " (e.g. 1024, 147456); "
        "the extent scales with N. --grid-points keeps the snapped dx, so shifts "
        "stay exact rolls; a grid too narrow for the circuit (some gate's position "
        "window leaves its extent) is refused",
    )
    p.add_argument(
        "--margin", type=float, default=0.25,
        help="relative widening of the analyser's windows for the automatic grid, >= 0",
    )
    p.add_argument("--mem-cap-mb", type=float, dest="mem_cap_mb", help=MEM_CAP_HELP)
    p.add_argument("--dump-state", dest="dump_state")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prep", help="emit a preparation circuit")
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--emit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("sample", help="run the end-to-end sampling scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True,
                   help="modes, 1 <= m <= n; each holds ceil(n/m) bits and is held as the support "
                        "cells of its comb, one mode at a time, so memory is one mode's support "
                        "(at most about 1/d of its grid), not grid^m")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--logical", help="comma list like 'X:2,X:5' (1-based qubits); "
                                     "repeated X gates on one qubit cancel")
    p.add_argument("--mem-cap-mb", type=float, dest="mem_cap_mb", help=SAMPLE_MEM_CAP_HELP)
    p.add_argument("--out")
    p.add_argument("--budget-out", dest="budget_out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tradeoff", help="energy trade-off calculators")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--s", type=int, default=256)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--energy", type=float)
    p.add_argument("--ell", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--table", action="store_true")
    p.add_argument("--n-values", dest="n_values", default="16,32,64,128,256,512,1024")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("lowerbound", help="energy lower-bound calculators")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--delta", type=float, default=1.0 / 36.0)
    p.add_argument("--R", type=float)
    p.add_argument(
        "--n-quad", type=int, dest="n_quad", default=1024, metavar="N",
        help="quadrature points of the --R kernel; its spectrum holds about 4 x N^2 bytes,"
        " checked against $HQOC_MEM_CAP_MB, else the default cap"
        f" {DEFAULT_MEM_CAP_MB:g} MB (default: %(default)s)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("verify", help="run acceptance criteria")
    p.add_argument("--criteria", help="comma list, e.g. 1,2,7")
    p.add_argument("--full", action="store_true", help="include the heavy criteria")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CircuitError, AnalysisError, GridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
