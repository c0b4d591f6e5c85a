"""The four benchmark workloads: inputs from a seed, one op, its physics check.

A workload is ``setup(seed, workdir) -> inputs``, ``op(inputs) -> result``
and ``check(inputs, result) -> list of misses`` (empty when the op's physics
result matches its reference), plus the number of untimed warm-up ops to run
before timing: one where a process's first op is slower than the rest
(``sample`` and ``verify``), none where it is not or where one op costs too
much (``prep``, about 24 s).  Ops call into ``hqoc`` through module
attributes (``simulator.apply_circuit``, ``cli.main``, ...) so the traced
run's wrappers see every call.

References were taken at the commit that introduced this benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hqoc import circuit, cli, moments, pipeline, simulator

# prep: trace distance to the analytic target, agreeing to 6 significant digits
PREP_REFERENCES = {
    "code_prep_l1_d0.02": 0.10243459,
    "prep_n8_d0.02": 0.10220963,
}
PREP_REL_TOL = 5e-6

# sample, m=2: exact probability mass of the cells that decode to 1001
SAMPLE_M2_P1001 = 0.9694110171930028
SAMPLE_SIGMAS = 6.0  # binomial tolerance on the observed share, in standard deviations

# analyze: report of build_pipeline_circuits(2000 logical X, n=4, m=2, delta=0.1).w_tot
WTOT_REFERENCE = {
    "g_bar_max": 5.70899077082384e45,
    "xi_bar_max": 288017.56637061434,
    "log2_energy_upper_bound": 973.7997092617474,
}
ANALYSIS_REL_TOL = 1e-12

RANDOM_GATES = 100_000
RANDOM_M, RANDOM_R, STRENGTH = 4, 2, 2.0
LOGICAL_X_GATES = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    op: Callable
    check: Callable
    warmup: int = 0


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# -- prep --------------------------------------------------------------------------


def prep_setup(seed: int, workdir: Path) -> dict:
    return {
        "code_prep_l1_d0.02": (
            pipeline.build_code_prep(1, 0.02),
            lambda grid: pipeline.code_prep_target(1, 0.02, grid),
        ),
        "prep_n8_d0.02": (
            pipeline.build_prep_circuit(8, 0.02),
            lambda grid: pipeline.prep_target_state(8, 0.02, grid),
        ),
    }


def prep_op(inputs: dict) -> dict:
    out = {}
    for label, (c, target_fn) in inputs.items():
        grids = simulator.auto_grid(c, base_margin=0.3)
        state = simulator.apply_circuit(simulator.vacuum_state(c.m, c.r, grids), c)
        target = target_fn(state.grids[0])
        out[label] = simulator.trace_distance(state, target)
        del state, target  # free the large grid before the next circuit
    return out


def prep_check(inputs: dict, result: dict) -> list[str]:
    return [
        f"{label}: trace distance {result[label]!r} != {ref!r}"
        for label, ref in PREP_REFERENCES.items()
        if not rel_close(result[label], ref, PREP_REL_TOL)
    ]


# -- sample ------------------------------------------------------------------------


def sample_setup(seed: int, workdir: Path) -> dict:
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=2)
    runs = {}
    for label, (n, m, delta, logical), run_seed in zip(
        ("m1", "m2"), ((2, 1, "0.01", "X:1,X:2"), (4, 2, "0.125", "X:1,X:4")), seeds
    ):
        csv, budget = workdir / f"sample_{label}.csv", workdir / f"budget_{label}.json"
        argv = [
            "sample", "--n", str(n), "--m", str(m), "--delta", delta, "--logical", logical,
            "--shots", "100000", "--seed", str(int(run_seed)),
            "--out", str(csv), "--budget-out", str(budget),
        ]
        runs[label] = {"argv": argv, "csv": csv, "budget": budget, "shots": 100_000}
    return runs


def sample_op(inputs: dict) -> dict:
    return {label: cli.main(run["argv"]) for label, run in inputs.items()}


def sample_check(inputs: dict, result: dict) -> list[str]:
    misses = [f"{label}: exit code {rc}" for label, rc in result.items() if rc != 0]
    if misses:
        return misses
    counts = {label: Counter(run["csv"].read_text().split()) for label, run in inputs.items()}
    shots = inputs["m2"]["shots"]
    if counts["m1"] != Counter({"11": inputs["m1"]["shots"]}):
        misses.append(f"m1: outcomes other than 11: {counts['m1'].most_common(3)}")
    share = counts["m2"]["1001"] / shots
    tol = SAMPLE_SIGMAS * math.sqrt(SAMPLE_M2_P1001 * (1 - SAMPLE_M2_P1001) / shots)
    if abs(share - SAMPLE_M2_P1001) > tol or sum(counts["m2"].values()) != shots:
        misses.append(f"m2: share of 1001 {share} outside {SAMPLE_M2_P1001:.6f} +- {tol:.6f}")
    for label, run in inputs.items():
        if "budget" not in json.loads(run["budget"].read_text()):
            misses.append(f"{label}: budget JSON has no budget")
    return misses


# -- analyze -----------------------------------------------------------------------


def random_circuit_arrays(seed: int) -> dict:
    """Gate fields of a random elementary circuit, drawn like acceptance.random_circuit."""
    rng = np.random.default_rng(seed)
    T, s = RANDOM_GATES, STRENGTH
    return {
        "kind": rng.integers(0, 6, T),  # index into KIND_MIX
        "mode": rng.integers(0, RANDOM_M, T),
        "qubit": rng.integers(0, RANDOM_R, T),
        "t": rng.uniform(-s, s, T),
        "alpha": np.exp(rng.uniform(-math.log(s), math.log(s), T)),
        "name": rng.integers(0, 5, T),  # index into QUBIT_NAMES
    }


KIND_MIX = ("disp_q", "disp_p", "ctrl_disp_q", "ctrl_disp_p", "squeeze", "qubit_gate")
QUBIT_NAMES = ("H", "S", "T", "X", "Z")


def build_random_circuit(arr: dict):
    gates = []
    for k, mode, q, t, al, name in zip(*(arr[f].tolist() for f in ("kind", "mode", "qubit", "t", "alpha", "name"))):
        kind = KIND_MIX[k]
        if kind == "squeeze":
            gates.append(circuit.squeeze(mode, al))
        elif kind == "qubit_gate":
            gates.append(circuit.qubit_gate(QUBIT_NAMES[name], q))
        elif kind.startswith("ctrl"):
            gates.append(circuit.Gate(kind=kind, mode=mode, qubit=q, t=t))
        else:
            gates.append(circuit.Gate(kind=kind, mode=mode, t=t))
    return circuit.Circuit(RANDOM_M, RANDOM_R, tuple(gates))


def analysis_oracle(arr: dict) -> dict:
    """Expected analyser output of the random circuit, from the definitions.

    Per mode, g_bar is the largest g(prod eta) over consecutive squeezer
    subproducts, i.e. 2 to the range of the prefix sums of log2 alpha; xi_bar
    is the sum of |t|.  The bound is 168 g_bar^6 (2 + xi_bar^3) in log2.
    Substitution turns each |t| > 1 into 2 ceil(log2 |t|) + 1 gates.
    """
    levels = [[0.0] for _ in range(RANDOM_M)]  # prefix sums of log2 alpha per mode
    xis = [0.0] * RANDOM_M
    extra = 0
    for k, mode, t, al in zip(*(arr[f].tolist() for f in ("kind", "mode", "t", "alpha"))):
        kind = KIND_MIX[k]
        if kind == "squeeze":
            levels[mode].append(levels[mode][-1] + math.log2(al))
        elif kind != "qubit_gate":
            xis[mode] += abs(t)
            if abs(t) > 1.0:
                v = math.log2(abs(t))
                extra += 2 * math.ceil(v - 1e-12 * max(1.0, abs(v)))
    log2_g = max(max(lv) - min(lv) for lv in levels)
    xi_max = max(xis)
    l3 = 3.0 * math.log2(xi_max)
    log2_two_plus_cube = l3 + math.log2(1.0 + 2.0 * 2.0 ** (-l3)) if l3 > 60 else math.log2(2.0 + xi_max ** 3)
    return {
        "g_bar_max": 2.0 ** log2_g if log2_g < 1024 else math.inf,
        "xi_bar_max": xi_max,
        "log2_energy_upper_bound": math.log2(168.0) + 6.0 * log2_g + log2_two_plus_cube,
        "substituted_gates": RANDOM_GATES + extra,
    }


def analyze_setup(seed: int, workdir: Path) -> dict:
    arr = random_circuit_arrays(seed)
    c = build_random_circuit(arr)
    path = workdir / "random_circuit.json"
    path.write_text(circuit.serialize_circuit(c) + "\n")
    logical = circuit.Circuit(0, 4, tuple(circuit.qubit_gate("X", i % 4) for i in range(LOGICAL_X_GATES)))
    return {
        "circuit": c,
        "argv_analyze": ["analyze", str(path), "--out", str(workdir / "report.json")],
        "argv_substitute": ["substitute", str(path), "--out", str(workdir / "substituted.json")],
        "report": workdir / "report.json",
        "substituted": workdir / "substituted.json",
        "logical": logical,
        "oracle": analysis_oracle(arr),
    }


def analyze_op(inputs: dict) -> dict:
    r0 = simulator.VACUUM_TAIL_RADIUS
    rc_analyze = cli.main(inputs["argv_analyze"])
    rc_substitute = cli.main(inputs["argv_substitute"])
    trajectory = moments.circuit_window_trajectory(inputs["circuit"], (-r0, r0, -r0, r0))
    w_tot = pipeline.build_pipeline_circuits(inputs["logical"], 4, 2, 0.1).w_tot
    return {
        "rc": (rc_analyze, rc_substitute),
        "trajectory_len": len(trajectory),
        "w_tot_report": moments.analysis_report(w_tot),
    }


def analyze_check(inputs: dict, result: dict) -> list[str]:
    if result["rc"] != (0, 0):
        return [f"exit codes {result['rc']}"]
    misses = []
    oracle = inputs["oracle"]
    report = json.loads(inputs["report"].read_text())["report"]
    for source, got, want in (("random", report, oracle), ("w_tot", result["w_tot_report"], WTOT_REFERENCE)):
        for key in ("g_bar_max", "xi_bar_max", "log2_energy_upper_bound"):
            if not rel_close(got[key], want[key], ANALYSIS_REL_TOL):
                misses.append(f"{source}: {key} {got[key]!r} != {want[key]!r}")
    n_sub = len(json.loads(inputs["substituted"].read_text())["gates"])
    if n_sub != oracle["substituted_gates"]:
        misses.append(f"substituted gate count {n_sub} != {oracle['substituted_gates']}")
    if result["trajectory_len"] != RANDOM_GATES + 1:
        misses.append(f"trajectory has {result['trajectory_len']} windows")
    return misses


# -- verify ------------------------------------------------------------------------


def verify_setup(seed: int, workdir: Path) -> dict:
    return {"argv": ["verify", "--full"]}


def verify_op(inputs: dict) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(inputs["argv"])
    return {"rc": rc, "output": out.getvalue()}


def verify_check(inputs: dict, result: dict) -> list[str]:
    if result["rc"] == 0 and "12/12 criteria passed" in result["output"]:
        return []
    failing = [line for line in result["output"].splitlines() if not line.startswith("[PASS]")]
    return [f"verify exit {result['rc']}: {' | '.join(failing)}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prep", prep_setup, prep_op, prep_check),
        Workload("sample", sample_setup, sample_op, sample_check, warmup=1),
        Workload("analyze", analyze_setup, analyze_op, analyze_check),
        Workload("verify", verify_setup, verify_op, verify_check, warmup=1),
    )
}

# The workloads BENCHMARK.json declares.  ``sample`` and ``analyze`` still run
# by hand (``--workload sample``) but are left out: their op times moved by up
# to a third between runs of the same code on a shared 2-vCPU machine, past the
# benchmark's bound, and two workloads let each run last 60 s within the run
# budget.  ``verify`` still measures their layers, more lightly: criterion 4
# samples through ``homodyne_sample`` and ``post_process``, criterion 11 runs
# ``error_budget``, and the criteria run ``circuit_window_trajectory``,
# ``g_bar_brute_force`` and ``substitute_bounded_strength``.
BENCHMARKED = ("prep", "verify")

# Span expected to hold the largest self time in the traced run, per workload.
EXPECTED_TOP_SPAN = {
    "prep": ("simulator.gate.ctrl_disp_p",),
    "sample": ("pipeline.post_process",),
    "analyze": ("moments.", "circuit."),
}
