"""Acceptance battery: quantitative checks of the toolkit's headline claims.

Each criterion is a check returning ``(ok, details)``, declared once by
``@criterion(number, name, limit)``: the one runner that times it, fails it
past its limit and builds its :class:`CriterionResult`.  The CLI ``verify``
subcommand and the test suite run them from ``ALL_CRITERIA``.  Criteria pair
small-scale reproduction of verifiable inequalities with randomized property
checks; random streams are fixed by explicit seeds.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import (
    DiscreteDistribution,
    diam_delta,
    distribution_from_arrays,
    donoho_stark_eigs,
    donoho_stark_kernel,
    state_symradius,
    symradius_delta,
)
from .circuit import (
    KINDS,
    Circuit,
    DISPLACEMENT_KINDS,
    Gate,
    StrengthBounds,
    conforms_to,
    qubit_gate,
    squeeze,
)
from .gkp import comb_family, overlap_check
from .moments import (
    circuit_params,
    circuit_window_trajectory,
    energy_upper_bound,
    g_bar_brute_force,
    substitute_bounded_strength,
)
from .pipeline import (
    SIM_MARGIN,
    EncodingLayout,
    encode_basis_state,
    encode_state,
    error_budget,
    prep_size_formula,
    prep_target_state,
    sample_encoded_state,
    simulate_prep,
)
from .simulator import (
    VACUUM_TAIL_RADIUS,
    HybridState,
    apply_circuit,
    auto_grid,
    energy_expectation,
    fidelity,
    mode_marginals,
    trace_distance,
    vacuum_state,
)
from .tradeoff import (
    implementation_energy_bound,
    log2_required_energy,
    log2_sampling_error_bound,
    regime_table,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    limit: float | None
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lim = f" (limit {self.limit:.0f}s)" if self.limit else ""
        return f"[{status}] criterion {self.number:2d} {self.name}: {self.runtime:.1f}s{lim}"


def criterion(number: int, name: str, limit: float | None = None):
    """Declare a check returning ``(ok, details)`` as criterion ``number``, timed against ``limit`` s."""

    def declare(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            ok, details = check()
            runtime = time.perf_counter() - t0
            passed = bool(ok) and (limit is None or runtime < limit)
            return CriterionResult(number, name, passed, runtime, limit, details)

        run.number = number
        return run

    return declare


# Strength cap of random circuits: |t| <= STRENGTH and 1/STRENGTH <= alpha <= STRENGTH.
STRENGTH = 2.0
# Gate mix of random circuits.  Drawn as ``rng.integers(0, k)`` indexes: the
# same stream as ``rng.choice`` on these names, at a fifth of the cost.
RANDOM_KINDS = ("disp_q", "disp_p", "ctrl_disp_q", "ctrl_disp_p", "squeeze", "qubit_gate")
RANDOM_QUBIT_GATES = ("H", "S", "T", "X", "Z")


def random_circuit(rng, max_gates: int = 12) -> Circuit:
    """Random elementary circuit on one mode and one qubit, strengths <= ``STRENGTH``."""
    T = int(rng.integers(1, max_gates + 1))
    gates = []
    for _ in range(T):
        kind = RANDOM_KINDS[rng.integers(0, len(RANDOM_KINDS))]
        if kind == "squeeze":
            al = float(np.exp(rng.uniform(-math.log(STRENGTH), math.log(STRENGTH))))
            gates.append(squeeze(0, al))
        elif kind == "qubit_gate":
            gates.append(qubit_gate(RANDOM_QUBIT_GATES[rng.integers(0, len(RANDOM_QUBIT_GATES))], 0))
        elif KINDS[kind].controlled:
            gates.append(Gate(kind=kind, mode=0, qubit=0, t=float(rng.uniform(-STRENGTH, STRENGTH))))
        else:
            gates.append(Gate(kind=kind, mode=0, t=float(rng.uniform(-STRENGTH, STRENGTH))))
    return Circuit(1, 1, tuple(gates))


def _random_distribution(rng) -> DiscreteDistribution:
    k = int(rng.integers(2, 60))
    values = rng.normal(scale=rng.uniform(0.1, 5.0), size=k) + rng.uniform(-3, 3)
    probs = rng.dirichlet(np.ones(k))
    return distribution_from_arrays(values, probs)


@criterion(1, "comb orthogonality", limit=5)
def criterion_1():
    """Comb-state orthogonality: d=4, Delta=1/32, Gram = identity to 1e-8."""
    states = comb_family(1.0 / 32.0, 4)
    gram = np.array([[np.vdot(a.amps, b.amps) for b in states] for a in states])
    dev = float(np.abs(gram - np.eye(4)).max())
    return dev <= 1e-8, {"gram_dev": dev}


@criterion(2, "overlap lemma", limit=10)
def criterion_2():
    """Overlap lemma: |<Sha, Sha^eps>|^2 >= 1 - 16 Delta^2 - 2 e^{-(eps/Delta)^2}."""
    cases = []
    for delta, eps in [(0.05, 0.25), (0.1, 0.25), (0.02, 0.1)]:
        ov, bound = overlap_check(delta, eps, L=16)
        cases.append({"delta": delta, "eps": eps, "overlap_sq": ov, "bound": bound, "ok": ov >= bound})
    return all(c["ok"] for c in cases), {"cases": cases}


@criterion(3, "preparation theorem", limit=300)
def criterion_3():
    """Preparation theorem at n=3: trace distance <= 17 sqrt(Delta), decreasing in Delta."""
    tds = {}
    sizes_ok = True
    for delta in (0.04, 0.01):
        state, c = simulate_prep(3, delta)
        target = prep_target_state(3, delta, state.grids[0])
        tds[delta] = trace_distance(state, target)
        sizes_ok &= len(c.gates) == prep_size_formula(3, delta)
    ok = sizes_ok and all(tds[d] <= 17.0 * math.sqrt(d) for d in tds) and tds[0.01] < tds[0.04]
    return ok, {"trace_distances": tds}


@criterion(4, "logical measurement", limit=120)
def criterion_4():
    """Logical measurement at ell=2: deterministic basis readout + chi^2 on a superposition."""
    shots = 10_000
    layout = EncodingLayout(n=2, m=1)
    delta = 0.02
    deterministic = True
    for x in range(4):
        bits = ((x >> 1) & 1, x & 1)
        st = encode_basis_state(bits, layout, delta)
        samples = sample_encoded_state(st, layout, shots, seed=100 + x)
        if set(map(tuple, samples.tolist())) != {bits}:
            deterministic = False
    st = encode_state({(0, 0): 1.0, (1, 1): 1.0}, layout, delta)
    samples = sample_encoded_state(st, layout, shots, seed=999)
    counts = Counter(map(tuple, samples.tolist()))
    stray = sum(v for k, v in counts.items() if k not in {(0, 0), (1, 1)})
    expected = shots / 2.0
    chi2 = sum((counts.get(k, 0) - expected) ** 2 / expected for k in [(0, 0), (1, 1)])
    ok = deterministic and stray == 0 and chi2 <= 9.0  # 3 sigma for 1 dof
    return ok, {"deterministic": deterministic, "chi2": chi2, "stray": stray}


@criterion(5, "analyzer soundness", limit=600)
def criterion_5():
    """Analyzer soundness on 200 random circuits: energy and window containment."""
    rng = np.random.default_rng(20250810)
    r0 = VACUUM_TAIL_RADIUS
    violations = 0
    worst_mass = 0.0
    worst_slack = math.inf
    for _ in range(200):
        c = random_circuit(rng)
        bound = energy_upper_bound(circuit_params(c)).bound
        grids = auto_grid(c, base_margin=SIM_MARGIN)
        traj = circuit_window_trajectory(c, (-r0, r0, -r0, r0))
        state = vacuum_state(1, 1, grids)
        records = []

        def check(i, st, records=records, traj=traj):
            mg = mode_marginals(st, 0)
            w = traj[i][0]
            out_pos = float(mg.position[(mg.xs < w[0]) | (mg.xs > w[1])].sum())
            out_mom = float(mg.momentum[(mg.momenta < w[2]) | (mg.momenta > w[3])].sum())
            records.append((mg.energy, max(out_pos, out_mom)))

        check(0, state)
        apply_circuit(state, c, callback=check)
        for energy, mass in records:
            worst_slack = min(worst_slack, bound - energy)
            worst_mass = max(worst_mass, mass)
            if energy > bound or mass > 1e-6:
                violations += 1
    details = {"worst_outside_mass": worst_mass, "worst_energy_slack": worst_slack}
    return violations == 0, {"violations": violations, **details}


@criterion(6, "bounded-strength substitution")
def criterion_6():
    """Bounded-strength substitution: strengths capped, unitary action preserved."""
    rng = np.random.default_rng(7)
    ok_strength = True
    worst_fid = 1.0
    params_ok = True
    for theta in (3.0, 4.0, 7.5):
        for kind in DISPLACEMENT_KINDS:
            gate = Gate(kind=kind, mode=0, t=theta, qubit=0 if KINDS[kind].controlled else None)
            c = Circuit(1, 1, (gate,))
            sub = substitute_bounded_strength(c)
            ok_strength &= conforms_to(sub, StrengthBounds(2.0, 1.0))
            # substitution lemma: xi_bar <= T^(alpha), g_bar <= zeta^2 2^(T - |Subs|)
            p = circuit_params(sub).per_mode[0]
            if p.xi_bar > 1.0 + 1e-12 or p.g_bar > theta ** 2 * (1.0 + 1e-12):
                params_ok = False
            grids = auto_grid(sub, base_margin=SIM_MARGIN)
            xs = grids[0].xs
            for _ in range(3):
                x0, p0 = rng.uniform(-1, 1, size=2)
                w = math.exp(rng.uniform(-0.3, 0.3))
                psi = np.exp(-((xs - x0) ** 2) / (2 * w * w) + 1j * p0 * xs)
                amps = np.zeros((grids[0].n_points, 2), complex)
                amps[:, 0] = psi / np.linalg.norm(psi) / math.sqrt(2)
                amps[:, 1] = amps[:, 0]  # exercise the controlled branch
                st = HybridState(1, 1, grids, amps)
                worst_fid = min(worst_fid, fidelity(apply_circuit(st, c), apply_circuit(st, sub)))
    ok = ok_strength and params_ok and worst_fid >= 1.0 - 1e-8
    return ok, {"worst_fidelity": worst_fid, "strength_ok": ok_strength, "lemma_params_ok": params_ok}


@criterion(7, "g_bar prefix == brute force")
def criterion_7():
    """g_bar prefix-scan == O(T^2) brute force on 500 circuits, log-space equality to 1e-12."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(500):
        c = random_circuit(rng, max_gates=16)
        fast = circuit_params(c).per_mode[0].log2_g_bar
        slow = math.log2(g_bar_brute_force(c, 0))
        worst = max(worst, abs(fast - slow))
    return worst <= 1e-12, {"worst_log2_diff": worst}


@criterion(8, "Donoho-Stark kernel")
def criterion_8():
    """Donoho-Stark kernel: trace within 0.5% of 4R^2/pi, eigenvalues in [-1e-9, 1+1e-6]."""
    ok = True
    details = {}
    for R in (1.0, 2.0, 5.0):
        kern = donoho_stark_kernel(R, 1024)
        trace = kern.trace()
        eigs = donoho_stark_eigs(kern)
        exact = 4.0 * R * R / math.pi
        rel = abs(trace - exact) / exact
        details[R] = {"trace": trace, "rel_err": rel, "eig_min": float(eigs[0]), "eig_max": float(eigs[-1])}
        ok &= rel <= 0.005 and eigs[0] >= -1e-9 and eigs[-1] <= 1.0 + 1e-6
    return ok, details


@criterion(9, "radius-dimension + radius-energy")
def criterion_9():
    """Radius-dimension bound on the d=4 comb family + radius-energy inequality."""
    delta_tail = 0.01
    radii = [state_symradius(st, delta_tail) for st in comb_family(1.0 / 32.0, 4)]
    bound = math.sqrt(math.pi / 4.0) * (4.0 * (1.0 - 3.0 * math.sqrt(delta_tail))) ** 0.5
    family_ok = max(radii) >= bound

    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(100):
        c = random_circuit(rng, max_gates=8)
        grids = auto_grid(c, base_margin=SIM_MARGIN)
        st = apply_circuit(vacuum_state(1, 1, grids), c)
        radius = state_symradius(st, delta_tail)
        energy = energy_expectation(st)[1]
        if delta_tail * radius ** 2 > energy * (1 + 1e-9):
            violations += 1
    details = {"max_symradius": max(radii), "bound": bound, "violations": violations}
    return family_ok and violations == 0, details


@criterion(10, "trade-off regimes + inversion")
def criterion_10():
    """Trade-off regimes over n in {16..1024} and bound/energy inversion consistency."""
    ns = [16, 32, 64, 128, 256, 512, 1024]
    rows = regime_table(ns)
    by_label = {r.label: r for r in rows}
    ok = (
        abs(by_label["m=1"].fitted_exponent - 1.0) <= 0.1
        and abs(by_label["m=ceil(sqrt(n))"].fitted_exponent - 0.5) <= 0.05
        and by_label["m=n"].growth_class == "polynomial"
    )
    inv_ok = True
    for n, m, s, eps in [(10, 2, 50, 0.5), (64, 8, 4096, 1e-2), (7, 7, 10, 2.0)]:
        log2_e = log2_required_energy(n, m, s, eps)
        back = log2_sampling_error_bound(n, m, s, log2_e)
        if abs(back - math.log2(eps)) > 1e-9 * max(1.0, abs(math.log2(eps))):
            inv_ok = False
    return ok and inv_ok, {r.label: {"beta": r.fitted_exponent, "class": r.growth_class} for r in rows}


@criterion(11, "budget formulas vs mpmath")
def criterion_11():
    """Budget/composite formulas in log space match mpmath to 1e-10 relative."""
    # lazy: nothing else needs mpmath, and it is the slowest import here
    import mpmath as mp

    mp.mp.dps = 50
    ok = True
    details = {}

    def close(a, b, rel=1e-10):
        b = float(b)
        return abs(a - b) <= rel * max(1.0, abs(b))

    for s, ell, delta in [(1, 1, 0.25), (10, 2, 1e-3), (1000, 3, 1e-6)]:
        impl = implementation_energy_bound(s, ell, delta)
        mp_log2 = 3 * mp.log(s, 2) + 891 * ell + 62 + 21 * mp.log(1 / mp.mpf(delta), 2)
        mp_xi = 72 * s * mp.mpf(2) ** ell + 10 * mp.log(1 / mp.mpf(delta), 2)
        mp_g = 10 + 148 * ell + 3 * mp.log(1 / mp.mpf(delta), 2)
        mp_xi_wu = mp.log(72 * s, 2) + ell
        ok &= close(impl.log2_energy, mp_log2)
        ok &= close(impl.xi_bar_wtot, mp_xi)
        ok &= close(impl.log2_g_bar_wtot, mp_g)
        ok &= close(impl.log2_xi_wu, mp_xi_wu)
        ok &= close(impl.log2_g_wu, 8 + 148 * ell)
        details[(s, ell, delta)] = impl.log2_energy
    # spec point value: (s=1, ell=1, Delta=1/4) -> log2 energy = 995
    ok &= abs(implementation_energy_bound(1, 1, 0.25).log2_energy - 995.0) < 1e-9

    for m, ell, delta, s in [(1, 2, 1e-3, 10), (3, 1, 1e-8, 0), (1, 2, 1e-8, 10)]:
        b = error_budget(m, ell, delta, s)
        mp_prep = 50 * m * (mp.sqrt(mp.mpf(delta)) + mp.mpf(2) ** (2 * ell) * mp.mpf(delta) ** 2)
        mp_gate = 600 * s * mp.mpf(2) ** (2 * ell) * mp.mpf(delta)
        ok &= close(b.eps_prep, mp_prep)
        ok &= close(b.eps_gate, mp_gate)
        ok &= b.eps_final == b.eps_prep + b.eps_gate
        ok &= b.l1_bound == min(2.0, b.eps_final)
    return ok, {}


@criterion(12, "classical concentration lemmas")
def criterion_12():
    """diam^delta <= 2 sigma delta^{-1/2} and delta symradius^2 <= E[X^2] on 500 distributions."""
    rng = np.random.default_rng(12)
    violations = 0
    for _ in range(500):
        dist = _random_distribution(rng)
        delta = float(rng.uniform(0.02, 0.5))
        d = diam_delta(dist, delta)
        r = symradius_delta(dist, delta)
        if d > 2.0 * dist.sigma / math.sqrt(delta) + 1e-12:
            violations += 1
        if delta * r * r > dist.second_moment + 1e-12:
            violations += 1
        if d > 2.0 * r + 1e-12:
            violations += 1
    return violations == 0, {"violations": violations}


ALL_CRITERIA = {check.number: check for check in (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11, criterion_12,
)}

FAST_CRITERIA = (1, 2, 6, 7, 8, 10, 11, 12)


def run_criteria(numbers) -> list[CriterionResult]:
    """Run the given criteria in order, printing each result's line as it comes."""
    results = []
    for k in numbers:
        results.append(ALL_CRITERIA[k]())
        print(results[-1].line())
    return results
