"""Acceptance battery: quantitative checks of the toolkit's headline claims.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``verify`` subcommand and the test suite both run these.  Criteria combine
small-scale quantitative reproduction of verifiable inequalities with
randomized property checks; random streams are fixed by explicit seeds.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

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
    limit: float | None = None
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lim = f" (limit {self.limit:.0f}s)" if self.limit else ""
        return f"[{status}] criterion {self.number:2d} {self.name}: {self.runtime:.1f}s{lim}"


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


def criterion_1() -> CriterionResult:
    """Comb-state orthogonality: d=4, Delta=1/32, Gram = identity to 1e-8."""
    t0 = time.time()
    states = comb_family(1.0 / 32.0, 4)
    gram = np.array([[np.vdot(a.amps, b.amps) for b in states] for a in states])
    dev = float(np.abs(gram - np.eye(4)).max())
    rt = time.time() - t0
    return CriterionResult(1, "comb orthogonality", dev <= 1e-8 and rt < 5, rt, 5, {"gram_dev": dev})


def criterion_2() -> CriterionResult:
    """Overlap lemma: |<Sha, Sha^eps>|^2 >= 1 - 16 Delta^2 - 2 e^{-(eps/Delta)^2}."""
    t0 = time.time()
    cases = []
    for delta, eps in [(0.05, 0.25), (0.1, 0.25), (0.02, 0.1)]:
        ov, bound = overlap_check(delta, eps, L=16)
        cases.append({"delta": delta, "eps": eps, "overlap_sq": ov, "bound": bound, "ok": ov >= bound})
    rt = time.time() - t0
    return CriterionResult(2, "overlap lemma", all(c["ok"] for c in cases) and rt < 10, rt, 10, {"cases": cases})


def criterion_3() -> CriterionResult:
    """Preparation theorem at n=3: trace distance <= 17 sqrt(Delta), decreasing in Delta."""
    t0 = time.time()
    tds = {}
    sizes_ok = True
    for delta in (0.04, 0.01):
        state, c = simulate_prep(3, delta)
        target = prep_target_state(3, delta, state.grids[0])
        tds[delta] = trace_distance(state, target)
        sizes_ok &= len(c.gates) == prep_size_formula(3, delta)
    ok = (
        sizes_ok
        and all(tds[d] <= 17.0 * math.sqrt(d) for d in tds)
        and tds[0.01] < tds[0.04]
    )
    rt = time.time() - t0
    return CriterionResult(3, "preparation theorem", ok and rt < 300, rt, 300, {"trace_distances": tds})


def criterion_4() -> CriterionResult:
    """Logical measurement at ell=2: deterministic basis readout + chi^2 on a superposition."""
    t0 = time.time()
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
    rt = time.time() - t0
    return CriterionResult(
        4, "logical measurement", ok and rt < 120, rt, 120,
        {"deterministic": deterministic, "chi2": chi2, "stray": stray},
    )


def criterion_5() -> CriterionResult:
    """Analyzer soundness on 200 random circuits: energy and window containment."""
    t0 = time.time()
    rng = np.random.default_rng(20250810)
    r0 = VACUUM_TAIL_RADIUS
    violations = 0
    worst_mass = 0.0
    worst_slack = math.inf
    for _ in range(200):
        c = random_circuit(rng)
        bound = energy_upper_bound(circuit_params(c)).bound
        grids = auto_grid(c, base_margin=SIM_MARGIN, mem_cap_mb=512)
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
    rt = time.time() - t0
    return CriterionResult(
        5, "analyzer soundness", violations == 0 and rt < 600, rt, 600,
        {"violations": violations, "worst_outside_mass": worst_mass, "worst_energy_slack": worst_slack},
    )


def criterion_6() -> CriterionResult:
    """Bounded-strength substitution: strengths capped, unitary action preserved."""
    t0 = time.time()
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
    rt = time.time() - t0
    return CriterionResult(
        6, "bounded-strength substitution", ok, rt, None,
        {"worst_fidelity": worst_fid, "strength_ok": ok_strength, "lemma_params_ok": params_ok},
    )


def criterion_7() -> CriterionResult:
    """g_bar prefix-scan == O(T^2) brute force on 500 circuits, log-space equality to 1e-12."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(500):
        c = random_circuit(rng, max_gates=16)
        fast = circuit_params(c).per_mode[0].log2_g_bar
        slow = math.log2(g_bar_brute_force(c, 0))
        worst = max(worst, abs(fast - slow))
    rt = time.time() - t0
    return CriterionResult(7, "g_bar prefix == brute force", worst <= 1e-12, rt, None, {"worst_log2_diff": worst})


def criterion_8() -> CriterionResult:
    """Donoho-Stark kernel: trace within 0.5% of 4R^2/pi, eigenvalues in [-1e-9, 1+1e-6]."""
    t0 = time.time()
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
    rt = time.time() - t0
    return CriterionResult(8, "Donoho-Stark kernel", ok, rt, None, details)


def criterion_9() -> CriterionResult:
    """Radius-dimension bound on the d=4 comb family + radius-energy inequality."""
    t0 = time.time()
    delta_tail = 0.01
    radii = [state_symradius(st, delta_tail) for st in comb_family(1.0 / 32.0, 4)]
    bound = math.sqrt(math.pi / 4.0) * (4.0 * (1.0 - 3.0 * math.sqrt(delta_tail))) ** 0.5
    family_ok = max(radii) >= bound

    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(100):
        c = random_circuit(rng, max_gates=8)
        grids = auto_grid(c, base_margin=SIM_MARGIN, mem_cap_mb=512)
        st = apply_circuit(vacuum_state(1, 1, grids), c)
        radius = state_symradius(st, delta_tail)
        energy = energy_expectation(st)[1]
        if delta_tail * radius ** 2 > energy * (1 + 1e-9):
            violations += 1
    rt = time.time() - t0
    return CriterionResult(
        9, "radius-dimension + radius-energy", family_ok and violations == 0, rt, None,
        {"max_symradius": max(radii), "bound": bound, "violations": violations},
    )


def criterion_10() -> CriterionResult:
    """Trade-off regimes over n in {16..1024} and bound/energy inversion consistency."""
    t0 = time.time()
    ns = [16, 32, 64, 128, 256, 512, 1024]
    rows = regime_table(ns, lambda n: n * n, lambda n: 1.0 / n)
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
    rt = time.time() - t0
    return CriterionResult(
        10, "trade-off regimes + inversion", ok and inv_ok, rt, None,
        {r.label: {"beta": r.fitted_exponent, "class": r.growth_class} for r in rows},
    )


def criterion_11() -> CriterionResult:
    """Budget/composite formulas in log space match mpmath to 1e-10 relative."""
    # lazy: nothing else needs mpmath, and it is the slowest import here
    import mpmath as mp

    t0 = time.time()
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
    rt = time.time() - t0
    return CriterionResult(11, "budget formulas vs mpmath", ok, rt, None, {})


def criterion_12() -> CriterionResult:
    """diam^delta <= 2 sigma delta^{-1/2} and delta symradius^2 <= E[X^2] on 500 distributions."""
    t0 = time.time()
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
    rt = time.time() - t0
    return CriterionResult(12, "classical concentration lemmas", violations == 0, rt, None, {"violations": violations})


ALL_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}

FAST_CRITERIA = (1, 2, 6, 7, 8, 10, 11, 12)


def run_criteria(numbers=None, printer=print) -> list[CriterionResult]:
    if numbers is None:
        numbers = sorted(ALL_CRITERIA)
    results = []
    for k in numbers:
        res = ALL_CRITERIA[k]()
        results.append(res)
        if printer is not None:
            printer(res.line())
    return results
