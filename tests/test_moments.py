import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hqoc.circuit import (
    Circuit,
    CircuitError,
    DISPLACEMENT_KINDS,
    Gate,
    blackbox,
    ctrl_disp_p,
    ctrl_disp_q,
    disp_p,
    disp_q,
    qubit_gate,
    squeeze,
)
from hqoc.moments import (
    AnalysisError,
    IDENTITY_MAP,
    CircuitMomentParams,
    ModeMomentParams,
    chi_map,
    circuit_params,
    circuit_window_trajectory,
    compose_mlf,
    dominates,
    dressed_params,
    energy_upper_bound,
    g_bar_brute_force,
    generator_mlf,
    substitute_bounded_strength,
    substitution_plan,
)

W = (-1.0, 2.0, -3.0, 0.5)


def test_generator_maps():
    assert generator_mlf(squeeze(0, 3.0))(W) == pytest.approx((-3.0, 6.0, -1.0, 1.0 / 6.0))
    assert generator_mlf(ctrl_disp_p(0, 0, -2.0))(W) == pytest.approx((-3.0, 2.0, -3.0, 0.5))
    assert generator_mlf(ctrl_disp_q(0, 0, 2.0))(W) == pytest.approx((-1.0, 2.0, -3.0, 2.5))
    assert generator_mlf(disp_p(0, 1.5))(W) == pytest.approx((0.5, 3.5, -3.0, 0.5))
    assert generator_mlf(disp_q(0, -1.0))(W) == pytest.approx((-1.0, 2.0, -4.0, -0.5))
    assert generator_mlf(qubit_gate("H", 0))(W) == W


def test_chi_dominates_generators():
    # chi domination: every generator's window map lies inside chi(eta, xi) of its parameters
    from hqoc.circuit import gate_params

    gates = [squeeze(0, 2.0), squeeze(0, 0.4), disp_p(0, -1.2), disp_q(0, 0.7),
             ctrl_disp_p(0, 0, 1.5), qubit_gate("T", 0)]
    for g in gates:
        p = gate_params(g)
        assert dominates(generator_mlf(g), chi_map(p.eta, p.xi))


def test_compose_shift_twice():
    m = generator_mlf(disp_p(0, 1.0))
    composed = compose_mlf(m, m)
    assert composed(W) == pytest.approx((1.0, 4.0, -3.0, 0.5))


def test_compose_squeeze_after_shift():
    # M_2 after e^{-iP}: position maps R -> 2R + 2
    composed = compose_mlf(generator_mlf(squeeze(0, 2.0)), generator_mlf(disp_p(0, 1.0)))
    out = composed((1.0, 2.0, 0.0, 0.0))
    assert out[0] == pytest.approx(4.0)
    assert out[1] == pytest.approx(6.0)


def test_compose_identity_neutral():
    m = generator_mlf(squeeze(0, 1.7))
    assert compose_mlf(IDENTITY_MAP, m)(W) == pytest.approx(m(W))
    assert compose_mlf(m, IDENTITY_MAP)(W) == pytest.approx(m(W))


def test_circuit_params_squeeze_chain():
    c = Circuit(1, 0, (squeeze(0, 0.5), squeeze(0, 2.0), squeeze(0, 2.0)))
    p = circuit_params(c)
    assert p.g_bar_max == pytest.approx(4.0)
    assert p.xi_bar_max == 0.0
    assert p.per_mode[0].eta == pytest.approx(2.0)


def test_circuit_params_empty():
    p = circuit_params(Circuit(1, 0, ()))
    assert (p.g_bar_max, p.xi_bar_max) == (1.0, 0.0)


def test_net_squeeze_past_the_double_range_is_inf():
    # 1100 doublings: eta = g_bar = 2^1100 overflow a double and read inf
    p = circuit_params(Circuit(1, 0, (squeeze(0, 2.0),) * 1100)).per_mode[0]
    assert p.eta == math.inf and p.g_bar == math.inf
    assert p.log2_g_bar == pytest.approx(1100.0)


def test_circuit_params_displacements():
    c = Circuit(1, 1, (disp_q(0, 1.0), ctrl_disp_p(0, 0, -2.0)))
    p = circuit_params(c)
    assert p.xi_bar_max == pytest.approx(3.0)
    assert p.g_bar_max == pytest.approx(1.0)


def test_forward_offsets_match_window_composition():
    c = Circuit(1, 0, (disp_q(0, 0.7), squeeze(0, 2.0), disp_p(0, -1.2), squeeze(0, 0.25)))
    p = circuit_params(c).per_mode[0]
    # xi is the upper offset of the composed chi maps: v -> eta v + xi per gate
    v_fwd = 0.0
    v_bwd = 0.0
    from hqoc.circuit import gate_params

    for g in c.gates:
        gp = gate_params(g)
        v_fwd = gp.eta * v_fwd + gp.xi
        v_bwd = v_bwd / gp.eta + gp.xi
    assert p.xi == pytest.approx(v_fwd)
    assert p.xi_hat == pytest.approx(v_bwd)


@st.composite
def mode_circuits(draw, max_gates=14):
    n = draw(st.integers(1, max_gates))
    gates = []
    for _ in range(n):
        kind = draw(st.sampled_from(["disp_q", "disp_p", "squeeze", "ctrl_disp_p"]))
        if kind == "squeeze":
            gates.append(squeeze(0, draw(st.floats(0.3, 3.0))))
        elif kind == "ctrl_disp_p":
            gates.append(ctrl_disp_p(0, 0, draw(st.floats(-2.0, 2.0))))
        else:
            gates.append(Gate(kind=kind, mode=0, t=draw(st.floats(-2.0, 2.0))))
    return Circuit(1, 1, tuple(gates))


@settings(max_examples=100, deadline=None)
@given(mode_circuits())
def test_g_bar_prefix_equals_brute_force(c):
    fast = circuit_params(c).per_mode[0].log2_g_bar
    slow = math.log2(g_bar_brute_force(c, 0))
    assert abs(fast - slow) <= 1e-12


def test_subcircuit_composition_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        parts = []
        for _ in range(rng.integers(1, 4)):
            gates = []
            for _ in range(rng.integers(1, 6)):
                if rng.random() < 0.5:
                    gates.append(squeeze(0, float(np.exp(rng.uniform(-1, 1)))))
                else:
                    gates.append(disp_p(0, float(rng.uniform(-2, 2))))
            parts.append(Circuit(1, 0, tuple(gates)))
        whole = Circuit(1, 0, tuple(g for part in parts for g in part.gates))
        pw = circuit_params(whole)
        xi_sum = sum(circuit_params(p).xi_bar_max for p in parts)
        g_prod = math.prod(circuit_params(p).g_bar_max for p in parts)
        assert pw.xi_bar_max == pytest.approx(xi_sum)
        assert pw.g_bar_max <= g_prod * (1 + 1e-12)


def test_energy_examples():
    def params(g, xi):
        pm = ModeMomentParams(g_bar=g, log2_g_bar=math.log2(g), xi_bar=xi,
                              eta=1.0, xi=xi, xi_hat=xi)
        return CircuitMomentParams(per_mode=(pm,), g_bar_max=g,
                                   log2_g_bar_max=math.log2(g), xi_bar_max=xi)

    assert energy_upper_bound(params(1.0, 0.0)).bound == pytest.approx(336.0)
    assert energy_upper_bound(params(2.0, 1.0)).bound == pytest.approx(32256.0)


def test_energy_tight_form_chain():
    # u + v <= 168 q^3 (2 + s^3) <= 168 g_bar^6 (2 + xi_bar^3) at (q, s) = (g, g xi)
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = float(np.exp(rng.uniform(0, 3)))
        xi = float(rng.uniform(0, 10))
        pm = ModeMomentParams(g_bar=g, log2_g_bar=math.log2(g), xi_bar=xi,
                              eta=1.0, xi=xi, xi_hat=xi)
        p = CircuitMomentParams(per_mode=(pm,), g_bar_max=g,
                                log2_g_bar_max=math.log2(g), xi_bar_max=xi)
        d = energy_upper_bound(p)
        s = g * xi
        mid = 168.0 * g ** 3 * (2.0 + s ** 3)
        assert d.u + d.v <= mid * (1 + 1e-12)
        assert mid <= d.bound * (1 + 1e-12)
        assert d.c0 >= 0 and d.c2 >= 0


def test_energy_wprep_form_at_dyadic_delta():
    # analyzer bound on the built preparation circuit stays below the
    # closed-form 4096/Delta^18 (2 + 1000 log^3(1/Delta)) at dyadic Delta
    from hqoc.pipeline import build_wprep

    for delta in (1 / 16, 1 / 32, 1 / 64):
        w = build_wprep(1, 1, delta)
        d = energy_upper_bound(circuit_params(w))
        rhs = 4096.0 / delta ** 18 * (2.0 + 1000.0 * math.log(1 / delta) ** 3)
        assert d.bound <= rhs


def test_substitution_exact_power_of_two():
    c = Circuit(1, 1, (disp_q(0, 4.0),))
    sub = substitute_bounded_strength(c)
    expected = (squeeze(0, 2.0), squeeze(0, 2.0), disp_q(0, 1.0),
                squeeze(0, 0.5), squeeze(0, 0.5))
    assert sub.gates == expected


def test_substitution_theta_three():
    plan = substitution_plan(-3.0)
    assert plan.n_reps == 2
    assert plan.beta ** 2 == pytest.approx(3.0, rel=1e-12)
    assert plan.sign == -1


def test_substitution_leaves_small_displacements():
    c = Circuit(1, 0, (disp_q(0, 0.5), disp_p(0, -1.0)))
    assert substitute_bounded_strength(c).gates == c.gates


def test_substitution_rejects_large_squeeze():
    c = Circuit(1, 0, (squeeze(0, 2.0),))
    with pytest.raises(CircuitError, match="gate 1"):
        substitute_bounded_strength(c)


@settings(max_examples=80, deadline=None)
@given(st.floats(1.0001, 1e6))
def test_substitution_plan_invariant(t):
    plan = substitution_plan(t)
    assert plan.beta ** plan.n_reps == pytest.approx(t, rel=1e-12)
    assert 1.0 < plan.beta <= 2.0


def test_substitution_lemma_parameter_bounds():
    rng = np.random.default_rng(11)
    for _ in range(40):
        gates = []
        zeta = 2.0
        for _ in range(rng.integers(1, 8)):
            if rng.random() < 0.4:
                gates.append(squeeze(0, float(np.exp(rng.uniform(-0.6, 0.6)))))
            else:
                t = float(rng.uniform(-8, 8))
                zeta = max(zeta, abs(t))
                gates.append(disp_p(0, t) if rng.random() < 0.5 else disp_q(0, t))
        c = Circuit(1, 0, tuple(gates))
        sub = substitute_bounded_strength(c)
        t_alpha = len(c.gates)
        n_subs = sum(1 for g in c.gates if g.kind in DISPLACEMENT_KINDS and abs(g.t) > 1)
        p = circuit_params(sub).per_mode[0]
        assert p.xi_bar <= t_alpha + 1e-12
        assert p.g_bar <= zeta ** 2 * 2.0 ** (t_alpha - n_subs) * (1 + 1e-12)


def test_dressed_single_conjugation():
    # dressed-circuit bound: U^dag V U has xi_bar = 2 xi_bar(U) and g_bar <= g_bar(U)^2
    u = Circuit(1, 1, (disp_q(0, 1.0),))
    p = dressed_params([(u, qubit_gate("H", 0))])
    assert p.xi_bar_max == pytest.approx(2.0)
    assert p.g_bar_max == pytest.approx(1.0)


def test_dressed_empty():
    p = dressed_params([])
    assert (p.g_bar_max, p.xi_bar_max) == (1.0, 0.0)


def test_dressed_blackbox_pairs():
    # s pairs of bit-transfer blackboxes: xi <= 72 s 2^ell, g <= 256 2^{148 ell}
    ell, s = 2, 3
    pair = Circuit(
        2, 3,
        (
            blackbox((0, 1), (0, 1), g_bar=4.0 * 2.0 ** (37 * ell),
                     xi_bar=18.0 * 2.0 ** ell, eta=1.0, size=36 * ell),
            blackbox((0, 1), (0, 2), g_bar=4.0 * 2.0 ** (37 * ell),
                     xi_bar=18.0 * 2.0 ** ell, eta=1.0, size=36 * ell),
        ),
    )
    p = dressed_params([(pair, qubit_gate("CZ", (1, 2)))] * s)
    assert p.xi_bar_max == pytest.approx(72.0 * s * 2.0 ** ell)
    assert p.log2_g_bar_max == pytest.approx(math.log2(256.0) + 148.0 * ell)


def test_dressed_rejects_oscillator_inner_gate():
    with pytest.raises(AnalysisError):
        dressed_params([(Circuit(1, 1, ()), disp_q(0, 1.0))])


def test_windows_reject_blackbox():
    c = Circuit(1, 1, (blackbox((0,), (0,), g_bar=2.0, xi_bar=1.0, eta=1.0),))
    with pytest.raises(AnalysisError, match="gate 1"):
        circuit_window_trajectory(c, (-1.0, 1.0, -1.0, 1.0))


def test_blackbox_params_use_declared_values():
    ell = 1
    c = Circuit(
        1, 1,
        (
            disp_q(0, 0.5),
            blackbox((0,), (0,), g_bar=4.0 * 2.0 ** 37, xi_bar=36.0, eta=1.0),
        ),
    )
    p = circuit_params(c).per_mode[0]
    assert p.xi_bar == pytest.approx(36.5)
    assert p.log2_g_bar == pytest.approx(2.0 + 37.0)
    assert p.xi is None and p.xi_hat is None


def test_energy_bound_survives_overflow_at_ell_3():
    # at ell = 3 the pipeline's g_bar is finite, but (g_bar xi_bar)^3 overflows a double
    from hqoc.moments import analysis_report
    from hqoc.pipeline import build_pipeline_circuits

    u = Circuit(0, 3, (qubit_gate("X", 0),))
    w_tot = build_pipeline_circuits(u, 3, 1, 0.01).w_tot
    p = circuit_params(w_tot)
    assert math.isfinite(p.g_bar_max) and math.isfinite(p.g_bar_max * p.xi_bar_max)
    d = energy_upper_bound(p)
    assert d.u == math.inf  # only the terms that overflow become inf
    assert all(math.isfinite(x) for x in (d.v, d.c0, d.c1, d.c2))
    assert d.bound == math.inf and math.isfinite(d.log2_bound)
    report = analysis_report(w_tot)
    assert report["log2_energy_upper_bound"] == d.log2_bound
