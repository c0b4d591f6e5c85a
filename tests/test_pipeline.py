import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hqoc.pipeline as pipeline
from hqoc.circuit import Circuit, disp_p, qubit_gate, squeeze
from hqoc.gkp import comb_spec, comb_support_size, comb_wavefunction, untruncated_comb_wavefunction
from hqoc.moments import ceil_log2, circuit_params, energy_upper_bound
from hqoc.pipeline import (
    EncodingLayout,
    aux_prep_target,
    build_aux_prep,
    build_code_prep,
    build_pipeline_circuits,
    build_prep_circuit,
    build_wprep,
    build_wu,
    code_prep_target,
    discretize,
    encode_basis_state,
    encode_state,
    error_budget,
    post_process,
    prep_size_formula,
    prep_target_state,
    run_sampling_scheme,
    sample_encoded_state,
    simulate_prep,
    simulate_wprep_factorized,
)
from hqoc.simulator import (
    WORKING_SET_COPIES,
    HybridState,
    ResourceCapError,
    apply_circuit,
    auto_grid,
    homodyne_sample,
    sample_cells,
    trace_distance,
    vacuum_state,
)
from hqoc.tradeoff import implementation_energy_bound


def test_prep_sizes():
    assert len(build_prep_circuit(1, 0.25).gates) == 10
    assert len(build_prep_circuit(3, 0.01).gates) == 25
    for n, delta in [(1, 0.25), (2, 0.1), (4, 0.03)]:
        assert len(build_prep_circuit(n, delta).gates) == prep_size_formula(n, delta)


def test_prep_analyzer_params():
    for n, delta in [(1, 0.25), (3, 0.04), (2, 0.07)]:
        p = circuit_params(build_prep_circuit(n, delta))
        assert p.xi_bar_max == pytest.approx(n * (math.pi + 1) + 1)
        assert p.g_bar_max == pytest.approx(2 ** n / delta, rel=1e-9)


def test_prep_trace_distance_small_case():
    state, c = simulate_prep(2, 0.05)
    target = prep_target_state(2, 0.05, state.grids[0])
    td = trace_distance(state, target)
    assert td <= 17 * math.sqrt(0.05)
    assert td < 0.5  # sanity: far tighter than the theorem bound


def test_code_prep_structure():
    # (ell=1, Delta=1/16): comb exponent n = 2(4-1) = 6, extra squeeze reps
    # ceil(log2 sqrt(4 pi)) = 2
    c = build_code_prep(1, 1 / 16)
    base = build_prep_circuit(6, 1 / 16)
    assert c.gates[: len(base.gates)] == base.gates
    extra = c.gates[len(base.gates):]
    assert len(extra) == 2
    net = math.prod(g.alpha for g in extra)
    assert net == pytest.approx(math.sqrt(4 * math.pi), rel=1e-12)


def test_code_prep_size_bound():
    for ell, delta in [(1, 1 / 16), (2, 0.02), (1, 0.05), (3, 0.01)]:
        c = build_code_prep(ell, delta)
        assert c.size <= 21 * math.log(1 / delta)


def test_code_prep_params_bounds():
    for ell, delta in [(1, 0.05), (2, 0.02)]:
        p = circuit_params(build_code_prep(ell, delta))
        assert p.xi_bar_max <= 10 * math.log2(1 / delta)
        assert p.g_bar_max <= 4 / delta ** 3


def test_code_prep_hypothesis_guard():
    with pytest.raises(ValueError):
        build_code_prep(2, 0.2)  # needs delta <= 1/8


@pytest.mark.parametrize("ell", [0, -1, -3])
def test_code_prep_rejects_ell_below_one(ell):
    for build in (build_code_prep, build_aux_prep):
        with pytest.raises(ValueError, match=f"ell must be >= 1, got {ell}"):
            build(ell, 0.1)


def test_code_prep_simulated_fidelity():
    ell, delta = 1, 0.02
    c = build_code_prep(ell, delta)
    grids = auto_grid(c, base_margin=0.3)
    state = apply_circuit(vacuum_state(1, 1, grids), c)
    target = code_prep_target(ell, delta, state.grids[0])
    td = trace_distance(state, target)
    assert td <= 25 * (math.sqrt(delta) + 2 ** (2 * ell) * delta ** 2)


@pytest.mark.parametrize(
    "build, target_fn, want",
    [
        (lambda: build_code_prep(1, 0.02), lambda grid: code_prep_target(1, 0.02, grid), 0.10243459005986111),
        (lambda: build_prep_circuit(8, 0.02), lambda grid: prep_target_state(8, 0.02, grid), 0.10220962793301591),
    ],
    ids=["code_prep_l1", "prep_n8"],
)
def test_prep_trace_distances_are_pinned(build, target_fn, want):
    # the benchmark's two preps at Delta = 0.02: a kernel change that moves
    # their answers past rounding shows here
    c = build()
    state = apply_circuit(vacuum_state(c.m, c.r, auto_grid(c, base_margin=0.3)), c)
    assert trace_distance(state, target_fn(state.grids[0])) == pytest.approx(want, rel=1e-12, abs=0)


def _with_qubit_zero(mode_state):
    """The one-mode state copied into the |0> column of a zeroed (n, 2) array."""
    amps = np.zeros(mode_state.amps.shape + (2,), dtype=complex)
    amps[:, 0] = mode_state.amps
    return amps


def _within_ulps(got, want, ulps):
    return all(
        np.all(np.abs(g - w) <= ulps * np.spacing(np.maximum(np.abs(g), np.abs(w))))
        for g, w in ((got.real, want.real), (got.imag, want.imag))
    )


@pytest.mark.parametrize(
    "circuit, target, oracle",
    [
        (build_code_prep(1, 0.02), lambda g: code_prep_target(1, 0.02, g),
         lambda g: comb_wavefunction(pipeline._prep_spec(1, 0.02), g, samples_per_sigma=1.0)),
        (build_aux_prep(1, 0.02), lambda g: aux_prep_target(1, 0.02, g),
         lambda g: comb_wavefunction(pipeline._prep_spec(1, 0.02, aux=True), g, samples_per_sigma=1.0)),
        (build_prep_circuit(8, 0.02), lambda g: prep_target_state(8, 0.02, g),
         lambda g: untruncated_comb_wavefunction(2 ** 8, 0.02, g)),
    ],
    ids=["code", "aux", "comb"],
)
def test_prep_targets_are_built_in_the_qubit_zero_branch(circuit, target, oracle):
    # 147,456 / 147,456 / 36,864 points; the one-mode comb copied into the |0>
    # column held 1.5 copies of the (n, 2) array
    grid = apply_circuit(vacuum_state(1, 1, auto_grid(circuit, base_margin=0.3)), circuit).grids[0]
    want = _with_qubit_zero(oracle(grid))
    target(grid)  # first-call allocations of numpy
    tracemalloc.start()
    try:
        got = target(grid)
        peak = tracemalloc.get_traced_memory()[1] / want.nbytes
    finally:
        tracemalloc.stop()
    assert (got.m, got.r) == (1, 1)
    assert _within_ulps(got.amps, want, 4)
    assert peak <= 1.4


def test_wprep_size_and_degenerate_case():
    m, ell, delta = 2, 1, 0.05
    w = build_wprep(m, ell, delta)
    assert w.m == m + 1 and w.r == 1
    assert w.size <= 42 * m * math.log(1 / delta)
    # m = 1 is exactly code prep followed by aux prep on the extra mode
    w1 = build_wprep(1, ell, delta)
    code = build_code_prep(ell, delta)
    aux = build_aux_prep(ell, delta)
    assert len(w1.gates) == len(code.gates) + len(aux.gates)
    assert [g.kind for g in w1.gates] == [g.kind for g in code.gates + aux.gates]


def test_wprep_factorized_error_budget():
    # preparation error budget: simulated error <= 50 m (sqrt(Delta) + 2^{2 ell} Delta^2)
    report = simulate_wprep_factorized(2, 1, 0.05)
    assert report["ok"]
    assert report["total_error"] <= report["bound"]
    assert report["qubit_deviation"] < 0.05


@pytest.mark.parametrize("m", [1, 3])
def test_wprep_factorized_simulates_each_block_circuit_once(m, monkeypatch):
    calls = []
    real = pipeline.apply_circuit
    monkeypatch.setattr(pipeline, "apply_circuit", lambda st, c: calls.append(c) or real(st, c))
    report = simulate_wprep_factorized(m, 1, 0.05)
    assert len(calls) == 2
    assert [b["block"] for b in report["per_block"]] == ["code"] * m + ["aux"]


def test_wu_blackbox_structure():
    u = Circuit(0, 4, (qubit_gate("CZ", (0, 1)), qubit_gate("H", 2)))
    w = build_wu(u, m=2, ell=2)
    kinds = [g.kind for g in w.gates]
    # CZ: 2 transfers + gate + 2 adjoints; H: 1 transfer + gate + 1 adjoint
    assert kinds == ["blackbox"] * 2 + ["qubit_gate"] + ["blackbox"] * 2 + \
        ["blackbox", "qubit_gate", "blackbox"]
    assert w.size <= 340 * 2 * 2 ** 2


def test_wtot_composite_parameters():
    u = Circuit(0, 4, (qubit_gate("CZ", (0, 1)), qubit_gate("H", 2),
                       qubit_gate("CNOT", (2, 3))))
    s, m, delta = 3, 2, 0.01
    pc = build_pipeline_circuits(u, n=4, m=m, delta=delta)
    ell = EncodingLayout(n=4, m=m).ell
    p = circuit_params(pc.w_tot)
    impl = implementation_energy_bound(s, ell, delta)
    assert p.xi_bar_max <= impl.xi_bar_wtot
    assert p.log2_g_bar_max <= impl.log2_g_bar_wtot
    assert energy_upper_bound(p).log2_bound <= impl.log2_energy
    assert pc.w_u.size <= 340 * s * ell ** 2
    assert pc.w_prep.size <= 42 * m * math.log(1 / delta)


def test_bit_transfer_refuses_ell_past_the_float_range():
    # 4 * 2^(37 ell) is a float up to ell = 27; at 28 it raised OverflowError
    u = Circuit(0, 1, (qubit_gate("H", 0),))
    pc = build_pipeline_circuits(u, 27, 1, 2.0 ** -28)
    assert energy_upper_bound(circuit_params(pc.w_tot)).log2_bound == pytest.approx(12115.9, abs=0.05)
    with pytest.raises(ValueError, match=r"^bit-transfer blackboxes need ell <= 27 .* got 28$"):
        build_pipeline_circuits(u, 28, 1, 2.0 ** -29)


def test_layout_examples():
    lay = EncodingLayout(n=3, m=2)
    assert (lay.K, lay.n_prime, lay.ell) == (1, 4, 2)
    lay2 = EncodingLayout(n=4, m=2)
    assert (lay2.K, lay2.ell) == (0, 2)  # K = (-n) mod m, not m
    for n, m in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        lay = EncodingLayout(n=n, m=m)
        assert (lay.n + lay.K) % lay.m == 0
        assert 0 <= lay.K < lay.m


def test_layout_bit_mapping():
    lay = EncodingLayout(n=4, m=2)  # ell = 2
    assert lay.mode_and_bit(1) == (0, 1)  # first qubit -> MSB of mode 0
    assert lay.mode_and_bit(2) == (0, 0)
    assert lay.mode_and_bit(3) == (1, 1)
    assert lay.mode_and_bit(4) == (1, 0)


def test_layout_roundtrip_bits_indices():
    for n, m in [(2, 1), (3, 2), (4, 2)]:
        lay = EncodingLayout(n=n, m=m)
        for x in range(2 ** n):
            bits = tuple((x >> (n - 1 - i)) & 1 for i in range(n))
            assert lay.bits_for_indices(lay.indices_for_bits(bits)).tolist() == list(bits)


def test_discretize_and_post_process():
    # peak of logical index 3 at 3 sqrt(2 pi 2^-ell) decodes to bits (1, 1)
    y = 3 * math.sqrt(2 * math.pi / 4)
    lay = EncodingLayout(n=2, m=1)
    assert int(discretize(y, 2)) == 3
    assert post_process([y], lay).tolist() == [1, 1]
    assert post_process([0.0], lay).tolist() == [0, 0]
    # peaks of the comb itself decode to their logical index
    y_peak = math.sqrt(2 * math.pi * 4) * 5 + 2 * math.sqrt(2 * math.pi / 4)
    assert int(discretize(y_peak, 2)) == 2


def test_post_process_two_modes():
    # per-mode indices (2, 1) at ell=2 -> bits (1,0,0,1) -> first three kept
    lay = EncodingLayout(n=3, m=2)
    fine = math.sqrt(2 * math.pi / 4)
    y = [2 * fine, 1 * fine]
    assert post_process(y, lay).tolist() == [1, 0, 0]


def per_shot_reference(ys, lay):
    """Decode one shot at a time, one mode at a time, in plain Python."""
    spacing = math.sqrt(2.0 * math.pi * 2.0 ** (-lay.ell))
    out = []
    for shot in ys:
        bits = []
        for y in shot:
            j = round(y / spacing) % lay.d  # round() ties to even
            bits += [(j >> (lay.ell - 1 - i)) & 1 for i in range(lay.ell)]
        out.append(bits[: lay.n])
    return out


# layouts with trailing dummies (K > 0), m up to 4
DUMMY_LAYOUTS = [(n, m) for m in range(2, 5) for n in range(m, 9) if (-n) % m]


@st.composite
def shots_for_layout(draw):
    n, m = draw(st.sampled_from(DUMMY_LAYOUTS))
    lay = EncodingLayout(n=n, m=m)
    spacing = math.sqrt(2.0 * math.pi * 2.0 ** (-lay.ell))
    value = st.one_of(
        st.floats(-1e4, 1e4),
        # exact half-spacing ties, negative ones included
        st.integers(-200, 200).map(lambda k: (k + 0.5) * spacing),
    )
    shots = draw(st.integers(1, 6))
    return lay, [[draw(value) for _ in range(m)] for _ in range(shots)]


@settings(max_examples=200, deadline=None)
@given(shots_for_layout())
def test_post_process_matches_per_shot_reference(case):
    lay, ys = case
    bits = post_process(np.array(ys), lay)
    assert bits.dtype == np.int64 and bits.shape == (len(ys), lay.n)
    assert bits.tolist() == per_shot_reference(ys, lay)


def test_post_process_ties_go_to_even():
    lay = EncodingLayout(n=3, m=2)  # ell = 2, K = 1
    spacing = math.sqrt(2.0 * math.pi / 4)
    ks = np.array([0.5, 1.5, 2.5, 4.5])  # (3.5 * spacing) / spacing is not exactly 3.5
    ys = np.column_stack([ks, -ks]) * spacing
    assert np.array_equal(np.abs(ys / spacing), np.column_stack([ks, ks]))  # the ties are exact
    # k + 1/2 rounds to the even one of k, k + 1; -(k + 1/2) to its negative, mod 4
    assert post_process(ys, lay).tolist() == [[0, 0, 0], [1, 0, 1], [1, 0, 1], [0, 0, 0]]


def test_post_process_shapes():
    lay1 = EncodingLayout(n=2, m=1)
    three = 3 * math.sqrt(2 * math.pi / 4)
    assert post_process(three, lay1).tolist() == [1, 1]  # a bare scalar is one m=1 outcome
    assert post_process(np.full((2, 5, 1), three), lay1).shape == (2, 5, 2)
    lay2 = EncodingLayout(n=3, m=2)
    assert post_process(np.zeros((7, 2)), lay2).shape == (7, 3)
    with pytest.raises(ValueError, match="expected 2 homodyne values"):
        post_process(np.zeros((7, 3)), lay2)
    with pytest.raises(ValueError, match="expected 2 homodyne values"):
        post_process(0.0, lay2)


def test_sample_encoded_state_decodes_in_one_call(monkeypatch):
    lay = EncodingLayout(n=2, m=1)
    states = encode_basis_state((1, 0), lay, 0.02)
    calls = []

    def counting(ys, layout):
        calls.append(ys)
        return post_process(ys, layout)

    monkeypatch.setattr(pipeline, "post_process", counting)
    samples = sample_encoded_state(states, lay, 10_000, seed=3)
    [ys] = calls
    # an m = 1 layout reads exactly the stream of one homodyne_sample call on the
    # dense state that holds the support's values at its cells
    [support] = states
    amps = np.zeros(support.grid.n_points, dtype=complex)
    amps[support.cells] = support.values
    dense = HybridState(1, 0, (support.grid,), amps)
    assert np.array_equal(ys, homodyne_sample(dense, 10_000, seed=3)[0])
    assert samples.shape == (10_000, 2) and samples.dtype == np.int64
    assert set(map(tuple, samples.tolist())) == {(1, 0)}


@pytest.mark.parametrize("shots", [0, -1])
def test_run_rejects_bad_shot_counts_before_encoding(shots, monkeypatch):
    def no_encoding(*args, **kwargs):
        raise AssertionError("encoded a state for a bad shot count")

    monkeypatch.setattr(pipeline, "encode_mode", no_encoding)
    with pytest.raises(ValueError, match="shots"):
        run_sampling_scheme(Circuit(0, 2, ()), n=2, m=1, delta=0.05, shots=shots, seed=0)


def test_encode_measure_decode_roundtrip():
    cases = {(2, 1): 0.02, (3, 2): 0.125, (4, 2): 0.125}
    for (n, m), delta in cases.items():
        lay = EncodingLayout(n=n, m=m)
        for x in range(2 ** n):
            bits = tuple((x >> (n - 1 - i)) & 1 for i in range(n))
            st = encode_basis_state(bits, lay, delta)
            samples = sample_encoded_state(st, lay, 40, seed=x)
            assert set(map(tuple, samples.tolist())) == {bits}


def test_error_budget_examples():
    b = error_budget(1, 2, 1e-3, 10)
    assert b.eps_prep == pytest.approx(50 * (math.sqrt(1e-3) + 16 * 1e-6))
    assert b.eps_gate == pytest.approx(96.0)
    assert b.eps_final == b.eps_prep + b.eps_gate
    assert b.l1_bound == 2.0
    assert error_budget(1, 2, 1e-3, 0).eps_gate == 0.0
    b2 = error_budget(1, 2, 1e-8, 10)
    assert b2.eps_prep == pytest.approx(50 * (1e-4 + 16 * 1e-16))
    assert b2.eps_gate == pytest.approx(9.6e-4)
    assert b2.l1_bound == b2.eps_final


@pytest.mark.parametrize(
    "m, ell, delta",
    [(1, 1, 0.02), (2, 1, 0.05), (5, 2, 0.1), (3, 3, 1e-3), (512, 2, 0.02),  # Delta <= 2^-(ell+1)
     (1, 1, 0.26), (4, 2, 0.13), (2, 3, 0.07),  # past it: no preparation, T_prep = 0
     (1, 1, 0.25), (3, 1, 0.25)],  # Delta = 2^-(ell+1) but not < 1/4: no preparation either
)
def test_budget_prep_size_is_the_wprep_size_without_building_it(m, ell, delta, monkeypatch):
    try:
        want = build_wprep(m, ell, delta).size
    except ValueError:  # the builders refuse (ell, Delta)
        want = 0

    def refuse(*args):
        raise AssertionError("error_budget built the whole W_prep")

    monkeypatch.setattr(pipeline, "build_wprep", refuse)
    b = error_budget(m, ell, delta, 3)
    assert b.t_prep == want and b.t_total == want + b.t_logical


def test_budget_sizes_bound_exact_counts():
    b = error_budget(2, 1, 0.05, 4)
    assert b.t_prep == build_wprep(2, 1, 0.05).size
    assert b.t_logical == 4 * (4 * 36 + 1)
    assert b.t_total == b.t_prep + b.t_logical


def test_run_identity_scheme():
    run = run_sampling_scheme(Circuit(0, 2, ()), n=2, m=1, delta=0.02,
                              shots=400, seed=5)
    assert set(map(tuple, run.samples.tolist())) == {(0, 0)}
    assert run.budget.eps_gate == 0.0
    assert run.energy_report["g_bar_max"] > 1


def test_run_logical_x():
    u = Circuit(0, 2, (qubit_gate("X", 1),))
    run = run_sampling_scheme(u, n=2, m=1, delta=0.02, shots=400, seed=6)
    assert set(map(tuple, run.samples.tolist())) == {(0, 1)}
    u2 = Circuit(0, 2, (qubit_gate("X", 0),))
    run2 = run_sampling_scheme(u2, n=2, m=1, delta=0.02, shots=400, seed=7)
    assert set(map(tuple, run2.samples.tolist())) == {(1, 0)}


@pytest.mark.parametrize("qubits, want", [((1, 1), (0, 0)), ((0, 1, 1), (1, 0))])
def test_run_cancels_repeated_logical_x(qubits, want):
    # X on bit 0 twice flips it back; a shift by 2 sqrt(2 pi / d) would carry into bit 1
    u = Circuit(0, 2, tuple(qubit_gate("X", q) for q in qubits))
    run = run_sampling_scheme(u, n=2, m=1, delta=0.05, shots=1000, seed=0)
    assert set(map(tuple, run.samples.tolist())) == {want}


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=8), st.integers(0, 2**31))
def test_run_decodes_to_the_xor_of_the_flips(qubits, seed):
    want = [0] * 6
    for q in qubits:
        want[q] ^= 1
    u = Circuit(0, 6, tuple(qubit_gate("X", q) for q in qubits))
    samples = run_sampling_scheme(u, n=6, m=3, delta=0.02, shots=200, seed=seed).samples
    assert set(map(tuple, samples.tolist())) == {tuple(want)}


def test_run_builds_one_comb_and_simulates_nothing(monkeypatch):
    calls = []
    real = pipeline.encode_mode

    def counting_encode(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the sampling run called apply_circuit")

    monkeypatch.setattr(pipeline, "encode_mode", counting_encode)
    monkeypatch.setattr(pipeline, "apply_circuit", refuse)
    u = Circuit(0, 16, (qubit_gate("X", 0), qubit_gate("X", 5), qubit_gate("X", 5), qubit_gate("X", 15)))
    samples = run_sampling_scheme(u, n=16, m=8, delta=0.05, shots=100, seed=1).samples
    assert len(calls) == 1
    assert set(map(tuple, samples.tolist())) == {(1,) + (0,) * 14 + (1,)}


def test_run_rejects_general_gates():
    u = Circuit(0, 2, (qubit_gate("H", 0),))
    with pytest.raises(ValueError, match="restricted to X"):
        run_sampling_scheme(u, n=2, m=1, delta=0.02, shots=10, seed=0)


def test_encoded_superposition_frequencies():
    lay = EncodingLayout(n=2, m=1)
    states = encode_state({(0, 1): 1.0, (1, 0): 1.0}, lay, 0.02)
    samples = sample_encoded_state(states, lay, 6000, seed=8)
    counts = Counter(map(tuple, samples.tolist()))
    assert set(counts) == {(0, 1), (1, 0)}
    for k in counts:
        assert abs(counts[k] - 3000) < 3 * math.sqrt(6000 * 0.25)


@pytest.mark.parametrize(
    "amplitudes",
    [{}, {(0, 0): 0.0}, {(0, 0): 0.0, (1, 1): 0j}, {(0, 0): math.nan},
     {(0, 0): 1.0, (1, 1): math.inf}, {(0, 1): complex(1.0, math.nan)}],
    ids=["empty", "zero", "zeros", "nan", "inf", "nan-imag"],
)
def test_encode_state_refuses_no_state_before_building_a_mode(amplitudes, monkeypatch):
    def refuse(*args):
        raise AssertionError("a mode was built")

    monkeypatch.setattr(pipeline, "encode_basis_state", refuse)
    with pytest.raises(ValueError, match="finite coefficients, not all 0"):
        encode_state(amplitudes, EncodingLayout(2, 1), 0.05)


def test_encode_state_refuses_a_sum_that_underflows():
    with pytest.raises(ValueError, match="cannot normalize a state of norm 0.0"):
        encode_state({(0, 0): 1e-300}, EncodingLayout(2, 1), 0.05)


def _dense_sum(supports, weights):
    """The normalized sum of each support at unit norm times its weight, on the whole grid."""
    total = 0
    for support, weight in zip(supports, weights):
        amps = np.zeros(support.grid.n_points, dtype=complex)
        amps[support.cells] = support.values / np.linalg.norm(support.values)
        total = total + weight * amps
    return total / np.linalg.norm(total)


@pytest.mark.parametrize("delta, amplitudes, shared, copies", [
    (0.02, {(0, 0): 1.0, (1, 1): 1.0}, 0, 2.2),  # criterion 4's superposition; real values
    (0.01, {(1, 0): 0.6, (1, 1): -0.8j}, 3, 3.2),  # j = 2 and 3 both keep 3 edge cells; complex
], ids=["criterion-4", "shared-edge"])
def test_encode_state_joins_the_supports(delta, amplitudes, shared, copies):
    lay = EncodingLayout(n=2, m=1)
    encode_state(amplitudes, lay, delta)  # first-call allocations of numpy
    counted = comb_support_size(comb_spec(delta, 4, 0), pipeline.encoding_grid(lay, delta))
    tracemalloc.start()
    try:
        [state] = encode_state(amplitudes, lay, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the joined terms, the stable sort's order and the sorted copies: about 2 (real) or
    # 3 (complex) times 16 B a counted cell of each term, and no grid-sized array
    assert peak <= copies * 16 * counted * len(amplitudes)
    bases = [encode_basis_state(bits, lay, delta)[0] for bits in amplitudes]
    assert len(np.intersect1d(bases[0].cells, bases[1].cells)) == shared
    want = _dense_sum(bases, amplitudes.values())
    assert np.array_equal(state.cells, np.flatnonzero(want))
    # the same amplitudes up to the rounding of the norms, summed in another order
    assert np.allclose(state.values, want[state.cells], rtol=1e-12, atol=0)
    assert np.linalg.norm(state.values) == pytest.approx(1.0, rel=1e-15)


def test_prep_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_prep_circuit(0, 0.1)
    with pytest.raises(ValueError):
        build_prep_circuit(2, 0.3)


def test_encode_basis_state_checks_mem_cap():
    # each mode's support at delta = 0.125 counts 76 cells (63 kept) of its 640-cell grid;
    # the two modes need 4 x 0.002432 MB, which a 0.009 MB cap refuses
    layout = EncodingLayout(n=4, m=2)
    with pytest.raises(ResourceCapError, match=re.escape("comb support needs 4 x 0.002432 MB > cap 0.009 MB")):
        encode_basis_state((0, 0, 0, 0), layout, 0.125, mem_cap_mb=0.009)
    assert len(encode_basis_state((0, 0, 0, 0), layout, 0.125, mem_cap_mb=0.01)) == 2


def test_run_caps_shot_arrays_before_encoding():
    # the 18,432-cell grid needs 4 x 0.29 MB; 10^6 shots add 32 MB of arrays, past a 20 MB cap
    u = Circuit(0, 2, ())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="32 MB of shots > cap 20 MB"):
            run_sampling_scheme(u, 2, 1, 0.05, 10**6, 0, mem_cap_mb=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # raised before the grid or any shot array was allocated
    assert run_sampling_scheme(u, 2, 1, 0.05, 10**5, 0, mem_cap_mb=20).samples.shape == (10**5, 2)


def test_run_rejects_an_inadmissible_delta_before_sampling(monkeypatch):
    # n=16, m=4 has ell=4, so delta must be <= 2^-5; 0.05 is not
    calls = []

    def counting_sample(*args, **kwargs):
        calls.append(1)
        return sample_cells(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sample_cells", counting_sample)
    with pytest.raises(ValueError, match=re.escape("delta <= 2^-(ell+1)")):
        run_sampling_scheme(Circuit(0, 16, ()), 16, 4, 0.05, 1000, 0)
    assert calls == []


def test_m2_share_of_1001_is_the_product_of_the_mode_probabilities():
    # X:1 and X:4 put mode 0 at index 2 and mode 1 at index 1; the modes are sampled apart
    n, m, delta, shots = 4, 2, 0.125, 10**5
    lay = EncodingLayout(n=n, m=m)
    u = Circuit(0, n, (qubit_gate("X", 0), qubit_gate("X", 3)))
    p = 1.0
    for j in (2, 1):  # the code state of index j, simulated from the j = 0 comb
        shift = Circuit(1, 0, (disp_p(0, j * math.sqrt(2 * math.pi / lay.d)),))
        comb = comb_wavefunction(comb_spec(delta, lay.d, 0), pipeline.encoding_grid(lay, delta))
        state = apply_circuit(comb, shift)
        xs = state.grids[0].xs
        p *= float(state.position_density()[discretize(xs, lay.ell) == j].sum())
    assert 0.9 < p < 1.0  # the truncated comb leaks a few percent into the neighbour indices
    samples = run_sampling_scheme(u, n, m, delta, shots, seed=4).samples
    share = float(np.all(samples == [1, 0, 0, 1], axis=1).mean())
    assert abs(share - p) <= 6 * math.sqrt(p * (1 - p) / shots)


def test_run_holds_one_mode_at_a_time():
    # n=16, m=8 at delta = 0.05: eight modes of 18,432 cells, two bits each
    n, m, delta, shots = 16, 8, 0.05, 1000
    u = Circuit(0, n, (qubit_gate("X", 0), qubit_gate("X", 5), qubit_gate("X", 15)))
    run_sampling_scheme(u, n, m, delta, 10, seed=0)  # first-call allocations of numpy
    grid = pipeline.encoding_grid(EncodingLayout(n=n, m=m), delta)
    assert grid.n_points == 18_432
    cells = comb_support_size(comb_spec(delta, 4, 0), grid)  # as the cap counts one mode's support
    assert cells == 4_288
    tracemalloc.start()
    try:
        samples = run_sampling_scheme(u, n, m, delta, shots, seed=2).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    shot_bytes = 8 * (2 * m + n) * shots  # as run_sampling_scheme counts them for the cap
    assert peak <= WORKING_SET_COPIES * 16 * cells + shot_bytes
    assert set(map(tuple, samples.tolist())) == {(1, 0, 0, 0, 0, 1) + (0,) * 9 + (1,)}


def _dense_bits(states, layout, shots, seed):
    """The dense oracle: ``homodyne_sample`` of each mode's whole grid from one stream, then ``post_process``."""
    rng = np.random.default_rng(seed)
    return post_process(np.hstack([homodyne_sample(state, shots, rng)[0] for state in states]), layout)


@pytest.mark.parametrize("n, m, delta, flipped", [(2, 1, 0.01, (0, 1)), (4, 2, 0.125, (0, 3))])
def test_run_gives_the_bits_of_the_dense_path(n, m, delta, flipped):
    # perfbench's two `sample` shapes (X:1,X:2 and X:1,X:4); each mode's dense comb is
    # the j = 0 comb rolled by j 2^k cells, as the support is moved
    lay = EncodingLayout(n=n, m=m)
    grid = pipeline.encoding_grid(lay, delta)
    comb = comb_wavefunction(comb_spec(delta, lay.d, 0), grid)
    step = round(math.sqrt(2 * math.pi / lay.d) / grid.dx)
    bits = [0] * n
    for q in flipped:
        bits[q] ^= 1
    states = [HybridState(1, 0, (grid,), np.roll(comb.amps, j * step)) for j in lay.indices_for_bits(bits)]
    u = Circuit(0, n, tuple(qubit_gate("X", q) for q in flipped))
    for seed in (1, 2, 3):
        samples = run_sampling_scheme(u, n, m, delta, 2000, seed).samples
        assert np.array_equal(samples, _dense_bits(states, lay, 2000, seed))


@pytest.mark.parametrize("delta, amplitudes", [
    (0.02, {(0, 0): 1.0, (1, 1): 1.0}),  # criterion 4's superposition
    (0.01, {(1, 0): 0.6, (1, 1): -0.8j}),  # two supports that share 3 edge cells
], ids=["criterion-4", "shared-edge"])
def test_encoded_superposition_gives_the_bits_of_the_dense_path(delta, amplitudes):
    # the dense oracle sums the normalized dense combs of the terms, as a whole-grid state
    lay = EncodingLayout(n=2, m=1)
    grid = pipeline.encoding_grid(lay, delta)
    total = 0
    for bits, coeff in amplitudes.items():
        [j] = lay.indices_for_bits(bits)
        total = total + coeff * comb_wavefunction(comb_spec(delta, 4, j), grid).amps
    dense = HybridState(1, 0, (grid,), total).normalize()
    states = encode_state(amplitudes, lay, delta)
    for seed in (4, 5):
        samples = sample_encoded_state(states, lay, 2000, seed)
        assert np.array_equal(samples, _dense_bits([dense], lay, 2000, seed))
        assert set(map(tuple, samples.tolist())) == set(amplitudes)


def test_run_at_large_ell_holds_no_grid_sized_array():
    # n = 16 bits in one mode: a d = 2^16 comb of 63 cells on a 7,864,320-point grid
    n, delta = 16, 2.0 ** -17
    u = Circuit(0, n, (qubit_gate("X", 0),))
    grid = pipeline.encoding_grid(EncodingLayout(n=n, m=1), delta)
    assert grid.n_points == 7_864_320
    run_sampling_scheme(u, n, 1, delta, 10, seed=0)  # first-call allocations of numpy
    tracemalloc.start()
    try:
        samples = run_sampling_scheme(u, n, 1, delta, 1000, seed=1).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * 16 * grid.n_points
    # j = 2^15: a kept edge cell, a rounding tie, decodes to the even neighbour j itself
    assert set(map(tuple, samples.tolist())) == {(1,) + (0,) * 15}
