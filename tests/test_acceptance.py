"""Acceptance suite: runs every criterion at its stated tolerance and prints
one pass/fail line per criterion (also available via `hqoc verify --full`)."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import hqoc.acceptance as acceptance
from hqoc.acceptance import ALL_CRITERIA, STRENGTH, random_circuit
from hqoc.circuit import KINDS, Circuit, Gate, qubit_gate, squeeze


@pytest.mark.parametrize("number", sorted(ALL_CRITERIA))
def test_acceptance_criterion(number):
    result = ALL_CRITERIA[number]()
    print(result.line())
    assert result.number == number
    assert result.passed, f"criterion {number} failed: {result.details}"
    if result.limit is not None:
        assert result.runtime < result.limit


def test_criteria_table_holds_the_module_criteria():
    # the traced benchmark run rebinds both names to one wrapper, so they must be one callable
    assert sorted(ALL_CRITERIA) == list(range(1, 13))
    for k in range(1, 13):
        assert ALL_CRITERIA[k] is getattr(acceptance, f"criterion_{k}")


def test_criterion_fails_a_check_past_its_limit():
    def check():
        time.sleep(0.005)
        return True, {"slept": True}

    late = acceptance.criterion(99, "slow check", limit=0.001)(check)()
    assert late.passed is False
    assert (late.number, late.name, late.limit, late.details) == (99, "slow check", 0.001, {"slept": True})
    assert late.runtime >= 0.005
    assert acceptance.criterion(99, "slow check", limit=60)(check)().passed is True
    assert acceptance.criterion(99, "failing check")(lambda: (False, {}))().passed is False


def test_criterion_4_details_are_pinned():
    # the counts of its 10,000-shot superposition: 5,001 and 4,999 (or the reverse)
    assert acceptance.criterion_4().details == {"deterministic": True, "chi2": 0.0004, "stray": 0}


def test_criterion_8_allocates_no_n_by_n_matrix():
    # one float64 matrix of the criterion's n_quad = 1024 would be 8 x 1024^2 B
    acceptance.criterion_8()  # first-call allocations of numpy
    tracemalloc.start()
    try:
        result = acceptance.criterion_8()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 8 * 1024**2


def random_circuit_by_choice(rng, max_gates=12):
    """``random_circuit`` drawing its gate mix with ``rng.choice`` on lists of names."""
    T = int(rng.integers(1, max_gates + 1))
    gates = []
    for _ in range(T):
        kind = rng.choice(
            ["disp_q", "disp_p", "ctrl_disp_q", "ctrl_disp_p", "squeeze", "qubit_gate"]
        )
        if kind == "squeeze":
            al = float(np.exp(rng.uniform(-math.log(STRENGTH), math.log(STRENGTH))))
            gates.append(squeeze(0, al))
        elif kind == "qubit_gate":
            gates.append(qubit_gate(str(rng.choice(["H", "S", "T", "X", "Z"])), 0))
        elif KINDS[kind].controlled:
            gates.append(Gate(kind=kind, mode=0, qubit=0, t=float(rng.uniform(-STRENGTH, STRENGTH))))
        else:
            gates.append(Gate(kind=kind, mode=0, t=float(rng.uniform(-STRENGTH, STRENGTH))))
    return Circuit(1, 1, tuple(gates))


def test_random_circuit_matches_choice_draws():
    for seed in range(200):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_circuit(fast, max_gates=16) == random_circuit_by_choice(ref, max_gates=16)
        assert fast.random() == ref.random()  # the stream continues in step


@pytest.mark.parametrize("number", [5, 7, 9])
def test_random_circuit_criteria_details_match_choice_draws(number, monkeypatch):
    details = ALL_CRITERIA[number]().details
    monkeypatch.setattr(acceptance, "random_circuit", random_circuit_by_choice)
    assert ALL_CRITERIA[number]().details == details


def test_criterion_5_runs_one_fft_per_checked_prefix(monkeypatch):
    # FFTs made by the gates themselves (incommensurate shifts) are not counted
    import hqoc.simulator as simulator

    calls = {"fft": 0, "prefixes": 0, "in_gate": False}
    fft, apply_inplace, apply_circuit = np.fft.fft, simulator._apply_inplace, acceptance.apply_circuit

    def counting_fft(*args, **kwargs):
        calls["fft"] += not calls["in_gate"]
        return fft(*args, **kwargs)

    def gate(*args):
        calls["in_gate"] = True
        try:
            apply_inplace(*args)
        finally:
            calls["in_gate"] = False

    def counting_apply_circuit(state, c, callback=None):
        calls["prefixes"] += len(c.gates) + 1  # the vacuum is checked too
        return apply_circuit(state, c, callback=callback)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    monkeypatch.setattr(simulator, "_apply_inplace", gate)
    monkeypatch.setattr(acceptance, "apply_circuit", counting_apply_circuit)
    assert acceptance.criterion_5().passed
    assert calls["prefixes"] > 200
    assert calls["fft"] == calls["prefixes"]
