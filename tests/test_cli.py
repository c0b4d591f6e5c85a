import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from hqoc.circuit import Circuit, disp_p, disp_q, qubit_gate, serialize_circuit, squeeze
from hqoc.cli import build_parser, main
from hqoc.pipeline import build_wprep, prep_size_formula, run_sampling_scheme
from hqoc.simulator import GRID_ODD_FACTORS


@pytest.fixture
def circuit_file(tmp_path):
    c = Circuit(1, 1, (squeeze(0, 1.5), disp_q(0, 4.0)))
    path = tmp_path / "circuit.json"
    path.write_text(serialize_circuit(c))
    return path


def test_analyze(circuit_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(circuit_file), "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["per_mode"][0]["g_bar"] == pytest.approx(1.5)
    assert report["per_mode"][0]["xi_bar"] == pytest.approx(4.0)
    assert "energy_upper_bound" in report


@pytest.mark.parametrize("field", ["modes", "qubits"])
def test_analyze_rejects_null_blackbox_field(field, tmp_path, capsys):
    gate = {"kind": "blackbox", "modes": [0], "qubits": [0], "g_bar": 2.0, "xi_bar": 1.0}
    gate[field] = None
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"m": 1, "r": 1, "gates": [gate]}))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"error: missing field {field!r} for 'blackbox' at gate 1\n"


@pytest.mark.parametrize("doc, message", [
    ({"m": 1, "r": 0, "gates": 5}, "'gates' must be a list of gate objects"),
    ({"m": 1, "r": 0, "gates": None}, "'gates' must be a list of gate objects"),
    ({"m": 1, "r": 0, "gates": [{"kind": "disp_q", "mode": 0, "t": True}]},
     "field 't' must be a number, got True"),
])
def test_analyze_refuses_malformed_documents(doc, message, tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_substitute(circuit_file, tmp_path, capsys):
    out = tmp_path / "sub.json"
    assert main(["substitute", str(circuit_file), "--out", str(out)]) == 0
    from hqoc.circuit import parse_circuit

    sub = parse_circuit(out.read_text())
    assert all(abs(g.t) <= 1 for g in sub.gates if g.kind == "disp_q")


def test_simulate(circuit_file, tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", str(circuit_file), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["norm"] == pytest.approx(1.0, abs=1e-9)
    assert payload["energy_max"] <= payload["analysis"]["energy_upper_bound"]


@pytest.mark.parametrize("r", [0, 1, 2])
def test_simulate_circuit_with_no_mode(r, tmp_path):
    # r = 0 holds a 0-d amplitude array: the empty circuit on the empty register
    path, out = tmp_path / "circuit.json", tmp_path / "sim.json"
    path.write_text(json.dumps({"m": 0, "r": r, "gates": []}))
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["norm"], payload["grids"], payload["energy_per_mode"]) == (1.0, [], [])


def test_prep_gate_count(tmp_path):
    out = tmp_path / "prep.json"
    assert main(["prep", "--n", "3", "--delta", "0.02", "--emit", str(out)]) == 0
    from hqoc.circuit import parse_circuit

    c = parse_circuit(out.read_text())
    assert len(c.gates) == prep_size_formula(3, 0.02)


def test_prep_requires_parameters(capsys):
    assert main(["prep", "--delta", "0.02"]) == 1


def test_prep_refuses_both_n_and_ell(capsys):
    # exit 1, not argparse's usage exit 2, which is kept for resource caps
    assert main(["prep", "--n", "3", "--ell", "1", "--delta", "0.02"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "exactly one of --ell and --n" in err


def test_sample_deterministic(tmp_path):
    args = ["sample", "--n", "2", "--m", "1", "--delta", "0.02", "--shots", "50",
            "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    bud = tmp_path / "budget.json"
    assert main(args + ["--out", str(out1), "--budget-out", str(bud)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert set(out1.read_text().splitlines()) == {"00"}
    budget = json.loads(bud.read_text())["budget"]
    assert budget["eps_gate"] == 0.0
    assert budget["sizes"]["T_total"] == budget["sizes"]["T_prep"]


def test_sample_logical_x(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["sample", "--n", "2", "--m", "1", "--delta", "0.02", "--shots",
                 "20", "--seed", "1", "--logical", "X:2", "--out", str(out)]) == 0
    assert set(out.read_text().splitlines()) == {"01"}


@pytest.mark.parametrize("shots", ["0", "-1"])
def test_sample_rejects_bad_shot_counts(shots, tmp_path, capsys):
    out = tmp_path / "s.csv"
    args = ["sample", "--n", "2", "--m", "1", "--delta", "0.05", "--shots", shots, "--out", str(out)]
    assert main(args) == 1
    assert "shots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, m, delta, logical", [(2, 1, 0.02, "X:2"), (3, 2, 0.125, "X:1,X:3")])
def test_sample_csv_matches_per_row_join(n, m, delta, logical, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sample", "--n", str(n), "--m", str(m), "--delta", str(delta), "--shots", "300",
                 "--seed", "11", "--logical", logical, "--out", str(out)]) == 0
    gates = tuple(qubit_gate("X", int(item[2:]) - 1) for item in logical.split(","))
    run = run_sampling_scheme(Circuit(0, n, gates), n, m, delta, 300, 11)
    lines = ["".join(map(str, bits.tolist())) for bits in run.samples]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n, m, logical, want", [
    (4, 2, None, "0000"),
    (16, 8, "X:1,X:6,X:16", "1000010000000001"),
])
def test_sample_runs_many_modes_under_the_default_cap(n, m, logical, want, tmp_path):
    # one mode's grid at delta = 0.05 is 18,432 cells whatever m is; no grid^m tensor
    out = tmp_path / "s.csv"
    args = ["sample", "--n", str(n), "--m", str(m), "--delta", "0.05", "--out", str(out)]
    assert main(args + (["--logical", logical] if logical else [])) == 0
    assert Counter(out.read_text().split()) == Counter({want: 1000})


@pytest.mark.parametrize("logical, want", [("X:2,X:2", "00"), ("X:1,X:2,X:2", "10")])
def test_sample_repeated_logical_x_cancels(logical, want, tmp_path):
    out = tmp_path / "s.csv"
    args = ["sample", "--n", "2", "--m", "1", "--delta", "0.05", "--logical", logical, "--out", str(out)]
    assert main(args) == 0
    assert Counter(out.read_text().split()) == Counter({want: 1000})


def test_sample_runs_24_bits_in_one_mode_under_the_default_cap(tmp_path):
    # d = 2^24: 63 support cells of a 2,013,265,920-point grid that is never built
    out = tmp_path / "s.csv"
    args = ["sample", "--n", "24", "--m", "1", "--delta", "2.9802322387695312e-08", "--shots", "200",
            "--logical", "X:1", "--out", str(out)]
    assert main(args) == 0
    assert Counter(out.read_text().split()) == Counter({"1" + "0" * 23: 200})


def test_tradeoff_table(tmp_path):
    out = tmp_path / "table.json"
    assert main(["tradeoff", "--table", "--n-values", "16,64,256", "--out",
                 str(out)]) == 0
    table = json.loads(out.read_text())["table"]
    assert {row["regime"] for row in table} == {"m=1", "m=ceil(sqrt(n))", "m=n"}


@pytest.mark.parametrize("n_values", ["16", "16,32", "16,32,32"])
def test_tradeoff_table_needs_three_distinct_n(n_values, capsys):
    assert main(["tradeoff", "--table", "--n-values", n_values]) == 1
    assert "the regime fit needs at least 3 distinct n values" in capsys.readouterr().err


def test_prep_rejects_ell_below_one(capsys):
    assert main(["prep", "--ell", "-3", "--delta", "0.1"]) == 1
    assert "ell must be >= 1, got -3" in capsys.readouterr().err


def test_tradeoff_point_queries(tmp_path):
    out = tmp_path / "point.json"
    assert main(["tradeoff", "--n", "10", "--m", "2", "--s", "100", "--epsilon",
                 "0.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["required_energy"]["log2"] > 0


@pytest.mark.parametrize("energy", ["inf", "nan", "0"])
def test_tradeoff_refuses_energy_that_is_not_finite_and_positive(energy, capsys):
    assert main(["tradeoff", "--energy", energy]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "energy must be > 0 and finite" in err


def test_lowerbound(tmp_path):
    out = tmp_path / "lb.json"
    assert main(["lowerbound", "--d", "2", "--m", "1", "--r", "0", "--delta",
                 str(1 / 36), "--R", "1.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["radius_dimension_bound"] == pytest.approx(math.sqrt(math.pi) / 2)
    assert payload["donoho_stark"]["trace"] == pytest.approx(4 / math.pi, rel=0.005)


@pytest.mark.parametrize("R", ["0", "nan", "inf"])
def test_lowerbound_rejects_bad_R(R, tmp_path, capsys):
    out = tmp_path / "lb.json"
    assert main(["lowerbound", "--d", "4", "--R", R, "--out", str(out)]) == 1
    assert "R must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_lowerbound_refuses_blocks_over_the_mem_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HQOC_MEM_CAP_MB", raising=False)
    out = tmp_path / "lb.json"
    tracemalloc.start()
    try:
        code = main(["lowerbound", "--d", "4", "--R", "1", "--n-quad", "200000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "Donoho-Stark blocks need 160000 MB > cap 1024 MB" in capsys.readouterr().err
    assert peak < 8 * 200_000  # not even the kernel's grid was built
    assert not out.exists()


def test_verify_subset(capsys):
    assert main(["verify", "--criteria", "11,12"]) == 0
    out = capsys.readouterr().out
    assert "criterion 11" in out and "criterion 12" in out


def test_unknown_criteria_rejected():
    assert main(["verify", "--criteria", "99"]) == 1


@pytest.mark.parametrize(
    "criteria, message",
    [
        ("99", "unknown criteria: [99]"),
        ("11,1,11", "criteria given more than once: [11]"),
        ("", "--criteria selects no criteria"),
        (" ", "--criteria selects no criteria"),
    ],
)
def test_verify_refuses_numbers_with_value_error(criteria, message, capsys):
    args = build_parser().parse_args(["verify", "--criteria", criteria])
    with pytest.raises(ValueError) as info:
        args.func(args)
    assert type(info.value) is ValueError and str(info.value) == message
    assert capsys.readouterr().out == ""  # refused before any criterion ran


def test_missing_file_is_validation_error():
    assert main(["analyze", "/nonexistent/circuit.json"]) == 1


def test_mem_cap_exit_code(circuit_file):
    assert main(["simulate", str(circuit_file), "--mem-cap-mb", "0.0001"]) == 2


def test_simulate_many_modes_exits_on_the_cap(tmp_path, capsys):
    # 81 modes: the joint grid's byte count passes the float range
    path = tmp_path / "wprep.json"
    path.write_text(serialize_circuit(build_wprep(80, 1, 0.02)))
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err == "error: grid needs 4 x 1.46828e+414 MB > cap 1024 MB\n"


@pytest.mark.parametrize("alpha", [1e-200, 1e200])
def test_simulate_refuses_a_squeeze_factor_past_the_float_range(alpha, tmp_path, capsys):
    path = tmp_path / "squeezed.json"
    path.write_text(serialize_circuit(Circuit(1, 0, (squeeze(0, alpha),) * 2)))
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == "error: mode 0's squeeze factor leaves the float range at gate 2\n"


@pytest.mark.parametrize("gate, axis", [(disp_p, "position"), (disp_q, "momentum")])
def test_simulate_refuses_a_window_past_the_float_range(gate, axis, tmp_path, capsys):
    path = tmp_path / "shifted.json"
    path.write_text(serialize_circuit(Circuit(1, 0, (gate(0, 1e308),) * 2)))
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: mode 0's {axis} window leaves the float range at gate 2\n"


def test_simulate_grid_points_checks_mem_cap(circuit_file):
    # the automatic 256-point grid fits 1 MB; 65,536 points x 2 branches need 4 x 2 MB
    args = ["simulate", str(circuit_file), "--mem-cap-mb", "1"]
    assert main(args) == 0
    assert main(args + ["--grid-points", "65536"]) == 2


def test_sample_logical_gate_at_ell_3(tmp_path):
    out, bud = tmp_path / "x.csv", tmp_path / "budget.json"
    assert main(["sample", "--n", "3", "--m", "1", "--delta", "0.01", "--logical", "X:1",
                 "--shots", "10", "--out", str(out), "--budget-out", str(bud)]) == 0
    assert set(out.read_text().splitlines()) == {"100"}

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads(bud.read_text(), parse_constant=reject)["energy_report"]
    assert math.isfinite(report["log2_energy_upper_bound"])
    assert report["energy_upper_bound"] is None  # overflowed: the log2 field carries it


@pytest.mark.parametrize("n_points", [128, 1024, 147456])
def test_simulate_grid_points_recentres_and_holds_dx(circuit_file, tmp_path, n_points):
    # the automatic grid here has 256 points; the wide margin lets half of them hold the state
    auto, forced = tmp_path / "auto.json", tmp_path / "forced.json"
    args = ["simulate", str(circuit_file), "--margin", "1.5"]
    assert main(args + ["--out", str(auto)]) == 0
    assert main(args + ["--grid-points", str(n_points), "--out", str(forced)]) == 0
    a, f = json.loads(auto.read_text()), json.loads(forced.read_text())
    assert a["grids"][0]["n_points"] == 256
    grid = f["grids"][0]
    assert grid["n_points"] == n_points
    assert grid["dx"] == a["grids"][0]["dx"]
    assert grid["x0"] == pytest.approx(-(n_points // 2) * grid["dx"], rel=1e-12)
    assert f["norm"] == pytest.approx(1.0, abs=1e-9)
    assert f["energy_max"] == pytest.approx(a["energy_max"], rel=1e-9)


@pytest.fixture
def kicked_file(tmp_path):
    path = tmp_path / "kicked.json"
    path.write_text('{"m": 1, "r": 0, "gates": [{"kind": "disp_p", "mode": 0, "t": 20.0}]}')
    return path


def test_simulate_grid_points_keeps_the_energy_where_the_packet_fits(kicked_file, tmp_path):
    for extra in ([], ["--grid-points", "256"], ["--grid-points", "512"]):
        out = tmp_path / "out.json"
        assert main(["simulate", str(kicked_file), "--out", str(out)] + extra) == 0
        assert json.loads(out.read_text())["energy_max"] == pytest.approx(401.0, rel=1e-12)


@pytest.mark.parametrize("n_points", [64, 72, 80, 96, 128])
def test_simulate_grid_points_refuses_a_grid_the_packet_leaves(kicked_file, tmp_path, capsys, n_points):
    # the packet moves to [14.9, 25.1]; on these sizes it wrapped round to a wrong energy
    out = tmp_path / "out.json"
    assert main(["simulate", str(kicked_file), "--grid-points", str(n_points), "--out", str(out)]) == 1
    assert f"{n_points}-point grid too narrow for mode 0 at gate 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_grid_points_checks_mem_cap_on_the_forced_grid(tmp_path):
    # the automatic grid (10,240 points) needs 4 x 0.164 MB; 8192 forced points 4 x 0.131 MB
    path, out = tmp_path / "kick.json", tmp_path / "out.json"
    path.write_text('{"m": 1, "r": 0, "gates": [{"kind": "disp_q", "mode": 0, "t": 2000.0}]}')
    args = ["simulate", str(path), "--mem-cap-mb", "0.6", "--out", str(out)]
    assert main(args) == 2
    assert main(args + ["--grid-points", "8192"]) == 0
    result = json.loads(out.read_text())
    assert result["grids"][0]["n_points"] == 8192
    assert result["norm"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_grid_points_refuses_sizes_outside_the_rule(circuit_file, capsys):
    assert main(["simulate", str(circuit_file), "--grid-points", "1000"]) == 1
    assert "n_points must be m * 2^k with m in (1, 3, 5, 9, 15) and k >= 1, got 1000" in (
        capsys.readouterr().err
    )


def test_simulate_grid_points_zero_is_refused(circuit_file, capsys):
    assert main(["simulate", str(circuit_file), "--grid-points", "0"]) == 1
    assert "k >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "-0.5", "inf", "nan"])
def test_simulate_margin_must_be_finite_and_non_negative(circuit_file, capsys, value):
    assert main(["simulate", str(circuit_file), f"--margin={value}"]) == 1
    assert f"base_margin must be finite and >= 0, got {float(value)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--m", "0", "--epsilon", "0.1"],
        ["--m", "-1", "--epsilon", "0.1"],
        ["--s", "-300", "--epsilon", "0.1"],
        ["--n", "0", "--energy", "10"],
        ["--table", "--n-values", "0,1"],
    ],
)
def test_tradeoff_rejects_counts_out_of_range(args, capsys):
    assert main(["tradeoff"] + args) == 1
    assert "need n >= 1, m >= 1 and s >= 0" in capsys.readouterr().err


def test_sample_csv_stays_under_mem_cap(tmp_path):
    # 10^6 shots: 32 MB of shot arrays counted beside the grid; the CSV's uint8
    # rows, bytes and str (9 MB) come after the state is freed
    args = ["sample", "--n", "2", "--m", "1", "--delta", "0.05", "--shots", "1000000",
            "--out", str(tmp_path / "s.csv"), "--mem-cap-mb", "40"]
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_sample_mem_cap_exit_code(monkeypatch):
    args = ["sample", "--n", "2", "--m", "1", "--delta", "0.02", "--shots", "5"]
    assert main(args + ["--mem-cap-mb", "0.001"]) == 2
    monkeypatch.setenv("HQOC_MEM_CAP_MB", "0.001")
    assert main(args) == 2


def test_mem_cap_message_prints_the_sum_it_compared(capsys):
    # 4 x 0.068608 MB of comb support (4,288 cells) + 32 MB of shots = 32.27 MB;
    # whole MB would read 4 x 0 MB
    args = ["sample", "--n", "2", "--m", "1", "--delta", "0.05", "--shots", "1000000",
            "--mem-cap-mb", "32.2"]
    assert main(args) == 2
    assert "comb support needs 4 x 0.068608 MB + 32 MB of shots > cap 32.2 MB" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_mem_cap_must_be_finite_and_positive(circuit_file, monkeypatch, capsys, source, value):
    args = ["simulate", str(circuit_file)]
    if source == "flag":
        args.append(f"--mem-cap-mb={value}")
    else:
        monkeypatch.setenv("HQOC_MEM_CAP_MB", value)
    assert main(args) == 1
    name = "--mem-cap-mb" if source == "flag" else "HQOC_MEM_CAP_MB"
    assert f"{name} must be a finite number of MB > 0, got {value}" in capsys.readouterr().err


def test_grid_points_help_lists_the_odd_factors():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    action = next(a for a in sub.choices["simulate"]._actions if a.dest == "grid_points")
    listed = re.search(r"m in ([\d, ]+) and", action.help).group(1)
    assert tuple(int(v) for v in listed.split(", ")) == GRID_ODD_FACTORS
    assert "a grid too narrow for the circuit" in action.help


def test_import_loads_no_scipy():
    # scipy costs most of the package's import time; hqoc and its CLI use numpy only
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, hqoc, hqoc.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
