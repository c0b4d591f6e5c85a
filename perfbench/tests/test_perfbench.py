"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads = run.import_workloads()
import spans  # noqa: E402

# analysis_report of the random analyze circuit, computed by hqoc at the
# commit that introduced this benchmark
SEED_COMMIT_REPORTS = {
    1: {"g_bar_max": 1.3232244363872792e20, "xi_bar_max": 16856.540613898414,
        "log2_energy_upper_bound": 450.5710981112876, "substituted_gates": 167008},
    2: {"g_bar_max": 7.51605490485583e16, "xi_bar_max": 16999.26740837226,
        "log2_energy_upper_bound": 385.91682302699513, "substituted_gates": 166896},
}


def run_cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    doc = benchmark_json()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    proc = run_cli("--workload", "verify", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    doc = benchmark_json()
    declared = {m["name"]: m["unit"] for m in doc["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def traced_op(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = run.run_ops(workload, inputs, 0, tracer=tracer, log=lambda msg: None)
    finally:
        tracer.uninstall()
    assert out["failed"] == 0
    return tracer, max(tracer.op_wall)


def test_prep_gate_spans_sum_to_apply_circuit_and_cover_the_op(tmp_path):
    tracer, op = traced_op("prep", 1, tmp_path)
    assert tracer.gate_sum_ratio(op) == pytest.approx(1.0, rel=0.03)
    assert tracer.coverage(op) >= 0.9
    per_kind = tracer.op_metrics()[op]
    kinds = sum(per_kind[f"simulator.gate.{k}.s"] for k in spans.GATE_KINDS)
    assert kinds == pytest.approx(per_kind["simulator.apply_circuit.s"], rel=0.03)
    self_s = {name: sec for (o, name), sec in tracer.self_times().items() if o == op}
    assert max(self_s, key=self_s.get) == "simulator.gate.ctrl_disp_p"


@pytest.mark.parametrize("name", ["sample", "analyze"])
def test_spans_cover_the_op(name, tmp_path):
    tracer, op = traced_op(name, 2, tmp_path)
    assert tracer.coverage(op) >= 0.9


def test_tracer_restores_the_program(tmp_path):
    from hqoc import acceptance, cli, pipeline, simulator

    before = (simulator.apply_circuit, pipeline.apply_circuit, cli.main,
              acceptance.ALL_CRITERIA[5], simulator.HybridState.boundary_mass)
    traced_op("verify", 1, tmp_path)
    after = (simulator.apply_circuit, pipeline.apply_circuit, cli.main,
             acceptance.ALL_CRITERIA[5], simulator.HybridState.boundary_mass)
    assert all(a is b for a, b in zip(before, after))


def test_perturbed_reference_counts_as_failed_op(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["analyze"]
    inputs = workload.setup(4, tmp_path)
    logged = []
    clean = run.run_ops(workload, inputs, 0, log=logged.append)
    assert clean["failed"] == 0 and not logged
    perturbed = dict(workloads.WTOT_REFERENCE, xi_bar_max=workloads.WTOT_REFERENCE["xi_bar_max"] * (1 + 1e-9))
    monkeypatch.setattr(workloads, "WTOT_REFERENCE", perturbed)
    out = run.run_ops(workload, inputs, 0, log=logged.append)
    assert out["failed"] == 1 and len(out["times"]) == 1
    assert "xi_bar_max" in logged[0]


def test_warmup_op_is_checked_and_counted_but_not_timed():
    calls = []

    def op(inputs):
        calls.append(len(calls) + 1)
        return calls[-1]

    fake = workloads.Workload("fake", None, op, lambda inputs, n: [] if n > 1 else ["first op"], warmup=1)
    logged = []
    out = run.run_ops(fake, None, 0, log=logged.append, warmup=fake.warmup)
    assert calls == [1, 2]
    assert out["attempted"] == 2 and len(out["times"]) == 1 and out["failed"] == 1
    assert logged == ["warm-up op 1 FAILED: first op"]


def test_prep_check_holds_six_significant_digits(monkeypatch):
    measured = {"code_prep_l1_d0.02": 0.1024345901, "prep_n8_d0.02": 0.1022096279}
    assert workloads.prep_check(None, measured) == []
    monkeypatch.setitem(workloads.PREP_REFERENCES, "prep_n8_d0.02", 0.1022106)
    assert len(workloads.prep_check(None, measured)) == 1


def test_sample_check_rejects_a_wrong_share(tmp_path, monkeypatch):
    inputs = workloads.sample_setup(5, tmp_path)
    shots = inputs["m2"]["shots"]
    inputs["m1"]["csv"].write_text("11\n" * shots)
    inputs["m2"]["csv"].write_text("1001\n" * 96941 + "0101\n" * (shots - 96941))
    for run_ in inputs.values():
        run_["budget"].write_text('{"budget": {}}')
    assert workloads.sample_check(inputs, {"m1": 0, "m2": 0}) == []
    monkeypatch.setattr(workloads, "SAMPLE_M2_P1001", 0.975)
    assert len(workloads.sample_check(inputs, {"m1": 0, "m2": 0})) == 1


def test_oracle_matches_the_analyser():
    from hqoc import moments

    arr = workloads.random_circuit_arrays(3)
    oracle = workloads.analysis_oracle(arr)
    c = workloads.build_random_circuit(arr)
    report = moments.analysis_report(c)
    for key in ("g_bar_max", "xi_bar_max", "log2_energy_upper_bound"):
        assert report[key] == pytest.approx(oracle[key], rel=workloads.ANALYSIS_REL_TOL)
    assert len(moments.substitute_bounded_strength(c).gates) == oracle["substituted_gates"]


@pytest.mark.parametrize("seed", sorted(SEED_COMMIT_REPORTS))
def test_oracle_reproduces_seed_commit_reports(seed):
    oracle = workloads.analysis_oracle(workloads.random_circuit_arrays(seed))
    for key, want in SEED_COMMIT_REPORTS[seed].items():
        assert oracle[key] == pytest.approx(want, rel=workloads.ANALYSIS_REL_TOL)
