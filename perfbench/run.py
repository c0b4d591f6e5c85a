#!/usr/bin/env python3
"""Benchmark of the hqoc toolkit: one workload per process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload prep --seed 1 --seconds 60 --trace 0

One caller runs ops back to back, each after the previous one finished, until
the next op would end past ``--seconds`` (at least one op runs).  Workloads
whose first op in a process is slower (lazy imports, first use of scipy
routines) run one warm-up op before the timed loop; it is checked and counted
in ``attempted`` but not timed.  Every op's physics result is checked; a miss
or an exception counts as a failed op and never stops the run.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
``SETUP_REPEATS`` set-ups: process start to inputs built, one in this process
and the rest in child processes), ``op_s.p50`` and ``peak_rss_mb``.
``--trace 1`` first runs untraced ops for half of ``--seconds``, then traced
ops for the other half, and prints the per-layer metrics (see spans.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
record the environment and a human-readable report.  Exit status 2 means the
benchmark could not start (for example, ``src/hqoc`` is missing).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("peak_rss_mb", "MB"))

# Seconds per gate kind of the l=1, delta=0.02 code prep as listed in
# ROADMAP.md (item 1), printed beside the traced figures.
ROADMAP_KIND_SECONDS = {
    "ctrl_disp_p": 13.6, "ctrl_disp_q": 3.8, "disp_p": 2.0, "qubit_gate": 1.7, "squeeze": 1.5,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("prep", "sample", "analyze", "verify"),
                   help="sample and analyze are not declared in BENCHMARK.json but run the same way")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import the workloads against this checkout's src/ only."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import workloads  # noqa: F401  (imports hqoc)
    import hqoc

    if Path(hqoc.__file__).resolve().parent != (src / "hqoc").resolve():
        raise ImportError(f"hqoc imported from {hqoc.__file__}, not from {src}")
    return workloads


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        **{k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process: import plus input building, as it reports it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_op(workload, inputs, clock, label, log, tracer=None, op_id=None) -> tuple[float, float, bool]:
    """One op, timed on ``clock``, then its physics check (not timed).

    Returns the op's seconds, its process CPU seconds and whether it passed;
    a failure is logged.
    """
    misses = []
    c0 = time.process_time()
    t0 = clock()
    try:
        if tracer is not None:
            with tracer.op_span(op_id):
                result = workload.op(inputs)
        else:
            result = workload.op(inputs)
    except Exception:  # an op that raises is a failed op; the run goes on
        misses = ["exception: " + traceback.format_exc().strip().splitlines()[-1]]
        traceback.print_exc(file=sys.stderr)
    seconds = clock() - t0
    cpu = time.process_time() - c0
    if not misses:
        misses = workload.check(inputs, result)
    if misses:
        log(f"{label} FAILED: " + "; ".join(misses))
    return seconds, cpu, not misses


def run_ops(workload, inputs, seconds: float, tracer=None, log=print, warmup: int = 0) -> dict:
    """Untimed warm-up ops, then a closed loop of timed ops.

    Returns the timed ops' wall and CPU times, the number of ops attempted
    (warm-up included) and the number that failed.
    """
    clock = tracer.now if tracer is not None else time.perf_counter
    failed = 0
    for i in range(warmup):
        failed += not timed_op(workload, inputs, time.perf_counter, f"warm-up op {i + 1}", log)[2]
    times, cpu, walls = [], [], []
    start = time.perf_counter()
    while True:
        op_id = len(times) + 1
        begin = time.perf_counter()
        op_s, op_cpu, ok = timed_op(workload, inputs, clock, f"op {op_id}", log, tracer, op_id)
        times.append(op_s)
        cpu.append(op_cpu)
        failed += not ok
        walls.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {"times": times, "cpu": cpu, "attempted": warmup + len(times), "failed": failed}


def traced_run(workload, inputs, seconds: float, name: str, log=print) -> tuple[dict, dict]:
    """Untraced ops, then traced ops, half of ``seconds`` each; returns (per-layer metrics, counts)."""
    import spans
    import workloads

    plain = run_ops(workload, inputs, seconds / 2, log=log, warmup=workload.warmup)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, inputs, seconds / 2, tracer=tracer, log=log)
    finally:
        tracer.uninstall()
    per_op = tracer.op_metrics()
    metrics = spans.median_metrics(per_op)
    metrics["proc.cpu_s"] = statistics.median(plain["cpu"])
    metrics["trace.overhead"] = statistics.median(traced["times"]) / statistics.median(plain["times"]) - 1.0

    last = max(tracer.op_wall)
    log(f"trace.overhead {metrics['trace.overhead']:+.3f} (traced op_s.p50 / untraced - 1)")
    self_s = {span: sec for (op, span), sec in tracer.self_times().items() if op == last}
    if self_s:
        top = max(self_s, key=self_s.get)
        expected = workloads.EXPECTED_TOP_SPAN.get(name)
        verdict = "no expectation" if expected is None else (
            "as expected" if top.startswith(expected) else f"MISMATCH, expected {' or '.join(p + '*' for p in expected)}"
        )
        log(f"largest self-time span: {top}.s = {self_s[top]:.3f} s ({verdict})")
    log(f"top-level span coverage of op wall time: {tracer.coverage(last):.3f}")
    if any(sec for o, _c, _k, sec, _n in tracer.gates if o == last):
        log(f"gate spans / simulator.apply_circuit.s: {tracer.gate_sum_ratio(last):.4f}")
        log("circuit kind         gates        s   ns/cell   ROADMAP s (code prep)")
        for row in tracer.kind_table(last):
            ref = ROADMAP_KIND_SECONDS.get(row["kind"]) if row["circuit"] == 1 and name == "prep" else None
            log(f"{row['circuit']:>7} {row['kind']:<12} {row['gates']:>5} {row['s']:>8.3f} "
                f"{row['ns_per_cell']:>9.3f}   {'' if ref is None else ref}")
    counts = {"attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"]}
    return metrics, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"error: cannot load hqoc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        log = lambda msg: print(f"[{args.workload}] {msg}", flush=True)  # noqa: E731
        log("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            import spans

            values, counts = traced_run(workload, inputs, args.seconds, args.workload, log=log)
            units = dict(spans.PER_LAYER)
        else:
            setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
            run = run_ops(workload, inputs, args.seconds, log=log, warmup=workload.warmup)
            values = {
                "setup_s": statistics.median(setups),
                "op_s.p50": statistics.median(run["times"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = dict(END_TO_END)
            counts = {"attempted": run["attempted"], "failed": run["failed"]}
            log(f"timed ops {len(run['times'])} (+{workload.warmup} warm-up), "
                f"op_s {[round(t, 4) for t in run['times']]}, "
                f"setup_s {[round(s, 4) for s in setups]}")
        log(f"error_rate {counts['failed'] / counts['attempted']:.4f} "
            f"({counts['failed']} of {counts['attempted']} ops failed)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
