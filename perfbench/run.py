#!/usr/bin/env python3
"""Desk benchmark for the bsderisk command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs to be installed. One operation is one fresh
``bsderisk <task>`` process (``perfbench/child.py`` calls the package's own
console entry point). Operations run one at a time, in whole rounds, until
the next round would end after S seconds (at least three rounds untraced,
two traced).

--trace 0   every round is one untraced operation; prints the end-to-end
            metrics as medians over the operations.
--trace 1   every round is one untraced and one traced operation; prints
            the per-layer metrics (medians over the traced operations) and
            the tracing overhead against the untraced median.

Every operation is checked: exit code 0, every check the program reports
passes, the payload agrees with the closed forms in ``reference.py``, and
the payload bytes and stdout equal those of the run's first operation. An
operation that fails any of these counts in ``failed``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files go under ``.perfbench/`` in
the checkout. Exit code 2, without a result line, when the package cannot
be imported from the checkout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

DESK_SEED = 20240901
# Closed-form checks accept a Monte Carlo estimate within K_SIGMA standard errors.
K_SIGMA = 4.0
MIN_ROUNDS = {False: 3, True: 2}


def desk_scenario(scenario_id: str, paths: int, gamma: float, payoff: dict) -> dict:
    """The desk market of the acceptance suite with one driver and payoff."""
    m = ref.DESK
    return {
        "scenario_id": scenario_id,
        "grid": {"horizon": m.horizon, "steps": 50},
        "mc": {"paths": paths, "seed": DESK_SEED},
        "model": {
            "x0": m.x0, "mu": m.mu, "sigma": m.sigma,
            "jumps": [{"size": z, "intensity": lam} for z, lam in m.jumps],
        },
        "driver": {"family": "entropic", "gamma": gamma},
        "payoff": payoff,
    }


ALLOCATION_PARTS = ((0.0, 0.5), (0.2, 0.3), (-0.1, 0.2))
VERIFY_CHECKS = ["moments", "doleans", "closed_form", "clark_ocone", "axioms",
                 "entropic_identity", "coherent_static"]


# --------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the payload is right


def _near(problems, label, value, expected, tol):
    if not abs(value - expected) <= tol:
        problems.append(f"{label}={value:.6g} expected {expected:.6g} +- {tol:.3g}")


def check_risk(rows, cfg) -> list[str]:
    gamma, paths = cfg["driver"]["gamma"], cfg["mc"]["paths"]
    problems: list[str] = []
    se = ref.entropic_risk_se(ref.DESK, gamma, 1.0, paths)
    _near(problems, "rho0", rows["rho0"][0], ref.entropic_risk(ref.DESK, gamma, 0.0, 1.0),
          K_SIGMA * se)
    return problems


def check_allocate(rows, cfg) -> list[str]:
    gamma, paths = cfg["driver"]["gamma"], cfg["mc"]["paths"]
    total = (sum(a for a, _ in ALLOCATION_PARTS), sum(b for _, b in ALLOCATION_PARTS))
    problems: list[str] = []
    rho = ref.entropic_risk(ref.DESK, gamma, *total)
    rho_tol = K_SIGMA * ref.entropic_risk_se(ref.DESK, gamma, total[1], paths)
    _near(problems, "rho0", rows["rho0"][0], rho, rho_tol)
    shapley_sum = 0.0
    for i, part in enumerate(ALLOCATION_PARTS):
        # the importance-sampling error of the gradient at the full claim bounds
        # the error of every route along this direction
        tol = K_SIGMA * rows[f"alloc_measure_{i}"][1]
        grad = ref.entropic_gradient(ref.DESK, gamma, total, part)
        _near(problems, f"alloc_fd_{i}", rows[f"alloc_fd_{i}"][0], grad, tol)
        _near(problems, f"alloc_measure_{i}", rows[f"alloc_measure_{i}"][0], grad, tol)
        _near(problems, f"alloc_shapley_{i}", rows[f"alloc_shapley_{i}"][0],
              ref.entropic_shapley(ref.DESK, gamma, total, part), tol)
        shapley_sum += rows[f"alloc_shapley_{i}"][0]
    _near(problems, "shapley_sum", shapley_sum, rho - ref.entropic_risk(ref.DESK, gamma, 0.0, 0.0),
          rho_tol)
    return problems


def check_verify(rows, cfg) -> list[str]:
    gamma, paths = cfg["driver"]["gamma"], cfg["mc"]["paths"]
    level = cfg["verify"]["level"]
    problems: list[str] = []
    # verify reports only |rho0 - sample closed form|; bound it by the sampling
    # error of the closed form itself
    gap = rows["rho0_closed_form_gap"][0]
    tol = K_SIGMA * ref.entropic_risk_se(ref.DESK, gamma, 1.0, paths)
    if not gap <= tol:
        problems.append(f"rho0_closed_form_gap={gap:.3g} above {tol:.3g}")
    g_ref, rho_ref = ref.coherent_static_grid(ref.DESK, level, 0.0, 1.0)
    rho_tol = K_SIGMA * ref.entropic_risk_se(ref.DESK, g_ref, 1.0, paths)
    _near(problems, "coherent_rho", rows["coherent_rho"][0], rho_ref, rho_tol)
    # a sampling error of at most rho_tol in the objective moves its minimizer
    # by at most sqrt(4 rho_tol / curvature)
    curvature = ref.coherent_curvature(ref.DESK, level, 0.0, 1.0, g_ref)
    _near(problems, "coherent_gamma", rows["coherent_gamma"][0], g_ref,
          (4.0 * rho_tol / curvature) ** 0.5)
    return problems


WORKLOADS = {
    "risk-desk": {
        "task": "risk",
        "config": desk_scenario("risk-desk", 200_000, 2.0,
                                {"family": "affine", "a": 0.0, "b": 1.0}),
        "check": check_risk,
    },
    "allocate-report": {
        "task": "allocate",
        "config": desk_scenario(
            "allocate-report", 10_000, 1.0,
            {"decomposition": [{"family": "affine", "a": a, "b": b}
                               for a, b in ALLOCATION_PARTS]}),
        "check": check_allocate,
    },
    "verify-battery": {
        "task": "verify",
        "config": {
            **desk_scenario("verify-battery", 20_000, 1.0,
                            {"family": "affine", "a": 0.0, "b": 1.0}),
            "method": {"jump_count_features": True},
            # at beta = 1 the cubic normalizer fit goes non-positive by design
            "verify": {"checks": VERIFY_CHECKS, "beta": 0.5, "phi_jumps": [0.3],
                       "level": 0.1},
        },
        "check": check_verify,
    },
}


def parse_payload(data: bytes) -> dict:
    """quantity -> (value, std_error, passed or None)."""
    rows = {}
    for rec in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        value = float(rec["value"]) if rec["value"] else float("nan")
        se = float(rec["std_error"]) if rec["std_error"] else float("nan")
        passed = None if rec["pass"] == "" else rec["pass"] == "true"
        rows[rec["quantity"]] = (value, se, passed)
    return rows


# --------------------------------------------------------------------------
# operations


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def invoke(workload: dict, run_dir: Path, trace_file: Path | None) -> dict:
    """One CLI process; returns its timings, exit code, stdout and payload."""
    probe_file = run_dir / "probe.json"
    stdout_file, stderr_file = run_dir / "stdout.txt", run_dir / "stderr.txt"
    out_dir = run_dir / "out"
    payload_file = out_dir / f"{workload['config']['scenario_id']}.csv"
    cmd = [sys.executable, str(HERE / "child.py"), str(probe_file)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    cmd += ["--", workload["task"],
            "--config", str((run_dir / "scenario.json").relative_to(ROOT)),
            "--out", str(out_dir.relative_to(ROOT))]
    for stale in (probe_file, payload_file):
        stale.unlink(missing_ok=True)
    with open(stdout_file, "wb") as out, open(stderr_file, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_end = None
    if probe_file.exists():
        setup_end = json.loads(probe_file.read_text()).get("setup_end")
    return {
        "code": proc.returncode,
        "wall_s": end - start,
        "setup_s": None if setup_end is None else setup_end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout_file.read_bytes(),
        "stderr": stderr_file.read_bytes(),
        "payload": payload_file.read_bytes() if payload_file.exists() else None,
    }


def problems_of(result: dict, workload: dict, first: dict | None) -> list[str]:
    if result["code"] != 0:
        tail = result["stderr"].decode("utf-8", "replace").strip().splitlines()[-1:]
        return [f"exit code {result['code']}"] + tail
    if result["payload"] is None or result["setup_s"] is None:
        return ["no payload or no path bundle"]
    if first is not None:
        if result["payload"] != first["payload"]:
            return ["payload bytes differ from the run's first operation"]
        if result["stdout"] != first["stdout"]:
            return ["stdout differs from the run's first operation"]
    rows = parse_payload(result["payload"])
    problems = [f"program check {q} failed" for q, r in rows.items() if r[2] is False]
    try:
        problems += workload["check"](rows, workload["config"])
    except KeyError as exc:
        problems.append(f"payload lacks row {exc}")
    return problems


# --------------------------------------------------------------------------
# per-layer metrics from the spans of one traced operation


def layer_metrics(spans: list[list], layers: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json; ``layers`` is ``tracing.summarize(spans)``."""

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    condexp = [i for i, s in enumerate(spans)
               if s[0] == "bsde.condexp" and not tracing.has_ancestor(spans, i, "bsde.solve")]
    # the report's measure route: its time outside the shared risk solve and
    # the finite-difference and Shapley routes (density build, weighted fits)
    report_measure = 0.0
    for i, s in enumerate(spans):
        if s[0] == "allocation.report":
            report_measure += s[2] - s[1] - sum(
                c[2] - c[1] for c in spans
                if c[3] == i and c[0] in ("bsde.solve", "allocation.fd", "allocation.shapley"))
    return {
        "market.simulate_s": get("market.simulate", "inclusive_s"),
        "bsde.basis_s": get("bsde.basis", "inclusive_s"),
        "bsde.basis_calls": get("bsde.basis", "calls"),
        "bsde.fit_s": get("bsde.fit", "inclusive_s"),
        "bsde.fit_calls": get("bsde.fit", "calls"),
        "bsde.fit_columns": get("bsde.fit", "columns"),
        "bsde.solve_s": get("bsde.solve", "inclusive_s"),
        "bsde.solve_self_s": get("bsde.solve", "self_s"),
        "bsde.solve_calls": get("bsde.solve", "calls"),
        "bsde.solve_columns": get("bsde.solve", "columns"),
        "bsde.condexp_s": sum(spans[i][2] - spans[i][1] for i in condexp),
        "bsde.condexp_calls": len(condexp),
        "drivers.eval_s": get("drivers.eval", "inclusive_s"),
        "drivers.eval_calls": get("drivers.eval", "calls"),
        "drivers.partial_s": get("drivers.partial", "inclusive_s"),
        "measure.density_s": get("measure.density", "inclusive_s"),
        "measure.density_calls": get("measure.density", "calls"),
        "measure.weighted_s": get("measure.weighted", "inclusive_s"),
        "allocation.fd_s": get("allocation.fd", "inclusive_s"),
        "allocation.shapley_s": get("allocation.shapley", "inclusive_s"),
        "allocation.measure_s": get("allocation.measure", "inclusive_s") + report_measure,
        "risk.closed_form_s": get("risk.closed_form", "inclusive_s"),
        "risk.axioms_s": get("risk.axioms", "inclusive_s"),
        "malliavin.clark_ocone_s": get("malliavin.clark_ocone", "inclusive_s"),
        "malliavin.entropic_controls_s": get("malliavin.entropic_controls", "inclusive_s"),
        "malliavin.entropic_controls_calls": get("malliavin.entropic_controls", "calls"),
        "scenario.config_s": get("scenario.config", "inclusive_s"),
        "reporting.emit_s": get("reporting.emit", "inclusive_s"),
    }


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


# --------------------------------------------------------------------------
# driver


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def preflight() -> bool:
    if not (ROOT / "src" / "bsderisk" / "cli.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return False
    # also compiles the package's bytecode before the first timed operation
    probe = subprocess.run([sys.executable, "-c", "import bsderisk.cli"], cwd=ROOT,
                           env=child_env(), capture_output=True, text=True)
    if probe.returncode != 0:
        print(f"perfbench: cannot import bsderisk:\n{probe.stderr}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if not preflight():
        return 2
    workload = WORKLOADS[args.workload]
    print("machine " + json.dumps(machine(), sort_keys=True), flush=True)

    # The scenario is the pinned desk scenario on every seed: its statistical
    # checks are calibrated on it. The seed only names the run directory.
    run_dir = WORK / args.workload / f"seed-{args.seed}{'-trace' if traced else ''}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "scenario.json").write_text(json.dumps(workload["config"], indent=2) + "\n")

    kinds = ("plain", "traced") if traced else ("plain",)
    plain, traced_ops, round_times = [], [], []
    attempted = failed = 0
    first = None
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for kind in kinds:
            trace_file = run_dir / "spans.json" if kind == "traced" else None
            result = invoke(workload, run_dir, trace_file)
            attempted += 1
            problems = problems_of(result, workload, first)
            if first is None and not problems:
                first = result
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"{kind} op {attempted}: wall_s={result['wall_s']:.4f} "
                  f"setup_s={result['setup_s'] or float('nan'):.4f} "
                  f"peak_rss_mb={result['peak_rss_mb']:.1f} {status}", flush=True)
            if problems:
                failed += 1
                continue
            if kind == "plain":
                plain.append(result)
            else:
                spans = json.loads(trace_file.read_text())["spans"]
                result["summary"] = tracing.summarize(spans)
                result["layers"] = layer_metrics(spans, result["summary"])
                traced_ops.append(result)
        round_times.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        if (len(round_times) >= MIN_ROUNDS[traced]
                and elapsed + statistics.median(round_times) > args.seconds):
            break

    correct = failed == 0 and bool(plain) and (bool(traced_ops) or not traced)
    metrics = {}
    if plain:
        walls = [r["wall_s"] for r in plain]
        if not traced:
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(r["setup_s"] for r in plain),
                "task_s": statistics.median(r["wall_s"] - r["setup_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
            metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
                       for k, v in values.items()}
        elif traced_ops:
            for name in traced_ops[0]["layers"]:
                value = statistics.median(r["layers"][name] for r in traced_ops)
                metrics[name] = {"value": value, "unit": unit_of(name)}
            overhead = (statistics.median(r["wall_s"] for r in traced_ops)
                        - statistics.median(walls))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            (run_dir / "trace.json").write_text(json.dumps({
                "workload": args.workload,
                "untraced_wall_s": walls,
                "traced_wall_s": [r["wall_s"] for r in traced_ops],
                "layers": [r["summary"] for r in traced_ops],
            }, indent=1, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
