#!/usr/bin/env python3
"""Record a before/after benchmark of the working tree against a base commit.

    python3 tools/bench_record.py --label NAME [--base REV]

The base commit (default HEAD) is exported with ``git archive`` into a
temporary directory; the working tree is run in place. For every workload,
``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` runs on the
two sides in alternating order (base first on even pairs, change first on
odd ones), ten pairs, one per seed 100, 101, ... Each side runs its own copy
of ``perfbench/``.

It then times the desk-scale allocation report: the ``allocate-report``
scenario at 200000 paths, once with its entropic driver and once with the
sublinear driver of acceptance criterion 05, one CLI process per side and
driver. Beside it, two desk-scale tasks that no perfbench workload runs at
that size, one CLI process per side: ``solve`` on the ``risk-desk``
scenario and ``verify`` on the ``verify-battery`` scenario, both at 200000
paths. Each CLI run records the sha256 of its payload (the scenario's CSV)
and of its stdout, and ``same_payload`` says per task whether both are
byte-identical on the two sides; one more CLI process per side and workload
at the workload's own path count records the same for the three perfbench
workloads. Last it times the Tier-1 suite and criterion 05 alone, one pytest
process per side, and keeps the ``FAILED ...`` lines of each log (pytest
``-rf``) as ``failed_tests``. Each of these processes records its wall time,
user and system CPU time and peak RSS.

Writes ``BENCH_<label>.json`` at the root of the working tree: the machine
(``nproc``, CPU, BLAS, numpy and Python versions), the line count of
``src/bsderisk/*.py`` on each side (``src_lines``, every line, and
``src_code_lines``, without blank, comment-only and docstring lines), every
result line of every run, and per workload and metric the median and
quartiles of each side, the pairs the change won and the ratio of the
medians.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("allocate-report", "risk-desk", "verify-battery")
METRICS = ("task_s", "wall_s", "setup_s", "peak_rss_mb")
FIRST_SEED = 100
PAIRS = 10
SECONDS = 30.0
# the two forms of acceptance criterion 05
SUBLINEAR_DRIVER = {"family": "sublinear", "forms": [
    {"z_coef": 0.3, "jump_coefs": [0.2]}, {"z_coef": -0.25, "jump_coefs": [0.5]}]}


def env_for(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


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
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def src_lines(tree: Path) -> int:
    """Lines of the package's modules, as ``wc -l src/bsderisk/*.py`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "bsderisk").glob("*.py"))


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: a line that some token other than
    a comment or a line break touches (a multi-line string touches each of
    its lines), outside the docstrings of the module, its classes and its
    functions."""
    code = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(code)


def src_code_lines(tree: Path) -> int:
    """``code_lines`` summed over ``src/bsderisk/*.py``: the package without
    its blank, comment-only and docstring lines."""
    return sum(code_lines(path.read_text())
               for path in (tree / "src" / "bsderisk").glob("*.py"))


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env_for(tree), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"correct": False, "error": out.stderr.strip().splitlines()[-1:]}
    return json.loads(lines[-1])


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def timed(cmd: list[str], tree: Path, log: Path, cwd: Path | None = None) -> dict:
    """Wall time, user and system CPU time, peak RSS, exit code, last output
    line and stdout sha256 of one process that imports the package of
    ``tree``, run in ``cwd`` (default ``tree``); its stdout goes to ``log``
    and its stderr beside it. The CPU times count every thread of the
    process, BLAS threads that spin-wait between calls included."""
    log.parent.mkdir(parents=True, exist_ok=True)
    err_log = log.with_suffix(".err")
    with open(log, "wb") as out, open(err_log, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd or tree, env=env_for(tree), stdout=out,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    # a failure's last line is the end of its traceback, on stderr
    lines = ((code and err_log.read_text(errors="replace").strip().splitlines())
             or log.read_text(errors="replace").strip().splitlines())
    return {"wall_s": wall, "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
            "exit_code": code,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "last_line": lines[-1] if lines else "",
            "stdout_sha256": sha256(log)}


def desk_run(tree: Path, workload: str, task: str | None, driver: dict | None,
             scratch: Path, paths: int | None = 200_000) -> dict:
    """A perfbench workload's scenario at ``paths`` paths (None: its own
    count) as one CLI ``task`` process (None: the workload's task), run in
    ``scratch`` with relative paths, so that its stdout does not name the
    side; with the sha256 of its payload."""
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import run as bench
        config = json.loads(json.dumps(bench.WORKLOADS[workload]["config"]))
        task = task or bench.WORKLOADS[workload]["task"]
    finally:
        sys.path.pop(0)
        for name in ("run", "reference", "tracing"):
            sys.modules.pop(name, None)
    if paths is not None:
        config["mc"]["paths"] = paths
    if driver is not None:
        config["driver"] = driver
    scratch.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(scratch / "out", ignore_errors=True)
    (scratch / "desk.json").write_text(json.dumps(config, indent=2))
    cmd = [sys.executable, "-m", "bsderisk.cli", task, "--config", "desk.json", "--out", "out"]
    run = timed(cmd, tree, scratch / "desk.log", cwd=scratch)
    run["payload_sha256"] = sha256(scratch / "out" / f"{config['scenario_id']}.csv")
    return run


def same_payload(base: dict, change: dict) -> bool:
    """Both runs wrote a payload, and their payloads and stdouts are equal."""
    return (base["payload_sha256"] is not None
            and all(base[key] == change[key] for key in ("payload_sha256", "stdout_sha256")))


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for metric in METRICS:
        base, change = [], []
        for pair in pairs:
            b = pair["base"].get("metrics", {}).get(metric)
            c = pair["change"].get("metrics", {}).get(metric)
            if b is not None and c is not None:
                base.append(b["value"])
                change.append(c["value"])
        if len(base) < 2:
            continue
        sb, sc = quartiles(base), quartiles(change)
        summary[metric] = {
            "base": sb, "change": sc,
            "change_lower_in": sum(c < b for b, c in zip(base, change)),
            "pairs": len(base),
            "median_ratio": sc["median"] / sb["median"],
            "base_iqr": sb["q3"] - sb["q1"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_record_") as scratch:
        record(args.label, args.base, Path(scratch))
    return 0


def record(label: str, base: str, scratch: Path) -> None:
    base_tree = scratch / "base"
    base_tree.mkdir()
    export(base, base_tree)
    sides = {"base": base_tree, "change": ROOT}
    status = git("status", "--porcelain")
    rec = {
        "label": label,
        "base": git("rev-parse", base),
        "change": git("rev-parse", "HEAD") + (" + uncommitted changes" if status else ""),
        "machine": machine(),
        "src_lines": {side: src_lines(tree) for side, tree in sides.items()},
        "src_code_lines": {side: src_code_lines(tree) for side, tree in sides.items()},
        "perfbench": f"perfbench/run.py --seconds {SECONDS:g} --trace 0, "
                     f"seeds {FIRST_SEED}-{FIRST_SEED + PAIRS - 1}, alternating order",
        "workloads": {},
    }

    def save():
        out = ROOT / f"BENCH_{label}.json"
        out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")

    for workload in WORKLOADS:
        pairs = []
        for p in range(PAIRS):
            seed = FIRST_SEED + p
            order = ("base", "change") if p % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(sides[side], workload, seed, SECONDS)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} task_s={pair[side].get('metrics', {}).get('task_s', {}).get('value')}"
                for side in ("base", "change")), flush=True)
        rec["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
        save()

    same = rec["same_payload"] = {}
    rec["workload_payloads"] = {}
    for workload in WORKLOADS:
        runs = {side: desk_run(sides[side], workload, None, None,
                               scratch / f"{workload}-{side}", paths=None)
                for side in ("base", "change")}
        same[workload] = same_payload(runs["base"], runs["change"])
        print(f"{workload}: {runs}", flush=True)
        rec["workload_payloads"][workload] = runs
    desk = {}
    for name, driver in (("entropic", None), ("sublinear_c05", SUBLINEAR_DRIVER)):
        for side in ("base", "change"):
            desk[f"{name}.{side}"] = desk_run(sides[side], "allocate-report", "allocate",
                                              driver, scratch / f"desk-{side}")
            print(f"desk {name} {side}: {desk[f'{name}.{side}']}", flush=True)
        same[f"desk_allocate.{name}"] = same_payload(desk[f"{name}.base"], desk[f"{name}.change"])
    rec["desk_allocate_200000_paths"] = desk
    for workload, task in (("risk-desk", "solve"), ("verify-battery", "verify")):
        runs = {}
        for side in ("base", "change"):
            runs[side] = desk_run(sides[side], workload, task, None,
                                  scratch / f"{task}-{side}")
            print(f"desk {task} {side}: {runs[side]}", flush=True)
        rec[f"desk_{task}_200000_paths"] = runs
        same[f"desk_{task}"] = same_payload(runs["base"], runs["change"])
    save()

    tests = {}
    suites = {"tier1": ["--continue-on-collection-errors"],
              "c05": ["tests/test_acceptance.py::test_c05_sublinear_homogeneity"]}
    for name, extra in suites.items():
        for side in ("base", "change"):
            log = scratch / f"{name}-{side}.log"
            cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *extra]
            run = tests[f"{name}.{side}"] = timed(cmd, sides[side], log)
            # the log goes with the temporary directory: keep what names a failure
            run["failed_tests"] = [line for line in log.read_text(errors="replace").splitlines()
                                   if line.startswith("FAILED ")]
            print(f"{name} {side}: {run}", flush=True)
    rec["tests"] = tests
    save()


if __name__ == "__main__":
    sys.exit(main())
