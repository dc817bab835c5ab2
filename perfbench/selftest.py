"""Fast self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Runs all three workloads end to end at tiny sizes, daemon spawn
included, untraced and traced.  Fails on any correctness-check failure,
on any emitted metric name that ``BENCHMARK.json`` lacks or the
reverse, on a unit that disagrees with ``BENCHMARK.json``, and when
``BENCHMARK.json`` and ``perfbench/metrics.json`` disagree.  It also
checks that the benchmark refuses to run, without printing a result,
in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("served_read", "served_write", "session_replay")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expected_metrics() -> tuple[dict[str, dict], dict[str, dict], list[str]]:
    """BENCHMARK.json's metrics by name, plus disagreements with the
    catalogue in metrics.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf8"))
    catalogue = json.loads((HERE / "metrics.json").read_text("utf8"))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for name, spec in catalogue["end_to_end"].items():
        m = e2e.get(name)
        if m is None or (m["unit"], m["better"]) != (spec["unit"], spec["better"]):
            problems.append(f"end-to-end {name}: BENCHMARK.json and metrics.json disagree")
    if set(e2e) != set(catalogue["end_to_end"]):
        problems.append("end-to-end metric names differ between BENCHMARK.json and metrics.json")
    names = set()
    for name, spec in catalogue["per_layer"].items():
        for full in [f"{name}.{s}" for s in spec.get("stats", [])] or [name]:
            names.add(full)
            m = layer.get(full)
            if m is None or (m["unit"], m["better"]) != (spec["unit"], spec["better"]):
                problems.append(f"per-layer {full}: BENCHMARK.json and metrics.json disagree")
    if names != set(layer):
        problems.append("per-layer metric names differ between BENCHMARK.json and metrics.json")
    return e2e, layer, problems


def run_one(cwd: Path, workload: str, trace: int) -> tuple[int, str, str]:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--size",
            "tiny",
        ],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout, proc.stderr


def check_result(workload: str, trace: int, want: dict[str, dict], stdout: str) -> list[str]:
    problems = []
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"{workload}/trace={trace}: no result line ({exc})"]
    if set(result) != RESULT_KEYS:
        problems.append(f"{workload}/trace={trace}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{workload}/trace={trace}: correct is {result.get('correct')}")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(
            f"{workload}/trace={trace}: attempted={result.get('attempted')} failed={result.get('failed')}"
        )
    metrics = result.get("metrics", {})
    for name in sorted(set(metrics) - set(want)):
        problems.append(f"{workload}/trace={trace}: emitted {name!r}, not in BENCHMARK.json")
    for name in sorted(set(want) - set(metrics)):
        problems.append(f"{workload}/trace={trace}: BENCHMARK.json's {name!r} not emitted")
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]["unit"]:
            problems.append(f"{workload}/trace={trace}: {name} unit {m.get('unit')!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{workload}/trace={trace}: {name} value {value!r}")
        elif trace == 0 and value <= 0:
            problems.append(f"{workload}/trace={trace}: end-to-end {name} reads {value}")
    return problems


def check_bare_directory() -> list[str]:
    """In a directory with only BENCHMARK.json and perfbench/, the
    benchmark must exit non-zero without printing a result."""
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, stdout, _ = run_one(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if rc == 0:
        problems.append("bare directory: exit status 0")
    if '"metrics"' in stdout:
        problems.append("bare directory: printed a result")
    return problems


def main() -> int:
    e2e, layer, problems = expected_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, stdout, stderr = run_one(ROOT, workload, trace)
            if rc != 0:
                problems.append(f"{workload}/trace={trace}: exit {rc}: {stderr.strip()[-500:]}")
                continue
            found = check_result(workload, trace, layer if trace else e2e, stdout)
            problems.extend(found)
            print(f"selftest: {workload} trace={trace}: {'ok' if not found else 'FAIL'}")
    problems.extend(check_bare_directory())
    for p in problems:
        print(f"selftest: FAIL: {p}", file=sys.stderr)
    print("selftest: all checks passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
