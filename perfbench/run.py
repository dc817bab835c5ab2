"""The repository's benchmark of record.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload served_read --seed 1 --seconds 8 --trace 0

Workloads: ``served_read``, ``served_write``, ``session_replay`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output carries every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` every per-layer metric.  The line before it is a report
with the workload's own metric names, sample counts, inputs, host facts
and (traced) the per-layer reconciliation.  Exit status: 0 when a result
was printed, 1 when a workload could not run, 2 on a bad command line or
a directory without the program's sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("served_read", "served_write", "session_replay")


class Checks:
    """Correctness checks of one run; every failure is kept.

    A check about one op names it (``op``), so an op with several wrong
    outputs counts once in ``failed``; a check about the whole run counts
    on its own.  An op that errored or was refused is counted by the
    workload (``failed_ops``) and never checked, so nothing counts twice.
    """

    def __init__(self) -> None:
        self.run = 0
        self.failures: list[str] = []
        self._bad_ops: set[Any] = set()
        self._bad_runs = 0

    def expect(self, ok: bool, message: str, op: Any = None) -> None:
        self.run += 1
        if not ok:
            self.failures.append(message)
            if op is None:
                self._bad_runs += 1
            else:
                self._bad_ops.add(op)

    @property
    def failed(self) -> int:
        return len(self._bad_ops) + self._bad_runs


def sizes(preset: str) -> dict[str, Any]:
    """Input sizes and op counts.  The write and session workloads run a
    fixed set of ops in as many passes as fit in ``--seconds``, so the
    final store size and the updates of a pass never depend on the
    program's speed; the read workload is a closed loop of ``--seconds``."""
    from inputs import Size

    if preset == "tiny":
        band = (100, 1_500)
        return {
            "served_read": {
                "inputs": Size(1, 1, 3, band, modules="tiny", sized=True),
                "big_step": 2,
                "spawns": 1,
                "replay_ops": 8,
            },
            "served_write": {
                "inputs": Size(1, 1, 2, band, modules="tiny"),
                "cycles": 2,
                "min_passes": 2,
                "extra_spawns": 1,
            },
            "session_replay": {
                "inputs": Size(1, 1, 3, band, modules="tiny"),
                "min_passes": 2,
            },
        }
    band = (11_000, 14_000)
    return {
        "served_read": {
            "inputs": Size(2, 1, 3, band, sized=True),
            "big_step": 2,
            "spawns": 3,
            "replay_ops": 48,
        },
        "served_write": {
            # one cycle per history; six histories, so that a run's
            # figures depend on the seed's draw of files as little as on
            # the host
            "inputs": Size(4, 2, 2, (5_000, 5_600), modules="small"),
            "cycles": 6,
            "min_passes": 3,
            # daemons started and stopped at once, for setup_s only
            "extra_spawns": 7,
        },
        "session_replay": {
            "inputs": Size(2, 2, 5, band, refactors=False),
            "min_passes": 5,
        },
    }


class Context:
    def __init__(self, args: argparse.Namespace) -> None:
        self.root = ROOT
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = sizes(args.size)
        self.checks = Checks()
        self.out_dir = ROOT / ".perfbench_out"
        self._scratch = self.out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"

    def scratch_dir(self) -> Path:
        self._scratch.mkdir(parents=True, exist_ok=True)
        return self._scratch

    def dump_spans(self, spans) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        spans.dump(str(self.out_dir / f"spans-{self.workload}-{self.seed}.jsonl"))

    def cleanup(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)


def load_catalogue() -> dict[str, Any]:
    with open(HERE / "metrics.json", encoding="utf8") as fh:
        return json.load(fh)


def layer_metrics(out: dict[str, Any], catalogue: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Every per-layer metric of the catalogue; a layer the workload does
    not exercise reads 0 (the prediction for a bypassing workload)."""
    from common import percentile

    series = out.get("layers", {}).get("series", {})
    scalars = dict(out.get("layers", {}).get("scalars", {}))
    rec = out.get("reconciliation")
    if rec is not None:
        scalars["unattributed_ms"] = rec["unattributed_ms"]
        scalars["unattributed_share"] = rec["unattributed_share"]
    metrics = {}
    for name, spec in catalogue["per_layer"].items():
        if spec.get("stats"):
            samples = series.get(name, [])
            for stat in spec["stats"]:
                if isinstance(samples, dict):  # a derived layer: p50 and total given
                    value = float(samples[stat])
                elif stat == "p50":
                    value = percentile(samples, 0.5) if samples else 0.0
                else:
                    value = float(sum(samples))
                metrics[f"{name}.{stat}"] = {"value": value, "unit": spec["unit"]}
        else:
            metrics[name] = {"value": float(scalars.get(name, 0.0)), "unit": spec["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: the self-test's scale (seconds, not minutes)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    gc.enable()  # the benchmark measures with the cyclic collector on
    # a TERM unwinds like an error, so every daemon started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from common import host_facts

    ctx = Context(args)
    catalogue = load_catalogue()
    try:
        if args.workload == "served_read":
            from served import served_read as run
        elif args.workload == "served_write":
            from write import served_write as run
        else:
            from session import session_replay as run
        out = run(ctx)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} could not run", file=sys.stderr)
        return 1
    finally:
        ctx.cleanup()

    checks = ctx.checks
    for msg in checks.failures[:20]:
        print(f"perfbench: CHECK FAILED: {msg}", file=sys.stderr)
    attempted = max(1, int(out["attempted"]))
    failed = min(attempted, int(out["failed_ops"]) + checks.failed)

    if ctx.trace:
        metrics = layer_metrics(out, catalogue)
    else:
        metrics = {
            name: {"value": float(out["e2e"][name]), "unit": spec["unit"]}
            for name, spec in catalogue["end_to_end"].items()
        }
    correct = not checks.failures and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    histories = out.pop("inputs")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host_facts(),
        "stdlib_files_bytes": stdlib_sizes_of(histories),
        "inputs": histories,
        "named_metrics": out.get("named", {}),
        "samples": out.get("samples", {}),
        "setup": out.get("setup", {}),
        "failed_ratio": failed / attempted,
        "checks_run": checks.run,
        "check_failures": checks.failures[:50],
    }
    for key in ("unscaled", "speed_probe", "reconciliation", "daemon_counters", "store", "pairs"):
        if key in out:
            report[key] = out[key]
    print(json.dumps({"report": report}, default=float))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def stdlib_sizes_of(histories: list[dict[str, Any]]) -> dict[str, int]:
    return {
        h["origin"].split(":", 1)[1]: h["bytes"][0]
        for h in histories
        if h["origin"].startswith("stdlib:")
    }


if __name__ == "__main__":
    sys.exit(main())
