"""Shared pieces of the benchmark: statistics, the span recorder, the
collector-pause monitor and process facts.

Nothing here imports the program under test, so ``run.py`` can refuse
to run (exit 2, no result) in a directory that lacks ``src/repro``.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from typing import Any, Callable, Optional


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation
    between closest ranks (numpy's default); ``nan`` when empty."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: the tail percentile of every workload, taken over distinct ops
TAIL_Q = 0.9


def run_passes(seconds: float, min_passes: int, one_pass: Callable[[int], Any]) -> list[Any]:
    """``one_pass(k)`` for k = 0, 1, ... until ``seconds`` are spent: at
    least ``min_passes``, and after those, another pass only if it would
    end within ``seconds`` (taking as long as the last one did)."""
    passes: list[Any] = []
    t0 = time.perf_counter()
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() - t0 + last <= seconds:
        t = time.perf_counter()
        passes.append(one_pass(len(passes)))
        last = time.perf_counter() - t
    return passes


def median_of(passes: list[list[float]]) -> list[float]:
    """Per op, the median time over passes that ran the same ops on the
    same inputs.  The shared host runs at about two speeds that change
    every few seconds (and for half a minute at a time keeps to the slow
    one); an op sampled a handful of times, seconds apart, is timed
    steadiest by the median of its samples, not their best."""
    return [statistics.median(times) for times in zip(*passes)]


def reconcile(kinds: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Layer p50s against the end-to-end p50, per op kind.

    ``kinds[k] = {"e2e": [ms...], "layers": {name: [ms per op]},
    "remainder_label": str}``.  The remainder of every kind is kept with
    its sign in the table; ``unattributed_ms`` is the sum of their
    magnitudes, so a larger mismatch never reads as a gain.
    """
    table: dict[str, Any] = {}
    e2e_total = 0.0
    rest_total = 0.0
    for kind, info in kinds.items():
        e2e = percentile(info["e2e"], 0.5)
        layers = {
            name: percentile(samples, 0.5) for name, samples in info["layers"].items()
        }
        rest = e2e - sum(layers.values())
        table[kind] = {
            "e2e_p50_ms": e2e,
            "e2e_samples": len(info["e2e"]),
            "layers_p50_ms": layers,
            "unattributed_ms": rest,
            "unattributed_label": info["remainder_label"],
        }
        e2e_total += e2e
        rest_total += abs(rest)
    return {
        "kinds": table,
        "e2e_p50_ms": e2e_total,
        "unattributed_ms": rest_total,
        "unattributed_share": rest_total / e2e_total if e2e_total else 0.0,
    }


# ---------------------------------------------------------------------------
# host speed probe


class _Cell:
    __slots__ = ("key", "text", "pair")

    def __init__(self, key: int, text: str, pair: tuple[int, int]) -> None:
        self.key = key
        self.text = text
        self.pair = pair


def _probe_work(n: int) -> int:
    """Small objects, a string-keyed dict, lookups and a sort: the kind
    of work a tree diff does, in code the program does not share."""
    cells = [_Cell(i, str(i), (i, i + 1)) for i in range(n)]
    index = {c.text: c for c in cells}
    total = 0
    for c in cells:
        total += index[c.text].pair[1]
    cells.sort(key=lambda c: c.text)
    return total


class SpeedProbe:
    """A fixed piece of pure-Python work, timed on the CPU an op runs
    on, right before and right after the op.

    Each vCPU of the shared host runs at a full speed or, while another
    tenant is busy on the same physical core, up to about 2x slower; it
    switches every few seconds, on its own, and the share of slow time
    drifts over minutes.  Every CPU-bound time on it moves with that
    share.  The probe reads the speed the op ran at.  It allocates and
    looks up objects the way a tree diff does, because a plain
    arithmetic loop slows down less than such work when the host is
    busy (scaled by one, diff times kept about 1.6x more of their
    spread).  It runs no program code and runs with the collector
    paused, so no change to the program can move it.  :meth:`scale`
    puts an op's time at the speed at which the probe reads
    ``REFERENCE_MS``, about the host's full speed.
    """

    CELLS = 3_000
    REPEATS = 5
    #: about what the probe reads at full speed on the host the
    #: benchmark was built on (Intel Xeon vCPU, CPython 3.11.7); scaled
    #: times are what an op takes there at that speed
    REFERENCE_MS = 2.0

    def __init__(self) -> None:
        self.readings: list[float] = []

    def read(self) -> float:
        """The median of ``REPEATS`` timings of the work: one timing of a
        few milliseconds is itself noisy on the host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(self.REPEATS):
                t = time.perf_counter()
                _probe_work(self.CELLS)
                times.append((time.perf_counter() - t) * 1000.0)
        finally:
            if enabled:
                gc.enable()
        ms = statistics.median(times)
        self.readings.append(ms)
        return ms

    def timed(self, call: Callable[[], Any]) -> tuple[float, float, Any]:
        """``(ms, scaled ms, result)`` of ``call()``, probed around."""
        before = self.read()
        t = time.perf_counter()
        res = call()
        ms = (time.perf_counter() - t) * 1000.0
        return ms, self.scale(ms, before, self.read()), res

    def scale(self, ms: float, before: float, after: float) -> float:
        """``ms`` at the reference speed, given the probes around it."""
        return ms * self.REFERENCE_MS * 2.0 / (before + after)

    def summary(self) -> dict[str, Any]:
        xs = self.readings
        return {
            "reference_ms": self.REFERENCE_MS,
            "readings": len(xs),
            "min_ms": min(xs) if xs else None,
            "median_ms": statistics.median(xs) if xs else None,
            "max_ms": max(xs) if xs else None,
        }


# ---------------------------------------------------------------------------
# span recorder


class Spans:
    """In-memory spans: name, start, end, parent, op id.

    Spans are recorded by the benchmark around its own calls into the
    program's public functions; nothing inside the program is
    instrumented.  Records stay in memory until :meth:`dump`.
    """

    def __init__(self, gcm: "Optional[GCMonitor]" = None) -> None:
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None
        #: collector pauses are cut out of every layer time and reported
        #: on their own
        self.gcm = gcm

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        idx = len(self.records)
        rec = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.records.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller."""
        self.records.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
            }
        )

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with an instance attribute that records a
        span around every call (the object's class is untouched)."""
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, inner, *args, **kwargs)

        setattr(obj, attr, traced)

    def ms(self, rec: dict[str, Any]) -> float:
        """A span's duration in ms, collector pauses inside it excluded."""
        ms = (rec["end"] - rec["start"]) * 1000.0
        if self.gcm is not None:
            ms -= self.gcm.within_ms(rec["start"], rec["end"])
        return ms

    def per_op(self, name: str, self_time: bool = False) -> dict[Any, float]:
        """Op id -> summed duration of the spans called ``name``; with
        ``self_time``, minus the part that their child spans cover."""
        out: dict[Any, float] = {}
        for r in self.records:
            if r["name"] == name:
                out[r["op"]] = out.get(r["op"], 0.0) + self.ms(r)
        if self_time:
            for r in self.records:
                p = r["parent"]
                if p is not None and self.records[p]["name"] == name:
                    out[r["op"]] -= self.ms(r)
        return out

    def gc_per_op(self, name: str) -> dict[Any, float]:
        """Op id -> collector pauses inside the spans called ``name``."""
        out: dict[Any, float] = {}
        if self.gcm is None:
            return out
        for r in self.records:
            if r["name"] == name:
                out[r["op"]] = out.get(r["op"], 0.0) + self.gcm.within_ms(r["start"], r["end"])
        return out

    def dump(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf8") as fh:
            for i, r in enumerate(self.records):
                fh.write(json.dumps(dict(r, id=i)) + "\n")
            for a, b, gen in self.gcm.pauses if self.gcm is not None else ():
                pause = {"name": "python.gc", "start": a, "end": b, "generation": gen}
                fh.write(json.dumps(pause) + "\n")


# ---------------------------------------------------------------------------
# cyclic-collector pauses


class GCMonitor:
    """Collection pauses of this process, via ``gc.callbacks``."""

    def __init__(self) -> None:
        #: ``(start, end, generation)`` of every pause, perf_counter seconds
        self.pauses: list[tuple[float, float, int]] = []
        self._t0: Optional[float] = None

    def _cb(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.pauses.append((self._t0, time.perf_counter(), info.get("generation", -1)))
            self._t0 = None

    def __enter__(self) -> "GCMonitor":
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._cb)

    @property
    def gen2(self) -> int:
        return sum(1 for p in self.pauses if p[2] == 2)

    def total_ms(self) -> float:
        return sum(b - a for a, b, _ in self.pauses) * 1000.0

    def within_ms(self, start: float, end: float) -> float:
        """Milliseconds of pauses inside ``[start, end]``."""
        return sum(
            (min(b, end) - max(a, start)) * 1000.0
            for a, b, _ in self.pauses
            if b > start and a < end
        )


# ---------------------------------------------------------------------------
# process facts


def self_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_children(pid: int) -> list[int]:
    """Direct children of ``pid``, from ``/proc``."""
    out: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                out.extend(int(x) for x in fh.read().split())
    except OSError:
        pass
    return out


def proc_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def one_cpu() -> set[int]:
    """The CPU a workload runs everything on, the speed probe included:
    the probe must read the CPU the op runs on, and the vCPUs change
    speed independently of each other."""
    return {min(os.sched_getaffinity(0))}


def pin(pid: int, cpus: set[int]) -> None:
    """Restrict every thread of process ``pid`` to ``cpus``; threads it
    starts later inherit the mask.  A process that has exited is skipped."""
    try:
        tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except OSError:
            pass


def host_facts() -> dict[str, Any]:
    import platform
    import sys

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "gc_enabled": gc.isenabled(),
        "gc_thresholds": list(gc.get_threshold()),
    }
