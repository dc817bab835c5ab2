"""The in-process session workload: Section 6's incremental loop.

One ``DiffSession(parse(v0))`` per history, default options.  Each later
version is parsed fresh just before the call, and only
``session.diff(target)`` is timed.  The cyclic collector stays on.  The
whole replay runs in passes, each with new sessions and newly parsed
targets, as many as fit in ``--seconds`` (at least ``min_passes``);
every update is timed by the median of its passes.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from common import (
    TAIL_Q,
    GCMonitor,
    SpeedProbe,
    Spans,
    median_of,
    percentile,
    reconcile,
    run_passes,
    self_peak_rss_mb,
)
from inputs import History, build_histories


def replay_pass(
    ctx, k: int, histories: list[History], gcm: GCMonitor, spans, probe: SpeedProbe
) -> dict[str, Any]:
    """Construct every session (timed: set-up), then advance every
    history one version per round, round-robin.  Set-up and every
    ``session.diff`` are timed and also scaled to the reference speed."""
    from repro.adapters.pyast import parse_python
    from repro.core import DiffSession, validate_script

    checks = ctx.checks
    trees = [parse_python(h.versions[0]) for h in histories]
    init_ms: list[float] = []
    setup_ms = 0.0
    sessions = []
    for tree in trees:
        ms, scaled, session = probe.timed(lambda: DiffSession(tree))
        sessions.append(session)
        init_ms.append(ms)
        setup_ms += scaled
    del trees

    lat: list[float] = []
    nodes: list[int] = []
    edits: list[float] = []
    parse_ms: list[float] = []
    gc_ms: list[float] = []
    scaled: list[float] = []
    for v in range(1, len(histories[0].versions)):
        for h, hist in enumerate(histories):
            op = len(lat)
            t = time.perf_counter()
            target = parse_python(hist.versions[v])
            parse_ms.append((time.perf_counter() - t) * 1000.0)
            session = sessions[h]
            src_nodes = session.tree.size
            gc_before = gcm.total_ms()
            before = probe.read()
            t = time.perf_counter()
            script, patched = session.diff(target)
            ms = (time.perf_counter() - t) * 1000.0
            scaled.append(probe.scale(ms, before, probe.read()))
            lat.append(ms)
            gc_ms.append(gcm.total_ms() - gc_before)
            nodes.append(src_nodes + target.size)
            edits.append(float(len(script)))
            checks.expect(
                patched.literally_equivalent(target),
                f"pass {k} h{h} v{v}: patched session tree differs from the target",
                (k, op),
            )
            if spans is not None and k == 0:
                # the static validation the session runs inside its
                # diff, called again on the same script
                spans.op = op
                spans.record("core.diff.session_diff", t, t + ms / 1000.0)
                spans.call("core.typecheck.validate", validate_script, script, session.tree.sigs, "static")
    return {
        "setup_s": setup_ms / 1000.0,
        "init_ms": init_ms,
        "lat": lat,
        "nodes": nodes,
        "edits": edits,
        "parse_ms": parse_ms,
        "gc_ms": gc_ms,
        "scaled": scaled,
    }


def session_replay(ctx) -> dict[str, Any]:
    cfg = ctx.size["session_replay"]
    histories = build_histories("session_replay", ctx.seed, cfg["inputs"])

    gcm = GCMonitor()
    spans = Spans(gcm) if ctx.trace else None
    probe = SpeedProbe()
    with gcm:
        passes = run_passes(
            ctx.seconds,
            cfg["min_passes"],
            lambda k: replay_pass(ctx, k, histories, gcm, spans, probe),
        )

    # every update at the reference speed, then its median over passes
    lat = median_of([p["scaled"] for p in passes])
    raw = median_of([p["lat"] for p in passes])
    nodes = passes[0]["nodes"]
    total_s = sum(lat) / 1000.0
    q = TAIL_Q
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": len(lat) / total_s,
        "op_p50_ms": percentile(lat, 0.5),
        "op_tail_ms": percentile(lat, q),
        "nodes_per_s": sum(nodes) / total_s,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    out: dict[str, Any] = {
        "inputs": [h.describe() for h in histories],
        "e2e": e2e,
        "named": {
            "session_nodes_per_s": e2e["nodes_per_s"],
            "setup_s": e2e["setup_s"],
            "peak_rss_mb": e2e["peak_rss_mb"],
        },
        "samples": {
            "updates": len(lat),
            "passes": len(passes),
            "tail_quantile": q,
            "histories": len(histories),
            "diff_ms_per_pass": [sum(p["lat"]) for p in passes],
        },
        "setup": {"setup_runs_s": [p["setup_s"] for p in passes]},
        "unscaled": {
            "op_p50_ms": percentile(raw, 0.5),
            "op_tail_ms": percentile(raw, q),
            "nodes_per_s": sum(nodes) / (sum(raw) / 1000.0),
        },
        "speed_probe": probe.summary(),
        "attempted": len(lat) * len(passes),
        "failed_ops": 0,
    }
    if spans is not None:
        validated = spans.per_op("core.typecheck.validate")
        validate_ms = [validated[i] for i in range(len(lat))]
        # per update, the median of its collector pauses over the passes
        gc_ms = median_of([p["gc_ms"] for p in passes])
        # layers are wall-clock times, like every span
        engine = [raw[i] - validate_ms[i] - gc_ms[i] for i in range(len(raw))]
        out["layers"] = {
            "series": {
                "core.diff.session_diff_ms": raw,
                "core.diff.session_init_ms": [ms for p in passes for ms in p["init_ms"]],
                "adapters.pyast.parse_ms": [ms for p in passes for ms in p["parse_ms"]],
                "core.typecheck.validate_ms": validate_ms,
                "script.edits": passes[0]["edits"],
                "python.gc_ms": gc_ms,
            },
            "scalars": {
                "core.diff.session_nodes_per_s": out["unscaled"]["nodes_per_s"],
                "python.gc_gen2_collections": float(gcm.gen2),
            },
        }
        out["reconciliation"] = reconcile(
            {
                "session.diff": {
                    "e2e": raw,
                    "layers": {
                        "core.diff.session_engine_ms": engine,
                        "core.typecheck.validate_ms": validate_ms,
                        "python.gc_ms": gc_ms,
                    },
                    "remainder_label": "difference between the p50 of the sum "
                    "and the sum of the layer p50s (the session call is one "
                    "public function; its engine share is derived)",
                }
            }
        )
        ctx.dump_spans(spans)
    return out
