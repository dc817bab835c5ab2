"""The durable write workload: first uploads, journaled applies and
duplicate re-uploads against a daemon on a fresh data dir.

Each cycle uploads a version the store has never seen, applies (and
commits) the script from it to the next version, and re-uploads the
apply result's source, which must be a duplicate.  A cycle is the op.
The op count is fixed per pass, so the final store size is too.  The
same cycles run in passes, each against a fresh daemon on a fresh data
dir, as many as fit in ``--seconds`` (at least ``min_passes``); every
request is timed by the median of its passes.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

from common import (
    TAIL_Q,
    GCMonitor,
    SpeedProbe,
    Spans,
    median_of,
    one_cpu,
    percentile,
    pin,
    reconcile,
    run_passes,
)
from daemon import Daemon
from inputs import History, build_histories
from served import client_for, obs_like_daemon, obs_off

KINDS = ("put_first", "apply", "put_dup")


def write_plan(histories: list[History], cycles: int) -> list[tuple[int, int]]:
    """``(history, c)`` per cycle, round-robin: cycle ``c`` of a history
    uploads its version ``2c`` and applies the script to ``2c + 1``."""
    plan = []
    used = [0] * len(histories)
    for n in range(cycles):
        h = n % len(histories)
        plan.append((h, used[h]))
        used[h] += 1
    return plan


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def spawn(ctx, probe: SpeedProbe, data_dir: Path) -> tuple[Daemon, float]:
    """A daemon on ``data_dir`` and its spawn->listening time in
    seconds, scaled to the reference speed."""
    before = probe.read()
    daemon = Daemon(ctx.root, workers=0, data_dir=data_dir)
    return daemon, probe.scale(daemon.spawn_s, before, probe.read())


def write_pass(ctx, k: int, daemon: Daemon, histories, plan, scripts, probe: SpeedProbe) -> dict[str, Any]:
    """One pass of every cycle over one connection.  A failed or refused
    request ends its cycle (counted, never retried).  Every request is
    timed and also scaled to the reference speed."""
    checks = ctx.checks
    client = client_for(daemon.url)
    cycles: list[Optional[dict[str, float]]] = []
    raw: list[Optional[dict[str, float]]] = []
    errors: list[str] = []
    user_bytes = 0
    nodes: list[Optional[int]] = []
    for n, (h, c) in enumerate(plan):
        first = histories[h].versions[2 * c]
        fname = f"h{h}v{2 * c}.py"
        script = json.loads(scripts[n])
        ms: dict[str, float] = {}
        scaled: dict[str, float] = {}
        try:
            ms["put_first"], scaled["put_first"], res = probe.timed(lambda: client.put_tree(first, fname))
            checks.expect(not res["cached"], f"cycle {n}: first upload was already stored", (k, n))
            base_fp, base_nodes = res["fingerprint"], res["nodes"]
            ms["apply"], scaled["apply"], res = probe.timed(lambda: client.apply(base_fp, script))
            checks.expect(not res["cached"], f"cycle {n}: apply result was already stored", (k, n))
            result_fp, dup = res["fingerprint"], res["source"]
            ms["put_dup"], scaled["put_dup"], res = probe.timed(lambda: client.put_tree(dup, "dup.py"))
        except Exception as exc:
            errors.append(f"cycle {n}: {type(exc).__name__}: {exc}")
            cycles.append(None)
            raw.append(None)
            nodes.append(None)
            continue
        checks.expect(res["cached"], f"cycle {n}: re-upload of the apply result was not a duplicate", (k, n))
        # the patch path and the parse path must agree
        checks.expect(
            res["fingerprint"] == result_fp,
            f"cycle {n}: apply fingerprint {result_fp[:12]} != "
            f"re-upload fingerprint {res['fingerprint'][:12]}",
            (k, n),
        )
        cycles.append(scaled)
        raw.append(ms)
        nodes.append(2 * base_nodes + 2 * res["nodes"])
        user_bytes += len(json.dumps({"source": first, "filename": fname}))
        user_bytes += len(json.dumps({"tree": base_fp, "script": script, "commit": True}))
        user_bytes += len(json.dumps({"source": dup, "filename": "dup.py"}))
    return {
        "cycles": cycles,
        "raw": raw,
        "errors": errors,
        "nodes": nodes,
        "user_bytes": user_bytes,
        "resident": len(client.list_trees()),
        "peak_rss_mb": daemon.peak_rss_mb(),
    }


def served_write(ctx) -> dict[str, Any]:
    from repro.adapters.pyast import parse_python
    from repro.server.pool import diff_trees

    cfg = ctx.size["served_write"]
    histories = build_histories("served_write", ctx.seed, cfg["inputs"])
    plan = write_plan(histories, cfg["cycles"])

    # the scripts are computed in-process before anything is timed
    scripts: list[str] = []
    for h, c in plan:
        before = parse_python(histories[h].versions[2 * c]).with_canonical_uris()
        after = parse_python(histories[h].versions[2 * c + 1]).with_canonical_uris()
        scripts.append(diff_trees(before, after)["script_json"])

    # this process, every daemon it starts (they inherit the mask) and
    # the speed probe share one CPU; the client waits while the daemon
    # works, so the two never compete for it
    scratch = ctx.scratch_dir()
    probe = SpeedProbe()
    spawn_s: list[float] = []
    cpus = os.sched_getaffinity(0)
    pin(os.getpid(), one_cpu())
    try:
        # -- setup: spawn -> listening on an empty data dir.  Every pass
        # starts a daemon; a few more are started and stopped at once.
        for i in range(cfg["extra_spawns"]):
            d, s = spawn(ctx, probe, scratch / f"spawn-{i}")
            spawn_s.append(s)
            d.stop(client_for(d.url))
            shutil.rmtree(scratch / f"spawn-{i}", ignore_errors=True)

        # -- the timed passes: one connection, closed loop
        def one_pass(i: int) -> dict[str, Any]:
            data_dir = scratch / f"data-{i}"
            daemon, s = spawn(ctx, probe, data_dir)
            spawn_s.append(s)
            try:
                done = write_pass(ctx, i, daemon, histories, plan, scripts, probe)
            finally:
                daemon.stop(client_for(daemon.url))
            done["data_dir_bytes"] = dir_bytes(data_dir)
            shutil.rmtree(data_dir, ignore_errors=True)
            return done

        passes = run_passes(ctx.seconds, cfg["min_passes"], one_pass)
    finally:
        pin(os.getpid(), cpus)

    errors = [e for p in passes for e in p["errors"]]
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    # a request is timed by the median of its passes and a cycle by the
    # sum of its three requests; a cycle that failed in any pass is left
    # out (and counted as failed)
    ok = [n for n in range(len(plan)) if all(p["cycles"][n] is not None for p in passes)]
    med = {k: median_of([[p["cycles"][n][k] for n in ok] for p in passes]) for k in KINDS}
    cycle_ms = [sum(ms) for ms in zip(*(med[k] for k in KINDS))]
    raw = {k: median_of([[p["raw"][n][k] for n in ok] for p in passes]) for k in KINDS}
    raw_cycle_ms = [sum(ms) for ms in zip(*(raw[k] for k in KINDS))]
    nodes = [passes[0]["nodes"][n] for n in ok]
    last = passes[-1]
    total_s = sum(cycle_ms) / 1000.0
    q = TAIL_Q
    e2e = {
        "setup_s": statistics.median(spawn_s),
        "ops_per_s": len(KINDS) * len(cycle_ms) / total_s,
        "op_p50_ms": percentile(cycle_ms, 0.5),
        "op_tail_ms": percentile(cycle_ms, q),
        "nodes_per_s": sum(nodes) / total_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    out: dict[str, Any] = {
        "inputs": [h.describe() for h in histories],
        "e2e": e2e,
        "named": {
            "write_ops_per_s": e2e["ops_per_s"],
            "put_p50_ms": percentile(med["put_first"], 0.5),
            "put_dup_p50_ms": percentile(med["put_dup"], 0.5),
            "apply_p50_ms": percentile(med["apply"], 0.5),
            "cycle_p50_ms": e2e["op_p50_ms"],
            "cycle_p90_ms": e2e["op_tail_ms"],
            "setup_s": e2e["setup_s"],
            "peak_rss_mb": e2e["peak_rss_mb"],
        },
        "samples": {
            "cycles": len(cycle_ms),
            "passes": len(passes),
            "requests_per_kind": len(cycle_ms),
            "tail_quantile": q,
            "cycles_beyond_tail": (1 - q) * len(cycle_ms),
            "spawns": len(spawn_s),
            "cycle_ms_per_pass": [
                [sum(c.values()) if c else None for c in p["cycles"]] for p in passes
            ],
        },
        "setup": {"spawn_s": spawn_s},
        "unscaled": {
            "op_p50_ms": percentile(raw_cycle_ms, 0.5),
            "op_tail_ms": percentile(raw_cycle_ms, q),
            "put_p50_ms": percentile(raw["put_first"], 0.5),
            "apply_p50_ms": percentile(raw["apply"], 0.5),
            "put_dup_p50_ms": percentile(raw["put_dup"], 0.5),
        },
        "speed_probe": probe.summary(),
        "attempted": len(plan) * len(passes),
        "failed_ops": sum(c is None for p in passes for c in p["cycles"]),
        "store": {
            "resident_trees": last["resident"],
            "data_dir_bytes": last["data_dir_bytes"],
            "user_bytes": last["user_bytes"],
        },
    }
    if ctx.trace:
        out["layers"], out["reconciliation"] = _write_traced(
            ctx,
            histories,
            plan,
            scripts,
            raw,
            {
                "server.durable.bytes_per_user_byte": last["data_dir_bytes"] / last["user_bytes"],
                "server.store.resident_trees": float(last["resident"]),
            },
        )
    return out


def _write_traced(ctx, histories, plan, scripts, http, scalars):
    """Replay the cycles against an in-process ``ReproService`` over a
    ``DurableTreeStore`` with no workers, and call the sub-layers of each
    op on the same inputs.  ``http[kind]`` holds the served latency of
    each cycle's request of that kind (wall clock, median of the
    passes)."""
    from repro.adapters.pyast import parse_python, python_grammar, unparse_python
    from repro.core import tnode_to_mtree
    from repro.core.serialize import script_from_json
    from repro.robustness.integrity import check_tree
    from repro.server import ReproService, TreeStore
    from repro.server.durable import DurableTreeStore
    from repro.server.store import fingerprint_tree

    checks = ctx.checks
    grammar = python_grammar().grammar
    collector = obs_like_daemon()
    data_dir = ctx.scratch_dir() / "traced-data"
    store = DurableTreeStore(data_dir)
    service = ReproService(store, workers=0, collector=collector)
    gcm = GCMonitor()
    spans = Spans(gcm)
    # the store calls the service makes become child spans of its call
    spans.wrap(store, "put_source", "server.store.put_source")
    spans.wrap(store, "apply", "server.durable.apply")
    kind_of: dict[int, str] = {}

    def ingest(src: str, filename: str) -> str:
        """What put_source does with a source, layer by layer."""
        t = spans.call("adapters.pyast.parse", parse_python, src, filename)
        t = spans.call("core.tree.canonicalize", t.with_canonical_uris)
        return spans.call("server.store.fingerprint", fingerprint_tree, t)

    def start(op_id: int, kind: str) -> None:
        spans.op = op_id
        kind_of[op_id] = kind

    # the daemon's collector never sees this process's inputs
    gc.freeze()
    try:
        with gcm:
            # phase 1: the ops themselves, nothing else, so the collector
            # sees the same allocation pattern as the daemon did
            applied: list[dict[str, Any]] = []
            for n, (h, c) in enumerate(plan):
                first = histories[h].versions[2 * c]
                start(3 * n, "put_first")
                res = spans.call(
                    "server.service.put_tree",
                    service.handle,
                    "put_tree",
                    {"source": first, "filename": f"h{h}v{2 * c}.py"},
                )
                base_fp = res["fingerprint"]
                start(3 * n + 1, "apply")
                res = spans.call(
                    "server.service.apply",
                    service.handle,
                    "apply",
                    {"tree": base_fp, "script": json.loads(scripts[n]), "commit": True},
                )
                applied.append({"base": base_fp, "result": res["fingerprint"], "source": res["source"]})
                start(3 * n + 2, "put_dup")
                res = spans.call(
                    "server.service.put_tree",
                    service.handle,
                    "put_tree",
                    {"source": applied[-1]["source"], "filename": "dup.py"},
                )
                checks.expect(
                    res["cached"] and res["fingerprint"] == applied[-1]["result"],
                    f"cycle {n}: in-process duplicate upload mismatch",
                )

            # phase 2: the sub-layers of every op, called on the same inputs
            for n, (h, c) in enumerate(plan):
                first = histories[h].versions[2 * c]
                fname = f"h{h}v{2 * c}.py"
                base_fp = applied[n]["base"]
                spans.op = 3 * n
                spans.call("server.store.put_mem", TreeStore().put_source, first, fname)
                checks.expect(ingest(first, fname) == base_fp, f"cycle {n}: sub-layer fingerprint differs")

                spans.op = 3 * n + 1
                base = store.get(base_fp)
                script = spans.call("core.serialize.from_json", script_from_json, scripts[n])
                stage = TreeStore()
                stage.put_tree(base.tree, base.source, base.filename, fingerprint=base_fp)
                spans.call("server.store.apply_stage", stage.apply, base_fp, script, False)
                mtree = spans.call("core.tree.to_mtree", tnode_to_mtree, base.tree)
                spans.call("core.mtree.patch", mtree.patch, script, atomic=True, sigs=base.tree.sigs, verify=True)
                problems = spans.call("robustness.check_tree", check_tree, mtree, base.tree.sigs)
                checks.expect(not problems, f"cycle {n}: patched tree fails check_tree: {problems[:3]}")
                rebuilt = spans.call("core.adt.rebuild", lambda: grammar.parse_tuple(mtree.to_tuple()))
                rebuilt = spans.call("core.tree.canonicalize", rebuilt.with_canonical_uris)
                spans.call("adapters.pyast.unparse", unparse_python, rebuilt)
                fp = spans.call("server.store.fingerprint", fingerprint_tree, rebuilt)
                checks.expect(fp == applied[n]["result"], f"cycle {n}: sub-layer apply fingerprint differs")

                spans.op = 3 * n + 2
                ingest(applied[n]["source"], "dup.py")
    finally:
        gc.unfreeze()
        service.close()
        obs_off()
        shutil.rmtree(data_dir, ignore_errors=True)

    ids = {k: [i for i, kk in kind_of.items() if kk == k] for k in KINDS}
    every = sorted(kind_of)

    def per(name: str, which: list[int], self_time: bool = False) -> list[float]:
        got = spans.per_op(name, self_time)
        return [got.get(i, 0.0) for i in which]

    svc_gc: dict[int, float] = {}
    svc_self: dict[int, float] = {}
    svc: dict[int, float] = {}
    for name in ("server.service.put_tree", "server.service.apply"):
        svc_gc.update(spans.gc_per_op(name))
        svc_self.update(spans.per_op(name, self_time=True))
        svc.update(spans.per_op(name))
    # the in-process service time of each op, collector pauses included
    svc_full = {i: svc[i] + svc_gc[i] for i in every}
    # what HTTP adds to the service call: untraced p50 - in-process p50,
    # per request kind and per cycle
    transport = {
        k: percentile(http[k], 0.5) - percentile([svc_full[i] for i in ids[k]], 0.5) for k in KINDS
    }
    http_cycle = [sum(ms) for ms in zip(*(http[k] for k in KINDS))]
    inproc_cycle = [sum(svc_full[3 * n + j] for j in range(3)) for n in range(len(plan))]
    put_first = per("server.store.put_source", ids["put_first"])
    snapshot = [a - b for a, b in zip(put_first, per("server.store.put_mem", ids["put_first"]))]
    durable_apply = per("server.durable.apply", ids["apply"])
    journal = [a - b for a, b in zip(durable_apply, per("server.store.apply_stage", ids["apply"]))]

    layers = {
        "server.store.put_first_ms": put_first,
        "server.store.put_dup_ms": per("server.store.put_source", ids["put_dup"]),
        "server.durable.snapshot_ms": snapshot,
        "server.durable.apply_ms": durable_apply,
        "server.store.apply_stage_ms": per("server.store.apply_stage", ids["apply"]),
        "server.durable.journal_ms": journal,
        "server.service.glue_ms": [svc_self[i] for i in every],
        "adapters.pyast.parse_ms": per("adapters.pyast.parse", ids["put_first"] + ids["put_dup"]),
        "core.tree.canonicalize_ms": per("core.tree.canonicalize", every),
        "server.store.fingerprint_ms": per("server.store.fingerprint", every),
        "core.serialize.from_json_ms": per("core.serialize.from_json", ids["apply"]),
        "core.tree.to_mtree_ms": per("core.tree.to_mtree", ids["apply"]),
        "core.mtree.patch_ms": per("core.mtree.patch", ids["apply"]),
        "robustness.check_tree_ms": per("robustness.check_tree", ids["apply"]),
        "core.adt.rebuild_ms": per("core.adt.rebuild", ids["apply"]),
        "adapters.pyast.unparse_ms": per("adapters.pyast.unparse", ids["apply"]),
        "server.httpd.transport_ms": {
            "p50": percentile(http_cycle, 0.5) - percentile(inproc_cycle, 0.5),
            "total": sum(http_cycle) - sum(inproc_cycle),
        },
        "script.edits": [float(len(script_from_json(s))) for s in scripts],
        "python.gc_ms": [svc_gc[i] for i in every],
    }
    scalars = dict(scalars, **{"python.gc_gen2_collections": float(gcm.gen2)})

    def kind_layers(kind: str, names: tuple[str, ...], extra: dict[str, list[float]]) -> dict[str, list[float]]:
        which = ids[kind]
        out = {n + "_ms": per(n, which) for n in names}
        out["server.service.glue_ms"] = [svc_self[i] for i in which]
        out["python.gc_ms"] = [svc_gc[i] for i in which]
        out["server.httpd.transport_ms"] = [transport[kind]]
        out.update(extra)
        return out

    ingest_layers = ("adapters.pyast.parse", "core.tree.canonicalize", "server.store.fingerprint")
    label = (
        "store bookkeeping no sub-layer times, and the p50 of a sum against "
        "the sum of the layers' p50s; the served transport remainder "
        "(untraced HTTP p50 - in-process service p50) is reported as "
        "server.httpd.transport_ms"
    )
    rec = reconcile(
        {
            "put_first": {
                "e2e": http["put_first"],
                "layers": kind_layers("put_first", ingest_layers, {"server.durable.snapshot_ms": snapshot}),
                "remainder_label": label,
            },
            "apply": {
                "e2e": http["apply"],
                "layers": kind_layers(
                    "apply",
                    (
                        "core.serialize.from_json",
                        "core.tree.to_mtree",
                        "core.mtree.patch",
                        "core.adt.rebuild",
                        "core.tree.canonicalize",
                        "adapters.pyast.unparse",
                        "server.store.fingerprint",
                    ),
                    {"server.durable.journal_ms": journal},
                ),
                "remainder_label": label,
            },
            "put_dup": {
                "e2e": http["put_dup"],
                "layers": kind_layers("put_dup", ingest_layers, {}),
                "remainder_label": label,
            },
        }
    )
    ctx.dump_spans(spans)
    return {"series": layers, "scalars": scalars}, rec
