"""The served read workload: fingerprint-addressed diffs against a
warmed daemon, plus the helpers both served workloads share.

Both served workloads drive a real ``python -m repro serve`` subprocess through
``repro.server.client.ServerClient``.  The traced run (``--trace 1``)
repeats the untraced measurement, then replays the same op sequence
against an in-process ``ReproService`` with the same store type and
worker count, recording spans around the service call and around
separate calls of the sub-layer functions on the same inputs.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import sys
import threading
import time
from typing import Any

from common import (
    TAIL_Q,
    GCMonitor,
    SpeedProbe,
    Spans,
    one_cpu,
    percentile,
    pin,
    reconcile,
)
from daemon import Daemon, metric_value
from inputs import History, Size, build_histories

#: one client request timeout; no operation of these workloads comes close
CLIENT_TIMEOUT_S = 120.0
#: concurrent connections of the read loop
CONNECTIONS = 2
#: the read loop runs in bursts this long, with a speed probe before and
#: after each; the host keeps one speed for a few seconds at a time
BURST_S = 0.25


def client_for(url: str):
    from repro.server.client import ServerClient

    # retries=0: a refused or failed request is counted, never hidden
    return ServerClient(url, timeout_s=CLIENT_TIMEOUT_S, retries=0)


def obs_like_daemon():
    """Turn on metrics and tracing the way ``repro serve`` does, so the
    in-process replay runs the same instrumented code paths."""
    from repro import observability as obs

    obs.reset_tracing()
    obs.enable()
    obs.enable_tracing(sample=None)
    return obs.TelemetryCollector(trace=True, sample=None)


def obs_off() -> None:
    from repro import observability as obs

    obs.disable_tracing()
    obs.disable()
    obs.reset()


# ===========================================================================
# served_read


def read_pairs(histories: list[History], big_step: int) -> list[tuple[int, int, int]]:
    """``(history, k, k+1)`` small-change pairs plus ``(history, k, k+j)``
    larger-change pairs for ``2 <= j <= big_step``."""
    pairs = []
    for h, hist in enumerate(histories):
        n = len(hist.versions)
        for j in range(1, big_step + 1):
            for k in range(n - j):
                pairs.append((h, k, k + j))
    return pairs


def served_read(ctx) -> dict[str, Any]:
    size: Size = ctx.size["served_read"]["inputs"]
    big_step = ctx.size["served_read"]["big_step"]
    spawns = ctx.size["served_read"]["spawns"]
    histories = build_histories("served_read", ctx.seed, size)
    pairs = read_pairs(histories, big_step)
    rng = random.Random(f"perfbench:served_read:ops:{ctx.seed}")
    order = list(range(len(pairs)))

    out: dict[str, Any] = {"inputs": [h.describe() for h in histories]}
    checks = ctx.checks

    # -- setup: spawn -> listening (median of several), uploads, warm-up.
    # This process, the daemon and its worker (they inherit the mask)
    # share one CPU with the speed probe for the whole run, and every
    # set-up step is scaled to the reference speed.
    cpus = os.sched_getaffinity(0)
    pin(os.getpid(), one_cpu())
    probe = SpeedProbe()
    spawn_s: list[float] = []
    daemon = None
    for i in range(spawns):
        before = probe.read()
        d = Daemon(ctx.root, workers=1)
        spawn_s.append(probe.scale(d.spawn_s, before, probe.read()))
        if i < spawns - 1:
            d.stop(client_for(d.url))
        else:
            daemon = d
    assert daemon is not None
    try:
        client = client_for(daemon.url)
        upload_ms = [0.0, 0.0]  # wall clock, scaled
        fps: list[list[str]] = []
        for h, hist in enumerate(histories):
            row = []
            for k, src in enumerate(hist.versions):
                ms, scaled, res = probe.timed(lambda: client.put_tree(src, f"h{h}v{k}.py"))
                upload_ms[0] += ms
                upload_ms[1] += scaled
                checks.expect(not res["cached"], f"read upload h{h}v{k} was already stored")
                row.append(res["fingerprint"])
            fps.append(row)
        warm_ms = [0.0, 0.0]
        for h, hist in enumerate(histories):
            for k in range(len(hist.versions) - 1):
                ms, scaled, _ = probe.timed(lambda: client.diff(fps[h][k], fps[h][k + 1]))
                warm_ms[0] += ms
                warm_ms[1] += scaled
        out["setup"] = {
            "spawn_s": spawn_s,
            "upload_s": upload_ms[1] / 1000.0,
            "warm_s": warm_ms[1] / 1000.0,
            "unscaled_upload_s": upload_ms[0] / 1000.0,
            "unscaled_warm_s": warm_ms[0] / 1000.0,
        }
        setup_s = statistics.median(spawn_s) + (upload_ms[1] + warm_ms[1]) / 1000.0

        # -- timed closed loop: two connections from one process, in
        # bursts of BURST_S with a speed probe before and after each
        metrics_before = client.metrics()
        ops: list[dict[str, Any]] = []
        lock = threading.Lock()
        seq = {"next": 0}
        first_bytes: dict[int, str] = {}
        errors: list[str] = []
        bursts: list[tuple[float, float]] = []  # probe before, after

        def next_op() -> tuple[int, int]:
            with lock:
                i = seq["next"]
                seq["next"] += 1
                if i % len(order) == 0:
                    rng.shuffle(order)
                return i, order[i % len(order)]

        # the op sequence is fixed by the seed; which connection sends an
        # op depends on timing, the sequence itself does not
        def loop(burst: int, t_end: float) -> None:
            c = client_for(daemon.url)
            while time.perf_counter() < t_end:
                i, p = next_op()
                h, a, b = pairs[p]
                t = time.perf_counter()
                try:
                    res = c.diff(fps[h][a], fps[h][b])
                except Exception as exc:  # refused or failed: counted
                    with lock:
                        errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                        ops.append({"i": i, "pair": p, "ok": False})
                    continue
                end = time.perf_counter()
                with lock:
                    ops.append(
                        {
                            "i": i,
                            "pair": p,
                            "ok": True,
                            "burst": burst,
                            "ms": (end - t) * 1000.0,
                            "end": end,
                            "diff_ms": res["diff_ms"],
                            "nodes": res["src_nodes"] + res["dst_nodes"],
                            "edits": res["edits"],
                        }
                    )
                    first = first_bytes.setdefault(p, res["script_json"])
                    checks.expect(first == res["script_json"], f"op {i}: pair {p} answered different bytes", i)

        # the trees this process keeps for the correctness check would
        # make its own collector pauses part of every request's latency
        gc.freeze()
        try:
            t_start = time.perf_counter()
            while time.perf_counter() - t_start < ctx.seconds:
                before = probe.read()
                t_end = time.perf_counter() + BURST_S
                threads = [
                    threading.Thread(target=loop, args=(len(bursts), t_end))
                    for _ in range(CONNECTIONS)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join()
                bursts.append((before, probe.read()))
        finally:
            gc.unfreeze()
            pin(os.getpid(), cpus)
        for o in ops:
            if o["ok"]:
                o["scaled"] = probe.scale(o["ms"], *bursts[o["burst"]])
        out["speed_probe"] = probe.summary()
        done = [o for o in ops if o["ok"]]
        wall = max(o["end"] for o in done) - t_start if done else ctx.seconds
        metrics_after = client.metrics()
        peak_rss = daemon.peak_rss_mb()
    finally:
        daemon.stop(client_for(daemon.url))

    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    ops.sort(key=lambda o: o["i"])

    def delta(name: str) -> float:
        return metric_value(metrics_after, name) - metric_value(metrics_before, name)

    store_hits = delta("repro_server_store_hits_total")
    store_misses = delta("repro_server_store_misses_total")
    tree_hits = delta("repro_server_worker_tree_hits_total")
    tree_parses = delta("repro_server_worker_parses_total")
    store_hit_ratio = store_hits / (store_hits + store_misses) if store_hits + store_misses else 0.0
    tree_hit_ratio = tree_hits / (tree_hits + tree_parses) if tree_hits + tree_parses else 0.0
    checks.expect(store_hit_ratio == 1.0, f"store hit ratio {store_hit_ratio} != 1.0")
    checks.expect(tree_hit_ratio == 1.0, f"worker tree hit ratio {tree_hit_ratio} != 1.0")

    # -- correctness: every distinct pair's script patches before into after
    from repro.adapters.pyast import parse_python
    from repro.core import tnode_to_mtree
    from repro.core.serialize import script_from_json

    def tree(h: int, k: int):
        if histories[h].trees:
            return histories[h].trees[k]
        return parse_python(histories[h].versions[k]).with_canonical_uris()

    for p, text in sorted(first_bytes.items()):
        h, a, b = pairs[p]
        before, after = tree(h, a), tree(h, b)
        mtree = tnode_to_mtree(before)
        mtree.patch(script_from_json(text))
        checks.expect(
            mtree.to_tuple() == after.to_tuple(),
            f"pair {p} (h{h} v{a}->v{b}): patched tree differs from the target",
        )
    checks.expect(len(first_bytes) == len(pairs), f"only {len(first_bytes)} of {len(pairs)} pairs were served")

    # every pair is sent tens of times over the loop; a pair's latency
    # is the median of its scaled samples, and the figures are taken over
    # the pairs, which the seeded order sends equally often
    def per_pair(key: str, stat) -> dict[int, float]:
        samples: dict[int, list[float]] = {}
        for o in done:
            samples.setdefault(o["pair"], []).append(o[key])
        return {p: stat(xs) for p, xs in samples.items()}

    by_pair = per_pair("scaled", statistics.median)
    served = sorted(by_pair)
    lat = [by_pair[p] for p in served]
    node_count = {o["pair"]: o["nodes"] for o in done}
    q = TAIL_Q
    # a closed loop of CONNECTIONS completes CONNECTIONS / mean latency
    # ops a second
    busy_s = sum(lat) / 1000.0
    e2e = {
        "setup_s": setup_s,
        "ops_per_s": CONNECTIONS * len(lat) / busy_s,
        "op_p50_ms": percentile(lat, 0.5),
        "op_tail_ms": percentile(lat, q),
        "nodes_per_s": CONNECTIONS * sum(node_count[p] for p in served) / busy_s,
        "peak_rss_mb": peak_rss,
    }
    raw_by_pair = per_pair("ms", statistics.median)
    raw_lat = [raw_by_pair[p] for p in served]
    out["unscaled"] = {
        "op_p50_ms": percentile(raw_lat, 0.5),
        "op_tail_ms": percentile(raw_lat, q),
    }
    out["named"] = {
        "read_rps": e2e["ops_per_s"],
        "diff_p50_ms": e2e["op_p50_ms"],
        "diff_p90_ms": e2e["op_tail_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }
    out["samples"] = {
        "diff": len(done),
        "fewest_per_pair": min((sum(o["pair"] == p for o in done) for p in served), default=0),
        "loop_s": wall,
        "bursts": len(bursts),
        "tail_quantile": q,
        "distinct_pairs": len(pairs),
        "trees": sum(len(h.versions) for h in histories),
        "spawns": spawns,
    }
    out["attempted"] = len(ops)
    out["failed_ops"] = len(ops) - len(done)
    out["e2e"] = e2e
    out["pairs"] = [
        {
            "history": h,
            "before": a,
            "after": b,
            "edits": next((o["edits"] for o in done if o["pair"] == p), None),
            "samples": len(lat_p := [o["ms"] for o in done if o["pair"] == p]),
            "median_scaled_ms": by_pair.get(p),
            "p50_ms": percentile(lat_p, 0.5),
        }
        for p, (h, a, b) in enumerate(pairs)
    ]
    out["daemon_counters"] = {
        "store_hits": store_hits,
        "store_misses": store_misses,
        "worker_tree_hits": tree_hits,
        "worker_parses": tree_parses,
    }

    if ctx.trace:
        out["layers"], out["reconciliation"] = _read_traced(
            ctx,
            histories,
            pairs,
            fps,
            ops,
            first_bytes,
            out["unscaled"]["op_p50_ms"],
            wall,
            {
                "server.store.hit_ratio": store_hit_ratio,
                "server.pool.worker_tree_hit_ratio": tree_hit_ratio,
            },
        )
    return out


def _read_traced(ctx, histories, pairs, fps, ops, first_bytes, http_p50, wall, scalars):
    from repro.core import DiffOptions, URIGen, diff, validate_script
    from repro.core.serialize import script_to_json
    from repro.server import ReproService, TreeStore

    checks = ctx.checks
    collector = obs_like_daemon()
    service = ReproService(TreeStore(), workers=1, collector=collector)
    gcm = GCMonitor()
    spans = Spans(gcm)
    done = [o for o in ops if o["ok"]]
    replay = done[: ctx.size["served_read"]["replay_ops"]]
    # the daemon's collector never sees this process's inputs
    gc.freeze()
    try:
        for h, hist in enumerate(histories):
            for k, src in enumerate(hist.versions):
                res = service.handle("put_tree", {"source": src, "filename": f"h{h}v{k}.py"})
                checks.expect(res["fingerprint"] == fps[h][k], "in-process fingerprint differs from the daemon's")
        for h, hist in enumerate(histories):
            for k in range(len(hist.versions) - 1):
                service.handle("diff", {"before": fps[h][k], "after": fps[h][k + 1]})
        with gcm:
            # phase 1: the ops themselves; phase 2: their sub-layers, as
            # repro.server.pool.diff_trees calls them, on the same trees
            for o in replay:
                spans.op = o["i"]
                h, a, b = pairs[o["pair"]]
                params = {"before": fps[h][a], "after": fps[h][b]}
                res = spans.call("server.service.diff", service.handle, "diff", params)
                checks.expect(
                    res["script_json"] == first_bytes[o["pair"]],
                    f"op {o['i']}: in-process service bytes differ from the daemon's",
                )
            for o in replay:
                spans.op = o["i"]
                h, a, b = pairs[o["pair"]]
                src = service.store.get(fps[h][a]).tree
                dst = service.store.get(fps[h][b]).tree
                script, _ = spans.call(
                    "core.diff.diff",
                    diff,
                    src,
                    dst,
                    DiffOptions(typecheck="none"),
                    urigen=URIGen(start=src.size + 1),
                )
                spans.call("core.typecheck.validate", validate_script, script, src.sigs, "static")
                text = spans.call("core.serialize.to_json", script_to_json, script, indent=2)
                checks.expect(text == first_bytes[o["pair"]], f"op {o['i']}: sub-layer script differs")
                o["nodes_replayed"] = src.size + dst.size
    finally:
        gc.unfreeze()
        service.close()
        obs_off()

    ids = [o["i"] for o in replay]
    svc = spans.per_op("server.service.diff")
    svc_gc = spans.gc_per_op("server.service.diff")
    dif = spans.per_op("core.diff.diff")
    val = spans.per_op("core.typecheck.validate")
    ser = spans.per_op("core.serialize.to_json")
    # what HTTP adds to the service call: untraced p50 - in-process p50
    svc_full = [svc[i] + svc_gc[i] for i in ids]
    # both sides timed alike, in wall-clock time: p50 over pairs of each
    # pair's median
    svc_by_pair: dict[int, list[float]] = {}
    for o, ms in zip(replay, svc_full):
        svc_by_pair.setdefault(o["pair"], []).append(ms)
    transport = http_p50 - percentile([statistics.median(xs) for xs in svc_by_pair.values()], 0.5)
    diff_total_ms = sum(dif[i] for i in ids)
    layers = {
        "server.service.diff_ms": svc_full,
        "server.httpd.transport_ms": {
            "p50": transport,
            "total": sum(o["ms"] for o in done) - len(done) * sum(svc_full) / len(svc_full),
        },
        "core.diff.diff_ms": [dif[i] for i in ids],
        "core.typecheck.validate_ms": [val[i] for i in ids],
        "core.serialize.to_json_ms": [ser[i] for i in ids],
        "server.pool.overhead_ms": [svc[i] - dif[i] - val[i] - ser[i] for i in ids],
        "script.edits": [float(o["edits"]) for o in replay],
        "python.gc_ms": [svc_gc[i] for i in ids],
    }
    scalars = dict(
        scalars,
        **{
            "core.diff.nodes_per_s": sum(o["nodes_replayed"] for o in replay)
            / (diff_total_ms / 1000.0),
            "server.pool.worker_busy_share": sum(o["diff_ms"] for o in done) / (wall * 1000.0),
            "python.gc_gen2_collections": float(gcm.gen2),
        },
    )
    rec = reconcile(
        {
            "diff": {
                "e2e": [http_p50],
                "layers": dict(
                    {"server.httpd.transport_ms": [transport]},
                    **{
                        name: layers[name]
                        for name in (
                            "server.pool.overhead_ms",
                            "core.diff.diff_ms",
                            "core.typecheck.validate_ms",
                            "core.serialize.to_json_ms",
                            "python.gc_ms",
                        )
                    },
                ),
                "remainder_label": "the p50 of a sum against the sum of the "
                "layers' p50s; the served transport remainder (untraced HTTP "
                "p50 - in-process service p50) is reported as "
                "server.httpd.transport_ms",
            }
        }
    )
    ctx.dump_spans(spans)
    return {"series": layers, "scalars": scalars}, rec
