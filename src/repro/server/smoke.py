"""End-to-end differential gate for the diff daemon (the CI
``server-smoke`` job; runnable locally as ``python -m repro.server.smoke``).

What it enforces, against a real ``python -m repro serve`` subprocess:

1. **Byte identity** — for every frozen-corpus pair, the server's raw
   diff response equals the stdout of one-shot ``repro diff --json``
   byte for byte (unparseable sources must come back as structured 400s,
   mirroring the CLI's exit-2 diagnostics);
2. **Parse-once caching** — re-uploading a source byte for byte is a
   store cache hit that parses nothing, and a repeated fingerprint diff
   re-parses nothing either (``repro_server_store_parses_total``
   scraped from ``/metrics`` does not move across the repeat and the
   re-uploads);
3. **Concurrency** — ≥ 32 concurrent fingerprint diffs all succeed with
   identical bytes;
4. **Observability surfaces** — ``/metrics`` is scrapeable Prometheus
   text carrying the request counters, ``/trace`` yields a Chrome trace
   document with ``repro.server.request`` spans;
5. **Batch apply** — ``/apply-batch`` schedules three independent
   scripts into one wave, applies them (in parallel when the daemon has
   workers) with the in-request differential oracle on, lands on the
   same fingerprint as uploading the combined source, and is
   deterministic across repeats;
6. **Graceful shutdown** — ``POST /shutdown`` drains and the daemon
   exits 0.

Exit status: 0 all gates pass, 1 any gate fails, 2 setup problems.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from .client import ClientError, ServerClient

LISTENING = re.compile(r"listening on (http://[^ ]+)")


def metric_value(metrics_text: str, name: str) -> float:
    """One un-labelled sample value from a Prometheus exposition."""
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def corpus_pairs(root: Path) -> list[tuple[Path, Path]]:
    from repro.batch import discover_pairs

    pairs, _, _ = discover_pairs(str(root / "before"), str(root / "after"))
    return [(Path(b), Path(a)) for b, a in pairs]


def cli_diff_json(before: Path, after: Path) -> "tuple[int, bytes]":
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "diff", str(before), str(after), "--json"],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.server.smoke")
    parser.add_argument(
        "--corpus",
        default="tests/fixtures/batch",
        help="frozen corpus root with before/ and after/ (default tests/fixtures/batch)",
    )
    parser.add_argument("--workers", type=int, default=2, help="daemon diff workers")
    parser.add_argument(
        "--concurrency", type=int, default=32, help="simultaneous diff requests (>= 32)"
    )
    parser.add_argument(
        "--startup-timeout", type=float, default=30.0, help="seconds to wait for the daemon"
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="run the daemon on a durable store rooted here (exercises the "
        "WAL write path under every gate)",
    )
    args = parser.parse_args(argv)

    corpus = Path(args.corpus)
    if not (corpus / "before").is_dir():
        print(f"smoke: corpus not found: {corpus}", file=sys.stderr)
        return 2
    pairs = corpus_pairs(corpus)
    if not pairs:
        print(f"smoke: no pairs under {corpus}", file=sys.stderr)
        return 2

    argv_daemon = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--workers",
        str(args.workers),
    ]
    if args.data_dir:
        argv_daemon += ["--data-dir", args.data_dir]
    daemon = subprocess.Popen(argv_daemon, stderr=subprocess.PIPE, text=True)
    failures: list[str] = []

    def fail(msg: str) -> None:
        print(f"smoke: FAIL: {msg}", file=sys.stderr)
        failures.append(msg)

    try:
        # -- wait for the listener ------------------------------------
        base_url = None
        deadline = time.time() + args.startup_timeout
        assert daemon.stderr is not None
        while time.time() < deadline:
            line = daemon.stderr.readline()
            if not line:
                break
            match = LISTENING.search(line)
            if match:
                base_url = match.group(1)
                break
        if base_url is None:
            print("smoke: daemon never reported a listening address", file=sys.stderr)
            daemon.kill()
            return 2
        client = ServerClient(base_url)
        print(f"smoke: daemon up at {base_url}, {len(pairs)} corpus pair(s)")

        # -- gate 1: byte identity across the corpus ------------------
        fingerprints: dict[Path, str] = {}
        diffable: list[tuple[Path, Path]] = []
        for before, after in pairs:
            rc, cli_out = cli_diff_json(before, after)
            if rc == 2:
                # CLI rejects the pair (syntax/io): the server must
                # reject the upload with a structured bad_request
                for path in (before, after):
                    try:
                        client.put_tree(path.read_text("utf8"), str(path))
                    except ClientError as exc:
                        if exc.status != 400:
                            fail(f"{path}: expected 400, got {exc.status}")
                    except OSError:
                        pass
                continue
            if rc != 0:
                fail(f"CLI diff failed on {before} -> {after} (exit {rc})")
                continue
            fps = []
            for path in (before, after):
                if path not in fingerprints:
                    fingerprints[path] = client.put_tree(
                        path.read_text("utf8"), str(path)
                    )["fingerprint"]
                fps.append(fingerprints[path])
            server_out = client.diff_raw(fps[0], fps[1])
            if server_out != cli_out:
                fail(f"{before} -> {after}: server diff is not byte-identical to CLI")
            else:
                diffable.append((before, after))
        distinct = len(set(fingerprints.values()))
        print(
            f"smoke: byte-identity: {len(diffable)} pair(s) identical, "
            f"{distinct} distinct tree(s) stored"
        )

        # -- gate 2: parse-once caching -------------------------------
        parses_before = metric_value(client.metrics(), "repro_server_store_parses_total")
        before, after = diffable[0]
        first = client.diff_raw(fingerprints[before], fingerprints[after])
        repeat = client.diff_raw(fingerprints[before], fingerprints[after])
        if first != repeat:
            fail("repeated diff request returned different bytes")
        for path in (before, after):  # re-upload: content-addressed hit
            again = client.put_tree(path.read_text("utf8"), str(path))
            if not again["cached"]:
                fail(f"re-upload of {path} was not a store cache hit")
        metrics = client.metrics()
        parses_after = metric_value(metrics, "repro_server_store_parses_total")
        # byte-identical re-uploads are answered from the store's source
        # map, and fingerprint diffs never parse: no new parse at all
        if parses_after != parses_before:
            fail(
                "repeat diffs or byte-identical re-uploads parsed in the store: "
                f"parses went {parses_before} -> {parses_after} (expected +0)"
            )
        if metric_value(metrics, "repro_server_store_dups_total") < 2:
            fail("re-uploads were not counted as store dups")
        print(
            f"smoke: parse-once: store parses {parses_after:.0f} "
            f"(first uploads only), repeat diff identical"
        )

        # -- gate 3: concurrency --------------------------------------
        n = max(32, args.concurrency)
        results: list = [None] * n
        def one(i: int) -> None:
            b, a = diffable[i % len(diffable)]
            try:
                results[i] = client.diff_raw(fingerprints[b], fingerprints[a])
            except Exception as exc:  # noqa: BLE001 - recorded and asserted
                results[i] = exc
        threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
        t0 = time.time()
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        errors = [r for r in results if not isinstance(r, bytes)]
        if errors:
            fail(f"{len(errors)}/{n} concurrent requests failed: {errors[:3]}")
        else:
            print(f"smoke: concurrency: {n} simultaneous diffs ok in {time.time() - t0:.2f}s")

        # -- gate 4: observability surfaces ---------------------------
        if "repro_server_requests_total" not in metrics:
            fail("/metrics exposition lacks repro_server_requests_total")
        trace = client.trace()
        names = {e.get("name") for e in trace.get("traceEvents", []) if e.get("ph") == "X"}
        if "repro.server.request" not in names:
            fail(f"/trace has no repro.server.request spans (got {sorted(names)[:5]})")
        else:
            print(f"smoke: observability: /metrics scrapeable, /trace has {len(names)} span name(s)")

        # -- gate 5: batch apply under the truerace schedule ----------
        batch_src = (
            "def f(x):\n    return x + 1\n\n"
            "def g(y):\n    return y * 2\n\n"
            "def h(z):\n    return z - 3\n"
        )
        edits = [("x + 1", "x + 100"), ("y * 2", "y * 200"), ("z - 3", "z - 300")]
        combined = batch_src
        for old, new in edits:
            combined = combined.replace(old, new)
        base_fp = client.put_tree(batch_src, "batch.py")["fingerprint"]
        scripts = [
            client.diff(base_fp, {"source": batch_src.replace(old, new)})["script"]
            for old, new in edits
        ]
        out = client.apply_batch(base_fp, scripts, oracle=True)
        if out["applied"] != 3 or out["rejected"] != 0:
            fail(f"apply-batch verdicts: {out['applied']} applied, {out['rejected']} rejected")
        if out["schedule"]["waves"] != [[0, 1, 2]]:
            fail(f"independent scripts did not schedule into one wave: {out['schedule']['waves']}")
        if not out.get("oracle", {}).get("ok"):
            fail(f"apply-batch differential oracle: {out.get('oracle')}")
        want = client.put_tree(combined, "batch.py")
        if not want["cached"] or want["fingerprint"] != out["fingerprint"]:
            fail("apply-batch result is not the combined-source tree")
        again = client.apply_batch(base_fp, scripts, commit=False, oracle=True)
        if again["fingerprint"] != out["fingerprint"]:
            fail("apply-batch is not deterministic across repeats")
        if not failures:
            print(
                f"smoke: apply-batch: 3 scripts, 1 wave, mode {out['mode']}, "
                f"oracle ok, fingerprint matches combined source"
            )

        # -- gate 6: graceful shutdown --------------------------------
        client.shutdown()
        rc = daemon.wait(timeout=60)
        if rc != 0:
            fail(f"daemon exited {rc} after graceful shutdown")
        else:
            print("smoke: shutdown: drained and exited 0")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    if failures:
        print(f"smoke: {len(failures)} gate failure(s)", file=sys.stderr)
        return 1
    print("smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
