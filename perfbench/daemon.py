"""Start, scrape and stop a real ``python -m repro serve`` subprocess."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from common import proc_children, proc_hwm_mb

LISTENING = re.compile(r"listening on (http://\S+)")


class Daemon:
    """One daemon process on an ephemeral port.

    ``spawn_s`` is the time from ``Popen`` to the daemon's
    ``listening on`` line.  The daemon runs in its own session so
    :meth:`stop` can reap its pool workers with it.
    """

    def __init__(
        self,
        root: Path,
        workers: int,
        data_dir: Optional[Path] = None,
        startup_timeout_s: float = 60.0,
    ) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
        ]
        if data_dir is not None:
            argv += ["--data-dir", str(data_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("OBS_SAMPLE", None)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.url: Optional[str] = None
        self.stderr_tail: list[str] = []
        found = threading.Event()

        def pump() -> None:
            assert self.proc.stderr is not None
            for line in self.proc.stderr:
                if self.url is None:
                    match = LISTENING.search(line)
                    if match:
                        self.url = match.group(1)
                        found.set()
                        continue
                self.stderr_tail = (self.stderr_tail + [line.rstrip()])[-20:]
            found.set()

        # keep draining stderr for the daemon's lifetime so it never
        # blocks on a full pipe
        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        found.wait(startup_timeout_s)
        self.spawn_s = time.perf_counter() - t0
        if self.url is None:
            self.stop()
            raise RuntimeError(
                "daemon never reported a listening address: "
                + " | ".join(self.stderr_tail)
            )

    def pids(self) -> list[int]:
        """The daemon and its pool workers."""
        return [self.proc.pid] + proc_children(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the daemon and its workers."""
        return sum(proc_hwm_mb(pid) for pid in self.pids())

    def stop(self, client=None, timeout_s: float = 30.0) -> None:
        """Drain via ``POST /shutdown`` when a client is given, then make
        sure the daemon and every worker of its session have exited."""
        pids = self.pids() if self.proc.poll() is None else [self.proc.pid]
        if client is not None and self.proc.poll() is None:
            try:
                client.shutdown()
            except Exception:
                pass
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._pump.join(5.0)
        deadline = time.monotonic() + 10.0
        for pid in pids[1:]:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.02)


def metric_value(text: str, name: str) -> float:
    """One un-labelled sample value from a Prometheus exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0
