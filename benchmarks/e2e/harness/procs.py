"""Child processes: launch, watch, stop, and check nothing is left behind.

Every child starts in its own session, so the server, its worker
processes and multiprocessing's resource tracker share one process group
the harness can enumerate (peak RSS) and, on a hang, kill as a whole.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import env

SERVING_LINE = re.compile(r"serving .* on http://([\d.]+):(\d+)")
SHM_DIR = Path("/dev/shm")
STOP_TIMEOUT_S = 30.0
PROGRAM_TIMEOUT_S = 170.0


class Child:
    """One launched process with its stdout drained into ``lines``."""

    def __init__(self, argv: list[str], stdin: bool = False) -> None:
        self.argv = argv
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env=env.child_env(),
            cwd=env.ROOT,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        self.lines: list[str] = []
        self.exited_at: float | None = None
        self._cond = threading.Condition()
        self._cursor = 0
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append(line.rstrip("\n"))
                self._cond.notify_all()
        self.proc.wait()
        with self._cond:
            self.exited_at = time.perf_counter()
            self._cond.notify_all()

    def next_line(self, timeout: float) -> str | None:
        """The next unread stdout line; ``None`` once the child has exited."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._cursor >= len(self.lines):
                if self.exited_at is not None:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{self.argv[:4]} printed nothing for {timeout}s; "
                        f"output so far: {self.lines[-5:]}"
                    )
                self._cond.wait(remaining)
            line = self.lines[self._cursor]
            self._cursor += 1
            return line

    def next_json(self, timeout: float) -> dict:
        """The next stdout line that is a JSON object (others are skipped)."""
        while True:
            line = self.next_line(timeout)
            if line is None:
                raise RuntimeError(
                    f"{self.argv[:4]} exited with {self.proc.returncode}: "
                    + "\n".join(self.lines[-15:])
                )
            if line.startswith("{"):
                return json.loads(line)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def wait_exit(self, timeout: float) -> bool:
        """True once the child has exited (and its output is drained)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.exited_at is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def group_pids(self) -> list[int]:
        """Live processes in the child's process group (itself included)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # exited while we looked
            # Fields after the parenthesised command: state ppid pgrp ...
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[2]) == self.pid and fields[0] != "Z":
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """High-water RSS summed over the group's live processes."""
        total_kb = 0
        for pid in self.group_pids():
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            found = re.search(r"VmHWM:\s+(\d+) kB", status)
            if found:
                total_kb += int(found.group(1))
        return total_kb / 1024.0

    def kill_group(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.wait_exit(10)


def run_program(name: str, *args: str) -> dict:
    """Run ``programs/<name>`` to completion; returns its last JSON line."""
    child = Child([sys.executable, str(env.PROGRAMS / name), *args])
    if not child.wait_exit(PROGRAM_TIMEOUT_S):
        child.kill_group()
        raise RuntimeError(f"{name} did not finish within {PROGRAM_TIMEOUT_S}s")
    if child.proc.returncode != 0:
        raise RuntimeError(
            f"{name} exited with {child.proc.returncode}:\n" + "\n".join(child.lines[-20:])
        )
    for line in reversed(child.lines):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"{name} printed no result")


class Server:
    """A serving process: the CLI's ``repro serve`` or the traced stand-in.

    ``setup_s`` runs from process spawn to the first 200 on ``/healthz``:
    interpreter start, imports, artifact load, worker fork, warm-up.
    """

    def __init__(self, argv: list[str], stdin: bool = False) -> None:
        self.child = Child(argv, stdin=stdin)
        try:
            self.port = self._read_port()
            self._await_healthy()
        except BaseException:
            self.child.kill_group()  # a server that never served leaves nothing
            raise
        self.setup_s = time.perf_counter() - self.child.spawned_at
        self._term_at = 0.0
        self.shutdown_s: float | None = None

    def _read_port(self) -> int:
        while True:
            line = self.child.next_line(timeout=120)
            if line is None:
                raise RuntimeError(
                    "server exited before serving:\n" + "\n".join(self.child.lines[-20:])
                )
            found = SERVING_LINE.search(line)
            if found:
                return int(found.group(2))

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while True:
            try:
                status, _ = self.get("/healthz")
            except (OSError, http.client.HTTPException):
                status = 0
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered 200 on /healthz")
            time.sleep(0.01)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def terminate(self) -> None:
        """SIGTERM now; ``finish`` collects the exit."""
        self._term_at = time.perf_counter()
        self.child.proc.send_signal(signal.SIGTERM)

    def finish(self) -> list[str]:
        """Wait for the exit; returns hygiene violations (empty = clean).

        A server still alive ``STOP_TIMEOUT_S`` after SIGTERM is killed
        and counted as a failure, as is a non-zero exit, a surviving
        process in its group, or a ``repro-serve-<pid>-*`` shared segment
        left in ``/dev/shm``.
        """
        problems = []
        if self.child.wait_exit(STOP_TIMEOUT_S):
            self.shutdown_s = self.child.exited_at - self._term_at
            if self.child.proc.returncode != 0:
                problems.append(f"server exited with {self.child.proc.returncode}")
        else:
            problems.append(f"server ignored SIGTERM for {STOP_TIMEOUT_S}s; killed")
        # The resource tracker outlives its parent by a moment.
        deadline = time.monotonic() + 3
        while (survivors := self.child.group_pids()) and time.monotonic() < deadline:
            time.sleep(0.05)
        if survivors:
            problems.append(f"processes outlived the server: {survivors}")
            self.child.kill_group()
        leaked = sorted(
            p.name for p in SHM_DIR.glob(f"repro-serve-{self.child.pid}-*")
        ) if SHM_DIR.is_dir() else []
        if leaked:
            problems.append(f"shared segments left in /dev/shm: {leaked}")
        return problems

    def stop(self) -> list[str]:
        self.terminate()
        return self.finish()
