"""Building `pra`, timing its processes, and running its servers.

Every process started here is registered, and `stop_all` (called on
every exit path of `run.py`) terminates and reaps whatever is left.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time


class HarnessError(Exception):
    """The harness could not run (build, boot or I/O failed): no result."""


_LIVE = []


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def pra_bin():
    return os.path.join(build_dir(), "release", "pra")


def trace_bin():
    return os.path.join(build_dir(), "release", "perfbench-trace")


def build():
    """Builds `pra` and the traced replay from the checkout's sources."""
    if not os.path.exists("Cargo.toml"):
        raise HarnessError("no Cargo.toml here: run from the root of a checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "pra"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/trace/Cargo.toml"],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise HarnessError(f"build failed: {' '.join(cmd)}")


def pra_env(store, reports):
    """Environment for a `pra` child: its artifact store and report dir."""
    env = dict(os.environ)
    env.pop("PRA_BENCH_PALLETS", None)
    env.pop("PRA_NO_CACHE", None)
    env.pop("PRA_CHAOS", None)
    env["PRA_CACHE_DIR"] = store
    # `pra sweep` writes sweep.csv and bench.json under $CARGO_TARGET_DIR.
    env["CARGO_TARGET_DIR"] = reports
    return env


class Timed:
    """One finished child: wall time, peak RSS and the first-result instant."""

    __slots__ = ("wall_s", "first_result_s", "maxrss_kb", "code", "stdout")


def run_timed(cmd, env, result_marker=None):
    """Runs `cmd` to exit, timing it from launch.

    `first_result_s` is when the first stdout line after a line starting
    with `result_marker` and a dashed rule arrived (the first row of a
    printed result table), or None.
    """
    out = Timed()
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    _LIVE.append(p)
    lines = []
    seen_marker = seen_rule = False
    out.first_result_s = None
    try:
        for line in p.stdout:
            if out.first_result_s is None and result_marker:
                if line.startswith(result_marker):
                    seen_marker = True
                elif seen_marker and line.startswith("---"):
                    seen_rule = True
                elif seen_rule:
                    out.first_result_s = time.perf_counter() - t0
            lines.append(line)
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        _LIVE.remove(p)
    out.wall_s = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    out.code = p.returncode
    out.maxrss_kb = usage.ru_maxrss
    out.stdout = "".join(lines)
    return out


class Server:
    """A long-running `pra serve` or `pra route`, stdout to a log file."""

    def __init__(self, cmd, env, log_path):
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.p = subprocess.Popen(cmd, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        _LIVE.append(self.p)
        self.addr = self._wait_listening()

    def _wait_listening(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on (\S+?:\d+)")
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                m = pattern.search(f.read())
            if m:
                return m.group(1)
            if self.p.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise HarnessError(f"server did not come up; log: {self.log_path}")

    def peak_rss_kb(self):
        with open(f"/proc/{self.p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise HarnessError("no VmHWM for the server process")

    def stop(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
            try:
                self.p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        if self.p in _LIVE:
            _LIVE.remove(self.p)
        self.log.close()


def stop_all():
    for p in list(_LIVE):
        if p.poll() is None:
            p.kill()
        p.wait()
        _LIVE.remove(p)


def addr_tuple(addr):
    host, port = addr.rsplit(":", 1)
    return host, int(port)


def ctl_stats(addr):
    """One `{"ctl": "stats"}` exchange; the parsed answer line."""
    with socket.create_connection(addr_tuple(addr), timeout=10) as s:
        s.sendall(b'{"ctl": "stats"}\n')
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode())
