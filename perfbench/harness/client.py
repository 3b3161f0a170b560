"""The open-loop client: one thread, one connection.

Each request is sent when its schedule says, whether or not earlier
answers have arrived, and is timed from its *scheduled* instant, so a
stall that delays later sends is charged to them (no coordinated
omission). How late the sender ran is recorded per request.
"""

import json
import selectors
import socket
import time

from .procs import HarnessError, addr_tuple

LEAD_IN_S = 0.25  # from connecting to the schedule's time zero
GRACE_S = 30.0  # how long answers are awaited after the last send


class Record:
    """What happened to one request."""

    __slots__ = ("req", "scheduled", "sent", "first_frame", "done", "frames", "done_frames", "terminal", "problem")

    def __init__(self, req, scheduled, sent):
        self.req = req
        self.scheduled = scheduled
        self.sent = sent
        self.first_frame = None
        self.done = None
        self.frames = 0
        self.done_frames = None
        self.terminal = None  # the v1 terminal line (a v2 `done` payload, unwrapped)
        self.problem = None


def _on_line(by_id, line, t):
    try:
        msg = json.loads(line)
    except ValueError:
        raise HarnessError(f"server sent a non-JSON line: {line[:120]!r}")
    rec = by_id.get(msg.get("id"))
    if rec is None or rec.done is not None:
        raise HarnessError(f"answer for an unknown or finished request: {line[:120]!r}")
    status = msg.get("status")
    if status == "layer_result":
        rec.frames += 1
        if rec.first_frame is None:
            rec.first_frame = t
        return False
    rec.done = t
    if status == "done":
        rec.done_frames = msg.get("frames")
        payload = msg.get("payload")
        try:
            inner = json.loads(payload) if isinstance(payload, str) else None
        except ValueError:
            inner = None
        if not inner or inner.get("status") not in ("ok", "error", "shed"):
            rec.problem = "v2 done payload is not a v1 terminal line"
        rec.terminal = payload if isinstance(payload, str) else "{}"
    else:
        rec.terminal = line
    return True


def run(requests, addr):
    """Plays `requests` (in schedule order) against `addr` over one
    connection. Returns (records in request-id order, per-request sender
    lateness in s)."""
    sock = socket.create_connection(addr_tuple(addr), timeout=10)
    sel = selectors.DefaultSelector()
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sel.register(sock, selectors.EVENT_READ)
        buf = b""
        by_id = {}
        lateness = []
        pending = len(requests)
        t0 = time.perf_counter() + LEAD_IN_S
        deadline = t0 + (requests[-1].at if requests else 0.0) + GRACE_S
        nxt = 0
        while pending:
            now = time.perf_counter()
            while nxt < len(requests) and t0 + requests[nxt].at <= now:
                r = requests[nxt]
                due = t0 + r.at
                sent = time.perf_counter()
                sock.sendall((r.line() + "\n").encode())
                lateness.append(sent - due)
                by_id[r.id] = Record(r, due, sent)
                nxt += 1
                now = time.perf_counter()
            if now >= deadline:
                break
            wait = deadline - now
            if nxt < len(requests):
                wait = min(wait, t0 + requests[nxt].at - now)
            if sel.select(max(0.0, wait)):
                chunk = sock.recv(1 << 16)
                t = time.perf_counter()
                if not chunk:
                    raise HarnessError("connection closed by the server")
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if _on_line(by_id, line.decode(), t):
                        pending -= 1
    finally:
        sel.close()
        sock.close()
    return sorted(by_id.values(), key=lambda rec: rec.req.id), lateness
