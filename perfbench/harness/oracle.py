"""Correctness gates: sweep CSVs against the golden hash, serve answers
against the sweep rows.

A serve response's `digest` is SHA-256 over
`pra-serve-v1|net|repr|engine|seed|cycles|terms|speedup`; the oracle
computes it from the sweep row with the same (network, repr, engine,
seed), so every ok answer is checked against an independent run of the
same simulation.
"""

import hashlib
import json
import os
import re

GOLDEN = os.path.join("tests", "golden", "sweep_full.sha256")
_SPEEDUP = re.compile(r'"speedup": ([0-9.]+)')


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def golden_sweep_hash():
    with open(GOLDEN) as f:
        return f.read().split()[0]


def parse_csv(text):
    """Sweep CSV -> {(network, repr, engine): (cycles, terms, speedup_text)}."""
    lines = text.splitlines()
    if not lines or lines[0] != "network,repr,engine,cycles,terms,speedup":
        raise ValueError("not a sweep CSV")
    rows = {}
    for line in lines[1:]:
        net, repr_, engine, cycles, terms, speedup = line.split(",")
        rows[(net, repr_, engine)] = (int(cycles), int(terms), speedup)
    return rows


def digest(network, repr_, engine, seed, cycles, terms, speedup_text):
    canon = f"pra-serve-v1|{network}|{repr_}|{engine}|{seed:#018x}|{cycles}|{terms}|{speedup_text}"
    return sha256_hex(canon.encode())


class Oracle:
    """Expected answers per (network, repr, engine, seed)."""

    def __init__(self):
        self.rows = {}

    def add_sweep(self, seed, csv_text):
        for (net, repr_, engine), row in parse_csv(csv_text).items():
            self.rows[(net, repr_, engine, seed)] = row

    def check(self, req, line):
        """None when `line` is a correct ok answer to `req`, else why not."""
        try:
            resp = json.loads(line)
        except ValueError:
            return f"unparsable terminal line: {line[:120]}"
        if resp.get("status") != "ok":
            return f"status {resp.get('status')}: {line[:160]}"
        want = self.rows.get(req.key())
        if want is None:
            return f"no oracle row for {req.key()}"
        cycles, terms, speedup = want
        m = _SPEEDUP.search(line)
        got = (
            resp.get("id"),
            resp.get("network"),
            resp.get("repr"),
            resp.get("engine"),
            resp.get("seed"),
            resp.get("cycles"),
            resp.get("terms"),
            m.group(1) if m else None,
        )
        expect = (req.id, req.network, req.repr, req.engine, f"{req.seed:#x}", cycles, terms, speedup)
        if got != expect:
            return f"answer {got} != oracle {expect}"
        if resp.get("digest") != digest(req.network, req.repr, req.engine, req.seed, cycles, terms, speedup):
            return f"digest mismatch for request {req.id}"
        return None
