"""Span arithmetic: durations, coverage and self time.

A span's self time is its duration minus the part of its interval that
its children cover (the union of the child intervals, clipped to the
span), so overlapping or parallel children are not counted twice.
"""

import json


class Span:
    __slots__ = ("id", "parent", "name", "run", "job", "attr", "start", "end")

    def __init__(self, sid, parent, name, start, end, run="", job="", attr=""):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.run = run
        self.job = job
        self.attr = attr

    @property
    def ms(self):
        return self.end - self.start

    def to_json(self):
        return json.dumps(
            {
                "id": self.id,
                "parent": self.parent,
                "name": self.name,
                "run": self.run,
                "job": self.job,
                "attr": self.attr,
                "start_ms": round(self.start, 4),
                "end_ms": round(self.end, 4),
            }
        )


def load_jsonl(path):
    spans = []
    with open(path) as f:
        for line in f:
            d = json.loads(line)
            spans.append(
                Span(d["id"], d["parent"], d["name"], d["start_ms"], d["end_ms"], d["run"], d["job"], d["attr"])
            )
    return spans


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans):
    """{span id: self time} for every span."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.ms - covered(s.start, s.end, children.get(s.id, [])) for s in spans}
