#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer performance of the `pra` stack.

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn. Run from the root of a
checkout. It builds `pra` (and, for traced runs,
the replay in perfbench/trace) from source into $CARGO_TARGET_DIR
(default .bench_build), runs the workload, checks every output against
the goldens, prints a readable table and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones
from a traced replay. Exit codes: 0 ok, 1 a correctness gate failed,
2 the harness could not run, 3 the run is invalid (the open-loop sender
fell behind its schedule). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import procs, workloads  # noqa: E402

UNTRACED = {
    "sweep-warm": workloads.sweep_warm,
    "serve-churn": workloads.serve_churn,
}
TRACED = {
    "sweep-warm": workloads.sweep_warm_traced,
    "serve-churn": lambda seed, seconds, work: workloads.serve_churn(seed, seconds, work, traced=True),
}
END_TO_END = ["setup_s", "p50_ms", "p95_ms", "ttff_p50_ms", "goodput_rps", "peak_rss_mb", "ok_frac"]


def source_version():
    """The git commit when there is one, else a hash of the sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        if rev:
            return {"git": rev}
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for root in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims"):
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs
        )
        for p in paths:
            if "/target" in p:
                continue
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return {"source_sha256": h.hexdigest()}


def table(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)


def run_one(workload, seed, seconds, trace):
    """Runs one workload, prints its table and result line; the exit code."""
    try:
        procs.build()
        work = workloads.fresh_dir(os.path.join(procs.build_dir(), "perfbench-work", workload))
        out = (TRACED if trace else UNTRACED)[workload](seed, seconds, work)
    except procs.HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        procs.stop_all()

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pra": source_version(),
        "python": sys.version.split()[0],
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in out.metrics.items()},
        **out.record,
    }
    if trace:
        metrics = {
            name: {"value": float(out.layer.get(name, 0.0)), "unit": unit}
            for name, (unit, _better, _where) in workloads.PER_LAYER.items()
        }
        record["per_layer_not_measured"] = sorted(set(workloads.PER_LAYER) - set(out.layer))
        rows = [("metric", "value", "unit", "measured on")]
        for name, (unit, _better, where) in workloads.PER_LAYER.items():
            rows.append((name, f"{metrics[name]['value']:.4f}", unit, where if name in out.layer else "-"))
    else:
        metrics = {}
        rows = [("metric", "value", "unit", "samples")]
        for name in END_TO_END:
            v, u, n = out.metrics[name]
            metrics[name] = {"value": float(v), "unit": u}
            rows.append((name, f"{v:.4f}", u, str(n)))
    record["metrics"] = metrics
    record_path = os.path.join(work, "record.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=2)

    print(f"perfbench {workload} (seed {seed}, {seconds:g} s, trace {trace})")
    print(table(rows))
    print(f"attempted {out.attempted}, failed {out.failed}; run record: {record_path}")
    for p in out.problems:
        print(f"FAILED: {p}")
    if out.invalid:
        print(f"perfbench: INVALID RUN: {out.invalid}", file=sys.stderr)
        return 3
    result = {"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if out.correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*UNTRACED, "all"])
    ap.add_argument("--seed", required=True, type=lambda v: int(v, 16) if v[:2].lower() == "0x" else int(v))
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    names = list(UNTRACED) if args.workload == "all" else [args.workload]
    return max(run_one(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
