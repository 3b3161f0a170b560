"""The two workloads, untraced (end-to-end metrics) and traced
(per-layer metrics). `perfbench/README.md` says why each exists and
how each metric is defined.

Every workload reports every end-to-end metric. An *operation* is what
a user waits for: one warm `pra sweep` on sweep-warm, one request on
serve-churn; latencies are taken over operations.
"""

import json
import os
import shutil
import time

from . import client, schedule, spans, stats
from .oracle import Oracle, golden_sweep_hash, sha256_hex
from .procs import HarnessError, Server, ctl_stats, pra_bin, pra_env, run_timed, trace_bin

SETUP_REPS = 3  # setup_s is the median of this many set-ups from an empty store
# sweep-warm plans one warm sweep per this many seconds of the run (25 at
# 35 s). The count depends on --seconds alone, never on how fast the sweeps
# run, so every run at one --seconds has the same sample count and its
# p95_ms falls back to the same percentile.
SWEEP_PLAN_S = 1.4
# requests/s: 245 requests in a 35 s run, 12 beyond the p95. At 10/s more
# requests overlapped the ~190 ms VGG19 ones on two vCPUs, and p50, first
# frame and peak RSS moved about twice as much between runs.
CHURN_RATE = 7.0
# Latency limits for goodput_rps, about twice the p95 each workload showed
# when the benchmark was defined (2-vCPU VM).
LIMIT_MS = {"sweep-warm": 3000.0, "serve-churn": 450.0}
# A run whose sender ran later than this (p99) did not offer the load it
# claims: it is invalid, not slow.
LATE_P99_LIMIT_MS = 50.0
SERVE_FLAGS = []  # shipped defaults: workers = cores, max batch 8, linger 2 ms
ROUTE_FLAGS = []  # shipped defaults: probe every 100 ms, 500 ms probe deadline (traced runs only)
SWEEP_MARKER = "=== Sweep:"


class Outcome:
    """What one run measured."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}  # name -> (value, unit, samples)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.record = {}
        self.layer = {}  # per-layer metrics of a traced run: name -> value
        self.invalid = None

    def put(self, name, value, unit, samples):
        self.metrics[name] = (value, unit, samples)

    def fail(self, why):
        if len(self.problems) < 20:
            self.problems.append(why)

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def read(path):
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------------
# sweep-warm
# ---------------------------------------------------------------------


def read_report(path, parse):
    try:
        return parse(read(path))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def sweep_once(store, reports, extra=(), marker=None):
    """One `pra sweep` into `store`; (timing, csv bytes, job timings).

    `pra sweep` writes its reports best-effort and still exits 0 when a
    write fails, so the previous sweep's reports are removed first: csv or
    jobs is None when this sweep failed or did not write its own.
    """
    out = os.path.join(reports, "pra-reports")
    shutil.rmtree(out, ignore_errors=True)
    t = run_timed([pra_bin(), "sweep", *extra], pra_env(store, reports), marker)
    if t.code != 0:
        return t, None, None
    csv = read_report(os.path.join(out, "sweep.csv"), bytes)
    jobs = read_report(os.path.join(out, "bench.json"), lambda b: json.loads(b)["job_timings"])
    return t, csv, jobs


def cold_setups(out, work, fill):
    """Runs `fill(store, i)` SETUP_REPS times from an empty store each
    time; returns the last store. setup_s is the median."""
    walls = []
    store = None
    for i in range(SETUP_REPS):
        if store:
            shutil.rmtree(store, ignore_errors=True)
        store = fresh_dir(os.path.join(work, f"store{i}"))
        t0 = time.perf_counter()
        fill(store, i)
        walls.append(time.perf_counter() - t0)
    out.put("setup_s", stats.median(walls), "s", len(walls))
    out.record["setup_s_samples"] = walls
    return store


def check_sweep(out, csv, jobs, golden, reference, warm):
    """Applies the sweep gates (`golden`, `reference`: None to skip);
    whether the sweep passed."""
    problems = []
    if csv is None:
        problems.append("pra sweep failed or wrote no sweep.csv")
    else:
        if golden is not None and sha256_hex(csv) != golden:
            problems.append("sweep.csv does not hash to tests/golden/sweep_full.sha256")
        if reference is not None and csv != reference:
            problems.append("warm sweep.csv differs from the cold sweep's")
    if jobs is None:
        problems.append("pra sweep wrote no job timings (bench.json)")
    elif warm:
        cold = [j["job"] + "/" + j["repr"] for j in jobs if (j["cache"], j["encoded"], j["traffic"]) != ("hit",) * 3]
        if len(jobs) != 12 or cold:
            problems.append(f"warm sweep jobs missed the store: {cold}")
    for p in problems:
        out.fail(p)
    return not problems


def sweep_warm(seed, seconds, work):
    out = Outcome("sweep-warm")
    golden = golden_sweep_hash()
    cold_csv = {}

    def fill(store, i):
        _, csv, jobs = sweep_once(store, os.path.join(work, f"cold{i}"))
        check_sweep(out, csv, jobs, golden, None, warm=False)
        cold_csv["csv"] = csv

    store = cold_setups(out, work, fill)
    reports = os.path.join(work, "warm")
    walls, firsts, rss = [], [], []
    ok = 0
    sweeps = max(1, round(seconds / SWEEP_PLAN_S))
    t_start = time.perf_counter()
    for _ in range(sweeps):
        t, csv, jobs = sweep_once(store, reports, marker=SWEEP_MARKER)
        out.attempted += 1
        if check_sweep(out, csv, jobs, golden, cold_csv["csv"], warm=True) and t.first_result_s:
            ok += 1
            walls.append(t.wall_s * 1e3)
            firsts.append(t.first_result_s * 1e3)
            rss.append(t.maxrss_kb / 1024.0)
        else:
            out.failed += 1
    phase_s = time.perf_counter() - t_start
    if not walls:
        raise HarnessError(f"no warm sweep succeeded: {out.problems[:2]}")
    limit = LIMIT_MS["sweep-warm"]
    pct, tail, beyond = stats.tail(walls)
    out.put("p50_ms", stats.median(walls), "ms", len(walls))
    out.put("p95_ms", tail, "ms", len(walls))
    out.put("ttff_p50_ms", stats.median(firsts), "ms", len(firsts))
    out.put("goodput_rps", 60.0 * sum(w <= limit for w in walls) / phase_s, "1/s", len(walls))
    out.put("peak_rss_mb", stats.median(rss), "MiB", len(rss))
    out.put("ok_frac", ok / out.attempted, "ratio", out.attempted)
    out.record.update(
        {
            "operation": "one warm `pra sweep` (60 rows, 12 jobs), launch to exit",
            "sweep_seed": f"{schedule.DEFAULT_SEED:#x}",
            "sweep_flags": [],
            "warm_sweeps": sweeps,
            "p95_ms_is_percentile": pct,
            "p95_ms_samples_beyond": beyond,
            "goodput_unit": "sweep rows per second, sweeps within the limit only",
            "limit_ms": limit,
            "warm_sweep_ms": walls,
        }
    )
    return out


# ---------------------------------------------------------------------
# serve-churn
# ---------------------------------------------------------------------


def stats_delta(before, after, keys):
    return {k: after.get(k, 0) - before.get(k, 0) for k in keys}


SERVE_COUNTERS = [
    "accepted",
    "answered",
    "shed",
    "batches",
    "pool_hits",
    "worker_restarts",
    "deadline_expired",
    "encode_ms",
    "encoded_hits",
]
ROUTER_COUNTERS = ["routed", "answered", "failovers", "no_shard", "stale_drops"]


def judge(out, records, requests, oracle):
    """Applies the correctness gates to every request; returns the ok ones."""
    sent = {r.id for r in requests}
    out.attempted += len(sent)
    answered = {rec.req.id for rec in records}
    ok = []
    for rec in records:
        if rec.done is None:
            rec.problem = rec.problem or "no terminal answer"
        if rec.problem is None:
            rec.problem = oracle.check(rec.req, rec.terminal)
        if rec.problem is None and rec.req.v == 2 and (rec.frames == 0 or rec.done_frames != rec.frames):
            rec.problem = f"v2 request streamed {rec.frames} frames, done says {rec.done_frames}"
        if rec.problem is None:
            ok.append(rec)
        else:
            out.fail(f"request {rec.req.id}: {rec.problem}")
    missing = len(sent - answered)
    if missing:
        out.fail(f"{missing} request(s) never sent or answered")
    out.failed += len(sent) - len(ok)
    return ok


def serve_metrics(out, ok, lateness, limit):
    lat = [(r.done - r.scheduled) * 1e3 for r in ok]
    ttff = [(r.first_frame - r.scheduled) * 1e3 for r in ok if r.req.v == 2]
    if not lat or not ttff:
        raise HarnessError("no ok answers to measure")
    pct, tail, beyond = stats.tail(lat)
    window = max(r.done for r in ok) - min(r.scheduled for r in ok)
    out.put("p50_ms", stats.median(lat), "ms", len(lat))
    out.put("p95_ms", tail, "ms", len(lat))
    out.put("ttff_p50_ms", stats.median(ttff), "ms", len(ttff))
    out.put("goodput_rps", sum(x <= limit for x in lat) / window, "1/s", len(lat))
    out.put("ok_frac", len(ok) / out.attempted, "ratio", out.attempted)
    late_ms = [x * 1e3 for x in lateness]
    late_p99 = stats.percentile(late_ms, 99)
    out.record.update(
        {
            "p95_ms_is_percentile": pct,
            "p95_ms_samples_beyond": beyond,
            "limit_ms": limit,
            "sender_late_p99_ms": late_p99,
            "sender_late_max_ms": max(late_ms),
            "sender_late_samples": len(late_ms),
        }
    )
    if late_p99 > LATE_P99_LIMIT_MS:
        out.invalid = f"sender fell behind its schedule: p99 lateness {late_p99:.1f} ms > {LATE_P99_LIMIT_MS} ms"


def dump_requests(records, path):
    """Per-request timings of a pass, one JSON line each, ms from schedule."""
    with open(path, "w") as f:
        for r in records:
            row = {"id": r.req.id, "network": r.req.network, "repr": r.req.repr}
            row.update({"engine": r.req.engine, "seed": f"{r.req.seed:#x}", "v": r.req.v, "problem": r.problem})
            for name, t in (("sent", r.sent), ("first_frame", r.first_frame), ("done", r.done)):
                row[f"{name}_ms"] = None if t is None else round((t - r.scheduled) * 1e3, 4)
            if r.problem is None:
                split = json.loads(r.terminal)
                for k in ("batch_size", "enqueue_ms", "batch_ms", "sim_ms", "total_ms"):
                    row[k] = split[k]
            f.write(json.dumps(row) + "\n")


def play(out, requests, serve, route, oracle):
    """Runs one pass of the schedule against `serve`, or through `route`
    in front of it; returns (ok records, all records, lateness, stats deltas)."""
    s0 = ctl_stats(serve.addr)
    r0 = ctl_stats(route.addr) if route else {}
    records, lateness = client.run(requests, (route or serve).addr)
    s1 = ctl_stats(serve.addr)
    r1 = ctl_stats(route.addr) if route else {}
    ok = judge(out, records, requests, oracle)
    deltas = {"serve": stats_delta(s0, s1, SERVE_COUNTERS)}
    if route:
        deltas["router"] = stats_delta(r0, r1, ROUTER_COUNTERS)
    return ok, records, lateness, deltas


def boot_route(work, store, serve):
    env = pra_env(store, os.path.join(work, "serve-reports"))
    cmd = [pra_bin(), "route", "--shard", serve.addr, "--addr", "127.0.0.1:0", *ROUTE_FLAGS]
    return Server(cmd, env, os.path.join(work, "route.log"))


def boot_serve(work, store):
    env = pra_env(store, os.path.join(work, "serve-reports"))
    return Server([pra_bin(), "serve", "--addr", "127.0.0.1:0", *SERVE_FLAGS], env, os.path.join(work, "serve.log"))


def oracle_sweep(out, oracle, work, store, seed, name):
    """A cold `pra sweep` at `seed` into `store`; its rows become the
    oracle's expected answers (the default seed's also hash to the golden)."""
    extra = () if seed == schedule.DEFAULT_SEED else ("--seed", f"{seed:#x}")
    _, csv, jobs = sweep_once(store, os.path.join(work, name), extra)
    golden = golden_sweep_hash() if seed == schedule.DEFAULT_SEED else None
    if check_sweep(out, csv, jobs, golden, None, warm=False):
        oracle.add_sweep(seed, csv.decode())


def churn_setup(out, work, oracle, seed, reps):
    """serve-churn set-up: fill an empty store for all 24 keys (a cold sweep
    at each seed, which also yields the oracle rows), then boot serve."""
    seed2 = schedule.churn_seed(seed)
    walls = []
    serve = None
    store = None
    for i in range(reps):
        if serve:
            serve.stop()
        if store:
            shutil.rmtree(store, ignore_errors=True)
        store = fresh_dir(os.path.join(work, f"store{i}"))
        t0 = time.perf_counter()
        oracle_sweep(out, oracle, work, store, schedule.DEFAULT_SEED, f"fill{i}a")
        oracle_sweep(out, oracle, work, store, seed2, f"fill{i}b")
        serve = boot_serve(work, store)
        walls.append(time.perf_counter() - t0)
    out.put("setup_s", stats.median(walls), "s", len(walls))
    out.record["setup_s_samples"] = walls
    return serve, store


def serve_churn(seed, seconds, work, traced=False):
    out = Outcome("serve-churn")
    oracle = Oracle()
    requests = schedule.churn(seed, seconds, CHURN_RATE)
    serve, store = churn_setup(out, work, oracle, seed, 1 if traced else SETUP_REPS)
    try:
        ok, records, lateness, deltas = play(out, requests, serve, None, oracle)
        dump_requests(records, os.path.join(work, "requests.jsonl"))
        out.put("peak_rss_mb", serve.peak_rss_kb() / 1024.0, "MiB", 1)
        serve_metrics(out, ok, lateness, LIMIT_MS["serve-churn"])
        out.record.update(
            {
                "operation": "one request, scheduled send to terminal line",
                "serve_flags": ["--addr", "127.0.0.1:0", *SERVE_FLAGS],
                "rate": CHURN_RATE,
                "requests": len(requests),
                "workload_seeds": sorted({f"{r.seed:#x}" for r in requests}),
                "v2_requests": sum(r.v == 2 for r in requests),
                "stats_delta": deltas,
                "ok_requests": len(ok),
            }
        )
        if traced:
            traced_pass(out, requests, serve, oracle, work)
            router_pass(out, requests, serve, store, oracle, work)
    finally:
        serve.stop()
    if traced:
        decode_redrive(out, seed, store, work)
    return out


# ---------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------

_SWEEP_LAYERS = [
    ("workloads.resolve_ms", "ms", "lower"),
    ("workloads.hit_frac", "ratio", "higher"),
    ("workloads.resolve_cold_ms", "ms", "lower"),
    ("core.build_start_ms", "ms", "lower"),
    ("core.build_wait_ms", "ms", "lower"),
    ("core.build_wait_cold_ms", "ms", "lower"),
    ("core.finish_ms", "ms", "lower"),
    ("core.finish_cold_ms", "ms", "lower"),
    ("core.encoded_hit_frac", "ratio", "higher"),
    ("engines.DaDN_ms", "ms", "lower"),
    ("engines.Stripes_ms", "ms", "lower"),
    ("core.PRA-2b_ms", "ms", "lower"),
    ("core.PRA-4b_ms", "ms", "lower"),
    ("core.PRA-2b-1R_ms", "ms", "lower"),
    ("engines.VGG19.DaDN_ms", "ms", "lower"),
    ("engines.VGG19.Stripes_ms", "ms", "lower"),
    ("core.VGG19.PRA-2b_ms", "ms", "lower"),
    ("core.VGG19.PRA-4b_ms", "ms", "lower"),
    ("core.VGG19.PRA-2b-1R_ms", "ms", "lower"),
    ("core.column_sync_ms", "ms", "lower"),
    ("core.sim_cycles", "cycles", "lower"),
    ("trace.unaccounted_ms", "ms", "lower"),
]
_SERVE_LAYERS = [
    ("serve.enqueue_ms", "ms", "lower"),
    ("serve.batch_wait_ms", "ms", "lower"),
    ("serve.sim_ms", "ms", "lower"),
    ("serve.batch_size", "requests", "higher"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.wire_p95_ms", "ms", "lower"),
    ("serve.pool_hit_frac", "ratio", "higher"),
    ("serve.encode_ms_per_batch", "ms", "lower"),
    ("serve.encoded_hit_frac", "ratio", "higher"),
    ("serve.frames_per_v2", "frames", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_expired", "count", "lower"),
    ("serve.worker_restarts", "count", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
]
_ROUTER_LAYERS = [
    ("router.hop_ms", "ms", "lower"),
    ("router.failovers", "count", "lower"),
    ("router.no_shard", "count", "lower"),
    ("router.stale_drops", "count", "lower"),
]
# Every per-layer metric: name -> (unit, better, workloads that measure it).
PER_LAYER = {
    name: (unit, better, where)
    for where, rows in [
        ("sweep-warm", _SWEEP_LAYERS),
        ("serve-churn", [("core.decode_sync_ms", "ms", "lower"), ("core.decode_first_layer_ms", "ms", "lower")]),
        ("serve-churn", _SERVE_LAYERS),
        ("serve-churn (routed pass)", _ROUTER_LAYERS),
        ("all", [("trace.overhead_frac", "ratio", "lower")]),
    ]
    for name, unit, better in rows
}


def sweep_layer_metrics(all_spans):
    """Per-layer metrics of the sweep replay: sums per sweep, warm values
    the median over the warm replays."""
    by_run = {}
    for s in all_spans:
        by_run.setdefault(s.run, []).append(s)
    selfs = spans.self_times(all_spans)

    def per_sweep(run_spans):
        m = {}

        def total(pred):
            return sum(s.ms for s in run_spans if pred(s))

        resolves = [s for s in run_spans if s.name == "workloads.resolve"]
        finishes = [s for s in run_spans if s.name == "core.finish"]
        m["workloads.resolve_ms"] = sum(s.ms for s in resolves)
        m["workloads.hit_frac"] = sum(s.attr == "hit" for s in resolves) / len(resolves)
        m["core.build_start_ms"] = total(lambda s: s.name == "core.build_start")
        m["core.build_wait_ms"] = total(lambda s: s.name == "core.build_wait")
        m["core.finish_ms"] = sum(s.ms for s in finishes)
        m["core.encoded_hit_frac"] = sum(s.attr == "hit" for s in finishes) / len(finishes)
        for eng in schedule.ENGINES:
            layer = "engines" if eng in ("DaDN", "Stripes") else "core"
            name = f"{layer}.sim:{eng}"
            m[f"{layer}.{eng}_ms"] = total(lambda s, n=name: s.name == n)
            m[f"{layer}.VGG19.{eng}_ms"] = total(lambda s, n=name: s.name == n and s.job.startswith("VGG19/"))
        m["core.column_sync_ms"] = m["core.PRA-2b-1R_ms"] - m["core.PRA-2b_ms"]
        m["trace.unaccounted_ms"] = sum(selfs[s.id] for s in run_spans if s.name in ("sweep", "job"))
        m["_wall_ms"] = next(s.ms for s in run_spans if s.name == "sweep")
        return m

    cold = per_sweep(by_run["cold"])
    warm = [per_sweep(v) for k, v in by_run.items() if k.startswith("warm-")]
    out = {k: stats.median([w[k] for w in warm]) for k in warm[0] if k != "_wall_ms"}
    out["workloads.resolve_cold_ms"] = cold["workloads.resolve_ms"]
    out["core.build_wait_cold_ms"] = cold["core.build_wait_ms"]
    out["core.finish_cold_ms"] = cold["core.finish_ms"]
    return out, cold["_wall_ms"], [w["_wall_ms"] for w in warm]


def sweep_warm_traced(seed, seconds, work):
    """Replays the cold fill and warm sweeps through the library, then runs
    warm `pra sweep`s on the store the replay filled."""
    out = Outcome("sweep-warm")
    golden = golden_sweep_hash()
    store = fresh_dir(os.path.join(work, "store"))
    span_path = os.path.join(work, "spans.jsonl")
    cold_csv, warm_csv = os.path.join(work, "replay-cold.csv"), os.path.join(work, "replay-warm.csv")
    t = run_timed(
        [
            trace_bin(),
            "sweep",
            "--spans",
            span_path,
            "--cold-csv",
            cold_csv,
            "--warm-csv",
            warm_csv,
            "--warm-seconds",
            str(seconds / 2.0),
        ],
        pra_env(store, os.path.join(work, "replay")),
    )
    if t.code != 0:
        raise HarnessError("traced replay failed")
    summary = json.loads(t.stdout.strip().splitlines()[-1])
    all_spans = spans.load_jsonl(span_path)
    layer, cold_wall, warm_walls = sweep_layer_metrics(all_spans)
    layer["core.sim_cycles"] = summary["sim_cycles"]
    replay_csv = read(cold_csv)
    if read(warm_csv) != replay_csv:
        out.fail("warm replay rows differ from the cold replay's")
    walls = []
    for _ in warm_walls:  # as many CLI sweeps as replayed ones
        tt, csv, jobs = sweep_once(store, os.path.join(work, "warm"), marker=SWEEP_MARKER)
        out.attempted += 1
        if check_sweep(out, csv, jobs, golden, replay_csv, warm=True):
            walls.append(tt.wall_s * 1e3)
        else:
            out.failed += 1
    untraced = stats.median(walls)
    traced = stats.median(warm_walls)
    layer["trace.overhead_frac"] = traced / untraced - 1.0
    out.record.update(
        {
            "replay": summary,
            "replay_cold_wall_ms": cold_wall,
            "replay_warm_wall_ms": warm_walls,
            "untraced_warm_sweep_ms": walls,
            "traced_p50_ms": traced,
            "untraced_p50_ms": untraced,
            "spans": span_path,
            "span_count": len(all_spans),
        }
    )
    out.layer = layer
    return out


def request_spans(records, run):
    """Client-side spans per request; server children from its latency
    split, placed assuming the wire time splits evenly both ways."""
    out = []
    next_id = 1
    t0 = min(r.scheduled for r in records)
    for rec in records:
        if rec.done is None:
            continue

        def ms(t):
            return (t - t0) * 1e3

        root = spans.Span(next_id, 0, "request", ms(rec.scheduled), ms(rec.done), run, str(rec.req.id), f"v{rec.req.v}")
        out.append(root)
        out.append(spans.Span(next_id + 1, root.id, "client.lateness", ms(rec.scheduled), ms(rec.sent), run, root.job))
        next_id += 2
        if rec.first_frame is not None:
            out.append(spans.Span(next_id, root.id, "client.first_frame", ms(rec.sent), ms(rec.first_frame), run, root.job))
            next_id += 1
        try:
            split = json.loads(rec.terminal)
            total = split["total_ms"]
        except (ValueError, KeyError, TypeError):
            continue
        wire = (rec.done - rec.sent) * 1e3 - total
        start = ms(rec.sent) + wire / 2
        server = spans.Span(next_id, root.id, "serve.total", start, start + total, run, root.job, f"batch{split['batch_size']}")
        out.append(server)
        next_id += 1
        cursor = start
        for part, key in (("serve.enqueue", "enqueue_ms"), ("serve.batch_wait", "batch_ms"), ("serve.sim", "sim_ms")):
            out.append(spans.Span(next_id, server.id, part, cursor, cursor + split[key], run, root.job))
            cursor += split[key]
            next_id += 1
    return out


def traced_pass(out, requests, serve, oracle, work):
    """Replays the same schedule with spans recorded; per-layer metrics."""
    untraced_p50 = out.metrics["p50_ms"][0]
    pass_out = Outcome(out.workload)
    ok, records, lateness, deltas = play(pass_out, requests, serve, None, oracle)
    for p in pass_out.problems:
        out.fail(f"traced pass: {p}")
    out.attempted += pass_out.attempted
    out.failed += pass_out.failed
    span_list = request_spans(records, "traced")
    with open(os.path.join(work, "spans.jsonl"), "w") as f:
        for s in span_list:
            f.write(s.to_json() + "\n")
    layer = {}

    def split(key):
        return [json.loads(r.terminal)[key] for r in ok]

    layer["serve.enqueue_ms"] = stats.median(split("enqueue_ms"))
    layer["serve.batch_wait_ms"] = stats.median(split("batch_ms"))
    layer["serve.sim_ms"] = stats.median(split("sim_ms"))
    layer["serve.batch_size"] = stats.mean(split("batch_size"))
    wire = [(r.done - r.sent) * 1e3 - total for r, total in zip(ok, split("total_ms"))]
    layer["serve.wire_ms"] = stats.median(wire)
    layer["serve.wire_p95_ms"] = stats.tail(wire)[1]
    d = deltas["serve"]
    batches = max(1, d["batches"])
    layer["serve.pool_hit_frac"] = d["pool_hits"] / batches
    layer["serve.encode_ms_per_batch"] = d["encode_ms"] / batches
    misses = d["batches"] - d["pool_hits"]
    layer["serve.encoded_hit_frac"] = d["encoded_hits"] / misses if misses else 0.0
    v2 = [r for r in ok if r.req.v == 2]
    layer["serve.frames_per_v2"] = stats.mean([r.frames for r in v2]) if v2 else 0.0
    layer["serve.shed"] = d["shed"]
    layer["serve.deadline_expired"] = d["deadline_expired"]
    layer["serve.worker_restarts"] = d["worker_restarts"]
    layer["client.late_p99_ms"] = stats.percentile([x * 1e3 for x in lateness], 99)
    traced_p50 = stats.median([(r.done - r.scheduled) * 1e3 for r in ok])
    layer["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    out.record.update(
        {
            "traced_p50_ms": traced_p50,
            "untraced_p50_ms": untraced_p50,
            "traced_stats_delta": deltas,
            "spans": os.path.join(work, "spans.jsonl"),
            "span_count": len(span_list),
        }
    )
    out.layer = layer


def router_pass(out, requests, serve, store, oracle, work):
    """The schedule once more, through `pra route` in front of the same
    server, for the router's per-layer metrics (the gated runs use the
    direct connection only)."""
    route = boot_route(work, store, serve)
    try:
        pass_out = Outcome(out.workload)
        ok, _, _, deltas = play(pass_out, requests, serve, route, oracle)
    finally:
        route.stop()
    for p in pass_out.problems:
        out.fail(f"routed pass: {p}")
    out.attempted += pass_out.attempted
    out.failed += pass_out.failed
    wire = [(r.done - r.sent) * 1e3 - json.loads(r.terminal)["total_ms"] for r in ok]
    out.layer["router.hop_ms"] = stats.median(wire) - out.layer["serve.wire_ms"]
    for k in ("failovers", "no_shard", "stale_drops"):
        out.layer[f"router.{k}"] = deltas["router"][k]
    out.record["route_flags"] = ["--addr", "127.0.0.1:0", *ROUTE_FLAGS]
    out.record["routed_stats_delta"] = deltas


def decode_redrive(out, seed, store, work):
    """serve-churn: one v1-style and one v2-style pool-miss resolution per key."""
    keys = ",".join(f"{n}:{r}:{s:#x}" for n, r, s in schedule.churn_keys(seed))
    span_path = os.path.join(work, "decode-spans.jsonl")
    t = run_timed(
        [trace_bin(), "decode", "--spans", span_path, "--keys", keys],
        pra_env(store, os.path.join(work, "decode")),
    )
    if t.code != 0:
        raise HarnessError("decode re-drive failed")
    decoded = spans.load_jsonl(span_path)
    sync = [s for s in decoded if s.name == "core.decode_sync"]
    first = [s for s in decoded if s.name == "core.decode_first_layer"]
    cold = [s.job for s in decoded if s.name in ("core.decode_sync", "core.finish") and s.attr != "hit"]
    if cold:
        out.fail(f"decode re-drive missed the warm store for {sorted(set(cold))}")
    out.layer["core.decode_sync_ms"] = stats.mean([s.ms for s in sync])
    out.layer["core.decode_first_layer_ms"] = stats.mean([s.ms for s in first])
    out.record["decode_spans"] = span_path
    out.record["decode_per_key_ms"] = {s.job: round(s.ms, 3) for s in sync}
