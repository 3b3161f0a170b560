//! Traced replay for the perfbench harness (see `perfbench/README.md`).
//!
//! `pra` records no per-layer spans of its own, so this program replays
//! what it does through the library's public calls and times each call
//! from outside:
//!
//! * `sweep` replays a cold fill of an empty artifact store and then
//!   warm sweeps, job for job as `pra sweep` runs them: the same
//!   configurations, job order and thread pool. It writes each replay's
//!   CSV so the harness can hold it against the bytes the CLI wrote.
//! * `decode` re-drives, for each workload key of a warm store, the two
//!   ways a `pra serve` pool miss resolves artifacts: the v1 synchronous
//!   decode, and the v2 pipelined build up to its first layer.
//!
//! Spans stay in memory and are written as JSON lines when the run ends.
//! Run it through `python3 perfbench/run.py --trace 1`, which builds it,
//! points `PRA_CACHE_DIR` at the store and turns the spans into metrics.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use pra_bench::sweep::{csv_rows, pra_configs, repr_label, SweepConfig, SweepRow, CSV_HEADER};
use pragmatic::core::{simulate_layer_shared, SharedEncodedNetwork};
use pragmatic::engines::{dadn, stripes};
use pragmatic::sim::{AccessCounters, ChipConfig, RunResult};
use pragmatic::workloads::{LayerView, Network, NetworkWorkload, Representation};
use rayon::prelude::*;

const USAGE: &str = "usage: perfbench-trace sweep --spans FILE --cold-csv FILE --warm-csv FILE \
                     [--warm-seconds S]\n       perfbench-trace decode --spans FILE --keys \
                     NET:REPR:SEED[,NET:REPR:SEED...]";

/// The replay's only clock.
fn now() -> Instant {
    // pra-lint: allow(no-wall-clock): the replay times library calls; no timing reaches a result row
    Instant::now()
}

/// One closed span. `run` names the replay (`cold`, `warm-1`, ... or
/// `decode`), `job` the unit of work inside it, and `attr` carries the
/// call's outcome or, for per-layer spans, the conv layer's name.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    run: String,
    job: String,
    attr: String,
    start_ms: f64,
    end_ms: f64,
}

/// Collects spans from every worker thread; written out once at the end.
struct Recorder {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started and not yet closed.
struct Open<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    name: String,
    run: String,
    job: String,
    start_ms: f64,
}

impl Recorder {
    fn new() -> Self {
        Recorder { t0: now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn elapsed_ms(&self) -> f64 {
        now().duration_since(self.t0).as_secs_f64() * 1e3
    }

    fn open(&self, name: &str, parent: u64, run: &str, job: &str) -> Open<'_> {
        Open {
            rec: self,
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            parent,
            name: name.to_string(),
            run: run.to_string(),
            job: job.to_string(),
            start_ms: self.elapsed_ms(),
        }
    }

    fn write_jsonl(&self, path: &PathBuf) -> Result<(), String> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"run\": {}, \"job\": {}, \
                 \"attr\": {}, \"start_ms\": {:.4}, \"end_ms\": {:.4}}}",
                s.id,
                s.parent,
                json_str(&s.name),
                json_str(&s.run),
                json_str(&s.job),
                json_str(&s.attr),
                s.start_ms,
                s.end_ms
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

impl Open<'_> {
    fn close(self, attr: &str) {
        let end_ms = self.rec.elapsed_ms();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            run: self.run,
            job: self.job,
            attr: attr.to_string(),
            start_ms: self.start_ms,
            end_ms,
        };
        self.rec.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The consolidated CSV exactly as `pra sweep` writes it.
fn render_csv(rows: &[SweepRow]) -> String {
    let mut out = CSV_HEADER.join(",");
    out.push('\n');
    for row in csv_rows(rows) {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// One baseline engine, called through its public `run_views` one conv
/// layer at a time so each layer gets a span; the layers concatenate to
/// the whole-network result.
fn replay_engine(
    rec: &Recorder,
    ctx: (u64, &str, &str),
    label: &str,
    views: &[LayerView<'_>],
    traffic: Option<&[AccessCounters]>,
    run_views: impl Fn(&[LayerView<'_>], Option<&[AccessCounters]>) -> RunResult,
) -> RunResult {
    let (parent, run, job) = ctx;
    let span = rec.open(&format!("engines.run:{label}"), parent, run, job);
    let mut result = RunResult::new(label);
    for idx in 0..views.len() {
        let s = rec.open(&format!("engines.sim:{label}"), span.id, run, job);
        let one = run_views(&views[idx..=idx], traffic.map(|t| &t[idx..=idx]));
        s.close(views[idx].spec.name());
        result.layers.extend(one.layers);
    }
    span.close("");
    result
}

/// One `(network, representation)` job, call for call as
/// `pra_bench::sweep::run_sweep` makes it.
fn replay_job(
    rec: &Recorder,
    cfg: &SweepConfig,
    root: u64,
    run: &str,
    (net, repr): (Network, Representation),
) -> Vec<SweepRow> {
    let job = format!("{}/{}", net.name(), repr_label(repr));
    let job_span = rec.open("job", root, run, &job);
    let id = job_span.id;
    let chip = ChipConfig::dadn();

    let s = rec.open("workloads.resolve", id, run, &job);
    let (workload, outcome) = cfg.store.workload(net, repr, cfg.seed);
    s.close(outcome.label());

    let configs = pra_configs(repr, cfg.fidelity);
    let workload = Arc::new(workload);
    let s = rec.open("core.build_start", id, run, &job);
    let build = SharedEncodedNetwork::start_pipelined(&configs, &workload, cfg.seed, &cfg.store);
    s.close("");

    let mut pra_results = Vec::with_capacity(configs.len());
    for pra_cfg in &configs {
        let label = pra_cfg.label();
        let run_span = rec.open(&format!("core.run:{label}"), id, run, &job);
        let mut result = RunResult::new(label.clone());
        for (idx, layer) in workload.layers.iter().enumerate() {
            let w = rec.open("core.build_wait", run_span.id, run, &job);
            let (sched, traffic) = build.artifacts(idx, pra_cfg);
            w.close(layer.spec.name());
            let s = rec.open(&format!("core.sim:{label}"), run_span.id, run, &job);
            result.layers.push(simulate_layer_shared(
                pra_cfg,
                layer.view(),
                &sched,
                traffic.as_ref(),
            ));
            s.close(layer.spec.name());
        }
        run_span.close("");
        pra_results.push(result);
    }

    let encoded = build.encoded_outcome();
    let s = rec.open("core.finish", id, run, &job);
    let shared = build.finish(&cfg.store);
    s.close(encoded.label());

    let views: Vec<LayerView<'_>> = workload.layers.iter().map(|l| l.view()).collect();
    let s = rec.open("core.traffic_view", id, run, &job);
    let traffic = shared.traffic_view(&chip, Default::default(), repr);
    s.close("");
    let ctx = (id, run, job.as_str());
    let base =
        replay_engine(rec, ctx, "DaDN", &views, traffic, |v, t| dadn::run_views(&chip, v, repr, t));
    let strp = replay_engine(rec, ctx, "Stripes", &views, traffic, |v, t| {
        stripes::run_views(&chip, v, repr, t)
    });

    let mut rows = Vec::with_capacity(2 + configs.len());
    let mut push = |engine: String, result: &RunResult| {
        rows.push(SweepRow {
            network: net.name().to_string(),
            repr: repr_label(repr).to_string(),
            engine,
            cycles: result.total_cycles(),
            terms: result.total_terms(),
            speedup: result.speedup_over(&base),
        });
    };
    push("DaDN".to_string(), &base);
    push("Stripes".to_string(), &strp);
    for (pra_cfg, result) in configs.iter().zip(&pra_results) {
        push(pra_cfg.label(), result);
    }
    job_span.close("");
    rows
}

/// One whole sweep on the global pool, rows in `pra sweep`'s order.
fn replay_sweep(rec: &Recorder, cfg: &SweepConfig, run: &str) -> Vec<SweepRow> {
    let jobs: Vec<(Network, Representation)> = cfg
        .networks
        .iter()
        .flat_map(|&net| cfg.representations.iter().map(move |&repr| (net, repr)))
        .collect();
    let root = rec.open("sweep", 0, run, "");
    let root_id = root.id;
    let nested: Vec<Vec<SweepRow>> =
        jobs.into_par_iter().map(|job| replay_job(rec, cfg, root_id, run, job)).collect();
    root.close("");
    nested.into_iter().flatten().collect()
}

fn cmd_sweep(rec: &Recorder, args: &Args) -> Result<String, String> {
    let cfg = SweepConfig::full();
    // Size the pool as `pra sweep` does: RAYON_NUM_THREADS, else one
    // worker per core.
    let workers = match std::env::var("RAYON_NUM_THREADS").ok().and_then(|v| v.parse().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let _ = rayon::ThreadPoolBuilder::new().num_threads(workers).build_global();

    let cold = replay_sweep(rec, &cfg, "cold");
    let cold_csv = render_csv(&cold);
    write(&args.path("--cold-csv")?, &cold_csv)?;

    let warm_seconds: f64 = args
        .get("--warm-seconds")
        .map_or(Ok(1.0), |v| v.parse().map_err(|e| format!("invalid --warm-seconds '{v}': {e}")))?;
    let start = now();
    let mut warm_csv: Option<String> = None;
    let mut reps = 0;
    while reps == 0 || start.elapsed().as_secs_f64() < warm_seconds {
        reps += 1;
        let csv = render_csv(&replay_sweep(rec, &cfg, &format!("warm-{reps}")));
        match &warm_csv {
            None => warm_csv = Some(csv),
            Some(first) if *first != csv => {
                return Err(format!("warm replay {reps} disagrees with warm replay 1"))
            }
            Some(_) => {}
        }
    }
    write(&args.path("--warm-csv")?, warm_csv.as_deref().unwrap_or_default())?;
    let cycles: u64 = cold.iter().map(|r| r.cycles).sum();
    Ok(format!(
        "{{\"warm_replays\": {reps}, \"workers\": {workers}, \"rows\": {}, \"sim_cycles\": {cycles}}}",
        cold.len()
    ))
}

fn parse_key(key: &str) -> Result<(Network, Representation, u64), String> {
    let parts: Vec<&str> = key.split(':').collect();
    let [net, repr, seed] = parts[..] else {
        return Err(format!("key '{key}' is not NET:REPR:SEED"));
    };
    let net = Network::ALL
        .into_iter()
        .find(|n| n.name() == net)
        .ok_or_else(|| format!("unknown network '{net}'"))?;
    let repr = match repr {
        "fp16" => Representation::Fixed16,
        "quant8" => Representation::Quant8,
        other => return Err(format!("unknown repr '{other}'")),
    };
    let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16)
        .map_err(|e| format!("invalid seed '{seed}': {e}"))?;
    Ok((net, repr, seed))
}

/// The two pool-miss resolutions of the serving path, per key, against
/// the warm store in `PRA_CACHE_DIR`.
fn cmd_decode(rec: &Recorder, args: &Args) -> Result<String, String> {
    let keys = args.get("--keys").ok_or("decode needs --keys")?;
    let cfg = SweepConfig::full();
    let store = &cfg.store;
    let mut resolved = 0;
    for key in keys.split(',') {
        let (net, repr, seed) = parse_key(key)?;
        let configs = pra_configs(repr, cfg.fidelity);
        let run = "decode";

        // v1: the batch worker's synchronous `get_or_build` miss.
        let sync = rec.open("core.decode_sync", 0, run, key);
        let s = rec.open("workloads.resolve", sync.id, run, key);
        let (workload, outcome) = store.workload(net, repr, seed);
        s.close(outcome.label());
        let s = rec.open("core.from_workload_stored", sync.id, run, key);
        let (shared, outcomes) =
            SharedEncodedNetwork::from_workload_stored(&configs, &workload, seed, store);
        s.close(outcomes.encoded.label());
        sync.close(outcomes.encoded.label());
        drop((shared, workload));

        // v2: the streaming worker's pipelined build, up to the moment
        // the lead configuration can simulate layer 0.
        let s = rec.open("workloads.resolve", 0, run, key);
        let (workload, outcome) = store.workload(net, repr, seed);
        s.close(outcome.label());
        let workload: Arc<NetworkWorkload> = Arc::new(workload);
        let first = rec.open("core.decode_first_layer", 0, run, key);
        let s = rec.open("core.build_start", first.id, run, key);
        let build = SharedEncodedNetwork::start_pipelined(&configs, &workload, seed, store);
        s.close("");
        let s = rec.open("core.build_wait", first.id, run, key);
        let _ = build.artifacts(0, &configs[0]);
        s.close("");
        first.close("");
        // The encoded outcome settles with the last layer, so wait for
        // it before reading; `finish` then only joins the builder.
        let s = rec.open("core.finish", 0, run, key);
        let _ = build.artifacts(build.layer_count() - 1, &configs[0]);
        let encoded = build.encoded_outcome();
        drop(build.finish(store));
        s.close(encoded.label());
        resolved += 1;
    }
    Ok(format!("{{\"keys\": {resolved}}}"))
}

fn write(path: &PathBuf, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `--flag value` pairs after the subcommand.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument '{flag}'\n{USAGE}"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn path(&self, flag: &str) -> Result<PathBuf, String> {
        self.get(flag).map(PathBuf::from).ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let rec = Recorder::new();
    let result = Args::parse(raw.get(1..).unwrap_or_default()).and_then(|args| {
        let summary = match raw.first().map(String::as_str) {
            Some("sweep") => cmd_sweep(&rec, &args),
            Some("decode") => cmd_decode(&rec, &args),
            _ => Err(USAGE.to_string()),
        }?;
        rec.write_jsonl(&args.path("--spans")?)?;
        Ok(summary)
    });
    match result {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench-trace: {msg}");
            ExitCode::FAILURE
        }
    }
}
