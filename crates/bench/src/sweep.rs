//! Rayon-parallel multi-network sweep — the batch runner behind
//! `pra sweep`.
//!
//! One *job* is a `(network, representation)` pair, structured around
//! build-once shared artifacts (DESIGN.md §8): the job resolves one
//! [`SharedEncodedNetwork`] covering every PRA design point (one schedule
//! table per layer and scheduler configuration, one NM/SB traffic
//! count) — off disk when the store holds it, else built over the
//! calibrated workload, loaded or generated once (parallel row jobs) —
//! and then hands the neuron-free `LayerView`s plus the shared
//! artifacts to every engine — nothing is re-encoded or recounted per
//! design point. Jobs are independent, so the sweep fans them out across
//! a work-stealing thread pool and collects the per-engine speedup rows
//! in a deterministic order (input order is preserved by the parallel
//! map; every job is seeded independently of scheduling). This is the
//! first step on the ROADMAP path toward batched, heavy-traffic
//! simulation serving: the driver is the shape a request batch would
//! take, with the CSV standing in for the response.
//!
//! Results land in one consolidated CSV under `target/pra-reports/`
//! via [`crate::report`]; per-phase job timings (generation / encoding /
//! simulation) land in `bench.json` so bottleneck hunts can read the
//! trajectory instead of re-profiling.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use rayon::prelude::*;

use pra_core::{Fidelity, PraConfig, SharedEncodedNetwork};
use pra_engines::{dadn, stripes};
use pra_sim::{geomean, ChipConfig};
use pra_workloads::cache::{ArtifactStore, CacheOutcome};
use pra_workloads::{layer_views, Network, Representation};

use crate::report;

/// What to sweep. [`SweepConfig::full`] is the `pra sweep` default:
/// every network, both representations, the shared bench seed.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Networks to evaluate.
    pub networks: Vec<Network>,
    /// Representations to evaluate each network under.
    pub representations: Vec<Representation>,
    /// Workload generation seed (jobs derive per-layer seeds from it).
    pub seed: u64,
    /// Simulation fidelity for the cycle-level engines.
    pub fidelity: Fidelity,
    /// The tiered artifact store every job resolves through
    /// (DESIGN.md §9, §15): workload streams, traffic tables and
    /// schedule tables. `ArtifactStore::at_default().no_disk()`
    /// (`pra sweep --no-cache`) regenerates everything; results are
    /// byte-identical either way.
    pub store: ArtifactStore,
}

impl SweepConfig {
    /// The full paper sweep: all six networks x both representations.
    pub fn full() -> Self {
        Self {
            networks: Network::ALL.to_vec(),
            representations: vec![Representation::Fixed16, Representation::Quant8],
            seed: crate::SEED,
            fidelity: crate::fidelity(),
            store: ArtifactStore::at_default(),
        }
    }
}

/// One engine's result on one `(network, representation)` job.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Network name, e.g. `"Alexnet"`.
    pub network: String,
    /// Representation label: `"fp16"` or `"quant8"`.
    pub repr: String,
    /// Engine label, e.g. `"DaDN"`, `"Stripes"`, `"PRA-2b"`.
    pub engine: String,
    /// Total cycles over the convolutional stack.
    pub cycles: u64,
    /// Total effectual terms processed.
    pub terms: u64,
    /// Speedup over the DaDianNao baseline of the same job (1.0 for
    /// DaDN itself).
    pub speedup: f64,
}

/// Wall-clock telemetry for one `(network, representation)` job, split
/// by phase so bottleneck hunts can read `bench.json` instead of
/// re-profiling: workload generation, shared-artifact encoding, and
/// engine simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTiming {
    /// Network name, e.g. `"Alexnet"`.
    pub network: String,
    /// Representation label: `"fp16"` or `"quant8"`.
    pub repr: String,
    /// Milliseconds sourcing the workload — reading its `wl` entry or
    /// generating it (including the first-use calibration fit on
    /// whichever job triggers it). Only an encoded-tier miss needs a
    /// workload, so this is 0 when the `en` entry served the job.
    pub gen_ms: f64,
    /// Milliseconds resolving the shared artifacts, `gen_ms` aside: key
    /// derivation, the encoded-tier probe — on a hit, the whole decode
    /// of the schedule tables — and the traffic table's load, or its
    /// count from geometry. On a miss the lead configuration's run
    /// schedules each layer's tables as it reaches them, so cold
    /// scheduling counts in `sim_ms`, not here.
    pub encode_ms: f64,
    /// Milliseconds running every engine against the shared artifacts —
    /// on an `en` miss, including the lead run's scheduling of each
    /// layer it reaches first.
    pub sim_ms: f64,
    /// Wall-clock milliseconds for the whole job, as observed on its
    /// worker thread. Jobs running concurrently contend for cores (and
    /// the cycle simulator itself parallelizes over pallets), so per-job
    /// numbers are comparable *within* a run; cross-run trends should
    /// use [`SweepOutcome::total_wall_ms`].
    pub wall_ms: f64,
    /// Workload-tier outcome for this job: `"hit"` when the store
    /// served it — on an encoded-tier hit, no `wl` entry was read and no
    /// workload exists; otherwise the `wl` entry loaded and generation
    /// was skipped — `"miss"` (generated and published) or `"off"` (tier
    /// disabled).
    pub cache: String,
    /// Encoded-artifact-tier outcome (schedule tables): `"hit"`
    /// (scheduling and the workload replaced by a decode), `"miss"`
    /// (scheduled fresh, published by `finish`) or `"off"`.
    pub encoded: String,
    /// Traffic-tier outcome: `"hit"`, `"miss"` or `"off"` (disabled, or
    /// the configuration set does not share one traffic view).
    pub traffic: String,
}

/// A completed sweep: the rows plus scheduling and timing telemetry.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One row per job x engine, in job order (networks outer,
    /// representations inner) with engines in [`engine_labels`] order.
    pub rows: Vec<SweepRow>,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Distinct worker threads observed while running jobs.
    pub threads_used: usize,
    /// Per-job wall-clock timings, in job order.
    pub timings: Vec<JobTiming>,
    /// Wall-clock milliseconds for the whole sweep (including the fan-out
    /// overhead the per-job timings cannot see).
    pub total_wall_ms: f64,
}

/// Short, CSV-stable label for a representation.
pub fn repr_label(repr: Representation) -> &'static str {
    match repr {
        Representation::Fixed16 => "fp16",
        Representation::Quant8 => "quant8",
    }
}

/// The PRA configurations the sweep evaluates, in row order. Public
/// because the serving path (`pra-serve`) resolves request engine
/// labels against exactly this set.
pub fn pra_configs(repr: Representation, fidelity: Fidelity) -> Vec<PraConfig> {
    vec![
        PraConfig::two_stage(2, repr).with_fidelity(fidelity),
        PraConfig::single_stage(repr).with_fidelity(fidelity),
        PraConfig::per_column(1, repr).with_fidelity(fidelity),
    ]
}

/// Engine labels in the order each job emits its rows.
pub fn engine_labels(repr: Representation) -> Vec<String> {
    let mut labels = vec!["DaDN".to_string(), "Stripes".to_string()];
    labels.extend(pra_configs(repr, Fidelity::Full).iter().map(PraConfig::label));
    labels
}

/// Runs the sweep described by `cfg` and returns every row.
pub fn run_sweep(cfg: &SweepConfig) -> SweepOutcome {
    let jobs: Vec<(Network, Representation)> = cfg
        .networks
        .iter()
        .flat_map(|&net| cfg.representations.iter().map(move |&repr| (net, repr)))
        .collect();
    let n_jobs = jobs.len();

    // Lock-free distinct-thread telemetry: each thread keeps the set of
    // sweep epochs it has been counted in (thread-local, so uncontended)
    // and bumps a relaxed shared counter at most once per sweep — no
    // mutex on the job hot path, correct across repeated sweeps on reused
    // pool threads, and robust to several sweeps interleaving on the same
    // worker (e.g. parallel test runs on a shared global pool).
    static SWEEP_EPOCH: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static COUNTED_EPOCHS: RefCell<BTreeSet<u64>> = const { RefCell::new(BTreeSet::new()) };
    }
    // relaxed-ok: epoch allocation only needs uniqueness, not ordering
    // against any other memory.
    let epoch = SWEEP_EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    let threads_used = AtomicUsize::new(0);

    let sweep_start = Instant::now();
    let run_job = |(net, repr): (Network, Representation)| -> (Vec<SweepRow>, JobTiming) {
        COUNTED_EPOCHS.with(|c| {
            if c.borrow_mut().insert(epoch) {
                // relaxed-ok: telemetry counter read only after the
                // parallel section joins.
                threads_used.fetch_add(1, Ordering::Relaxed);
            }
        });
        let start = Instant::now();
        let ms = |from: Instant| from.elapsed().as_secs_f64() * 1e3;
        let chip = ChipConfig::dadn();

        // Phases 1 and 2 — resolve the shared artifacts through the
        // store, encoded tier first (DESIGN.md §15): a warm job decodes
        // its schedule tables and reads no workload at all. Only an `en`
        // miss sources the workload, exactly once — from the
        // content-addressed store when a valid entry exists (bit-
        // identical by the round-trip guarantee), regenerated and
        // published otherwise — for the runs to schedule its layers from.
        let configs = pra_configs(repr, cfg.fidelity);
        let (mut gen_ms, mut cache_outcome) = (0.0, CacheOutcome::Hit);
        let source = || {
            let gen_start = Instant::now();
            let (workload, outcome) = cfg.store.workload(net, repr, cfg.seed);
            (gen_ms, cache_outcome) = (ms(gen_start), outcome);
            workload
        };
        let build =
            SharedEncodedNetwork::resolve(&configs, net, repr, cfg.seed, &cfg.store, source);
        let encode_ms = ms(start) - gen_ms;

        // Phase 3 — every engine runs from the neuron-free layer views.
        // On an `en` miss the lead PRA configuration schedules each layer
        // as it reaches it (a warm build is complete already); the
        // remaining configurations reuse those tables.
        let sim_start = Instant::now();
        let views = layer_views(net, repr);
        let pra_results: Vec<pra_sim::RunResult> = configs
            .iter()
            .map(|pra_cfg| pra_core::run_shared(pra_cfg, &views, build.network(), |_, _| {}))
            .collect();
        let pra_ms = ms(sim_start);

        // Both tiers were probed when the build started; `finish`
        // (untimed: publication is I/O, not simulation) publishes
        // whatever the store missed.
        let encoded_outcome = build.encoded_outcome();
        let traffic_outcome = build.traffic_outcome();
        let shared = build.finish(&cfg.store);

        // Baseline engines consume the same views plus the shared
        // traffic; nothing is re-encoded per design point. Their
        // dispatchers use the default NM layout; the checked view hands
        // back counters only if that matches.
        let base_start = Instant::now();
        let traffic = shared.traffic_view(&chip, Default::default(), repr);
        let base = dadn::run_views(&chip, &views, repr, traffic);
        let mut rows = Vec::with_capacity(2 + configs.len());
        let mut push = |engine: String, result: &pra_sim::RunResult| {
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
        push("Stripes".to_string(), &stripes::run_views(&chip, &views, repr, traffic));
        for (pra_cfg, result) in configs.iter().zip(&pra_results) {
            push(pra_cfg.label(), result);
        }
        let sim_ms = pra_ms + ms(base_start);

        let timing = JobTiming {
            network: net.name().to_string(),
            repr: repr_label(repr).to_string(),
            gen_ms,
            encode_ms,
            sim_ms,
            wall_ms: ms(start),
            cache: cache_outcome.label().to_string(),
            encoded: encoded_outcome.label().to_string(),
            traffic: traffic_outcome.label().to_string(),
        };
        (rows, timing)
    };

    let nested: Vec<(Vec<SweepRow>, JobTiming)> = jobs.into_par_iter().map(run_job).collect();
    let total_wall_ms = sweep_start.elapsed().as_secs_f64() * 1e3;

    let mut rows = Vec::new();
    let mut timings = Vec::with_capacity(n_jobs);
    for (job_rows, timing) in nested {
        rows.extend(job_rows);
        timings.push(timing);
    }
    SweepOutcome {
        rows,
        jobs: n_jobs,
        threads_used: threads_used.into_inner(),
        timings,
        total_wall_ms,
    }
}

/// The consolidated CSV header, matching [`csv_rows`].
pub const CSV_HEADER: [&str; 6] = ["network", "repr", "engine", "cycles", "terms", "speedup"];

/// Stringifies rows for [`report::write_csv`].
pub fn csv_rows(rows: &[SweepRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.network.clone(),
                r.repr.clone(),
                r.engine.clone(),
                r.cycles.to_string(),
                r.terms.to_string(),
                format!("{:.4}", r.speedup),
            ]
        })
        .collect()
}

/// Writes the consolidated sweep CSV (`target/pra-reports/sweep.csv`).
/// Returns the path on success (best-effort, like every report).
pub fn write_report(rows: &[SweepRow]) -> Option<PathBuf> {
    report::write_csv("sweep", &CSV_HEADER, &csv_rows(rows))
}

/// Version stamped into every `bench.json` this crate writes. Bump on
/// any structural change to the document (new/renamed top-level keys,
/// changed record shapes) so downstream parsers — `bench_delta`
/// included — can tell a layout drift from a perf drift. History:
/// v1 = PR 2–3 layout (unstamped), v2 = stamped + optional `"serve"`
/// section, v3 = per-tier `"encoded"`/`"traffic"` outcomes on job
/// timings.
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// Renders the machine-readable perf report: per-job phase timings
/// (generation / encoding / simulation), one record per job x engine
/// with the job's wall-clock, plus sweep-level totals. This is the file
/// future PRs diff against to keep the perf trajectory visible.
pub fn bench_json(out: &SweepOutcome) -> String {
    let mut wall_by_job: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for t in &out.timings {
        wall_by_job.insert((t.network.as_str(), t.repr.as_str()), t.wall_ms);
    }
    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
    let _ = writeln!(body, "  \"total_wall_ms\": {:.3},", out.total_wall_ms);
    let _ = writeln!(body, "  \"jobs\": {},", out.jobs);
    let _ = writeln!(body, "  \"threads_used\": {},", out.threads_used);
    let _ = writeln!(body, "  \"job_timings\": [");
    for (k, t) in out.timings.iter().enumerate() {
        let _ = writeln!(
            body,
            "    {{\"job\": {}, \"repr\": {}, \"gen_ms\": {:.3}, \"encode_ms\": {:.3}, \"sim_ms\": {:.3}, \"wall_ms\": {:.3}, \"cache\": {}, \"encoded\": {}, \"traffic\": {}}}{}",
            report::json_string(&t.network),
            report::json_string(&t.repr),
            t.gen_ms,
            t.encode_ms,
            t.sim_ms,
            t.wall_ms,
            report::json_string(&t.cache),
            report::json_string(&t.encoded),
            report::json_string(&t.traffic),
            if k + 1 == out.timings.len() { "" } else { "," }
        );
    }
    let _ = writeln!(body, "  ],");
    let _ = writeln!(body, "  \"rows\": [");
    for (k, r) in out.rows.iter().enumerate() {
        let wall = wall_by_job.get(&(r.network.as_str(), r.repr.as_str())).copied().unwrap_or(0.0);
        let _ = writeln!(
            body,
            "    {{\"job\": {}, \"repr\": {}, \"engine\": {}, \"cycles\": {}, \"wall_ms\": {:.3}}}{}",
            report::json_string(&r.network),
            report::json_string(&r.repr),
            report::json_string(&r.engine),
            r.cycles,
            wall,
            if k + 1 == out.rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(body, "  ]");
    let _ = writeln!(body, "}}");
    body
}

/// Writes `target/pra-reports/bench.json` (best-effort, like every
/// report). Returns the path on success.
pub fn write_bench_json(out: &SweepOutcome) -> Option<PathBuf> {
    report::write_json("bench", &bench_json(out))
}

/// Per-phase totals parsed back out of a `bench.json` document —
/// the summary `bench_delta` diffs across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTotals {
    /// Jobs contributing to the totals.
    pub jobs: usize,
    /// Workload-tier cache hits among those jobs.
    pub cache_hits: usize,
    /// Encoded-artifact-tier hits among those jobs (0 for pre-v3
    /// documents, which had no encoded tier).
    pub encoded_hits: usize,
    /// Summed workload-generation milliseconds.
    pub gen_ms: f64,
    /// Summed shared-artifact encoding milliseconds.
    pub encode_ms: f64,
    /// Summed engine-simulation milliseconds.
    pub sim_ms: f64,
    /// Summed per-job wall-clock milliseconds.
    pub wall_ms: f64,
    /// The sweep's end-to-end wall clock.
    pub total_wall_ms: f64,
}

/// Extracts the first JSON number following `key` in `line`.
fn json_number_after(line: &str, key: &str) -> Option<f64> {
    let rest = line[line.find(key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `schema_version` a `bench.json` body declares; `None` for
/// pre-versioned documents (PR 2–4 layouts).
pub fn schema_version(body: &str) -> Option<u32> {
    body.lines().find_map(|l| json_number_after(l, "\"schema_version\":")).map(|v| v as u32)
}

/// Warning lines (possibly empty) about the schema versions of two
/// `bench.json` bodies being compared: pre-versioned or mismatched
/// documents still diff — phase keys have been stable since PR 2 — but
/// the reader deserves to know the layouts differ.
pub fn schema_warnings(prev: &str, cur: &str) -> Vec<String> {
    let (p, c) = (schema_version(prev), schema_version(cur));
    let mut warnings = Vec::new();
    let describe = |v: Option<u32>| match v {
        Some(v) => format!("v{v}"),
        None => "pre-versioned".to_string(),
    };
    if p.is_none() || c.is_none() {
        warnings.push(format!(
            "warning: comparing {} against {} bench.json (schema_version was introduced in v{}); \
             phase totals are best-effort",
            describe(p),
            describe(c),
            BENCH_SCHEMA_VERSION,
        ));
    } else if p != c {
        warnings.push(format!(
            "warning: bench.json schema mismatch ({} vs {}); phase totals are best-effort",
            describe(p),
            describe(c),
        ));
    }
    warnings
}

/// Parses the per-phase totals out of a `bench.json` body. Tolerant of
/// older documents (PR 3's format without the `cache` field); `None`
/// when no job timings are recognizable at all.
pub fn phase_totals(body: &str) -> Option<PhaseTotals> {
    let mut t = PhaseTotals {
        jobs: 0,
        cache_hits: 0,
        encoded_hits: 0,
        gen_ms: 0.0,
        encode_ms: 0.0,
        sim_ms: 0.0,
        wall_ms: 0.0,
        total_wall_ms: 0.0,
    };
    for line in body.lines() {
        if let Some(v) = json_number_after(line, "\"total_wall_ms\":") {
            t.total_wall_ms = v;
        }
        // Only job-timing records carry a gen_ms key; the per-row
        // records below them share wall_ms but nothing else.
        if let Some(g) = json_number_after(line, "\"gen_ms\":") {
            t.jobs += 1;
            t.gen_ms += g;
            t.encode_ms += json_number_after(line, "\"encode_ms\":").unwrap_or(0.0);
            t.sim_ms += json_number_after(line, "\"sim_ms\":").unwrap_or(0.0);
            t.wall_ms += json_number_after(line, "\"wall_ms\":").unwrap_or(0.0);
            if line.contains("\"cache\": \"hit\"") {
                t.cache_hits += 1;
            }
            if line.contains("\"encoded\": \"hit\"") {
                t.encoded_hits += 1;
            }
        }
    }
    (t.jobs > 0).then_some(t)
}

/// Renders the per-phase delta table between two `bench.json` bodies
/// (CI prints this against the previous main run, and between the
/// cold and warm halves of the identity gate).
///
/// # Errors
///
/// Returns a message when either body has no recognizable job timings.
pub fn bench_delta(prev: &str, cur: &str) -> Result<String, String> {
    let p = phase_totals(prev).ok_or("previous bench.json: no job timings found")?;
    let c = phase_totals(cur).ok_or("current bench.json: no job timings found")?;
    let mut warnings = schema_warnings(prev, cur).join("\n");
    if !warnings.is_empty() {
        warnings.push('\n');
    }
    let mut table = crate::Table::new(["phase", "prev ms", "cur ms", "delta ms", "ratio"]);
    let mut add = |name: &str, a: f64, b: f64| {
        let ratio = if a > 0.0 { format!("{:.2}x", b / a) } else { "-".to_string() };
        table.row([
            name.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:+.1}", b - a),
            ratio,
        ]);
    };
    add("generation", p.gen_ms, c.gen_ms);
    add("encode", p.encode_ms, c.encode_ms);
    add("simulation", p.sim_ms, c.sim_ms);
    add("job wall (sum)", p.wall_ms, c.wall_ms);
    add("sweep total", p.total_wall_ms, c.total_wall_ms);
    Ok(format!(
        "{}jobs: prev {} ({} cache hits, {} encoded hits), cur {} ({} cache hits, {} encoded hits)\n{}",
        warnings,
        p.jobs,
        p.cache_hits,
        p.encoded_hits,
        c.jobs,
        c.cache_hits,
        c.encoded_hits,
        table.render()
    ))
}

/// The phase-regression soft gate behind `pra bench-delta --gate`:
/// phases whose current total exceeds `max_ratio` × the previous total
/// (e.g. 1.25 = fail on >25% regressions). Guardrails against CI noise:
/// phases under a 50 ms floor are never gated (timer jitter dominates
/// them), and the generation phase is skipped when the two runs saw
/// different workload-cache hit counts (a cold run regressing against a
/// warm one is a cache event, not a perf event — the cold/warm identity
/// gate owns that axis).
///
/// Returns the violation messages, empty when the gate passes.
///
/// # Errors
///
/// Returns a message when either body has no recognizable job timings.
pub fn bench_gate(prev: &str, cur: &str, max_ratio: f64) -> Result<Vec<String>, String> {
    let p = phase_totals(prev).ok_or("previous bench.json: no job timings found")?;
    let c = phase_totals(cur).ok_or("current bench.json: no job timings found")?;
    const NOISE_FLOOR_MS: f64 = 50.0;
    let comparable_cache = p.cache_hits == c.cache_hits && p.jobs == c.jobs;
    let mut violations = Vec::new();
    let phases: [(&str, f64, f64, bool); 5] = [
        ("generation", p.gen_ms, c.gen_ms, comparable_cache),
        ("encode", p.encode_ms, c.encode_ms, true),
        ("simulation", p.sim_ms, c.sim_ms, true),
        ("job wall (sum)", p.wall_ms, c.wall_ms, comparable_cache),
        ("sweep total", p.total_wall_ms, c.total_wall_ms, comparable_cache),
    ];
    for (name, prev_ms, cur_ms, gated) in phases {
        if !gated || prev_ms < NOISE_FLOOR_MS {
            continue;
        }
        if cur_ms > prev_ms * max_ratio {
            violations.push(format!(
                "phase '{name}' regressed {:.2}x ({prev_ms:.1} ms -> {cur_ms:.1} ms, gate {max_ratio:.2}x)",
                cur_ms / prev_ms,
            ));
        }
    }
    Ok(violations)
}

/// Cross-network geometric-mean speedup per `(representation, engine)`,
/// in first-appearance order — the paper's "geo" summary bars.
pub fn geomean_summary(rows: &[SweepRow]) -> Vec<(String, String, f64)> {
    // One pass: an ordered map accumulates per-key speedups while a side
    // vector remembers first-appearance order (the old implementation
    // rescanned a key vector per row and refiltered all rows per key —
    // O(n²) both ways).
    let mut order: Vec<(String, String)> = Vec::new();
    let mut acc: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in rows {
        let key = (r.repr.clone(), r.engine.clone());
        match acc.entry(key) {
            Entry::Vacant(e) => {
                order.push(e.key().clone());
                e.insert(vec![r.speedup]);
            }
            Entry::Occupied(mut e) => e.get_mut().push(r.speedup),
        }
    }
    order
        .into_iter()
        .map(|key| {
            let g = geomean(&acc[&key]);
            (key.0, key.1, g)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use pra_workloads::cache::ArtifactKind;

    /// A small deterministic sweep that still exercises every engine:
    /// two networks, one representation, sampled fidelity. The store is
    /// diskless so these tests never couple to on-disk state; the
    /// dedicated cache tests below cover the tiered path with scratch
    /// dirs.
    fn small_config() -> SweepConfig {
        SweepConfig {
            networks: vec![Network::AlexNet, Network::NiN],
            representations: vec![Representation::Fixed16],
            seed: 0x00DE_C0DE,
            fidelity: Fidelity::Sampled { max_pallets: 4 },
            store: ArtifactStore::at_default().no_disk(),
        }
    }

    /// A scratch cache directory unique to this test run.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64 + d.as_secs());
        std::env::temp_dir().join(format!("pra-sweep-{tag}-{}-{nanos}", std::process::id()))
    }

    /// An all-tier store over a scratch directory.
    fn scratch_store(dir: &std::path::Path) -> ArtifactStore {
        ArtifactStore::new(dir)
            .tier(ArtifactKind::Workload)
            .tier(ArtifactKind::Traffic)
            .tier(ArtifactKind::Encoded)
    }

    #[test]
    fn every_network_gets_a_row_for_every_engine() {
        let out = run_sweep(&small_config());
        assert_eq!(out.jobs, 2);
        let engines = engine_labels(Representation::Fixed16);
        assert_eq!(out.rows.len(), 2 * engines.len());
        for net in ["Alexnet", "NiN"] {
            for engine in &engines {
                let row = out
                    .rows
                    .iter()
                    .find(|r| r.network == net && &r.engine == engine)
                    .unwrap_or_else(|| panic!("missing row {net}/{engine}"));
                assert!(row.cycles > 0, "{net}/{engine} has zero cycles");
                assert!(row.speedup > 0.0);
            }
        }
    }

    #[test]
    fn dadn_rows_have_unit_speedup_and_pra_beats_it() {
        let out = run_sweep(&small_config());
        for row in &out.rows {
            if row.engine == "DaDN" {
                assert!((row.speedup - 1.0).abs() < 1e-12);
            }
            if row.engine.starts_with("PRA") {
                assert!(row.speedup > 1.0, "{}: {} not > 1", row.network, row.speedup);
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_in_seed() {
        let a = run_sweep(&small_config());
        let b = run_sweep(&small_config());
        assert_eq!(a.rows, b.rows);
        let mut other = small_config();
        other.seed ^= 1;
        let c = run_sweep(&other);
        assert_ne!(a.rows, c.rows, "different seed must change some cycle count");
    }

    #[test]
    fn every_job_reports_a_timing() {
        let out = run_sweep(&small_config());
        assert_eq!(out.timings.len(), out.jobs);
        for t in &out.timings {
            assert!(t.wall_ms > 0.0, "{}/{} has zero wall time", t.network, t.repr);
            assert!(t.gen_ms > 0.0, "{}/{} has zero generation time", t.network, t.repr);
            assert!(t.sim_ms > 0.0, "{}/{} has zero simulation time", t.network, t.repr);
            assert!(t.encode_ms >= 0.0);
            // Phases partition the job (small slack for the clock reads).
            assert!(
                t.gen_ms + t.encode_ms + t.sim_ms <= t.wall_ms * 1.01 + 0.1,
                "{}/{}: phases exceed wall",
                t.network,
                t.repr
            );
        }
        assert!(
            out.total_wall_ms >= out.timings.iter().cloned().fold(0.0f64, |m, t| m.max(t.wall_ms))
        );
        assert!(out.threads_used >= 1);
    }

    #[test]
    fn bench_json_contains_every_row_and_the_totals() {
        let out = run_sweep(&small_config());
        let body = bench_json(&out);
        assert!(body.contains("\"total_wall_ms\""));
        assert!(body.contains("\"jobs\": 2"));
        for r in &out.rows {
            assert!(body.contains(&format!("\"engine\": \"{}\"", r.engine)), "{}", r.engine);
            assert!(body.contains(&format!("\"cycles\": {}", r.cycles)));
        }
        // One record per row plus one per job timing, each carrying a
        // wall clock; phase keys and the cache outcome appear once per
        // job.
        assert_eq!(body.matches("\"wall_ms\"").count(), out.rows.len() + out.jobs);
        assert_eq!(body.matches("\"job\"").count(), out.rows.len() + out.jobs);
        assert_eq!(body.matches("\"gen_ms\"").count(), out.jobs);
        assert_eq!(body.matches("\"encode_ms\"").count(), out.jobs);
        assert_eq!(body.matches("\"sim_ms\"").count(), out.jobs);
        assert_eq!(body.matches("\"cache\"").count(), out.jobs);
        assert_eq!(body.matches("\"encoded\"").count(), out.jobs);
        assert_eq!(body.matches("\"traffic\"").count(), out.jobs);
    }

    #[test]
    fn warm_sweep_hits_every_tier_with_identical_rows() {
        let dir = scratch_dir("warm");
        let mut cfg = small_config();
        cfg.store = scratch_store(&dir);
        let cold = run_sweep(&cfg);
        assert!(
            cold.timings.iter().all(|t| t.cache == "miss" && t.encoded == "miss"),
            "fresh dir must miss every tier: {:?}",
            cold.timings.iter().map(|t| (t.cache.as_str(), t.encoded.as_str())).collect::<Vec<_>>()
        );
        let warm = run_sweep(&cfg);
        assert!(
            warm.timings
                .iter()
                .all(|t| t.cache == "hit" && t.encoded == "hit" && t.traffic == "hit"),
            "second sweep must hit every tier: {:?}",
            warm.timings
                .iter()
                .map(|t| (t.cache.as_str(), t.encoded.as_str(), t.traffic.as_str()))
                .collect::<Vec<_>>()
        );
        assert_eq!(cold.rows, warm.rows, "cached artifacts must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Published `wl` entries under `dir`.
    fn workload_entries(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let entries = std::fs::read_dir(dir).expect("the cache dir exists");
        let paths = entries.map(|e| e.expect("readable entry").path());
        paths
            .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("wl-")))
            .collect()
    }

    #[test]
    fn a_warm_sweep_reads_no_workload() {
        let dir = scratch_dir("no-wl");
        let mut cfg = small_config();
        cfg.store = scratch_store(&dir);
        let cold = run_sweep(&cfg);
        let published = workload_entries(&dir);
        assert_eq!(published.len(), cold.jobs, "a cold sweep publishes one wl entry per job");
        for path in published {
            std::fs::remove_file(path).expect("delete the wl entry");
        }
        // With every `wl` entry gone, a warm job that read or generated
        // its workload would miss the tier and republish the entry.
        let warm = run_sweep(&cfg);
        assert_eq!(warm.rows, cold.rows, "the encoded tier alone reproduces every row");
        for t in &warm.timings {
            let tiers = (t.cache.as_str(), t.encoded.as_str(), t.traffic.as_str());
            assert_eq!(tiers, ("hit", "hit", "hit"), "{}/{}", t.network, t.repr);
            assert_eq!(t.gen_ms, 0.0, "{}/{} sourced a workload", t.network, t.repr);
        }
        assert!(workload_entries(&dir).is_empty(), "no wl entry was read or regenerated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_and_uncached_sweeps_agree() {
        let dir = scratch_dir("agree");
        let mut cached_cfg = small_config();
        cached_cfg.store = scratch_store(&dir);
        let cached = run_sweep(&cached_cfg);
        // Run the cached config twice so the second pass consumes every
        // tier — warm artifacts must not change a single row either.
        let warm = run_sweep(&cached_cfg);
        let uncached = run_sweep(&small_config());
        assert_eq!(cached.rows, uncached.rows, "the store must not change any result");
        assert_eq!(warm.rows, uncached.rows, "warm tiers must not change any result");
        for t in &uncached.timings {
            assert_eq!(t.cache, "off");
            assert_eq!(t.encoded, "off");
            assert_eq!(t.traffic, "off");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_totals_and_delta_read_bench_json() {
        let out = run_sweep(&small_config());
        let body = bench_json(&out);
        let t = phase_totals(&body).expect("bench.json must parse");
        assert_eq!(t.jobs, out.jobs);
        assert_eq!(t.cache_hits, 0);
        assert_eq!(t.encoded_hits, 0);
        let sum_gen: f64 = out.timings.iter().map(|j| j.gen_ms).sum();
        assert!((t.gen_ms - sum_gen).abs() < 0.01, "{} vs {}", t.gen_ms, sum_gen);
        assert!((t.total_wall_ms - out.total_wall_ms).abs() < 0.01);

        let delta = bench_delta(&body, &body).expect("self-delta");
        assert!(delta.contains("generation"));
        assert!(delta.contains("sweep total"));
        assert!(delta.contains("1.00x"), "self-delta ratios must be 1.00x:\n{delta}");
        assert!(bench_delta("{}", &body).is_err());
    }

    #[test]
    fn bench_json_is_version_stamped() {
        let out = run_sweep(&small_config());
        let body = bench_json(&out);
        assert_eq!(schema_version(&body), Some(BENCH_SCHEMA_VERSION));
        assert!(schema_version("{\"jobs\": 2}").is_none(), "pre-versioned docs have no version");
    }

    #[test]
    fn schema_warnings_flag_preversioned_and_mismatched_docs() {
        let out = run_sweep(&small_config());
        let body = bench_json(&out);
        assert!(schema_warnings(&body, &body).is_empty(), "same version, no warning");
        let old = "{\n  \"total_wall_ms\": 1.0,\n  \"job_timings\": []\n}";
        let w = schema_warnings(old, &body);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("pre-versioned"), "{w:?}");
        let future = body.replace(
            &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
            "\"schema_version\": 99",
        );
        let w = schema_warnings(&body, &future);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("mismatch"), "{w:?}");
        // bench_delta surfaces the warning but still renders the table.
        let old_with_jobs = old.replace(
            "\"job_timings\": []",
            "\"job_timings\": [\n    {\"gen_ms\": 100.0, \"sim_ms\": 100.0, \"wall_ms\": 200.0}\n  ]",
        );
        let delta = bench_delta(&old_with_jobs, &body).expect("tolerant of pre-versioned");
        assert!(delta.contains("warning:"), "{delta}");
        assert!(delta.contains("sweep total"));
    }

    #[test]
    fn gate_passes_self_and_fails_large_regressions() {
        let mk = |gen: f64, sim: f64, hits: usize| {
            let cache = if hits > 0 { "hit" } else { "miss" };
            format!(
                "{{\n  \"schema_version\": 2,\n  \"total_wall_ms\": {t},\n  \"job_timings\": [\n    \
                 {{\"gen_ms\": {gen:.1}, \"encode_ms\": 60.0, \"sim_ms\": {sim:.1}, \
                 \"wall_ms\": {t}, \"cache\": \"{cache}\"}}\n  ]\n}}\n",
                t = gen + sim + 60.0,
            )
        };
        let base = mk(100.0, 400.0, 0);
        assert!(bench_gate(&base, &base, 1.25).unwrap().is_empty(), "self-gate passes");
        // A 2x simulation regression trips the gate.
        let slow = mk(100.0, 800.0, 0);
        let v = bench_gate(&base, &slow, 1.25).unwrap();
        assert!(v.iter().any(|m| m.contains("simulation") && m.contains("2.00x")), "{v:?}");
        // The same regression is fine under a 3x gate.
        assert!(bench_gate(&base, &slow, 3.0).unwrap().is_empty());
        // Generation is not gated when the cache-hit counts differ …
        let cold_gen = mk(500.0, 400.0, 0);
        let warm = mk(100.0, 400.0, 1);
        let v = bench_gate(&warm, &cold_gen, 1.25).unwrap();
        assert!(!v.iter().any(|m| m.contains("generation")), "{v:?}");
        // … but still gated when they agree.
        let v = bench_gate(&base, &cold_gen, 1.25).unwrap();
        assert!(v.iter().any(|m| m.contains("generation")), "{v:?}");
        // Sub-floor phases never trip: encode stays at 60 ms here, and a
        // tiny base makes every phase sub-floor.
        let tiny = mk(1.0, 2.0, 0);
        let tiny_slow = mk(4.0, 8.0, 0);
        assert!(bench_gate(&tiny, &tiny_slow, 1.25).unwrap().is_empty(), "noise floor holds");
        assert!(bench_gate("{}", &base, 1.25).is_err());
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let out = run_sweep(&small_config());
        for row in csv_rows(&out.rows) {
            assert_eq!(row.len(), CSV_HEADER.len());
        }
    }

    #[test]
    fn geomean_summary_covers_each_engine_once() {
        let out = run_sweep(&small_config());
        let summary = geomean_summary(&out.rows);
        let engines = engine_labels(Representation::Fixed16);
        assert_eq!(summary.len(), engines.len());
        for (_, _, g) in summary {
            assert!(g > 0.0);
        }
    }
}
