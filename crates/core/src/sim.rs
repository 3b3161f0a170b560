//! Layer- and network-level Pragmatic simulation.
//!
//! Each (filter group × pallet × brick step) runs the exact column
//! scheduler over the 16 oneffset lanes of each of the 16 window columns,
//! and the columns combine according to the configured synchronization
//! policy. Tiles are identical by construction (§V-A3), so one tile is
//! simulated and the filter-group count scales the result.
//!
//! Neither half is recomputed per visit. Column schedules come from the
//! layer's dense schedule table ([`crate::schedule`]): every in-grid input
//! brick is scheduled once, up front, and each brick visit is a load
//! (overlapping convolution windows reuse the entry — a K×K-fold saving).
//! And a pallet-step's cost under pallet sync — its slowest column, its
//! NM fetch rows — depends only on the input row, channel brick, pallet
//! column and `fx` it reads, not on which window row reaches that input
//! row. So [`simulate_layer_shared`] costs each distinct step once and
//! weights it by how many selected pallet-steps read the same bricks
//! (`pra_tensor::brick::row_visits`): about `Ky / stride` times less
//! work. Terms, which no sync policy changes, are the same weighted sum
//! of brick terms under every policy. Per-column sync still walks every
//! selected pallet, since its recurrence couples the columns step by
//! step. Both fan out across the thread pool in contiguous chunks — input
//! rows for the weighted pass, pallets for the walk — with an
//! order-preserving reduction, so a single-layer request scales across
//! cores.
//!
//! Entry points: [`run_shared`] is the one network runner — every
//! design point of a workload simulates against one
//! [`crate::SharedEncodedNetwork`] (or a build still in flight).
//! [`simulate_layer_shared`] simulates one layer against a schedule
//! table; [`simulate_layer`] is its one-layer convenience over a fresh,
//! unshared table. The per-fetch implementation is retained as
//! [`simulate_layer_raw`], the cycle-for-cycle oracle that tests and the
//! `micro` bench compare against.

use std::ops::Range;

use pra_engines::shared_traffic;
use pra_sim::{AccessCounters, Dispatcher, LayerResult, NeuronMemory, RunResult};
use pra_tensor::brick::{
    brick_for, brick_steps, column_reads, fetch_pallet_step, in_bounds_lanes, pallets, row_steps,
    row_visits, BrickStep, PalletRef, RowVisit,
};
use pra_tensor::{ConvLayerSpec, BRICK, PALLET};
use pra_workloads::{LayerView, LayerWorkload};
use rayon::prelude::*;

use crate::column::{csd_mask, schedule_brick_with, ColumnSchedule};
use crate::config::{Encoding, Fidelity, PraConfig, SyncPolicy};
use crate::schedule::LayerScheduler;
use crate::shared::Artifacts;
use crate::tile::{column_sync, pallet_sync, PalletOutcome};

/// Simulates one layer on the configured Pragmatic design point: the
/// one-layer convenience over [`simulate_layer_shared`] with a fresh,
/// unshared [`LayerScheduler`].
pub fn simulate_layer(cfg: &PraConfig, layer: &LayerWorkload) -> LayerResult {
    let sched = LayerScheduler::new(cfg, layer.window, &layer.neurons);
    simulate_layer_shared(cfg, layer.view(), &sched, None)
}

/// Simulates one borrowed layer against a [`LayerScheduler`] (typically
/// shared across design points), parallelizing across input rows (and,
/// under per-column sync, pallets) and optionally reusing precomputed
/// NM/SB traffic counters. `sched` must have been built for `cfg`'s
/// encoding key, scheduler parameters and the layer's window —
/// [`crate::SharedEncodedNetwork`] enforces that pairing. Results are
/// bit-identical at any thread count: the reduction is order-preserving
/// and integer sums are associative.
pub fn simulate_layer_shared(
    cfg: &PraConfig,
    layer: LayerView<'_>,
    sched: &LayerScheduler,
    traffic: Option<&AccessCounters>,
) -> LayerResult {
    let spec = layer.spec;
    let dispatcher = layer_dispatcher(cfg);
    let (selected, total, sampled) = select_pallets(cfg, spec);
    let visits = row_visits(spec, &selected);
    let reads = column_reads(spec);
    let pass = |chunk: &[RowVisit]| weighted_pass(cfg, spec, sched, &dispatcher, &reads, chunk);
    let totals = if cfg.sync == SyncPolicy::PerPallet {
        fan_out(&visits, spec.filter.x * spec.input.bricks_deep(), pass)
    } else {
        // The pass only counts terms here, a small fraction of the walk.
        let steps = brick_steps(spec);
        pass(&visits).add(fan_out(&selected, steps.len(), |chunk| {
            simulate_pallets(cfg, spec, sched, &steps, chunk)
        }))
    };
    let base = match traffic {
        Some(t) => *t,
        None => shared_traffic(&cfg.chip, spec, &dispatcher),
    };
    finish_layer(cfg, spec, base, totals, total, sampled)
}

/// Fewest brick steps — distinct ones in the weighted pass, pallet-steps
/// in the per-column walk — a worker gets. Heavily sampled runs and
/// small layers stay serial: a worker thread's spawn and join cost more
/// than a smaller share saves, and nested inside an already-parallel
/// batch (`pra sweep`'s jobs) they would only add thread churn.
const MIN_STEPS_PER_WORKER: usize = 4096;

/// Maps contiguous chunks of `items`, `steps_per_item` brick steps each,
/// on the thread pool, in input order, and sums them in chunk order: the
/// same deterministic reduction `pra sweep` pins down for its job rows.
fn fan_out<T: Sync>(
    items: &[T],
    steps_per_item: usize,
    f: impl Fn(&[T]) -> Totals + Sync,
) -> Totals {
    let steps = items.len() * steps_per_item;
    let workers = rayon::current_num_threads().min(steps / MIN_STEPS_PER_WORKER).max(1);
    if workers == 1 {
        return f(items);
    }
    let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(workers)).collect();
    let parts: Vec<Totals> = chunks.into_par_iter().map(f).collect();
    parts.into_iter().fold(Totals::default(), Totals::add)
}

/// Per-run accumulator, combined with an order-preserving fold.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    cycles: u64,
    nm_stalls: u64,
    sb_stalls: u64,
    oneffsets: u64,
}

impl Totals {
    fn add_pallet(&mut self, o: PalletOutcome) {
        self.cycles += o.cycles;
        self.nm_stalls += o.nm_stall_cycles;
        self.sb_stalls += o.sb_stall_cycles;
    }

    fn add(self, o: Totals) -> Totals {
        Totals {
            cycles: self.cycles + o.cycles,
            nm_stalls: self.nm_stalls + o.nm_stalls,
            sb_stalls: self.sb_stalls + o.sb_stalls,
            oneffsets: self.oneffsets + o.oneffsets,
        }
    }
}

fn layer_dispatcher(cfg: &PraConfig) -> Dispatcher {
    let nm = NeuronMemory::new(cfg.nm_layout, cfg.chip.nm_row_neurons(cfg.repr.bits()));
    Dispatcher::new(nm)
}

/// Deterministic pallet selection for bounded simulation time: the full
/// enumeration, or a multiplicatively-spaced sample of it.
fn select_pallets(cfg: &PraConfig, spec: &ConvLayerSpec) -> (Vec<PalletRef>, u64, u64) {
    let all_pallets = pallets(spec);
    match cfg.fidelity {
        Fidelity::Full => {
            let n = all_pallets.len() as u64;
            (all_pallets, n, n)
        }
        Fidelity::Sampled { max_pallets } => {
            let n = all_pallets.len();
            let take = max_pallets.max(1).min(n);
            // Multiplicative sampling with a step coprime to the pallet
            // count: a plain stride correlates with the row structure
            // (e.g. it can hit only the full 16-lane pallet of every row,
            // never the ragged one) and biases the estimate.
            let mut g = (n as f64 * 0.618_033_988) as usize | 1;
            while gcd(g, n) != 1 {
                g += 2;
            }
            let sel: Vec<PalletRef> = (0..take).map(|k| all_pallets[k * g % n]).collect();
            (sel, n as u64, take as u64)
        }
    }
}

/// The weighted pass over the distinct pallet-steps of `visits`
/// ([`row_visits`]): each visit's work counts `visit.count` times.
///
/// * **Terms**, under every policy: the visit's bricks' terms, each
///   weighted by how many `(lane, fx)` pairs of its pallet column read
///   it (`reads`, from [`column_reads`]), summed over channel bricks.
/// * **Cycles and NM stalls**, under pallet sync only: every column
///   waits for the slowest (§V-A4), so a step costs
///   `max(colmax, 1, NMC)`, with `colmax` the largest entry over the
///   in-bounds lanes' slice of the table (the word packs cycles above
///   terms, so the largest word holds the most cycles) and `NMC` the
///   step's NM fetch rows. A fully padded step costs 1.
fn weighted_pass(
    cfg: &PraConfig,
    spec: &ConvLayerSpec,
    sched: &LayerScheduler,
    dispatcher: &Dispatcher,
    reads: &[(usize, Vec<u64>)],
    visits: &[RowVisit],
) -> Totals {
    let mut t = Totals::default();
    for v in visits {
        let y = (v.pallet.wy * spec.stride + v.fy).checked_sub(spec.padding);
        if let Some(y) = y.filter(|&y| y < spec.input.y) {
            let (first, weights) = &reads[v.pallet.wx0 / PALLET];
            let mut terms = 0u64;
            for ib in 0..spec.input.bricks_deep() {
                let row = &sched.row(y, ib)[*first..first + weights.len()];
                terms +=
                    row.iter().zip(weights).map(|(&e, &n)| u64::from(e & 0xFFFF) * n).sum::<u64>();
            }
            t.oneffsets += v.count * terms;
        }
        if cfg.sync != SyncPolicy::PerPallet {
            continue;
        }
        let (mut cycles, mut stalls) = (0u64, 0u64);
        for step in row_steps(spec, v.fy) {
            let colmax = lane_entries(spec, sched, v.pallet, step).1.fold(0, |m, &e| m.max(e));
            let compute = u64::from(colmax >> 16).max(1);
            let cost = compute.max(dispatcher.fetch_cycles(spec, v.pallet, step));
            cycles += cost;
            stalls += cost - compute;
        }
        t.cycles += v.count * cycles;
        t.nm_stalls += v.count * stalls;
    }
    t
}

/// The in-bounds lanes of `pallet` at `step` and their packed table
/// entries, in lane order: lane `l` reads `x0 + l·S`, so the entries are
/// every `S`-th word of one slice of the `(y, ib, x)`-major table.
fn lane_entries<'a>(
    spec: &ConvLayerSpec,
    sched: &'a LayerScheduler,
    pallet: PalletRef,
    step: BrickStep,
) -> (Range<usize>, impl Iterator<Item = &'a u32>) {
    let lanes = in_bounds_lanes(spec, pallet, step);
    let words: &[u32] = if lanes.is_empty() {
        &[]
    } else {
        let b = brick_for(spec, pallet, lanes.start, step);
        &sched.row(b.y as usize, step.i0 / BRICK)[b.x as usize..]
    };
    let n = lanes.len();
    (lanes, words.iter().step_by(spec.stride).take(n))
}

/// Per-column sync over a slice of pallets: every pallet is walked step
/// by step, since the per-set recurrence couples the columns. The
/// step-indexed buffers are sized once per call; the loop body itself
/// performs no heap allocation — each pallet-step is one slice of the
/// schedule table and the sync is a per-step recurrence.
fn simulate_pallets(
    cfg: &PraConfig,
    spec: &ConvLayerSpec,
    sched: &LayerScheduler,
    steps: &[BrickStep],
    pallets: &[PalletRef],
) -> Totals {
    let mut bufs = SyncBuffers::new(steps.len());
    let mut t = Totals::default();
    for pallet in pallets {
        bufs.clear();
        for &step in steps {
            let mut per_col = [0u32; 16];
            let (lanes, entries) = lane_entries(spec, sched, *pallet, step);
            for (slot, &e) in per_col[lanes].iter_mut().zip(entries) {
                *slot = e >> 16;
            }
            bufs.col_cycles.push(per_col);
        }
        t.add_pallet(bufs.sync(cfg, pallet.lanes));
    }
    t
}

/// One pallet's step-indexed sync inputs, reused across pallets.
struct SyncBuffers {
    col_cycles: Vec<[u32; 16]>,
    /// NM fetch cycles per step; only per-pallet sync reads them, and
    /// only the per-fetch oracle syncs per pallet by walking.
    nmc: Vec<u64>,
    /// Per-column sync's scratch (see [`column_sync`]).
    freed: Vec<(u64, usize)>,
}

impl SyncBuffers {
    fn new(steps: usize) -> Self {
        Self {
            col_cycles: Vec::with_capacity(steps),
            nmc: Vec::with_capacity(steps),
            freed: Vec::with_capacity(steps),
        }
    }

    fn clear(&mut self) {
        self.col_cycles.clear();
        self.nmc.clear();
    }

    fn sync(&mut self, cfg: &PraConfig, lanes: usize) -> PalletOutcome {
        let cols = &self.col_cycles;
        match cfg.sync {
            SyncPolicy::PerPallet => pallet_sync(cols, &self.nmc),
            SyncPolicy::PerColumn { ssrs } => column_sync(cols, lanes, Some(ssrs), &mut self.freed),
            SyncPolicy::PerColumnIdeal => column_sync(cols, lanes, None, &mut self.freed),
        }
    }
}

/// Scales the accumulated totals from the sampled pallets to the full
/// layer and derives the traffic counters from the engine-independent
/// base — shared verbatim by the table and raw paths so they stay
/// cycle-for-cycle identical.
fn finish_layer(
    cfg: &PraConfig,
    spec: &ConvLayerSpec,
    base: AccessCounters,
    t: Totals,
    total: u64,
    sampled: u64,
) -> LayerResult {
    let fg = cfg.chip.filter_groups(spec.num_filters) as u64;
    let scale = |v: u64| (v as u128 * total as u128 / sampled.max(1) as u128) as u64;
    let cycles = scale(t.cycles) * fg;
    let nm_stalls = scale(t.nm_stalls) * fg;
    let sb_stalls = scale(t.sb_stalls) * fg;
    let oneffsets = scale(t.oneffsets);

    let mut counters = base;
    // Each neuron oneffset pairs with every filter's synapse: terms =
    // oneffsets × N (spread across the 16 filter lanes × 16 tiles × groups).
    counters.terms = oneffsets * spec.num_filters as u64;
    counters.stall_cycles = nm_stalls + sb_stalls;
    // Null terms injected: tile lane-cycles not consuming an oneffset
    // (each consumed oneffset occupies one of the tile's 256 lanes for one
    // cycle, repeated per filter group).
    let lane_cycles = cycles * (PALLET * BRICK) as u64;
    counters.idle_lane_cycles = lane_cycles.saturating_sub(oneffsets * fg);
    LayerResult {
        layer: spec.name().to_string(),
        cycles,
        multiplications: spec.multiplications(),
        counters,
    }
}

/// The per-fetch simulator: fetches and schedules every brick once
/// per overlapping window, exactly as the hardware's dispatcher would
/// stream it. Kept as the oracle for the layer-scoped pipeline — results
/// must be cycle-for-cycle identical to [`simulate_layer`] — and as the
/// `micro` bench's raw baseline.
pub fn simulate_layer_raw(cfg: &PraConfig, layer: &LayerWorkload) -> LayerResult {
    let spec = &layer.spec;
    let dispatcher = layer_dispatcher(cfg);
    let steps = brick_steps(spec);
    let (selected, total, sampled) = select_pallets(cfg, spec);

    let mut t = Totals::default();
    let mut bufs = SyncBuffers::new(steps.len());
    for pallet in &selected {
        bufs.clear();
        for step in &steps {
            let bricks = fetch_pallet_step(spec, &layer.neurons, *pallet, *step);
            let mut per_col = [0u32; 16];
            for (col, brick) in bricks.iter().enumerate().take(pallet.lanes) {
                let sched = schedule_column(cfg, layer, brick);
                per_col[col] = sched.cycles;
                t.oneffsets += u64::from(sched.terms);
            }
            bufs.col_cycles.push(per_col);
            if cfg.sync == SyncPolicy::PerPallet {
                bufs.nmc.push(dispatcher.fetch_cycles(spec, *pallet, *step));
            }
        }
        t.add_pallet(bufs.sync(cfg, pallet.lanes));
    }
    finish_layer(cfg, spec, shared_traffic(&cfg.chip, spec, &dispatcher), t, total, sampled)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn schedule_column(cfg: &PraConfig, layer: &LayerWorkload, brick: &[u16; BRICK]) -> ColumnSchedule {
    let mut masks = [0u32; 16];
    for (m, &v) in masks.iter_mut().zip(brick) {
        let v = if cfg.software_trim { layer.window.trim(v) } else { v };
        *m = match cfg.encoding {
            Encoding::Oneffset => u32::from(v),
            Encoding::Csd => csd_mask(v),
        };
    }
    schedule_brick_with(&masks, cfg.scheduler())
}

/// Simulates a network's convolutional layers — `layers`, the
/// neuron-free views the artifacts were built over (a workload's
/// `views()`, or `pra_workloads::layer_views` for a stored one) — on
/// the configured design point, labelled with [`PraConfig::label`],
/// against build-once shared artifacts: a finished
/// [`SharedEncodedNetwork`] or a [`PipelinedBuild`] still in flight (see
/// [`Artifacts`]). Every layer borrows its shared schedule table (and,
/// when available, the engine-independent traffic counters) instead of
/// re-scheduling per design point, so no neuron is read here. Against an in-flight build, layer `idx` simulates as
/// soon as the builder has produced it, so a cold build's scheduling of
/// layer *n + 1* overlaps simulation of layer *n*.
/// `on_layer(idx, partial)` fires the moment layer `idx` finishes, with
/// the run result accumulated so far — the serving tier's v2 streaming
/// hook (each call becomes one `layer_result` wire frame). Neither the
/// artifact source nor the observer changes the result: each layer is
/// cycle-for-cycle identical to [`simulate_layer`] on that layer.
///
/// # Panics
///
/// Panics if the artifacts do not cover `cfg` or every layer (see
/// [`SharedEncodedNetwork::artifacts`]), or if an in-flight build's
/// builder died mid-build.
///
/// [`SharedEncodedNetwork`]: crate::SharedEncodedNetwork
/// [`SharedEncodedNetwork::artifacts`]: crate::SharedEncodedNetwork::artifacts
/// [`PipelinedBuild`]: crate::PipelinedBuild
pub fn run_shared<'a>(
    cfg: &PraConfig,
    layers: &[LayerView<'_>],
    artifacts: impl Into<Artifacts<'a>>,
    mut on_layer: impl FnMut(usize, &RunResult),
) -> RunResult {
    let artifacts = artifacts.into();
    assert_eq!(artifacts.layer_count(), layers.len(), "shared artifacts must cover every layer");
    let mut result = RunResult::new(cfg.label());
    for (idx, layer) in layers.iter().enumerate() {
        let (sched, traffic) = artifacts.layer(idx, cfg);
        result.layers.push(simulate_layer_shared(cfg, *layer, &sched, traffic.as_ref()));
        on_layer(idx, &result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_fixed::PrecisionWindow;
    use pra_sim::ChipConfig;
    use pra_tensor::{ConvLayerSpec, Tensor3};
    use pra_workloads::Representation;

    fn toy_layer(fill: impl FnMut(usize, usize, usize) -> u16) -> LayerWorkload {
        let spec = ConvLayerSpec::new("toy", (32, 8, 32), (3, 3), 64, 1, 1).unwrap();
        LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, fill),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    }

    fn dadn_cycles(layer: &LayerWorkload) -> u64 {
        pra_engines::dadn::layer_cycles(&ChipConfig::dadn(), &layer.spec)
    }

    fn unpadded_layer(fill: impl FnMut(usize, usize, usize) -> u16) -> LayerWorkload {
        let spec = ConvLayerSpec::new("toy", (34, 10, 32), (3, 3), 64, 1, 0).unwrap();
        LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, fill),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    }

    #[test]
    fn worst_case_matches_dadn() {
        // All bits set: every neuron has 16 oneffsets -> every brick step
        // takes 16 cycles, exactly DaDN's per-window rate (16 windows in
        // parallel). Unpadded layer: with padding PRA is *faster* than
        // DaDN even in the worst case, because all-padding brick steps
        // cost one cycle instead of sixteen.
        let layer = unpadded_layer(|_, _, _| u16::MAX);
        let cfg = PraConfig::single_stage(Representation::Fixed16).with_trim(false);
        let r = simulate_layer(&cfg, &layer);
        assert_eq!(r.cycles, dadn_cycles(&layer));
    }

    #[test]
    fn padding_makes_worst_case_strictly_faster_than_dadn() {
        let layer = toy_layer(|_, _, _| u16::MAX);
        let cfg = PraConfig::single_stage(Representation::Fixed16).with_trim(false);
        let r = simulate_layer(&cfg, &layer);
        assert!(r.cycles < dadn_cycles(&layer));
    }

    #[test]
    fn sparse_layers_run_much_faster() {
        let layer = toy_layer(|x, y, i| if (x + y + i) % 8 == 0 { 0b100 } else { 0 });
        let cfg = PraConfig::single_stage(Representation::Fixed16);
        let r = simulate_layer(&cfg, &layer);
        assert!(r.cycles * 8 < dadn_cycles(&layer), "cycles {}", r.cycles);
    }

    #[test]
    fn never_slower_than_dadn_on_aligned_layers() {
        let layer = toy_layer(|x, y, i| (x * 31 + y * 17 + i * 13) as u16);
        for l in 0..=4 {
            let cfg = PraConfig::two_stage(l, Representation::Fixed16).with_trim(false);
            let r = simulate_layer(&cfg, &layer);
            assert!(r.cycles <= dadn_cycles(&layer), "L={l}");
        }
    }

    #[test]
    fn larger_l_never_slower_at_layer_scale() {
        let layer = toy_layer(|x, y, i| ((x * 131 + y * 241 + i * 37) % 4093) as u16);
        let mut prev = u64::MAX;
        for l in 0..=4 {
            let cfg = PraConfig::two_stage(l, Representation::Fixed16);
            let c = simulate_layer(&cfg, &layer).cycles;
            assert!(c <= prev, "L={l}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn column_sync_not_slower_than_pallet_sync() {
        let layer = toy_layer(|x, y, i| ((x * 7 + y * 3 + i) % 600) as u16);
        let pallet = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        for ssrs in [1usize, 4, 16] {
            let col = simulate_layer(&PraConfig::per_column(ssrs, Representation::Fixed16), &layer);
            assert!(
                col.cycles
                    <= pallet.cycles
                        + layer.spec.brick_steps() as u64 * layer.spec.pallets() as u64,
                "{ssrs} SSRs: {} vs pallet {}",
                col.cycles,
                pallet.cycles
            );
        }
        let ideal = simulate_layer(
            &PraConfig {
                sync: SyncPolicy::PerColumnIdeal,
                ..PraConfig::two_stage(2, Representation::Fixed16)
            },
            &layer,
        );
        assert!(ideal.cycles <= pallet.cycles);
    }

    #[test]
    fn trimming_removes_suffix_work() {
        // Values with suffix noise below the window: trimming speeds up.
        let layer = toy_layer(|x, y, i| (0b1_0000 | ((x + y + i) % 4)) as u16);
        let on = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        let off = simulate_layer(
            &PraConfig::two_stage(2, Representation::Fixed16).with_trim(false),
            &layer,
        );
        assert!(on.cycles < off.cycles);
    }

    #[test]
    fn terms_match_potential_model() {
        // The cycle simulator's effectual term count equals the ideal
        // potential study's PRA term count (same values, same trimming).
        let layer = toy_layer(|x, y, i| ((x * 5 + y * 11 + i * 3) % 300) as u16);
        let cfg = PraConfig::two_stage(2, Representation::Fixed16).with_trim(false);
        let r = simulate_layer(&cfg, &layer);
        let t = pra_engines::potential::layer_terms(&layer, Representation::Fixed16, 1);
        assert_eq!(r.counters.terms, t.pra);
    }

    #[test]
    fn sampled_fidelity_approximates_full() {
        let layer = toy_layer(|x, y, i| ((x * 97 + y * 53 + i * 29) % 511) as u16);
        let full = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        let sampled = simulate_layer(
            &PraConfig::two_stage(2, Representation::Fixed16)
                .with_fidelity(Fidelity::Sampled { max_pallets: 4 }),
            &layer,
        );
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn csd_encoding_not_slower_on_dense_values() {
        let layer = toy_layer(|_, _, _| 0b0111_1111_0000);
        let one = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        let csd = simulate_layer(
            &PraConfig {
                encoding: Encoding::Csd,
                ..PraConfig::two_stage(2, Representation::Fixed16)
            },
            &layer,
        );
        assert!(csd.cycles <= one.cycles);
    }

    #[test]
    fn quant8_worst_case_is_8_cycles_per_step() {
        let spec = ConvLayerSpec::new("q", (34, 10, 32), (3, 3), 64, 1, 0).unwrap();
        let layer = LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, |_, _, _| 0xFF),
            spec,
            window: PrecisionWindow::new(7, 0),
            stripes_precision: 8,
        };
        let cfg = PraConfig::two_stage(3, Representation::Quant8);
        let r = simulate_layer(&cfg, &layer);
        let dadn = dadn_cycles(&layer);
        // 8 oneffsets per neuron vs DaDN's 1 cycle/brick-step/window with
        // 16-way window parallelism -> exactly half of DaDN's 16.
        assert_eq!(r.cycles, dadn / 2);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn run_rejects_mismatched_representation() {
        // The toy workload is Fixed16; a Quant8 design point must not
        // simulate it, even against artifacts built for that point.
        let w = crate::shared::test_toy_workload();
        let cfg = PraConfig::two_stage(2, Representation::Quant8);
        let shared = crate::SharedEncodedNetwork::from_workload(&[cfg], &w);
        let _ = run_shared(&cfg, &w.views(), &shared, |_, _| {});
    }
}
