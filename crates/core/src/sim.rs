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
//! step, but eight pallets of one pallet column at a time: for each
//! brick step it reads their `16 × 8` column costs as contiguous runs
//! of a transposed copy of the table, then advances all eight
//! recurrences with the pallet index innermost and no data-dependent
//! branch, so the compiler vectorizes it across pallets. Both fan out
//! across the thread pool in contiguous chunks — input rows for the
//! weighted pass, whole batches for the walk — with an order-preserving
//! reduction, so a single-layer request scales across cores.
//!
//! Entry points: [`run_shared`] is the one network runner — every
//! design point of a workload simulates against one
//! [`crate::SharedEncodedNetwork`], finished or still filling its
//! layers on first touch.
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
use crate::schedule::{LayerScheduler, MAX_CYCLES};
use crate::shared::SharedEncodedNetwork;
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
        fan_out(&visits, visits.len() * spec.filter.x * spec.input.bricks_deep(), pass)
    } else {
        assert_walk_fits(spec);
        let batches = column_batches(&selected);
        let grid = CostGrid::new(spec, sched);
        let walk = |chunk: &[Vec<PalletRef>]| simulate_pallets(cfg, spec, &grid, chunk);
        // The pass only counts terms here, a small fraction of the walk.
        pass(&visits).add(fan_out(&batches, selected.len() * spec.brick_steps(), walk))
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
/// batch (`pra sweep`'s jobs) they would only add thread churn. On two
/// x86-64 vCPUs, a per-column layer split over two workers broke even
/// at about 2,000 pallet-steps each and took 0.84× the serial time at
/// 4,000.
const MIN_STEPS_PER_WORKER: usize = 4096;

/// Maps contiguous chunks of `items`, `steps` brick steps in all, on
/// the thread pool, in input order, and sums them in chunk order: the
/// same deterministic reduction `pra sweep` pins down for its job rows.
fn fan_out<T: Sync>(items: &[T], steps: usize, f: impl Fn(&[T]) -> Totals + Sync) -> Totals {
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

/// Pallets the per-column walk advances side by side: each column's
/// state across a batch is one `[i32; BATCH]`, two SSE registers at the
/// default x86-64 target.
const BATCH: usize = 8;

/// One `i32` per pallet of a batch.
type Lanes = [i32; BATCH];

/// Most cycles a column's ready time grows by in one brick step: the
/// longest brick, one cycle waiting for a free SSR and one for the load
/// slot.
const MAX_STEP_GROWTH: usize = MAX_CYCLES as usize + 2;

/// Panics unless every `i32` of the per-column walk fits on `spec`:
/// ready times stay below `steps × MAX_STEP_GROWTH`, and a pallet's
/// stall sum, at most its 16 columns' ready times, below 16 times that.
/// Release builds wrap on overflow, so a layer this large must fail here
/// rather than count wrong.
fn assert_walk_fits(spec: &ConvLayerSpec) {
    let steps = spec.brick_steps();
    let most = steps.checked_mul(MAX_STEP_GROWTH * PALLET);
    assert!(
        most.is_some_and(|n| n <= i32::MAX as usize),
        "{}: {steps} brick steps overflow the per-column walk's i32 cycle counts",
        spec.name()
    );
}

/// Groups `pallets` into batches of up to [`BATCH`] of one pallet
/// column (so one lane count), window rows ascending: what
/// [`CostGrid::walk`] reads as contiguous runs.
fn column_batches(pallets: &[PalletRef]) -> Vec<Vec<PalletRef>> {
    let mut by_column = pallets.to_vec();
    by_column.sort_by_key(|p| (p.wx0, p.wy));
    by_column
        .chunk_by(|a, b| a.wx0 == b.wx0)
        .flat_map(|g| g.chunks(BATCH))
        .map(<[_]>::to_vec)
        .collect()
}

/// Per-column sync over whole batches (see [`column_batches`]). Each
/// batch is walked step-major: for every brick step, [`CostGrid::walk`]
/// reads the batch's `16 × BATCH` column costs, then [`ColumnSync`]
/// advances every pallet's recurrence by one set. Results equal
/// [`column_sync`] on each pallet alone; nothing is allocated per step.
fn simulate_pallets(
    cfg: &PraConfig,
    spec: &ConvLayerSpec,
    grid: &CostGrid,
    batches: &[Vec<PalletRef>],
) -> Totals {
    let ssrs = match cfg.sync {
        SyncPolicy::PerColumn { ssrs } => Some(ssrs),
        SyncPolicy::PerColumnIdeal => None,
        SyncPolicy::PerPallet => unreachable!("pallet sync is the weighted pass"),
    };
    let mut t = Totals::default();
    let mut gates = Vec::new();
    for batch in batches {
        let active = batch[0].lanes;
        let mut sync = ColumnSync::new(ssrs, spec.brick_steps(), &mut gates);
        grid.walk(spec, batch, |cost| sync.step(cost, active));
        for p in 0..batch.len() {
            let (cycles, stalls) = sync.outcome(p, active);
            t.cycles += cycles;
            t.sb_stalls += stalls;
        }
    }
    t
}

/// The per-column walk's copy of a layer's schedule table: each brick's
/// `max(cycles, 1)`, padding written out as the one cycle it costs, laid
/// out so that a batch — one pallet column, consecutive window rows —
/// reads each lane's costs as one contiguous run. No step looks up its
/// in-bounds lanes: a padded lane reads a padding cell.
///
/// Window row `wy` reads input row `wy·S − pad + fy`; with `r = fy mod
/// S` and `j = wy + fy div S` that is `j·S + r − pad`, so cell
/// `(r, ib, x + pad, j)` holds the brick at that row, channel brick `ib`
/// and column `x`. `j` is innermost: consecutive window rows read
/// consecutive cells. There are `BATCH − 1` rows past the last window
/// row's reach, so a short batch reads a whole run too.
struct CostGrid {
    cells: Vec<i32>,
    depth: usize,
    width: usize,
    rows: usize,
}

impl CostGrid {
    fn new(spec: &ConvLayerSpec, sched: &LayerScheduler) -> Self {
        let (s, pad, input) = (spec.stride, spec.padding, spec.input);
        let residues = s.min(spec.filter.y);
        let depth = input.bricks_deep();
        let width = input.x + 2 * pad;
        let rows = spec.out_y() + BATCH - 1 + (spec.filter.y - 1) / s;
        let mut cells = vec![1; residues * depth * width * rows];
        for r in 0..residues {
            for j in 0..rows {
                let Some(y) = (j * s + r).checked_sub(pad).filter(|&y| y < input.y) else {
                    continue;
                };
                for ib in 0..depth {
                    let first = ((r * depth + ib) * width + pad) * rows + j;
                    let cells = cells[first..].iter_mut().step_by(rows);
                    for (cell, &w) in cells.zip(sched.row(y, ib)) {
                        *cell = (w >> 16).max(1) as i32;
                    }
                }
            }
        }
        Self { cells, depth, width, rows }
    }

    /// Feeds `step` every brick step of `batch` (pallets of one pallet
    /// column) in [`brick_steps`] order, as a `16 × BATCH` block of
    /// column costs. Slots past a short batch repeat real cells, and
    /// lanes past its lane count are left as they are: the recurrence
    /// reads neither.
    fn walk(
        &self,
        spec: &ConvLayerSpec,
        batch: &[PalletRef],
        mut step: impl FnMut(&[Lanes; PALLET]),
    ) {
        let s = spec.stride;
        let (wx0, lanes) = (batch[0].wx0, batch[0].lanes);
        let wy: [usize; BATCH] = std::array::from_fn(|p| batch.get(p).unwrap_or(&batch[0]).wy);
        let consecutive = batch.iter().zip(0..).all(|(q, p)| q.wy == batch[0].wy + p);
        let mut cost = [[1; BATCH]; PALLET];
        for fy in 0..spec.filter.y {
            let (r, rise) = (fy % s, fy / s);
            for fx in 0..spec.filter.x {
                for ib in 0..self.depth {
                    let plane = (r * self.depth + ib) * self.width;
                    for (c, lane) in cost.iter_mut().enumerate().take(lanes) {
                        let first = (plane + (wx0 + c) * s + fx) * self.rows + rise;
                        let run = &self.cells[first..first + self.rows - rise];
                        if consecutive {
                            lane.copy_from_slice(&run[wy[0]..wy[0] + BATCH]);
                        } else {
                            for (slot, &j) in lane.iter_mut().zip(&wy) {
                                *slot = run[j];
                            }
                        }
                    }
                    step(&cost);
                }
            }
        }
    }
}

/// [`column_sync`]'s recurrence over a batch of pallets that share
/// `active` lanes, one set at a time, pallet index innermost and free
/// of data-dependent branches (selects for the loader and the last
/// copier), so the compiler vectorizes it across pallets. `ready[c][p]`
/// is when column `c` of pallet `p` finished its previous set, and
/// `stalls[p]` sums its columns' waits.
///
/// `gates` keeps the `(F, f)` pairs of the last `k` sets only, as a
/// ring: the slot set `s` reads holds set `s − k`'s pair, and set `s`
/// overwrites it. Slots start at `(−1, −1)`, which gates nothing. The
/// ideal policy has no ring: every column runs alone.
struct ColumnSync<'a> {
    ready: [Lanes; PALLET],
    stalls: Lanes,
    gates: &'a mut Vec<(Lanes, Lanes)>,
    slot: usize,
}

impl<'a> ColumnSync<'a> {
    /// A batch about to walk `steps` sets with `ssrs` SSRs (`None`:
    /// ideal), reusing `gates`' allocation.
    fn new(ssrs: Option<usize>, steps: usize, gates: &'a mut Vec<(Lanes, Lanes)>) -> Self {
        gates.clear();
        if let Some(k) = ssrs {
            assert!(k >= 1, "per-column sync needs at least one SSR");
            gates.resize(k.min(steps), ([-1; BATCH], [-1; BATCH]));
        }
        Self { ready: [[0; BATCH]; PALLET], stalls: [0; BATCH], gates, slot: 0 }
    }

    /// Advances every pallet by one set whose column costs, each at
    /// least 1, are `cost`; lanes from `active` on are not read.
    fn step(&mut self, cost: &[Lanes; PALLET], active: usize) {
        let ready = &mut self.ready;
        let Some(&(gate_at, gate_col)) = self.gates.get(self.slot) else {
            for (r, c) in ready.iter_mut().zip(cost).take(active) {
                for p in 0..BATCH {
                    r[p] += c[p];
                }
            }
            return;
        };
        // A column can read the set from SB once its SSR frees: cycle
        // `F`, or `F + 1` for columns up to the last copier `f`.
        let attempt = |ready: &[Lanes; PALLET], c: usize, p: usize| {
            ready[c][p].max(gate_at[p] + i32::from(c as i32 <= gate_col[p]))
        };
        // The loader: the smallest `(attempt, index)`.
        let mut load_at: Lanes = std::array::from_fn(|p| attempt(ready, 0, p));
        let mut loader = [0; BATCH];
        for c in 1..active {
            for p in 0..BATCH {
                let a = attempt(ready, c, p);
                let earlier = a < load_at[p];
                load_at[p] = if earlier { a } else { load_at[p] };
                loader[p] = if earlier { c as i32 } else { loader[p] };
            }
        }
        // Every column copies the set, columns before the loader one
        // cycle after it; the last copy, highest index on ties, frees
        // the SSR.
        let (mut last_at, mut last_col) = ([0; BATCH], [0; BATCH]);
        for c in 0..active {
            for p in 0..BATCH {
                let r = ready[c][p];
                let acquire = r.max(load_at[p] + i32::from((c as i32) < loader[p]));
                self.stalls[p] += acquire - r;
                ready[c][p] = acquire + cost[c][p];
                let later = acquire >= last_at[p];
                last_at[p] = if later { acquire } else { last_at[p] };
                last_col[p] = if later { c as i32 } else { last_col[p] };
            }
        }
        self.gates[self.slot] = (last_at, last_col);
        self.slot = if self.slot + 1 == self.gates.len() { 0 } else { self.slot + 1 };
    }

    /// Pallet `p`'s cycles (its last column's ready time) and stall sum.
    fn outcome(&self, p: usize, active: usize) -> (u64, u64) {
        let cycles = self.ready[..active].iter().map(|r| r[p]).max().unwrap_or(0);
        let count = |v: i32| u64::try_from(v).expect("assert_walk_fits keeps counts non-negative");
        (count(cycles), count(self.stalls[p]))
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
    // Step-indexed sync inputs and per-column sync's scratch, reused
    // across pallets. Only pallet sync reads the NM fetch cycles.
    let (mut cols, mut nmc, mut freed) = (Vec::with_capacity(steps.len()), Vec::new(), Vec::new());
    for pallet in &selected {
        cols.clear();
        nmc.clear();
        for step in &steps {
            let bricks = fetch_pallet_step(spec, &layer.neurons, *pallet, *step);
            let mut per_col = [0u32; 16];
            for (col, brick) in bricks.iter().enumerate().take(pallet.lanes) {
                let sched = schedule_column(cfg, layer, brick);
                per_col[col] = sched.cycles;
                t.oneffsets += u64::from(sched.terms);
            }
            cols.push(per_col);
            if cfg.sync == SyncPolicy::PerPallet {
                nmc.push(dispatcher.fetch_cycles(spec, *pallet, *step));
            }
        }
        t.add_pallet(match cfg.sync {
            SyncPolicy::PerPallet => pallet_sync(&cols, &nmc),
            SyncPolicy::PerColumn { ssrs } => {
                column_sync(&cols, pallet.lanes, Some(ssrs), &mut freed)
            }
            SyncPolicy::PerColumnIdeal => column_sync(&cols, pallet.lanes, None, &mut freed),
        });
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
/// against build-once shared artifacts. Every layer borrows its shared
/// schedule table (and, when available, the engine-independent traffic
/// counters) instead of re-scheduling per design point, so no neuron is
/// read here unless a build that missed the `en` tier has not scheduled
/// the layer yet: then this run schedules it on its own thread before
/// simulating it ([`SharedEncodedNetwork::artifacts`]), so layer *n*
/// waits for layer *n*'s tables only.
/// `on_layer(idx, partial)` fires the moment layer `idx` finishes, with
/// the run result accumulated so far — the serving tier's v2 streaming
/// hook (each call becomes one `layer_result` wire frame). Neither who
/// scheduled a layer nor the observer changes the result: each layer is
/// cycle-for-cycle identical to [`simulate_layer`] on that layer.
///
/// # Panics
///
/// Panics if the artifacts do not cover `cfg` or every layer (see
/// [`SharedEncodedNetwork::artifacts`]).
pub fn run_shared(
    cfg: &PraConfig,
    layers: &[LayerView<'_>],
    network: &SharedEncodedNetwork,
    mut on_layer: impl FnMut(usize, &RunResult),
) -> RunResult {
    assert_eq!(network.layer_count(), layers.len(), "shared artifacts must cover every layer");
    let mut result = RunResult::new(cfg.label());
    for (idx, layer) in layers.iter().enumerate() {
        let (sched, traffic) = network.artifacts(idx, cfg);
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
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The batch kernel equals [`column_sync`] on each pallet alone,
        /// cycles and stalls: random costs 0–17, 1–16 lanes (the lanes
        /// past them and the slots past the filled pallets hold costs of
        /// their own), 1, 2, 4 or 16 SSRs or the ideal policy, and a
        /// second, shorter batch reusing the first one's ring.
        #[test]
        fn batch_kernel_equals_scalar_column_sync(
            blocks in prop::collection::vec(
                prop::array::uniform16(prop::array::uniform8(0u32..=17)),
                1..41,
            ),
            active in 1usize..=16,
            filled in 1usize..=BATCH,
            ssrs in prop_oneof![
                Just(Some(1usize)),
                Just(Some(2usize)),
                Just(Some(4usize)),
                Just(Some(16usize)),
                Just(None),
            ],
        ) {
            let mut gates = Vec::new();
            for blocks in [&blocks[..], &blocks[blocks.len() / 2..]] {
                let mut sync = ColumnSync::new(ssrs, blocks.len(), &mut gates);
                for block in blocks {
                    sync.step(&block.map(|lane| lane.map(|c| c.max(1) as i32)), active);
                }
                for p in 0..filled {
                    let cols: Vec<[u32; 16]> =
                        blocks.iter().map(|b| std::array::from_fn(|c| b[c][p])).collect();
                    let want = column_sync(&cols, active, ssrs, &mut Vec::new());
                    prop_assert_eq!(
                        sync.outcome(p, active),
                        (want.cycles, want.sb_stall_cycles),
                        "pallet {} of {}, {} steps, {} lanes, {:?} SSRs",
                        p, filled, blocks.len(), active, ssrs
                    );
                }
            }
        }
    }

    #[test]
    fn walk_admits_exactly_the_layers_its_counts_fit() {
        let deep = |steps: usize| {
            ConvLayerSpec::new("deep", (1, 1, 16 * steps), (1, 1), 16, 1, 0).unwrap()
        };
        let most = i32::MAX as usize / (MAX_STEP_GROWTH * PALLET);
        assert_walk_fits(&deep(most));
        assert!(std::panic::catch_unwind(|| assert_walk_fits(&deep(most + 1))).is_err());
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
