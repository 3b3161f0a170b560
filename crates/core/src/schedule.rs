//! Layer-scoped scheduling: one dense `(cycles, terms)` table per layer
//! and scheduler, built up front.
//!
//! The naive simulator re-fetches and re-schedules the *same* input brick
//! once per overlapping convolution window — a K×K-fold duplication of the
//! most expensive inner loop (9× for 3×3 kernels, before counting the
//! window overlap along `x` inside a pallet). Two observations remove the
//! duplication entirely:
//!
//! 1. Trimming (§V-F) and term encoding (oneffset or CSD) are per-neuron
//!    and layer-uniform: a brick's 16 lane masks depend only on its
//!    values, the layer's precision window and the [`EncodingKey`].
//! 2. A [`ColumnSchedule`] is a pure function of those masks and the
//!    [`SchedulerConfig`] (§V-D) — nothing else. Every window and pallet
//!    that touches an input brick therefore sees the *same* schedule.
//!
//! So the simulator needs one `(cycles, terms)` pair per brick and
//! nothing more. [`LayerScheduler`] is that table, one packed `u32` per
//! in-grid brick; the build encodes each brick's masks once per key on
//! the stack and schedules them under every scheduler that shares the
//! key, so no mask buffer outlives it. On the hot path a pallet-step's
//! in-bounds lanes are every `S`-th word of one row slice.

use pra_fixed::{csd, PrecisionWindow};
use pra_tensor::brick::BrickRef;
use pra_tensor::{Dim3, Tensor3, BRICK};

use crate::column::{schedule_brick_with, SchedulerConfig};
use crate::config::{Encoding, EncodingKey, PraConfig};

/// Most cycles a brick can take: each cycle drains the anchor power from
/// every lane holding it, and a CSD mask spans at most 17 powers.
pub(crate) const MAX_CYCLES: u32 = 17;

/// Most terms a brick can hold: 16 lanes × 17 powers.
const MAX_TERMS: u32 = 16 * 17;

/// One layer's brick schedules under one `(EncodingKey,
/// SchedulerConfig)` pair: `cycles << 16 | terms` per in-grid brick
/// (both fit in 16 bits: cycles ≤ 17, terms ≤ 272), laid out
/// `(y, brick along i, x)`-major.
///
/// Immutable once built, so [`crate::SharedEncodedNetwork`] shares one
/// table across every design point that agrees on the pair (they may
/// differ in synchronization policy, fidelity or chip structure).
#[derive(Debug)]
pub struct LayerScheduler {
    dim: Dim3,
    table: Vec<u32>,
}

impl LayerScheduler {
    /// Schedules every brick of `neurons` under `cfg`'s encoding key and
    /// scheduler.
    pub fn new(cfg: &PraConfig, window: PrecisionWindow, neurons: &Tensor3<u16>) -> Self {
        Self::build(&[(cfg.encoding_key(), cfg.scheduler())], window, neurons).remove(0)
    }

    /// One table per pair, in `pairs` order, from one pass over the
    /// layer: a brick's masks are encoded once per run of pairs that
    /// share a key, so pairs grouped by key encode each key once.
    pub(crate) fn build(
        pairs: &[(EncodingKey, SchedulerConfig)],
        window: PrecisionWindow,
        neurons: &Tensor3<u16>,
    ) -> Vec<Self> {
        let dim = neurons.dim();
        let bricks = dim.x * dim.y * dim.bricks_deep();
        let mut tables = vec![Vec::with_capacity(bricks); pairs.len()];
        for y in 0..dim.y {
            for ib in 0..dim.bricks_deep() {
                for x in 0..dim.x {
                    let vals = neurons.brick_padded(x as isize, y as isize, ib * BRICK);
                    let mut masks = (None, [0u32; BRICK]);
                    for (table, &(key, scheduler)) in tables.iter_mut().zip(pairs) {
                        if masks.0 != Some(key) {
                            masks = (Some(key), vals.map(|v| encode(key, window, v)));
                        }
                        let s = schedule_brick_with(&masks.1, scheduler);
                        table.push((s.cycles << 16) | s.terms);
                    }
                }
            }
        }
        tables.into_iter().map(|table| Self { dim, table }).collect()
    }

    /// Rebuilds a table from deserialized parts (the persisted
    /// encoded-artifact tier, `crate::artifact`). `None` unless `table`
    /// has one entry per in-grid brick of `dim` and every entry is a
    /// schedule the build could have produced — stale or foreign bytes
    /// fail closed, never index out of bounds.
    pub(crate) fn from_table(dim: Dim3, table: Vec<u32>) -> Option<Self> {
        let sound = table.len() == dim.x * dim.y * dim.bricks_deep()
            && table.iter().all(|&e| e >> 16 <= MAX_CYCLES && e & 0xFFFF <= MAX_TERMS);
        sound.then_some(Self { dim, table })
    }

    /// The layer geometry the table covers.
    pub(crate) fn dim(&self) -> Dim3 {
        self.dim
    }

    /// The packed table (serialization).
    pub(crate) fn table(&self) -> &[u32] {
        &self.table
    }

    /// The packed entries of input row `y` at channel brick `ib`, one per
    /// in-grid `x`: a contiguous slice of the `(y, ib, x)`-major table.
    /// `y` and `ib` must index the grid.
    #[inline]
    pub(crate) fn row(&self, y: usize, ib: usize) -> &[u32] {
        debug_assert!(y < self.dim.y && ib < self.dim.bricks_deep(), "({y}, {ib}) off the grid");
        let start = (y * self.dim.bricks_deep() + ib) * self.dim.x;
        &self.table[start..start + self.dim.x]
    }

    /// The `(cycles, terms)` of the column schedule for the brick at `b`.
    /// Padding bricks (out-of-bounds coordinates, spatial or depth) are
    /// all zeros and cost nothing, mirroring `Tensor3::brick_padded`.
    #[inline]
    pub fn brick_cycles_terms(&self, b: BrickRef) -> (u32, u32) {
        let dim = self.dim;
        if b.x < 0 || b.y < 0 || b.x as usize >= dim.x || b.y as usize >= dim.y || b.i >= dim.i {
            return (0, 0);
        }
        let packed = self.row(b.y as usize, b.i / BRICK)[b.x as usize];
        (packed >> 16, packed & 0xFFFF)
    }
}

/// One neuron's lane mask: trimmed to the window when the key asks for
/// it, then as a power set (the value itself for oneffsets, its CSD
/// recoding otherwise).
fn encode(key: EncodingKey, window: PrecisionWindow, v: u16) -> u32 {
    let v = if key.software_trim { window.trim(v) } else { v };
    match key.encoding {
        Encoding::Oneffset => u32::from(v),
        Encoding::Csd => csd::mask(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::csd_mask;
    use pra_workloads::Representation;

    /// Ragged depth: 24 channels = 1.5 bricks.
    fn neurons() -> Tensor3<u16> {
        Tensor3::from_fn((5, 4, 24), |x, y, i| ((x * 31 + y * 17 + i * 13) % 1023) as u16)
    }

    /// Both encodings, trim on and off, each as two design points
    /// (lookahead 2 and 4) that share one key.
    fn design_points() -> Vec<(Encoding, bool, [PraConfig; 2])> {
        let mut points = Vec::new();
        for encoding in [Encoding::Oneffset, Encoding::Csd] {
            for trim in [true, false] {
                let cfg = |l| PraConfig {
                    encoding,
                    ..PraConfig::two_stage(l, Representation::Fixed16).with_trim(trim)
                };
                points.push((encoding, trim, [cfg(2), cfg(4)]));
            }
        }
        points
    }

    fn pairs(cfgs: &[PraConfig; 2]) -> Vec<(EncodingKey, SchedulerConfig)> {
        cfgs.iter().map(|c| (c.encoding_key(), c.scheduler())).collect()
    }

    #[test]
    fn encoded_masks_match_per_fetch_encoding() {
        // Every entry of tables built together equals the schedule of
        // masks encoded per fetch from `brick_padded`.
        let n = neurons();
        let window = PrecisionWindow::with_width(9, 2);
        for (encoding, trim, cfgs) in design_points() {
            let pairs = pairs(&cfgs);
            let tables = LayerScheduler::build(&pairs, window, &n);
            for ((_, scheduler), table) in pairs.iter().zip(&tables) {
                assert_eq!(table.table.len(), 5 * 4 * 2, "one entry per in-grid brick");
                let every_brick = (0..4).flat_map(|y| (0..5).map(move |x| (x, y)));
                for ((x, y), i) in every_brick.flat_map(|xy| [(xy, 0), (xy, 16)]) {
                    let masks = n.brick_padded(x, y, i).map(|v| {
                        let v = if trim { window.trim(v) } else { v };
                        match encoding {
                            Encoding::Oneffset => u32::from(v),
                            Encoding::Csd => csd_mask(v),
                        }
                    });
                    let want = schedule_brick_with(&masks, *scheduler);
                    assert_eq!(
                        table.brick_cycles_terms(BrickRef { x, y, i }),
                        (want.cycles, want.terms),
                        "{encoding:?} trim {trim} at ({x},{y},{i})"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_matches_direct_schedule_and_padding_is_free() {
        // A design point's own table (what a lazy memo once filled)
        // equals its entry of the shared build, and padding bricks, past
        // any edge or the ragged depth, read (0, 0).
        let n = neurons();
        let window = PrecisionWindow::with_width(9, 2);
        for (encoding, trim, cfgs) in design_points() {
            let tables = LayerScheduler::build(&pairs(&cfgs), window, &n);
            for (cfg, table) in cfgs.iter().zip(&tables) {
                assert_eq!(
                    LayerScheduler::new(cfg, window, &n).table,
                    table.table,
                    "{encoding:?} trim {trim}: the one-pair build is the shared build"
                );
                for (x, y, i) in [(-1, 0, 0), (0, -1, 0), (5, 0, 0), (0, 4, 0), (0, 0, 32)] {
                    let b = BrickRef { x, y, i };
                    assert_eq!(table.brick_cycles_terms(b), (0, 0), "padding at {b:?}");
                }
            }
        }
    }
}
