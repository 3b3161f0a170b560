//! Neuron Memory (NM) layout and row-activation model (§IV-B, §V-A4).
//!
//! All inter-layer neuron outputs live in a 4 MB central eDRAM Neuron
//! Memory connected to the tiles by a broadcast interconnect. The
//! dispatcher assembles a pallet's 16 neuron bricks per brick step; how
//! many NM *rows* those bricks touch determines the fetch latency `NMC`
//! that overlaps with the compute time `PC` (§V-A4: the next pallet begins
//! after `max(NMC, PC)`).
//!
//! Two layouts are modelled:
//!
//! * [`NmLayout::PalletMajor`] (default) — brick-interleaved storage
//!   `((y · ceil(I/16) + i/16) · Nx + x) · 16 + i mod 16`: bricks of
//!   adjacent windows (same `y`, `i`, consecutive `x`) are contiguous, so a
//!   unit-stride pallet lands in one or two rows exactly as §V-A4 claims.
//! * [`NmLayout::RowMajor`] — plain `i`-fastest order, the naive layout;
//!   a pallet's bricks are `I` neurons apart and spread over many rows.
//!   Kept as the `ablation_nm_layout` study.
//!
//! The row count runs once per pallet-step of every engine, so under
//! `PalletMajor` it is a closed form: when adjacent lanes' bricks are at
//! most a row apart (`stride · BRICK ≤ row_neurons`, every layer of the
//! modelled networks at 256 and 512 neurons per row), a pallet touches
//! every row between its first and last in-bounds lane's. `RowMajor`
//! and wider strides count rows lane by lane, the closed form's oracle.

use pra_tensor::brick::{brick_for, in_bounds_lanes, BrickStep, PalletRef};
use pra_tensor::{ConvLayerSpec, BRICK, PALLET};

/// Storage order of a layer's neuron array inside NM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum NmLayout {
    /// Brick-interleaved layout optimised for pallet fetches (default).
    #[default]
    PalletMajor,
    /// Naive `i`-fastest layout (ablation).
    RowMajor,
}

/// The Neuron Memory model: layout plus row geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeuronMemory {
    layout: NmLayout,
    /// Neurons per row (row bytes over neuron width).
    row_neurons: usize,
}

impl NeuronMemory {
    /// Creates a model with the given layout and `row_neurons` per row.
    ///
    /// # Panics
    ///
    /// Panics if `row_neurons` is not a positive multiple of the brick
    /// size (rows hold whole bricks).
    pub fn new(layout: NmLayout, row_neurons: usize) -> Self {
        assert!(
            row_neurons >= BRICK && row_neurons.is_multiple_of(BRICK),
            "row must hold whole bricks, got {row_neurons}"
        );
        Self { layout, row_neurons }
    }

    /// The configured layout.
    pub fn layout(&self) -> NmLayout {
        self.layout
    }

    /// Neurons per NM row.
    pub fn row_neurons(&self) -> usize {
        self.row_neurons
    }

    /// Linear neuron address of `(x, y, i)` for a layer stored with this
    /// layout.
    pub fn address(&self, spec: &ConvLayerSpec, x: usize, y: usize, i: usize) -> usize {
        let (nx, ni) = (spec.input.x, spec.input.i);
        match self.layout {
            NmLayout::RowMajor => (y * nx + x) * ni + i,
            NmLayout::PalletMajor => {
                let bricks_deep = ni.div_ceil(BRICK);
                let ib = i / BRICK;
                ((y * bricks_deep + ib) * nx + x) * BRICK + (i % BRICK)
            }
        }
    }

    /// NM row index containing `(x, y, i)`.
    pub fn row_of(&self, spec: &ConvLayerSpec, x: usize, y: usize, i: usize) -> usize {
        self.address(spec, x, y, i) / self.row_neurons
    }

    /// Number of distinct NM rows touched when fetching one pallet's
    /// bricks for one brick step. Padding bricks (out-of-bounds) need no
    /// fetch; a fully padded step returns 0.
    ///
    /// O(1) under [`NmLayout::PalletMajor`] with `stride · BRICK ≤
    /// row_neurons` (every layer of the modelled networks at both neuron
    /// widths): there a brick fills BRICK aligned addresses of one row,
    /// and adjacent lanes' bricks sit `stride · BRICK` addresses apart,
    /// so consecutive in-bounds lanes land in the same row or the next
    /// one. The pallet then touches every row from its first in-bounds
    /// lane's to its last's. Other layouts, wider strides and channel
    /// origins off the brick grid count the rows lane by lane.
    ///
    /// # Panics
    ///
    /// Panics if the pallet has more than [`PALLET`] lanes.
    pub fn pallet_fetch_rows(
        &self,
        spec: &ConvLayerSpec,
        pallet: PalletRef,
        step: BrickStep,
    ) -> usize {
        assert!(pallet.lanes <= PALLET, "pallet has {} lanes, max {PALLET}", pallet.lanes);
        if self.layout != NmLayout::PalletMajor
            || spec.stride * BRICK > self.row_neurons
            || !step.i0.is_multiple_of(BRICK)
        {
            return self.fetch_rows_by_lane(spec, pallet, step);
        }
        let lanes = in_bounds_lanes(spec, pallet, step);
        if lanes.is_empty() {
            return 0;
        }
        let row = |lane| {
            let b = brick_for(spec, pallet, lane, step);
            self.row_of(spec, b.x as usize, b.y as usize, b.i)
        };
        row(lanes.end - 1) - row(lanes.start) + 1
    }

    /// [`Self::pallet_fetch_rows`] counted lane by lane: each in-bounds
    /// brick's first and last row, sorted, distinct. Exact for every
    /// layout and stride; the closed form is checked against it.
    fn fetch_rows_by_lane(
        &self,
        spec: &ConvLayerSpec,
        pallet: PalletRef,
        step: BrickStep,
    ) -> usize {
        // A brick is contiguous and brick-aligned in both layouts when
        // `i0` is a multiple of BRICK, so it touches one row unless it
        // straddles one (non-aligned I); both ends are counted. At most
        // two rows per lane fit on the stack, which the caller's
        // `lanes <= PALLET` assert guarantees.
        let mut rows = [0usize; 2 * PALLET];
        let mut n = 0usize;
        for lane in 0..pallet.lanes {
            let b = brick_for(spec, pallet, lane, step);
            if b.x < 0 || b.y < 0 || b.x as usize >= spec.input.x || b.y as usize >= spec.input.y {
                continue; // padding: dispatcher injects zeros
            }
            let (x, y) = (b.x as usize, b.y as usize);
            let first = self.row_of(spec, x, y, b.i);
            let last_i = (b.i + BRICK - 1).min(spec.input.i - 1);
            let last = self.row_of(spec, x, y, last_i);
            rows[n] = first;
            n += 1;
            if last != first {
                rows[n] = last;
                n += 1;
            }
        }
        let rows = &mut rows[..n];
        rows.sort_unstable();
        let mut distinct = 0usize;
        for k in 0..rows.len() {
            if k == 0 || rows[k] != rows[k - 1] {
                distinct += 1;
            }
        }
        distinct
    }
}

impl Default for NeuronMemory {
    /// DaDN's 512-byte rows of 16-bit neurons: 256 neurons per row.
    fn default() -> Self {
        Self::new(NmLayout::PalletMajor, 256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_tensor::brick::{brick_steps, pallets};
    use pra_tensor::ConvLayerSpec;
    use proptest::prelude::*;

    /// Asserts the closed form equals the lane loop on every pallet-step
    /// of `s`; returns how many pallet-steps it checked.
    fn assert_closed_form_exact(nm: &NeuronMemory, s: &ConvLayerSpec) -> usize {
        let steps = brick_steps(s);
        let mut checked = 0;
        for p in pallets(s) {
            for &step in &steps {
                let lanes = nm.fetch_rows_by_lane(s, p, step);
                assert_eq!(nm.pallet_fetch_rows(s, p, step), lanes, "{nm:?} {s:?} {p:?} {step:?}");
                checked += 1;
            }
        }
        checked
    }

    proptest! {
        /// Random small geometries — ragged and all-padding pallet-steps,
        /// depths off the brick grid, strides 1–4, padding 0–2 — under
        /// both layouts and at row widths on both sides of the closed
        /// form's `stride · BRICK ≤ row_neurons` precondition.
        #[test]
        fn closed_form_fetch_rows_match_lane_loop(
            (nx, ny, depth) in (1usize..=40, 1usize..=5, 1usize..=70),
            (f, stride, pad) in (1usize..=5, 1usize..=4, 0usize..=2),
            row_neurons in prop_oneof![
                Just(16usize),
                Just(32usize),
                Just(48usize),
                Just(256usize),
                Just(512usize),
            ],
            row_major in any::<bool>(),
        ) {
            let Ok(s) = ConvLayerSpec::new("p", (nx, ny, depth), (f, f), 1, stride, pad) else {
                return;
            };
            let layout = if row_major { NmLayout::RowMajor } else { NmLayout::PalletMajor };
            assert_closed_form_exact(&NeuronMemory::new(layout, row_neurons), &s);
        }
    }

    #[test]
    fn closed_form_fetch_rows_exact_on_every_network_geometry() {
        // Every distinct conv geometry the sweep simulates, at the fp16
        // and quant8 row widths (256 and 512 neurons).
        let mut seen = std::collections::HashSet::new();
        let specs: Vec<ConvLayerSpec> = pra_workloads::Network::ALL
            .iter()
            .flat_map(|n| n.conv_layers())
            .filter(|s| {
                let (i, f) = (s.input, s.filter);
                seen.insert((i.x, i.y, i.i, f.x, f.y, s.stride, s.padding))
            })
            .collect();
        for row_neurons in [256, 512] {
            let nm = NeuronMemory::new(NmLayout::PalletMajor, row_neurons);
            let checked: usize = specs.iter().map(|s| assert_closed_form_exact(&nm, s)).sum();
            assert!(checked > 100_000, "{checked} pallet-steps");
        }
    }

    #[test]
    fn unaligned_channel_origins_count_lane_by_lane() {
        // A hand-built step off the brick grid spans two bricks per lane,
        // outside the closed form's one-row-per-brick premise.
        let s = spec(20, 40, 1);
        let nm = NeuronMemory::default();
        let pallet = PalletRef { wx0: 0, wy: 3, lanes: 16 };
        for i0 in 0..40 {
            let step = BrickStep { fx: 1, fy: 1, i0 };
            assert_eq!(
                nm.pallet_fetch_rows(&s, pallet, step),
                nm.fetch_rows_by_lane(&s, pallet, step),
                "i0 {i0}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "max 16")]
    fn closed_form_rejects_oversized_pallets() {
        let s = spec(64, 64, 1);
        let pallet = PalletRef { wx0: 0, wy: 1, lanes: PALLET + 1 };
        let _ = NeuronMemory::default().pallet_fetch_rows(
            &s,
            pallet,
            BrickStep { fx: 0, fy: 0, i0: 0 },
        );
    }

    fn spec(nx: usize, i: usize, stride: usize) -> ConvLayerSpec {
        ConvLayerSpec::new("t", (nx, nx, i), (3, 3), 16, stride, 1).unwrap()
    }

    #[test]
    fn pallet_major_unit_stride_hits_at_most_two_rows() {
        // §V-A4: "with unit stride the 256 neurons would be typically all
        // stored in the same NM row or at most over two adjacent NM rows".
        let s = spec(64, 256, 1);
        let nm = NeuronMemory::default();
        let pallet = PalletRef { wx0: 8, wy: 3, lanes: 16 };
        for step in pra_tensor::brick::brick_steps(&s).iter().take(24) {
            let rows = nm.pallet_fetch_rows(&s, pallet, *step);
            assert!(rows <= 2, "step {step:?} touched {rows} rows");
        }
    }

    #[test]
    fn larger_stride_touches_more_rows() {
        let nm = NeuronMemory::default();
        let s1 = ConvLayerSpec::new("s1", (128, 128, 64), (3, 3), 16, 1, 0).unwrap();
        let s4 = ConvLayerSpec::new("s4", (128, 128, 64), (3, 3), 16, 4, 0).unwrap();
        let pallet = PalletRef { wx0: 0, wy: 1, lanes: 16 };
        let step = BrickStep { fx: 1, fy: 1, i0: 0 };
        let r1 = nm.pallet_fetch_rows(&s1, pallet, step);
        let r4 = nm.pallet_fetch_rows(&s4, pallet, step);
        assert!(r4 > r1, "stride-4 rows {r4} vs stride-1 rows {r1}");
        assert!(r4 <= 4);
    }

    #[test]
    fn row_major_spreads_pallets_when_deep() {
        // With I = 256 the naive layout separates adjacent windows' bricks
        // by 256 neurons = one full row each.
        let s = spec(64, 256, 1);
        let rm = NeuronMemory::new(NmLayout::RowMajor, 256);
        let pm = NeuronMemory::new(NmLayout::PalletMajor, 256);
        let pallet = PalletRef { wx0: 8, wy: 3, lanes: 16 };
        let step = BrickStep { fx: 1, fy: 1, i0: 16 };
        assert!(rm.pallet_fetch_rows(&s, pallet, step) > pm.pallet_fetch_rows(&s, pallet, step));
    }

    #[test]
    fn padding_bricks_need_no_rows() {
        let s = spec(20, 16, 1);
        let nm = NeuronMemory::default();
        // Window row wy = 0 with fy = 0 reads y = -1: all padding.
        let pallet = PalletRef { wx0: 0, wy: 0, lanes: 16 };
        let rows = nm.pallet_fetch_rows(&s, pallet, BrickStep { fx: 0, fy: 0, i0: 0 });
        assert_eq!(rows, 0);
    }

    #[test]
    fn addresses_are_unique_and_dense() {
        let s = spec(6, 24, 1); // ragged depth: 24 channels = 1.5 bricks
        for layout in [NmLayout::PalletMajor, NmLayout::RowMajor] {
            let nm = NeuronMemory::new(layout, 256);
            let mut seen = std::collections::HashSet::new();
            for y in 0..6 {
                for x in 0..6 {
                    for i in 0..24 {
                        assert!(seen.insert(nm.address(&s, x, y, i)), "{layout:?} duplicate");
                    }
                }
            }
            // PalletMajor pads ragged bricks to full 16: addresses reach
            // 6*6*2*16; RowMajor is fully dense.
            let max = seen.iter().max().unwrap() + 1;
            match layout {
                NmLayout::RowMajor => assert_eq!(max, 6 * 6 * 24),
                NmLayout::PalletMajor => assert!(max <= 6 * 6 * 32),
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole bricks")]
    fn rejects_partial_brick_rows() {
        let _ = NeuronMemory::new(NmLayout::PalletMajor, 24);
    }
}
