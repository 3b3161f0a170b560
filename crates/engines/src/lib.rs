//! Baseline accelerator models for the Pragmatic (MICRO 2017) reproduction.
//!
//! Pragmatic is evaluated against DaDianNao (the bit-parallel state of the
//! art) and Stripes (bit-serial with per-layer precisions), with two
//! zero-neuron-skipping references — ZN (ideal) and CVN (Cnvlutin-style,
//! practical) — appearing in the §II potential study. This crate models all
//! of them:
//!
//! * [`dadn`] — bit-parallel cycle and term model (§IV-B).
//! * [`stripes`] — bit-serial cycle model with per-layer precision and NM
//!   fetch overlap (§I, paper ref 4).
//! * [`zero_skip`] — ZN and CVN term models (§II-B).
//! * [`potential`] — the Figure 2/3 term-count study across all engines,
//!   including ideal PRA-fp16 and PRA-red.
//!
//! Shared conventions (see DESIGN.md): every engine performs the same
//! synapse-set reads and NM traffic ("computation was scheduled such that
//! all designs see the same reuse of synapses", §VI-A); cycle counts are
//! per chip with 256 concurrent filters; layers whose filter count exceeds
//! 256 run in `ceil(N/256)` filter groups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dadn;
pub mod potential;
pub mod stripes;
pub mod zero_skip;

use pra_sim::{AccessCounters, ChipConfig, Dispatcher};
use pra_tensor::brick::{in_bounds_lanes, pallets, row_steps, row_visits};
use pra_tensor::ConvLayerSpec;
use pra_workloads::Representation;

/// NM/SB traffic for a layer, identical across engines by the scheduling
/// convention: one synapse-set read per (filter group × pallet × brick
/// step), neuron bricks fetched once per (pallet × brick step), NM rows
/// counted by the dispatcher's layout model. Brick reads and NM rows
/// depend only on what a pallet-step reads, so they are counted once per
/// distinct pallet-step ([`row_visits`]) and weighted by its visits.
pub fn shared_traffic(
    cfg: &ChipConfig,
    spec: &ConvLayerSpec,
    dispatcher: &Dispatcher,
) -> AccessCounters {
    let fg = cfg.filter_groups(spec.num_filters) as u64;
    let mut c = AccessCounters::new();
    for v in row_visits(spec, &pallets(spec)) {
        for step in row_steps(spec, v.fy) {
            c.nm_row_activations += v.count * dispatcher.fetch_cycles(spec, v.pallet, step);
            c.nm_brick_reads += v.count * in_bounds_lanes(spec, v.pallet, step).len() as u64;
        }
    }
    c.sb_set_reads = spec.pallets() as u64 * spec.brick_steps() as u64 * fg;
    // Output bricks written through NBout, once per window group of 16
    // filters.
    c.nm_brick_writes = (spec.windows() * spec.num_filters.div_ceil(cfg.brick)) as u64;
    c
}

/// Terms-per-multiplication for a bit-parallel engine under `repr` (the
/// §II convention: a `p`-bit multiplication is equivalent to `p` terms).
pub fn bit_parallel_terms_per_mult(repr: Representation) -> u64 {
    repr.bits() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_sim::NeuronMemory;

    #[test]
    fn shared_traffic_counts_sets_and_bricks() {
        let cfg = ChipConfig::dadn();
        let spec = ConvLayerSpec::new("t", (32, 4, 32), (3, 3), 512, 1, 0).unwrap();
        let d = Dispatcher::new(NeuronMemory::default());
        let c = shared_traffic(&cfg, &spec, &d);
        // 30x2 windows -> 2 pallets/row x 2 rows; 3*3*2 steps; 2 filter groups.
        let pallets = 2 * 2u64;
        let steps = 18u64;
        assert_eq!(c.sb_set_reads, pallets * steps * 2);
        // No padding -> every lane of every full pallet fetches.
        assert!(c.nm_brick_reads > 0);
        assert_eq!(c.nm_brick_writes, (30 * 2 * (512 / 16)) as u64);
    }

    #[test]
    fn padding_reduces_brick_reads() {
        let cfg = ChipConfig::dadn();
        let d = Dispatcher::new(NeuronMemory::default());
        let padded = ConvLayerSpec::new("p", (16, 16, 16), (3, 3), 16, 1, 1).unwrap();
        let unpadded = ConvLayerSpec::new("u", (18, 18, 16), (3, 3), 16, 1, 0).unwrap();
        // Same output geometry (16x16), same steps; padded layer skips
        // out-of-bounds bricks.
        let cp = shared_traffic(&cfg, &padded, &d);
        let cu = shared_traffic(&cfg, &unpadded, &d);
        assert!(cp.nm_brick_reads < cu.nm_brick_reads);
    }
}
