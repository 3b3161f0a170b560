//! Property-based tests for the column scheduler and tile synchronization
//! — the components whose corner cases decide whether the worst-case
//! guarantee of §V-A3 actually holds.

use proptest::prelude::*;

use pra_core::column::{
    schedule_brick, schedule_brick_oracle, schedule_brick_with, ScanOrder, SchedulerConfig,
};
use pra_core::tile::{column_sync, pallet_sync};

fn arb_masks() -> impl Strategy<Value = [u32; 16]> {
    prop::array::uniform16(prop_oneof![
        3 => Just(0u32),
        5 => 0u32..=u16::MAX as u32,
        2 => Just(u16::MAX as u32),
    ])
}

proptest! {
    /// Terms always equal the total popcount, for any configuration.
    #[test]
    fn terms_conserved(masks in arb_masks(), l in 0u8..=4, per_cycle in 1u8..=3, msb in any::<bool>()) {
        let cfg = SchedulerConfig {
            l_bits: l,
            order: if msb { ScanOrder::MsbFirst } else { ScanOrder::LsbFirst },
            per_cycle,
        };
        let s = schedule_brick_with(&masks, cfg);
        let pop: u32 = masks.iter().map(|m| m.count_ones()).sum();
        prop_assert_eq!(s.terms, pop);
    }

    /// The dispatching entry point (branchless fast path for the paper
    /// configuration, general loop otherwise) equals the retained oracle
    /// for every configuration: random bricks, L ∈ 0..=4, both scan
    /// orders, 1..=3 oneffsets per cycle.
    #[test]
    fn fast_path_equals_oracle(
        masks in arb_masks(),
        l in 0u8..=4,
        msb in any::<bool>(),
        per_cycle in 1u8..=3,
    ) {
        let cfg = SchedulerConfig {
            l_bits: l,
            order: if msb { ScanOrder::MsbFirst } else { ScanOrder::LsbFirst },
            per_cycle,
        };
        prop_assert_eq!(schedule_brick_with(&masks, cfg), schedule_brick_oracle(&masks, cfg));
    }

    /// Cycles never exceed the number of distinct powers present — the
    /// §V-A3 worst-case bound (16 for 16-bit neurons).
    #[test]
    fn cycles_bounded_by_distinct_powers(masks in arb_masks(), l in 0u8..=4) {
        let union = masks.iter().fold(0u32, |a, &m| a | m);
        let s = schedule_brick(&masks, l);
        prop_assert!(s.cycles <= union.count_ones(), "{} > {}", s.cycles, union.count_ones());
    }

    /// Cycles are at least the maximum lane popcount divided by the
    /// per-cycle consumption (a lane can't finish faster than its queue).
    #[test]
    fn cycles_lower_bound(masks in arb_masks(), l in 0u8..=4, per_cycle in 1u8..=3) {
        let cfg = SchedulerConfig { l_bits: l, order: ScanOrder::LsbFirst, per_cycle };
        let s = schedule_brick_with(&masks, cfg);
        let worst = masks.iter().map(|m| m.count_ones()).max().unwrap();
        prop_assert!(s.cycles >= worst.div_ceil(u32::from(per_cycle)));
    }

    /// Lane order is irrelevant: the schedule depends on the multiset of
    /// power sets, not on which lane holds which neuron.
    #[test]
    fn lane_permutation_invariant(masks in arb_masks(), l in 0u8..=4, rot in 0usize..16) {
        let mut rotated = masks;
        rotated.rotate_left(rot);
        prop_assert_eq!(schedule_brick(&masks, l), schedule_brick(&rotated, l));
    }

    /// Mirror symmetry: LSB-first on the values equals MSB-first on the
    /// bit-reversed values — the two scan orders are the same hardware
    /// reflected.
    #[test]
    fn scan_orders_are_mirror_images(masks in arb_masks(), l in 0u8..=4) {
        let reversed: [u32; 16] = std::array::from_fn(|i| {
            (masks[i] as u16).reverse_bits() as u32
        });
        let lsb = schedule_brick_with(&masks, SchedulerConfig::paper(l));
        let msb = schedule_brick_with(
            &reversed,
            SchedulerConfig { l_bits: l, order: ScanOrder::MsbFirst, per_cycle: 1 },
        );
        prop_assert_eq!(lsb.cycles, msb.cycles);
        prop_assert_eq!(lsb.terms, msb.terms);
    }

    /// Pallet sync equals the sum of per-step column maxima (clamped to 1)
    /// when fetches are free.
    #[test]
    fn pallet_sync_is_sum_of_maxima(steps in prop::collection::vec(prop::array::uniform16(0u32..12), 1..10)) {
        let nmc = vec![0u64; steps.len()];
        let out = pallet_sync(&steps, &nmc);
        let expected: u64 = steps
            .iter()
            .map(|s| u64::from(*s.iter().max().unwrap()).max(1))
            .sum();
        prop_assert_eq!(out.cycles, expected);
    }

    /// Column sync with any SSR count is bounded below by the ideal
    /// (unbounded) case and above by strict lockstep plus serialization
    /// slack, and issues exactly one SB read per set.
    #[test]
    fn column_sync_bounds(
        steps in prop::collection::vec(prop::array::uniform16(0u32..10), 1..8),
        ssrs in 1usize..5,
        active in 1usize..=16,
    ) {
        let ideal = column_sync(&steps, active, None, &mut Vec::new());
        let real = column_sync(&steps, active, Some(ssrs), &mut Vec::new());
        prop_assert!(real.cycles >= ideal.cycles);
        let lockstep: u64 = steps
            .iter()
            .map(|s| u64::from(s[..active].iter().copied().max().unwrap_or(0)).max(1))
            .sum();
        // Lockstep plus at most one serialization cycle per step.
        prop_assert!(
            real.cycles <= lockstep + steps.len() as u64,
            "{} > lockstep {} + {}",
            real.cycles,
            lockstep,
            steps.len()
        );
        prop_assert_eq!(real.sb_set_reads, steps.len() as u64);
    }

    /// More SSRs never slow a pallet down.
    #[test]
    fn ssr_monotone(steps in prop::collection::vec(prop::array::uniform16(0u32..10), 1..8), active in 1usize..=16) {
        let mut prev = u64::MAX;
        for ssrs in [1usize, 2, 4, 8] {
            let c = column_sync(&steps, active, Some(ssrs), &mut Vec::new()).cycles;
            prop_assert!(c <= prev);
            prev = c;
        }
    }
}
