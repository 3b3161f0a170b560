//! The per-column oneffset scheduler (§V-D, Fig. 7).
//!
//! All 16 PIPs of a column process the same 16-neuron brick, one oneffset
//! per neuron per cycle. With 2-stage shifting, the column's (shared,
//! amortized) control logic compares the pending oneffsets each cycle,
//! picks the minimum — which drives the common second-stage shifter — and
//! lets every lane whose pending oneffset differs from that minimum by
//! less than `2^L` consume it through its `L`-bit first-stage shifter;
//! the remaining lanes stall.
//!
//! Oneffsets are consumed in ascending power order (see
//! [`pra_fixed::oneffset`] for why). Two structural facts this module's
//! tests pin down:
//!
//! * a brick never takes more cycles than the representation width (the
//!   per-cycle minimum is consumed by every lane holding it, and there are
//!   at most 16 distinct powers) — this is what guarantees PRA never falls
//!   behind DaDianNao;
//! * larger `L` never increases the cycle count.

/// Outcome of scheduling one column for one brick step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnSchedule {
    /// Cycles until every lane drained its oneffset list.
    pub cycles: u32,
    /// Oneffsets consumed (the brick's total essential terms).
    pub terms: u32,
    /// Lane-cycles spent stalled or idle (null terms injected) while the
    /// column was busy: `16 × cycles − terms`.
    pub idle_lane_cycles: u32,
}

/// Order in which a lane's oneffsets are consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScanOrder {
    /// Least-significant first: the cycle's *minimum* pending oneffset
    /// drives the second-stage shifter — the order of the Fig. 7 worked
    /// example (crate default).
    #[default]
    LsbFirst,
    /// Most-significant first: the literal "16-bit leading one detector"
    /// of §V-C; the cycle's *maximum* pending oneffset anchors the window.
    /// Kept as the `ablation_order` study — the two orders differ only
    /// through stall patterns at small `L`.
    MsbFirst,
}

/// Scheduler parameters beyond the brick itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedulerConfig {
    /// First-stage shifter control bits `L` (§V-D).
    pub l_bits: u8,
    /// Consumption order.
    pub order: ScanOrder,
    /// Oneffsets a lane can consume per cycle — 1 in the paper's PIP; 2
    /// models a throughput-boosted PIP with two shifters and a doubled
    /// adder tree per lane (the direction follow-up designs took).
    pub per_cycle: u8,
}

impl SchedulerConfig {
    /// The paper's scheduler: `L` first-stage bits, LSB first, one
    /// oneffset per lane per cycle.
    pub fn paper(l_bits: u8) -> Self {
        Self { l_bits, order: ScanOrder::LsbFirst, per_cycle: 1 }
    }
}

/// Schedules one brick: `masks[lane]` holds the lane's remaining powers as
/// a bit set (bit `k` set means a pending oneffset `2^k`). Plain oneffset
/// encoding passes the neuron value itself; CSD passes the recoded power
/// set (signs do not affect timing).
///
/// `l_bits` is the first-stage shifter width `L`; lanes can absorb a
/// difference of up to `2^L − 1` from the cycle's minimum.
pub fn schedule_brick(masks: &[u32; 16], l_bits: u8) -> ColumnSchedule {
    schedule_brick_with(masks, SchedulerConfig::paper(l_bits))
}

/// Schedules one brick under an explicit [`SchedulerConfig`].
///
/// Dispatches to a branchless fast path for the paper configuration
/// (LSB-first scan, one oneffset per lane per cycle); every other
/// configuration runs the general loop, which is also retained as
/// [`schedule_brick_oracle`] — the property-tested reference the fast
/// path is checked against.
pub fn schedule_brick_with(masks: &[u32; 16], cfg: SchedulerConfig) -> ColumnSchedule {
    assert!(cfg.per_cycle >= 1, "lanes must consume at least one oneffset per cycle");
    if cfg.order == ScanOrder::LsbFirst && cfg.per_cycle == 1 {
        return schedule_brick_fast(masks, cfg.l_bits);
    }
    schedule_brick_oracle(masks, cfg)
}

/// Branchless scheduler for the paper's PIP (LSB first, one oneffset per
/// lane per cycle).
///
/// The column control's per-cycle work collapses to bit operations: the
/// anchor is one `trailing_zeros` on the union-OR of the lane masks
/// (instead of a 16-lane min scan), and each lane consumes its lowest
/// pending oneffset exactly when that bit lands inside the anchored
/// window — `low & window_mask` is the bit itself or zero, so an XOR
/// clears it without a branch. Terms are conserved by construction, so
/// the total popcount is counted once up front.
fn schedule_brick_fast(masks: &[u32; 16], l_bits: u8) -> ColumnSchedule {
    let mut masks = *masks;
    let mut union = 0u32;
    let mut terms = 0u32;
    for &m in &masks {
        union |= m;
        terms += m.count_ones();
    }
    let span = 1u32 << l_bits; // window width in bit positions
    let window_ones = if span >= 32 { u32::MAX } else { (1u32 << span) - 1 };
    let mut cycles = 0u32;
    while union != 0 {
        let window_mask = window_ones << union.trailing_zeros();
        let mut next_union = 0u32;
        for m in &mut masks {
            let low = *m & m.wrapping_neg();
            *m ^= low & window_mask;
            next_union |= *m;
        }
        union = next_union;
        cycles += 1;
    }
    ColumnSchedule { cycles, terms, idle_lane_cycles: cycles * 16 - terms }
}

/// The general column scheduler — the direct transcription of the §V-D
/// control rule for any [`SchedulerConfig`]. Kept public as the oracle
/// that property tests and the `micro` bench compare the fast path
/// against.
pub fn schedule_brick_oracle(masks: &[u32; 16], cfg: SchedulerConfig) -> ColumnSchedule {
    assert!(cfg.per_cycle >= 1, "lanes must consume at least one oneffset per cycle");
    let window = 1u32 << cfg.l_bits;
    let mut masks = *masks;
    let mut cycles = 0u32;
    let mut terms = 0u32;
    loop {
        // The column control picks the anchor among pending oneffsets.
        let mut anchor = match cfg.order {
            ScanOrder::LsbFirst => u32::MAX,
            ScanOrder::MsbFirst => 0,
        };
        let mut any = false;
        for &m in &masks {
            if m != 0 {
                any = true;
                anchor = match cfg.order {
                    ScanOrder::LsbFirst => anchor.min(m.trailing_zeros()),
                    ScanOrder::MsbFirst => anchor.max(31 - m.leading_zeros()),
                };
            }
        }
        if !any {
            break;
        }
        for m in &mut masks {
            for _ in 0..cfg.per_cycle {
                if *m == 0 {
                    break;
                }
                let (cur, in_window) = match cfg.order {
                    ScanOrder::LsbFirst => {
                        let cur = m.trailing_zeros();
                        (cur, cur - anchor < window)
                    }
                    ScanOrder::MsbFirst => {
                        let cur = 31 - m.leading_zeros();
                        (cur, anchor - cur < window)
                    }
                };
                if !in_window {
                    break;
                }
                *m &= !(1 << cur);
                terms += 1;
            }
        }
        cycles += 1;
    }
    ColumnSchedule {
        cycles,
        terms,
        idle_lane_cycles: cycles * 16 * u32::from(cfg.per_cycle) - terms,
    }
}

/// Convenience: schedules a brick of plain neuron values under oneffset
/// encoding.
pub fn schedule_values(values: &[u16; 16], l_bits: u8) -> ColumnSchedule {
    let mut masks = [0u32; 16];
    for (m, &v) in masks.iter_mut().zip(values) {
        *m = u32::from(v);
    }
    schedule_brick(&masks, l_bits)
}

/// Power-set mask of the CSD recoding of `v` (for the encoding ablation).
/// Delegates to the allocation-free [`pra_fixed::csd::mask`].
pub fn csd_mask(v: u16) -> u32 {
    pra_fixed::csd::mask(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_brick_takes_no_cycles() {
        let s = schedule_values(&[0u16; 16], 2);
        assert_eq!(s, ColumnSchedule::default());
    }

    #[test]
    fn single_lane_pays_its_popcount() {
        let mut vals = [0u16; 16];
        vals[3] = 0b1011_0001;
        let s = schedule_values(&vals, 4);
        // Single-stage: any difference is absorbed, but a lane still
        // consumes one oneffset per cycle.
        assert_eq!(s.cycles, 4);
        assert_eq!(s.terms, 4);
    }

    #[test]
    fn identical_lanes_never_stall() {
        let vals = [0b0101_0101u16; 16];
        for l in 0..=4 {
            let s = schedule_values(&vals, l);
            assert_eq!(s.cycles, 4, "L={l}");
            assert_eq!(s.terms, 64);
        }
    }

    #[test]
    fn worst_case_is_the_representation_width() {
        let vals = [u16::MAX; 16];
        for l in 0..=4 {
            assert_eq!(schedule_values(&vals, l).cycles, 16, "L={l}");
        }
    }

    #[test]
    fn cycles_never_exceed_16_for_16bit_values() {
        // Adversarial spread: disjoint offsets across lanes.
        let mut vals = [0u16; 16];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = 1 << i;
        }
        for l in 0..=4 {
            let s = schedule_values(&vals, l);
            assert!(s.cycles <= 16, "L={l} cycles={}", s.cycles);
        }
        // L=0 processes one distinct offset per cycle.
        assert_eq!(schedule_values(&vals, 0).cycles, 16);
        // Single-stage absorbs everything in one cycle.
        assert_eq!(schedule_values(&vals, 4).cycles, 1);
    }

    #[test]
    fn larger_l_never_slower() {
        // Pseudo-random bricks; monotonicity in L.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 48) as u16
        };
        for _ in 0..200 {
            let mut vals = [0u16; 16];
            for v in &mut vals {
                *v = next();
            }
            let mut prev = u32::MAX;
            for l in 0..=4 {
                let c = schedule_values(&vals, l).cycles;
                assert!(c <= prev, "L={l}: {c} > {prev} for {vals:?}");
                prev = c;
            }
        }
    }

    #[test]
    fn fig7_rule_stalls_large_differences() {
        // Three lanes (others idle), L=2, mirroring Fig. 7b's narrative:
        // in cycle 1 the minimum is 0; a lane whose pending oneffset is 4
        // cannot absorb 4-0 with a 2-bit first stage and stalls.
        let mut vals = [0u16; 16];
        vals[0] = (1 << 1) | (1 << 5); // oneffsets 1, 5
        vals[1] = (1 << 0) | (1 << 7); // oneffsets 0, 7
        vals[2] = (1 << 4) | (1 << 8); // oneffsets 4, 8
        let s = schedule_values(&vals, 2);
        // cycle 1: min 0 -> lanes 0 (diff 1) and 1 (diff 0) consume; lane 2
        //          (diff 4) stalls.
        // cycle 2: pending (5, 7, 4), min 4 -> diffs (1, 3, 0): all consume.
        // cycle 3: pending (-, -, 8): lane 2 consumes its last oneffset.
        assert_eq!(s.cycles, 3);
        assert_eq!(s.terms, 6);
        // Single-stage needs only max-popcount cycles.
        assert_eq!(schedule_values(&vals, 4).cycles, 2);
    }

    #[test]
    fn terms_equal_total_popcount() {
        let vals: [u16; 16] = [3, 0, 0xFFFF, 17, 0b1010, 9, 0, 1, 2, 4, 8, 0x8000, 0x00F0, 5, 6, 7];
        let pop: u32 = vals.iter().map(|v| v.count_ones()).sum();
        for l in 0..=4 {
            assert_eq!(schedule_values(&vals, l).terms, pop, "L={l}");
        }
    }

    #[test]
    fn idle_lane_cycles_accounting() {
        let mut vals = [0u16; 16];
        vals[0] = 0b111; // 3 oneffsets, 3 cycles; 15 lanes idle throughout
        let s = schedule_values(&vals, 2);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.idle_lane_cycles, 3 * 16 - 3);
    }

    #[test]
    fn msb_first_round_trips_all_terms() {
        let vals: [u16; 16] = std::array::from_fn(|i| (i as u16).wrapping_mul(2477) ^ 0x1234);
        let pop: u32 = vals.iter().map(|v| v.count_ones()).sum();
        let mut masks = [0u32; 16];
        for (m, &v) in masks.iter_mut().zip(&vals) {
            *m = u32::from(v);
        }
        for l in 0..=4 {
            let cfg = SchedulerConfig { l_bits: l, order: ScanOrder::MsbFirst, per_cycle: 1 };
            let s = schedule_brick_with(&masks, cfg);
            assert_eq!(s.terms, pop, "L={l}");
            assert!(s.cycles <= 16, "L={l}");
        }
    }

    #[test]
    fn orders_agree_at_single_stage() {
        // With L = 4 every pending oneffset is within any anchor's window:
        // both orders take max-popcount cycles.
        let vals: [u16; 16] = std::array::from_fn(|i| 0xACE1u16.rotate_left(i as u32));
        let mut masks = [0u32; 16];
        for (m, &v) in masks.iter_mut().zip(&vals) {
            *m = u32::from(v);
        }
        let lsb = schedule_brick_with(&masks, SchedulerConfig::paper(4));
        let msb = schedule_brick_with(
            &masks,
            SchedulerConfig { l_bits: 4, order: ScanOrder::MsbFirst, per_cycle: 1 },
        );
        assert_eq!(lsb.cycles, msb.cycles);
        let max_pop = vals.iter().map(|v| v.count_ones()).max().unwrap();
        assert_eq!(lsb.cycles, max_pop);
    }

    #[test]
    fn two_per_cycle_halves_identical_lanes() {
        let vals = [0xFFFFu16; 16];
        let mut masks = [0u32; 16];
        for (m, &v) in masks.iter_mut().zip(&vals) {
            *m = u32::from(v);
        }
        let cfg = SchedulerConfig { l_bits: 4, order: ScanOrder::LsbFirst, per_cycle: 2 };
        let s = schedule_brick_with(&masks, cfg);
        assert_eq!(s.cycles, 8);
        assert_eq!(s.terms, 256);
    }

    #[test]
    fn per_cycle_monotone() {
        let vals: [u16; 16] = std::array::from_fn(|i| (0x9E37u16).wrapping_mul(i as u16 + 1));
        let mut masks = [0u32; 16];
        for (m, &v) in masks.iter_mut().zip(&vals) {
            *m = u32::from(v);
        }
        let mut prev = u32::MAX;
        for k in 1..=4u8 {
            let cfg = SchedulerConfig { l_bits: 2, order: ScanOrder::LsbFirst, per_cycle: k };
            let c = schedule_brick_with(&masks, cfg).cycles;
            assert!(c <= prev, "k={k}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn multi_consumption_respects_window() {
        // One lane with offsets {0, 1, 9}: at L=2 and 2/cycle, the lane
        // takes 0 and 1 in cycle one but must wait for 9.
        let mut masks = [0u32; 16];
        masks[0] = (1 << 0) | (1 << 1) | (1 << 9);
        let cfg = SchedulerConfig { l_bits: 2, order: ScanOrder::LsbFirst, per_cycle: 2 };
        let s = schedule_brick_with(&masks, cfg);
        assert_eq!(s.cycles, 2);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_per_cycle_rejected() {
        let _ = schedule_brick_with(
            &[0u32; 16],
            SchedulerConfig { l_bits: 2, order: ScanOrder::LsbFirst, per_cycle: 0 },
        );
    }

    #[test]
    fn fast_path_matches_oracle_on_pseudo_random_bricks() {
        let mut state = 0xDEAD_BEEF_0BAD_F00Du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 48) as u16
        };
        for l in 0..=4u8 {
            for _ in 0..200 {
                let mut masks = [0u32; 16];
                for m in &mut masks {
                    *m = u32::from(next());
                }
                let cfg = SchedulerConfig::paper(l);
                assert_eq!(
                    schedule_brick_with(&masks, cfg),
                    schedule_brick_oracle(&masks, cfg),
                    "L={l} masks={masks:?}"
                );
            }
        }
    }

    #[test]
    fn csd_mask_strictly_sparser_on_runs() {
        let m = csd_mask(0b0111_1111); // 127 = 128 - 1
        assert_eq!(m.count_ones(), 2);
        assert!(m & (1 << 7) != 0);
        assert!(m & 1 != 0);
    }

    #[test]
    fn csd_scheduling_can_beat_oneffsets() {
        let vals = [0x7FFFu16; 16]; // 15 ones -> CSD: 2 terms
        let one = schedule_values(&vals, 2);
        let mut masks = [0u32; 16];
        for (m, &v) in masks.iter_mut().zip(&vals) {
            *m = csd_mask(v);
        }
        let csd = schedule_brick(&masks, 2);
        assert!(csd.cycles < one.cycles);
        assert_eq!(csd.terms, 32);
    }
}
