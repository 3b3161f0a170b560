//! Per-column synchronization (§V-E): the per-set recurrence in
//! `tile::column_sync` against the cycle-stepping SSR model it replaced,
//! kept here as the oracle.

use proptest::prelude::*;

use pra_core::tile::{column_sync, PalletOutcome};

/// The cycle-by-cycle model: each cycle, active columns in index order
/// either copy their next synapse set from an SSR that holds it, or read
/// it from SB into a free SSR (empty, or holding a set every active
/// column has copied), at most one SB read per cycle. Returns the
/// outcome and, separately, the stalls caused by the SB port alone.
fn stepping_oracle(
    col_cycles: &[[u32; 16]],
    active: usize,
    ssr_count: usize,
) -> (PalletOutcome, u64) {
    let steps = col_cycles.len();
    if steps == 0 || active == 0 {
        return (PalletOutcome::default(), 0);
    }
    #[derive(Clone, Copy)]
    struct Ssr {
        step: usize,
        copied: u16,
    }
    let all_copied = ((1u32 << active) - 1) as u16;
    let mut pool: Vec<Option<Ssr>> = vec![None; ssr_count];
    let mut step_idx = [0usize; 16];
    let mut remaining = [0u32; 16];
    let (mut cycles, mut stalls, mut port_stalls) = (0u64, 0u64, 0u64);
    while (0..active).any(|c| step_idx[c] < steps) {
        let mut sb_port_free = true;
        for c in 0..active {
            if step_idx[c] >= steps {
                continue;
            }
            if remaining[c] == 0 {
                let want = step_idx[c];
                if let Some(e) = pool.iter_mut().flatten().find(|e| e.step == want) {
                    e.copied |= 1 << c;
                } else if sb_port_free {
                    let slot = pool.iter_mut().find(|s| {
                        s.is_none() || s.as_ref().is_some_and(|e| e.copied == all_copied)
                    });
                    let Some(slot) = slot else {
                        stalls += 1;
                        continue;
                    };
                    *slot = Some(Ssr { step: want, copied: 1 << c });
                    sb_port_free = false;
                } else {
                    stalls += 1;
                    port_stalls += 1;
                    continue;
                }
                remaining[c] = col_cycles[want][c].max(1);
            }
            remaining[c] -= 1;
            if remaining[c] == 0 {
                step_idx[c] += 1;
            }
        }
        cycles += 1;
    }
    let out = PalletOutcome {
        cycles,
        sb_stall_cycles: stalls,
        sb_set_reads: steps as u64,
        ..Default::default()
    };
    (out, port_stalls)
}

/// One column's brick cost: mostly short, some zero (all-zero bricks
/// still take a cycle), a long tail.
fn arb_cost() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => Just(0u32),
        6 => 1u32..=8,
        1 => 9u32..=60,
    ]
}

/// A brick step: independent columns, or a uniform row (every column
/// equally busy, the lockstep case).
fn arb_step() -> impl Strategy<Value = [u32; 16]> {
    prop_oneof![
        4 => prop::array::uniform16(arb_cost()),
        1 => arb_cost().prop_map(|v| [v; 16]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The recurrence equals the stepping model exactly — cycles, stalls
    /// and SB reads — for 1–16 SSRs and for more SSRs than steps, and
    /// the stepping model never stalls on the SB port, the property the
    /// recurrence relies on.
    #[test]
    fn recurrence_equals_stepping_oracle(
        steps in prop::collection::vec(arb_step(), 1..41),
        ssrs in prop_oneof![8 => 1usize..=16, 1 => 41usize..=48],
        active in 1usize..=16,
    ) {
        let (oracle, port_stalls) = stepping_oracle(&steps, active, ssrs);
        prop_assert_eq!(port_stalls, 0);
        let got = column_sync(&steps, active, Some(ssrs), &mut Vec::new());
        prop_assert_eq!(got, oracle, "{} steps, {} SSRs, {} active", steps.len(), ssrs, active);
    }
}

/// The scratch buffer carries nothing between pallets: one buffer reused
/// across pallets of different lengths gives each pallet's fresh answer.
#[test]
fn reused_scratch_matches_fresh_scratch() {
    let pallets: Vec<Vec<[u32; 16]>> = (0..6)
        .map(|p| {
            (0..(3 + p * 5))
                .map(|s| std::array::from_fn(|c| ((s * 7 + c * 3 + p) % 11) as u32))
                .collect()
        })
        .collect();
    let mut freed = Vec::new();
    for ssrs in [1usize, 2, 5] {
        for cols in pallets.iter().rev().chain(&pallets) {
            let reused = column_sync(cols, 16, Some(ssrs), &mut freed);
            assert_eq!(reused, stepping_oracle(cols, 16, ssrs).0);
        }
    }
}
