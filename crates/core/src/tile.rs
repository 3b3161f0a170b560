//! Tile-level synchronization (§V-A4, §V-E, Fig. 8).
//!
//! A Pragmatic tile is a 16×16 array of PIPs: PIP(i, j) processes an
//! oneffset from the j-th window with a synapse from the i-th filter. All
//! PIPs along a column share one neuron brick and advance together; how
//! *columns* synchronize with each other is the design choice this module
//! models:
//!
//! * **Per-pallet** — every column waits for the slowest before the tile
//!   moves to the next brick step; one SB read per step, trivially the
//!   same SB traffic as DaDianNao.
//! * **Per-column** — columns advance independently. Synapse sets are
//!   buffered in SSRs (synapse set registers) in front of the SB; a set
//!   stays in its SSR until all active columns have copied it (a 4-bit
//!   down counter in hardware), which guarantees each set is read from SB
//!   exactly once. Only one SB read can proceed per cycle; columns that
//!   need a set that is neither buffered nor fetchable this cycle stall.
//!   Sets load in order and a column wants set `s + 1` only after it
//!   copied set `s`, so at most one unbuffered set is wanted at a time:
//!   columns stall only for a free SSR, never for the SB port.
//!   [`column_sync`] therefore computes the schedule one set at a time,
//!   in O(steps × columns), instead of stepping cycles.
//! * **Per-column ideal** — unbounded SSRs, no port conflicts: the
//!   `perCol-ideal` upper bound.
//!
//! Every brick step costs at least one cycle even if all its neurons are
//! zero: the column must still latch the synapse set (and, under
//! per-column sync, tick the SSR down counter).

/// Per-pallet outcome of one synchronization policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PalletOutcome {
    /// Cycles the tile spent on this pallet.
    pub cycles: u64,
    /// Cycles lost waiting for NM pallet fetches (per-pallet sync only;
    /// §V-A4's `max(NMC, PC)` rule).
    pub nm_stall_cycles: u64,
    /// Cycles columns spent stalled on SSR availability or the SB port
    /// (per-column sync only), summed over columns.
    pub sb_stall_cycles: u64,
    /// SB set reads issued for this pallet (per filter group).
    pub sb_set_reads: u64,
}

/// Per-pallet synchronization: each brick step costs the maximum column
/// cycle count (min 1), overlapped with the step's NM fetch.
///
/// `col_cycles[step][column]` holds each column's schedule length;
/// `nmc[step]` the NM rows needed to fetch that step's bricks.
pub fn pallet_sync(col_cycles: &[[u32; 16]], nmc: &[u64]) -> PalletOutcome {
    assert_eq!(col_cycles.len(), nmc.len(), "one NMC per brick step");
    let mut out = PalletOutcome::default();
    for (cols, &fetch) in col_cycles.iter().zip(nmc) {
        let compute = u64::from(*cols.iter().max().expect("16 columns")).max(1);
        let cost = compute.max(fetch);
        out.cycles += cost;
        out.nm_stall_cycles += cost - compute;
        out.sb_set_reads += 1;
    }
    out
}

/// Per-column synchronization with `ssrs` synapse set registers, or the
/// ideal variant when `ssrs` is `None`.
///
/// `col_cycles[step][column]`; `active` is the number of live window
/// lanes (ragged pallets at row ends have fewer than 16). `freed` is
/// step-indexed scratch, overwritten here, so a caller syncing many
/// pallets allocates it once.
///
/// With `k` SSRs this is the module doc's cycle-by-cycle model (each
/// cycle, columns in index order copy their next set from an SSR or
/// read it from SB into a free one), computed one set at a time. Set
/// `s` fits in an SSR once every active column has copied set `s − k`:
/// the last copies happen in cycle `F`, the highest-indexed copier then
/// being column `f` (sets free in order, each strictly after the last).
/// A column ready at `ready[c]` can read set `s` from SB at
/// `max(ready[c], F + (c ≤ f))` — within cycle `F`, columns after `f`
/// already see the SSR free. The column with the smallest `(attempt,
/// index)` reads it, at cycle `T`, and every column copies it at
/// `max(ready[c], T + (c < loader))`. No SB-port model is needed: at
/// most one unbuffered set is ever wanted (see the module doc).
pub fn column_sync(
    col_cycles: &[[u32; 16]],
    active: usize,
    ssrs: Option<usize>,
    freed: &mut Vec<(u64, usize)>,
) -> PalletOutcome {
    let steps = col_cycles.len();
    let mut out = PalletOutcome { sb_set_reads: steps as u64, ..Default::default() };
    if steps == 0 || active == 0 {
        out.sb_set_reads = 0;
        return out;
    }

    let Some(ssr_count) = ssrs else {
        // Ideal: every column fully independent.
        let mut worst = 0u64;
        for c in 0..active {
            let total: u64 = col_cycles.iter().map(|s| u64::from(s[c]).max(1)).sum();
            worst = worst.max(total);
        }
        out.cycles = worst;
        return out;
    };
    assert!(ssr_count >= 1, "per-column sync needs at least one SSR");

    // `ready[c]`: the cycle column `c` finished its previous set.
    // `freed[s]`: the cycle set `s` was last copied, and the highest
    // column index copying it in that cycle.
    let mut ready = [0u64; 16];
    freed.clear();
    for (s, cols) in col_cycles.iter().enumerate() {
        let gate = s.checked_sub(ssr_count).map(|j| freed[j]);
        let attempt = |c: usize| match gate {
            Some((f_cycle, f_col)) => ready[c].max(f_cycle + u64::from(c <= f_col)),
            None => ready[c],
        };
        let (mut loader, mut load_at) = (0, attempt(0));
        for c in 1..active {
            let a = attempt(c);
            if a < load_at {
                (loader, load_at) = (c, a);
            }
        }
        let mut last = (0u64, 0usize);
        for (c, (r, &cost)) in ready.iter_mut().zip(cols).take(active).enumerate() {
            let acquire = (*r).max(load_at + u64::from(c < loader));
            out.sb_stall_cycles += acquire - *r;
            *r = acquire + u64::from(cost.max(1));
            if acquire >= last.0 {
                last = (acquire, c);
            }
        }
        freed.push(last);
    }
    out.cycles = ready[..active].iter().copied().max().unwrap_or(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_sync(col_cycles: &[[u32; 16]], active: usize, ssrs: Option<usize>) -> PalletOutcome {
        column_sync(col_cycles, active, ssrs, &mut Vec::new())
    }

    fn steps(rows: &[[u32; 16]]) -> Vec<[u32; 16]> {
        rows.to_vec()
    }

    #[test]
    fn pallet_sync_pays_the_slowest_column() {
        let mut s = [[1u32; 16]; 1];
        s[0][5] = 7;
        let out = pallet_sync(&steps(&s), &[0]);
        assert_eq!(out.cycles, 7);
    }

    #[test]
    fn pallet_sync_minimum_one_cycle_per_step() {
        let s = [[0u32; 16]; 3];
        let out = pallet_sync(&steps(&s), &[0, 0, 0]);
        assert_eq!(out.cycles, 3);
    }

    #[test]
    fn pallet_sync_nm_stall_when_fetch_dominates() {
        let s = [[2u32; 16]; 1];
        let out = pallet_sync(&steps(&s), &[5]);
        assert_eq!(out.cycles, 5);
        assert_eq!(out.nm_stall_cycles, 3);
    }

    #[test]
    fn ideal_column_sync_is_worst_column_sum() {
        let mut a = [[1u32; 16]; 4];
        for (i, s) in a.iter_mut().enumerate() {
            s[3] = 2 + i as u32; // column 3: 2+3+4+5 = 14
        }
        let out = col_sync(&a, 16, None);
        assert_eq!(out.cycles, 14);
    }

    #[test]
    fn column_sync_with_many_ssrs_matches_ideal_plus_port_effects() {
        // Uniform work: columns never diverge, so SSR count is irrelevant.
        let s = [[3u32; 16]; 5];
        let ideal = col_sync(&s, 16, None).cycles;
        let real = col_sync(&s, 16, Some(16)).cycles;
        assert_eq!(real, ideal);
    }

    #[test]
    fn one_ssr_forces_lockstep_at_set_boundaries() {
        // Column 0 is fast (1 cycle/step), column 1 slow (9 cycles/step).
        // With one SSR, column 0 cannot run ahead: the next set cannot be
        // loaded until the slow column copies the current one.
        let mut s = [[1u32; 16]; 3];
        for row in &mut s {
            row[1] = 9;
        }
        let one = col_sync(&s, 2, Some(1));
        let ideal = col_sync(&s, 2, None).cycles;
        assert_eq!(ideal, 27);
        // Lockstep at set granularity behaves like pallet sync: 3 steps x
        // 9 = 27 cycles. Both columns copy set 0 at cycle 0, so column 0
        // reads set 1 at cycle 1; set 2 must wait until the slow column
        // copies set 1 at cycle 9, so column 0 stalls from cycle 2 to 10.
        assert_eq!(one.cycles, 27);
        assert_eq!(one.sb_stall_cycles, 8);
    }

    #[test]
    fn more_ssrs_never_slower() {
        // Irregular work pattern.
        let mut s = vec![[1u32; 16]; 8];
        for (i, row) in s.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = 1 + ((i * 7 + c * 3) % 9) as u32;
            }
        }
        let mut prev = u64::MAX;
        for ssrs in [1usize, 2, 4, 8, 16] {
            let c = col_sync(&s, 16, Some(ssrs)).cycles;
            assert!(c <= prev, "{ssrs} SSRs: {c} > {prev}");
            prev = c;
        }
        let ideal = col_sync(&s, 16, None).cycles;
        assert!(ideal <= prev);
    }

    #[test]
    fn per_column_never_slower_than_pallet_sync() {
        let mut s = vec![[1u32; 16]; 6];
        for (i, row) in s.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = 1 + ((i * 5 + c * 11) % 7) as u32;
            }
        }
        let pallet = pallet_sync(&s, &[0; 6]).cycles;
        for ssrs in [1usize, 4, 16] {
            let col = col_sync(&s, 16, Some(ssrs)).cycles;
            assert!(col <= pallet, "{ssrs} SSRs: {col} > pallet {pallet}");
        }
    }

    #[test]
    fn fig8_example_one_extra_register_two_windows() {
        // Fig. 8: a 1x2 PIP array (two windows), one SSR, bricks 0..2 with
        // max oneffset counts (2, 4, 4) for window 0 and (5, 2, 2) for
        // window 1. The figure walks cycles 1-8: both columns copy set 0
        // in cycle 1; column 0 finishes brick 0 at cycle 2 and copies set
        // 1 (read in cycle 3); column 1 finishes brick 0 at cycle 5 and
        // copies set 1 from the SSR; etc.
        let sched = vec![
            {
                let mut r = [0u32; 16];
                r[0] = 2;
                r[1] = 5;
                r
            },
            {
                let mut r = [0u32; 16];
                r[0] = 4;
                r[1] = 2;
                r
            },
            {
                let mut r = [0u32; 16];
                r[0] = 4;
                r[1] = 2;
                r
            },
        ];
        let out = col_sync(&sched, 2, Some(1));
        // Cycles counted from 0. Both columns copy set 0 at cycle 0,
        // which frees the SSR, so column 0 reads set 1 as soon as it
        // finishes brick 0, at cycle 2, and runs it to cycle 6. Column 1
        // copies set 1 at cycle 5, freeing the SSR before column 0 reads
        // set 2 at cycle 6; column 1 copies set 2 at cycle 7 and ends at
        // 9, column 0 at 10: the figure's 10-cycle walk, without stalls.
        assert_eq!(out.cycles, 10);
        assert_eq!(out.sb_stall_cycles, 0);
        // Exactly one SB read per set.
        assert_eq!(out.sb_set_reads, 3);
    }

    #[test]
    fn sb_reads_equal_sets_regardless_of_ssrs() {
        // §V-E: "This policy guarantees that the SB is accessed the same
        // number of times as in DaDN."
        let s = vec![[2u32; 16]; 7];
        for ssrs in [1usize, 2, 16] {
            assert_eq!(col_sync(&s, 16, Some(ssrs)).sb_set_reads, 7);
        }
        assert_eq!(pallet_sync(&s, &[0; 7]).sb_set_reads, 7);
    }

    #[test]
    fn inactive_columns_do_not_hold_ssrs() {
        // Only 4 active columns: the SSR frees as soon as those 4 copied
        // it, so uniform single-cycle steps proceed in lockstep.
        let s = vec![[1u32; 16]; 4];
        let out = col_sync(&s, 4, Some(1));
        assert_eq!(out.cycles, 4);
    }

    #[test]
    fn empty_pallet_is_free() {
        let out = col_sync(&[], 16, Some(1));
        assert_eq!(out.cycles, 0);
        assert_eq!(out.sb_set_reads, 0);
    }
}
