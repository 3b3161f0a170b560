//! Access and activity counters consumed by the energy model.

/// Event counts accumulated while simulating a layer.
///
/// The scheduling convention (matching §VI-A's "computation was scheduled
/// such that all designs see the same reuse of synapses and thus the same
/// SB read energy") is that one *synapse-set read* covers the 256 synapses
/// a tile consumes for one brick step, and every engine performs the same
/// number of such reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Neuron bricks fetched from NM (padding bricks excluded — they are
    /// injected as zeros by the dispatcher without an NM access).
    pub nm_brick_reads: u64,
    /// NM row activations performed for those fetches.
    pub nm_row_activations: u64,
    /// Output neuron bricks written back to NM through NBout.
    pub nm_brick_writes: u64,
    /// Synapse-set reads (one per tile per brick step per pallet per
    /// filter group).
    pub sb_set_reads: u64,
    /// Effectual terms processed (oneffset × synapse pairs, or
    /// bit × synapse pairs for serial engines; `bits` per multiplication
    /// for bit-parallel engines).
    pub terms: u64,
    /// Lane-cycles spent injecting null terms while waiting for
    /// synchronization (§V-A4's "a neuron lane that has detected the end of
    /// its neuron forces zero terms while waiting").
    pub idle_lane_cycles: u64,
    /// Cycles the compute array stalled waiting for NM (pallet fetch
    /// slower than processing, §V-A4) or for the SB port (per-column
    /// collisions, §V-E).
    pub stall_cycles: u64,
}

impl AccessCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &AccessCounters) {
        self.nm_brick_reads += other.nm_brick_reads;
        self.nm_row_activations += other.nm_row_activations;
        self.nm_brick_writes += other.nm_brick_writes;
        self.sb_set_reads += other.sb_set_reads;
        self.terms += other.terms;
        self.idle_lane_cycles += other.idle_lane_cycles;
        self.stall_cycles += other.stall_cycles;
    }

    /// Scales every counter by an integer factor (used when a sampled
    /// simulation extrapolates to the full layer).
    pub fn scaled(&self, num: u64, den: u64) -> AccessCounters {
        let s = |v: u64| (v as u128 * num as u128 / den as u128) as u64;
        AccessCounters {
            nm_brick_reads: s(self.nm_brick_reads),
            nm_row_activations: s(self.nm_row_activations),
            nm_brick_writes: s(self.nm_brick_writes),
            sb_set_reads: s(self.sb_set_reads),
            terms: s(self.terms),
            idle_lane_cycles: s(self.idle_lane_cycles),
            stall_cycles: s(self.stall_cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = AccessCounters { terms: 5, sb_set_reads: 2, ..Default::default() };
        let b = AccessCounters { terms: 7, nm_brick_reads: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.terms, 12);
        assert_eq!(a.sb_set_reads, 2);
        assert_eq!(a.nm_brick_reads, 3);
    }

    #[test]
    fn scaled_applies_ratio() {
        let a = AccessCounters { terms: 10, stall_cycles: 4, ..Default::default() };
        let s = a.scaled(3, 2);
        assert_eq!(s.terms, 15);
        assert_eq!(s.stall_cycles, 6);
    }

    #[test]
    fn scaled_handles_large_counts_without_overflow() {
        let a = AccessCounters { terms: u64::MAX / 2, ..Default::default() };
        let s = a.scaled(2, 1);
        assert_eq!(s.terms, u64::MAX - 1);
    }
}
