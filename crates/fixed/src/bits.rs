//! Essential-bit counting and stream statistics (§II-A, Table I).
//!
//! The *essential bit content* of a neuron stream is the average number of
//! bits that are 1. Table I reports it two ways: over all neurons ("All")
//! and over the non-zero neurons only ("NZ").

/// Number of essential (non-zero) bits of a stored value — a popcount.
///
/// ```
/// assert_eq!(pra_fixed::essential_bits(0b0101_1000), 3);
/// assert_eq!(pra_fixed::essential_bits(0), 0);
/// ```
#[inline]
pub fn essential_bits(v: u16) -> u32 {
    v.count_ones()
}

/// Bit positions of the essential bits of `v` in ascending order
/// (least-significant first) — the order the oneffset generator emits them.
pub fn essential_bit_positions(v: u16) -> impl Iterator<Item = u8> {
    (0..16u8).filter(move |&b| v & (1 << b) != 0)
}

/// Running essential-bit statistics over a neuron stream.
///
/// Accumulates the quantities needed for one cell pair of Table I:
/// fraction of non-zero bits over all neurons and over non-zero neurons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitContentStats {
    /// Total neurons observed.
    pub neurons: u64,
    /// Neurons with a non-zero value.
    pub nonzero: u64,
    /// Total essential bits observed.
    pub bits: u64,
}

impl BitContentStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one neuron value.
    #[inline]
    pub fn record(&mut self, v: u16) {
        self.neurons += 1;
        if v != 0 {
            self.nonzero += 1;
            self.bits += u64::from(essential_bits(v));
        }
    }

    /// Records every value of a slice.
    pub fn record_all(&mut self, vs: &[u16]) {
        for &v in vs {
            self.record(v);
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &BitContentStats) {
        self.neurons += other.neurons;
        self.nonzero += other.nonzero;
        self.bits += other.bits;
    }

    /// Fraction of non-zero bits over **all** neurons, for a representation
    /// of `width` bits (Table I "All"). Returns 0 for an empty stream.
    pub fn fraction_all(&self, width: u32) -> f64 {
        if self.neurons == 0 {
            return 0.0;
        }
        self.bits as f64 / (self.neurons as f64 * width as f64)
    }

    /// Fraction of non-zero bits over the **non-zero** neurons only
    /// (Table I "NZ"). Returns 0 for a stream with no non-zero neurons.
    pub fn fraction_nonzero(&self, width: u32) -> f64 {
        if self.nonzero == 0 {
            return 0.0;
        }
        self.bits as f64 / (self.nonzero as f64 * width as f64)
    }

    /// Fraction of neurons that are zero-valued.
    pub fn zero_fraction(&self) -> f64 {
        if self.neurons == 0 {
            return 0.0;
        }
        1.0 - self.nonzero as f64 / self.neurons as f64
    }

    /// Mean essential bits per neuron (over all neurons).
    pub fn mean_bits(&self) -> f64 {
        if self.neurons == 0 {
            return 0.0;
        }
        self.bits as f64 / self.neurons as f64
    }
}

impl FromIterator<u16> for BitContentStats {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<u16> for BitContentStats {
    fn extend<I: IntoIterator<Item = u16>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn essential_bits_counts_ones() {
        assert_eq!(essential_bits(0b101), 2);
        assert_eq!(essential_bits(u16::MAX), 16);
    }

    #[test]
    fn positions_ascend_from_lsb() {
        let p: Vec<u8> = essential_bit_positions(0b1001_0010).collect();
        assert_eq!(p, vec![1, 4, 7]);
    }

    #[test]
    fn positions_of_zero_is_empty() {
        assert_eq!(essential_bit_positions(0).count(), 0);
    }

    #[test]
    fn stats_all_vs_nonzero() {
        // Stream: 0, 0b11, 0b1 -> 3 neurons, 2 nonzero, 3 bits.
        let s: BitContentStats = [0u16, 0b11, 0b1].into_iter().collect();
        assert_eq!(s.neurons, 3);
        assert_eq!(s.nonzero, 2);
        assert_eq!(s.bits, 3);
        assert!((s.fraction_all(16) - 3.0 / 48.0).abs() < 1e-12);
        assert!((s.fraction_nonzero(16) - 3.0 / 32.0).abs() < 1e-12);
        assert!((s.zero_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_width_changes_denominator() {
        let s: BitContentStats = [0b1111u16].into_iter().collect();
        assert!((s.fraction_all(8) - 0.5).abs() < 1e-12);
        assert!((s.fraction_all(16) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = BitContentStats::new();
        assert_eq!(s.fraction_all(16), 0.0);
        assert_eq!(s.fraction_nonzero(16), 0.0);
        assert_eq!(s.zero_fraction(), 0.0);
        assert_eq!(s.mean_bits(), 0.0);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a: BitContentStats = [1u16, 2, 0].into_iter().collect();
        let b: BitContentStats = [3u16, 0, 7].into_iter().collect();
        a.merge(&b);
        let c: BitContentStats = [1u16, 2, 0, 3, 0, 7].into_iter().collect();
        assert_eq!(a, c);
    }

    #[test]
    fn extend_matches_record_all() {
        let mut a = BitContentStats::new();
        a.extend([5u16, 9]);
        let mut b = BitContentStats::new();
        b.record_all(&[5, 9]);
        assert_eq!(a, b);
    }
}
