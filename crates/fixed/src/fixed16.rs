//! 16-bit fixed-point storage representation (DaDianNao's format, §I).
//!
//! Neurons are stored as unsigned 16-bit integers with an implied binary
//! point: a [`FixedSpec`] with `frac_bits = f` stores real value `v` as
//! `round(v · 2^f)`. Activations are non-negative after the rectifier, so
//! an unsigned representation suffices for the neuron stream; synapses stay
//! bit-parallel signed 16-bit and need no conversion.

/// Fixed-point format: number of fraction bits in the 16-bit container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedSpec {
    frac_bits: u8,
}

impl FixedSpec {
    /// Creates a format with `frac_bits` fraction bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 15`.
    pub fn new(frac_bits: u8) -> Self {
        assert!(frac_bits <= 15, "frac_bits {frac_bits} exceeds 15");
        Self { frac_bits }
    }

    /// Number of fraction bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Smallest representable step, `2^-frac_bits`.
    pub fn resolution(&self) -> f32 {
        1.0 / (1u32 << self.frac_bits) as f32
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        u16::MAX as f32 * self.resolution()
    }

    /// Converts a real value to the stored integer, rounding to nearest
    /// and saturating at the representable range (negatives clamp to 0:
    /// the neuron stream is post-rectifier).
    ///
    /// ```
    /// use pra_fixed::fixed16::FixedSpec;
    ///
    /// let s = FixedSpec::new(4);
    /// // 5.5 = 0101.1000 -> stored 0b0101_1000
    /// assert_eq!(s.to_stored(5.5), 0b0101_1000);
    /// ```
    pub fn to_stored(&self, v: f32) -> u16 {
        let scaled = (v * (1u32 << self.frac_bits) as f32).round();
        scaled.clamp(0.0, u16::MAX as f32) as u16
    }

    /// Converts a stored integer back to its real value.
    pub fn to_value(&self, stored: u16) -> f32 {
        stored as f32 * self.resolution()
    }
}

impl Default for FixedSpec {
    /// The paper's running example format: 8 integer and 8 fraction bits.
    fn default() -> Self {
        Self { frac_bits: 8 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_five_point_five() {
        // §V-A1: n = 5.5 = 0101.1₂; with 1 fraction bit stored = 1011₂.
        let s = FixedSpec::new(1);
        assert_eq!(s.to_stored(5.5), 0b1011);
        assert_eq!(s.to_value(0b1011), 5.5);
    }

    #[test]
    fn negative_clamps_to_zero() {
        let s = FixedSpec::default();
        assert_eq!(s.to_stored(-3.0), 0);
    }

    #[test]
    fn saturates_at_max() {
        let s = FixedSpec::new(8);
        assert_eq!(s.to_stored(1e9), u16::MAX);
    }

    #[test]
    fn round_trip_within_resolution() {
        let s = FixedSpec::new(8);
        for k in 0..1000 {
            let v = k as f32 * 0.237;
            if v < s.max_value() {
                let back = s.to_value(s.to_stored(v));
                assert!((back - v).abs() <= s.resolution() / 2.0 * 1.0001);
            }
        }
    }

    #[test]
    fn resolution_halves_per_bit() {
        assert_eq!(FixedSpec::new(0).resolution(), 1.0);
        assert_eq!(FixedSpec::new(1).resolution(), 0.5);
        assert_eq!(FixedSpec::new(8).resolution(), 1.0 / 256.0);
    }

    #[test]
    #[should_panic(expected = "exceeds 15")]
    fn too_many_frac_bits_panics() {
        let _ = FixedSpec::new(16);
    }
}
