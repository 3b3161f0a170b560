//! The 8-bit quantized representation of §VI-F.
//!
//! TensorFlow/gemmlowp quantization uses 8 bits to specify arbitrary
//! minimum and maximum limits per layer and maps the 256 available 8-bit
//! values linearly into the resulting interval. The limits are set to the
//! minimum and maximum neuron values of each layer and rounding uses the
//! recommended round-half-away-from-zero mode.

/// Per-layer linear quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    min: f32,
    max: f32,
}

impl QuantParams {
    /// Creates parameters for the interval `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max` or either bound is not finite.
    pub fn new(min: f32, max: f32) -> Self {
        assert!(min.is_finite() && max.is_finite(), "bounds must be finite");
        assert!(min < max, "min {min} must be below max {max}");
        Self { min, max }
    }

    /// Derives parameters from observed data (the paper sets the limits to
    /// the layer's minimum and maximum neuron values). Returns `[0, 1]` for
    /// an empty or constant stream so quantization stays well-defined.
    pub fn of_values(values: &[f32]) -> Self {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Self { min: 0.0, max: 1.0 };
        }
        Self { min: lo, max: hi }
    }

    /// The interval minimum.
    pub fn min(&self) -> f32 {
        self.min
    }

    /// The interval maximum.
    pub fn max(&self) -> f32 {
        self.max
    }

    /// The step between adjacent quantized codes.
    pub fn scale(&self) -> f32 {
        (self.max - self.min) / 255.0
    }

    /// Quantizes a real value to its 8-bit code (clamping to the interval).
    ///
    /// ```
    /// use pra_fixed::QuantParams;
    ///
    /// let q = QuantParams::new(0.0, 2.55);
    /// assert_eq!(q.quantize(0.0), 0);
    /// assert_eq!(q.quantize(2.55), 255);
    /// assert_eq!(q.quantize(1.275), 128); // round half away from zero
    /// ```
    pub fn quantize(&self, v: f32) -> u8 {
        let clamped = v.clamp(self.min, self.max);
        ((clamped - self.min) / self.scale()).round() as u8
    }

    /// Reconstructs the real value of a code.
    pub fn dequantize(&self, code: u8) -> f32 {
        self.min + code as f32 * self.scale()
    }

    /// Maximum absolute reconstruction error, half the scale.
    pub fn max_error(&self) -> f32 {
        self.scale() / 2.0
    }

    /// A *symmetric, power-of-two* quantizer covering the same data — the
    /// Stripes-style reduced-precision alternative §VI-F contrasts with:
    /// the range must be symmetric around zero and its magnitude rounds up
    /// to the next power of two, wasting codes whenever the data is
    /// one-sided or its maximum is not a power of two.
    pub fn symmetric_pow2_covering(values: &[f32]) -> Self {
        let mag = values.iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        let pow2 = 2f32.powi(mag.log2().ceil() as i32);
        Self { min: -pow2, max: pow2 }
    }

    /// Fraction of the 256 codes that can actually occur for data in
    /// `[lo, hi]` — the "better utilization" §VI-F claims for the
    /// flexible representation.
    pub fn code_utilization(&self, lo: f32, hi: f32) -> f64 {
        let lo_code = self.quantize(lo) as f64;
        let hi_code = self.quantize(hi) as f64;
        (hi_code - lo_code + 1.0) / 256.0
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        Self { min: 0.0, max: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_map_to_0_and_255() {
        let q = QuantParams::new(-1.0, 3.0);
        assert_eq!(q.quantize(-1.0), 0);
        assert_eq!(q.quantize(3.0), 255);
    }

    #[test]
    fn asymmetric_range_supported() {
        // §VI-F: "the range doesn't have to be symmetrical and the limits
        // don't have to be powers of two".
        let q = QuantParams::new(-0.37, 1.93);
        let code = q.quantize(0.5);
        assert!((q.dequantize(code) - 0.5).abs() <= q.max_error() * 1.0001);
    }

    #[test]
    fn out_of_range_clamps() {
        let q = QuantParams::new(0.0, 1.0);
        assert_eq!(q.quantize(-5.0), 0);
        assert_eq!(q.quantize(9.0), 255);
    }

    #[test]
    fn round_trip_error_bounded() {
        let q = QuantParams::new(0.0, 6.0);
        for k in 0..1000 {
            let v = k as f32 * 6.0 / 999.0;
            let err = (q.dequantize(q.quantize(v)) - v).abs();
            assert!(err <= q.max_error() * 1.0001, "v={v} err={err}");
        }
    }

    #[test]
    fn of_values_uses_min_max() {
        let q = QuantParams::of_values(&[0.5, -2.0, 7.25, 1.0]);
        assert_eq!(q.min(), -2.0);
        assert_eq!(q.max(), 7.25);
    }

    #[test]
    fn of_values_degenerate_falls_back() {
        assert_eq!(QuantParams::of_values(&[]), QuantParams::default());
        assert_eq!(QuantParams::of_values(&[3.0, 3.0]), QuantParams::default());
    }

    #[test]
    fn codes_monotone_in_value() {
        let q = QuantParams::new(0.0, 10.0);
        let mut prev = 0u8;
        for k in 0..=100 {
            let c = q.quantize(k as f32 / 10.0);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "must be below")]
    fn inverted_bounds_panic() {
        let _ = QuantParams::new(2.0, 1.0);
    }

    #[test]
    fn flexible_quantizer_beats_symmetric_pow2_on_relu_data() {
        // Post-ReLU activations in [0, 5.3]: the flexible quantizer uses
        // all 256 codes; the symmetric power-of-two one wastes the
        // negative half and the [5.3, 8) headroom — §VI-F's "higher
        // flexibility and better utilization" claim.
        let data: Vec<f32> = (0..100).map(|k| k as f32 * 5.3 / 99.0).collect();
        let flexible = QuantParams::of_values(&data);
        let symmetric = QuantParams::symmetric_pow2_covering(&data);
        let u_flex = flexible.code_utilization(0.0, 5.3);
        let u_sym = symmetric.code_utilization(0.0, 5.3);
        assert!(u_flex > 0.99, "flexible utilization {u_flex}");
        assert!(u_sym < 0.45, "symmetric utilization {u_sym}");
        // And the flexible one reconstructs more accurately.
        assert!(flexible.max_error() < symmetric.max_error());
    }

    #[test]
    fn symmetric_pow2_range_is_power_of_two() {
        let q = QuantParams::symmetric_pow2_covering(&[0.1, 3.7, -1.0]);
        assert_eq!(q.max(), 4.0);
        assert_eq!(q.min(), -4.0);
    }
}
