//! Per-layer precision windows (§II, §V-F).
//!
//! Fixed-length hardware processes an *Excess of Precision*: unless a layer
//! needs the full 16-bit range, some prefix (most-significant) and suffix
//! (least-significant) bits are always zero or never affect accuracy.
//! Stripes exploits this with a per-layer precision `p`; Pragmatic's
//! software guidance (§V-F) goes further and *zeroes out* prefix and suffix
//! bits at the output of each layer using AND gates and precision-derived
//! bit masks, reducing essential bit content.
//!
//! A [`PrecisionWindow`] is the inclusive bit range `[lsb, msb]` a layer
//! needs; [`PrecisionWindow::trim`] is the hardware masking operation.

/// An inclusive range of significant bit positions `[lsb, msb]` within a
/// 16-bit stored value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrecisionWindow {
    msb: u8,
    lsb: u8,
}

impl PrecisionWindow {
    /// Creates a window covering bits `lsb..=msb`.
    ///
    /// # Panics
    ///
    /// Panics if `msb < lsb` or `msb > 15`.
    pub fn new(msb: u8, lsb: u8) -> Self {
        assert!(msb >= lsb, "msb {msb} below lsb {lsb}");
        assert!(msb <= 15, "msb {msb} exceeds 15");
        Self { msb, lsb }
    }

    /// A window of `p` bits anchored at `lsb`, i.e. bits `lsb..lsb+p`.
    ///
    /// # Panics
    ///
    /// Panics if the window would extend past bit 15 or `p == 0`.
    pub fn with_width(p: u8, lsb: u8) -> Self {
        assert!(p >= 1, "precision must be at least 1 bit");
        Self::new(lsb + p - 1, lsb)
    }

    /// The full 16-bit window (no trimming).
    pub fn full() -> Self {
        Self { msb: 15, lsb: 0 }
    }

    /// Most-significant bit position of the window.
    pub fn msb(&self) -> u8 {
        self.msb
    }

    /// Least-significant bit position of the window.
    pub fn lsb(&self) -> u8 {
        self.lsb
    }

    /// The window width in bits — the layer's precision `p`.
    pub fn width(&self) -> u8 {
        self.msb - self.lsb + 1
    }

    /// The AND mask that implements trimming.
    pub fn mask(&self) -> u16 {
        let ones = if self.width() >= 16 { u16::MAX } else { (1u16 << self.width()) - 1 };
        ones << self.lsb
    }

    /// Zeroes all bits outside the window — the §V-F output trimming.
    ///
    /// ```
    /// use pra_fixed::PrecisionWindow;
    ///
    /// let w = PrecisionWindow::new(5, 2);
    /// assert_eq!(w.trim(0b1111_1111), 0b0011_1100);
    /// ```
    #[inline]
    pub fn trim(&self, v: u16) -> u16 {
        v & self.mask()
    }

    /// Number of prefix (most-significant) bits removed by the window.
    pub fn prefix_bits(&self) -> u8 {
        15 - self.msb
    }

    /// Number of suffix (least-significant) bits removed by the window.
    pub fn suffix_bits(&self) -> u8 {
        self.lsb
    }
}

impl Default for PrecisionWindow {
    fn default() -> Self {
        Self::full()
    }
}

/// Number of bits needed to represent `v` exactly (position of the leading
/// one plus one); 0 for `v == 0`.
pub fn required_bits(v: u16) -> u8 {
    (16 - v.leading_zeros()) as u8
}

/// Profiles the minimal precision window for a stream of stored values
/// using the magnitude criterion only: the narrowest window such that the
/// total magnitude lost to masking is at most `tolerance` of the total
/// magnitude of the stream. See [`profile_window_clipped`] for the
/// variant that additionally tolerates clipping rare large values, which
/// is what recovers Table II-style precisions on realistic streams.
///
/// The search shrinks the suffix first (dropping low-order bits loses the
/// least magnitude per bit), then the prefix, mirroring how reduced
/// fraction/integer bit counts are chosen in the profiling papers.
///
/// Returns the full window for an empty or all-zero stream with any
/// `tolerance >= 0`.
pub fn profile_window(values: &[u16], tolerance: f64) -> PrecisionWindow {
    assert!((0.0..1.0).contains(&tolerance), "tolerance must be in [0, 1)");
    let total: u64 = values.iter().map(|&v| v as u64).sum();
    if total == 0 {
        return PrecisionWindow::full();
    }
    let budget = (total as f64 * tolerance) as u64;

    // Shrink the suffix: raising lsb loses the masked low bits.
    let mut lsb = 0u8;
    let mut lost: u64 = 0;
    while lsb < 15 {
        let extra: u64 = values.iter().map(|&v| (v & ((1u16 << (lsb + 1)) - 1)) as u64).sum();
        if extra > budget {
            break;
        }
        lost = extra;
        lsb += 1;
    }

    // Shrink the prefix: lowering msb loses the masked high bits.
    let mut msb = 15u8;
    while msb > lsb {
        let mask_hi = !(((1u32 << msb) - 1) as u16); // bits msb..15
        let extra: u64 = values.iter().map(|&v| (v & mask_hi) as u64).sum();
        if lost + extra > budget {
            break;
        }
        msb -= 1;
    }
    PrecisionWindow::new(msb, lsb)
}

/// Profiles a precision window following the methodology of Judd et al.
/// (the paper's refs 2 and 4) as applied to real activation streams: network
/// accuracy tolerates *clipping* a small share of outlier values to the
/// window maximum, so the prefix is chosen by a quantile criterion — the
/// smallest `msb` such that at most `clip_quantile` of the values carry
/// bits above it — while the suffix uses the magnitude criterion of
/// [`profile_window`] over the non-clipped values.
pub fn profile_window_clipped(
    values: &[u16],
    tolerance: f64,
    clip_quantile: f64,
) -> PrecisionWindow {
    assert!((0.0..1.0).contains(&clip_quantile), "clip quantile must be in [0, 1)");
    let n = values.len();
    if n == 0 || values.iter().all(|&v| v == 0) {
        return PrecisionWindow::full();
    }
    let budget = (n as f64 * clip_quantile) as usize;
    // Smallest msb such that at most `budget` values carry bits above it
    // (a window topping at `m` clips every value >= 2^(m+1)).
    let mut msb = 15u8;
    while msb > 0 {
        let candidate = msb - 1;
        let clipped = values.iter().filter(|&&v| u32::from(v) >= 1u32 << (candidate + 1)).count();
        if clipped > budget {
            break;
        }
        msb = candidate;
    }
    // Suffix over the surviving (non-clipped) values.
    let kept: Vec<u16> =
        values.iter().copied().filter(|&v| u32::from(v) < 1u32 << (msb + 1)).collect();
    let suffix = profile_window(&kept, tolerance);
    PrecisionWindow::new(msb, suffix.lsb().min(msb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_and_mask() {
        let w = PrecisionWindow::new(8, 2);
        assert_eq!(w.width(), 7);
        assert_eq!(w.mask(), 0b0000_0001_1111_1100);
        assert_eq!(w.prefix_bits(), 7);
        assert_eq!(w.suffix_bits(), 2);
    }

    #[test]
    fn full_window_is_identity() {
        let w = PrecisionWindow::full();
        assert_eq!(w.width(), 16);
        for v in [0u16, 1, 0xFFFF, 0x8000] {
            assert_eq!(w.trim(v), v);
        }
    }

    #[test]
    fn with_width_anchors_at_lsb() {
        let w = PrecisionWindow::with_width(5, 2);
        assert_eq!(w.msb(), 6);
        assert_eq!(w.lsb(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds 15")]
    fn overwide_window_panics() {
        let _ = PrecisionWindow::with_width(15, 2);
    }

    #[test]
    fn trim_figure1_example() {
        // Fig. 1: an 8-bit value with 4 integer / 4 fraction bits where only
        // bits 1..=5 (of the stored integer) are required. Trimming keeps
        // exactly the essential window.
        let stored = 0b0010_1010u16; // 0010.1010 with two prefix, one suffix zero
        let w = PrecisionWindow::new(5, 1);
        assert_eq!(w.trim(stored), stored); // window covers all essential bits
        let narrower = PrecisionWindow::new(5, 2);
        assert_eq!(narrower.trim(stored), 0b0010_1000);
    }

    #[test]
    fn required_bits_examples() {
        assert_eq!(required_bits(0), 0);
        assert_eq!(required_bits(1), 1);
        assert_eq!(required_bits(0b101), 3);
        assert_eq!(required_bits(u16::MAX), 16);
    }

    #[test]
    fn profile_exact_stream_zero_tolerance() {
        // Values use bits 2..=6 only; with zero tolerance the window must
        // cover exactly that range.
        let vals = vec![0b100u16, 0b1000100, 0b10100, 0];
        let w = profile_window(&vals, 0.0);
        assert_eq!(w.lsb(), 2);
        assert_eq!(w.msb(), 6);
    }

    #[test]
    fn profile_tolerance_drops_noise_bits() {
        // Large values at bits 8..=11 plus tiny bit-0 noise: 1% tolerance
        // should drop the noise bits but keep the signal.
        let mut vals = vec![];
        for k in 0..100u16 {
            vals.push((0b1001 << 8) | (k % 2));
        }
        let w = profile_window(&vals, 0.01);
        assert!(w.lsb() >= 1, "lsb {} should skip noise", w.lsb());
        assert_eq!(w.msb(), 11);
    }

    #[test]
    fn profile_all_zero_stream_is_full() {
        assert_eq!(profile_window(&[0, 0, 0], 0.01), PrecisionWindow::full());
        assert_eq!(profile_window(&[], 0.0), PrecisionWindow::full());
    }

    #[test]
    fn profile_trimming_loss_within_tolerance() {
        let vals: Vec<u16> = (1..2000u16).map(|k| k.wrapping_mul(2654435761u32 as u16)).collect();
        let tol = 0.02;
        let w = profile_window(&vals, tol);
        let total: u64 = vals.iter().map(|&v| v as u64).sum();
        let lost: u64 = vals.iter().map(|&v| (v - w.trim(v)) as u64).sum();
        assert!(lost as f64 <= total as f64 * tol + 1.0);
    }

    #[test]
    fn clipped_profile_ignores_rare_outliers() {
        // 1000 values in bits 2..=8, plus 5 outliers with bit 14 set: the
        // magnitude criterion must keep bit 14, the 1% clip quantile drops
        // it.
        let mut vals: Vec<u16> = (0..1000u16).map(|k| ((k % 120) + 4) << 2).collect();
        for _ in 0..5 {
            vals.push(1 << 14);
        }
        let magnitude_only = profile_window(&vals, 0.01);
        assert_eq!(magnitude_only.msb(), 14);
        let clipped = profile_window_clipped(&vals, 0.01, 0.01);
        assert!(clipped.msb() <= 9, "msb {}", clipped.msb());
    }

    #[test]
    fn clipped_profile_keeps_common_high_bits() {
        // 30% of values at bit 12: far above any sane clip quantile.
        let vals: Vec<u16> =
            (0..1000u16).map(|k| if k % 3 == 0 { 1 << 12 } else { 1 << 4 }).collect();
        let w = profile_window_clipped(&vals, 0.0, 0.01);
        assert_eq!(w.msb(), 12);
        assert_eq!(w.lsb(), 4);
    }

    #[test]
    fn clipped_profile_all_zero_is_full() {
        assert_eq!(profile_window_clipped(&[0, 0], 0.01, 0.01), PrecisionWindow::full());
    }

    #[test]
    fn trim_never_increases_essential_bits() {
        let w = PrecisionWindow::new(9, 3);
        for v in (0..=u16::MAX).step_by(7) {
            assert!(w.trim(v).count_ones() <= v.count_ones());
        }
    }
}
