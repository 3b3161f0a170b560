//! The §II potential study: equivalent term counts per engine (Figs. 2, 3).
//!
//! Each multiplication is accounted an equivalent number of terms
//! (additions): `bits` for the bit-parallel engines (DaDN, ZN, CVN), the
//! layer precision `p` for Stripes, and the neuron's essential bit count
//! for ideal Pragmatic — over the full stored value for PRA-fp16 and over
//! the software-trimmed value for PRA-red. A CSD (modified-Booth) variant
//! is included as the encoding ablation.
//!
//! Term sums weight every *multiplication*, i.e. each stored neuron is
//! weighted by the number of (window × filter-element) pairs that read it
//! times the filter count; the weights come from a closed-form coverage
//! count per spatial coordinate, making the whole study exact in one pass
//! over the neuron array.

use pra_fixed::csd;
use pra_tensor::ConvLayerSpec;
use pra_workloads::{LayerWorkload, NetworkWorkload, Representation};

use crate::zero_skip;

/// Equivalent term counts for one layer or network, per engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TermCounts {
    /// Bit-parallel baseline (DaDN at 16 bit, or the 8-bit engine of
    /// Fig. 3).
    pub dadn: u64,
    /// Ideal zero-neuron skipping.
    pub zn: u64,
    /// Cnvlutin-style practical zero skipping.
    pub cvn: u64,
    /// Stripes (per-layer precision).
    pub stripes: u64,
    /// Ideal Pragmatic on the full stored values (PRA-fp16).
    pub pra: u64,
    /// Ideal Pragmatic with software-trimmed values (PRA-red).
    pub pra_red: u64,
    /// Ideal Pragmatic with CSD/Booth recoding of trimmed values
    /// (extension ablation).
    pub pra_csd: u64,
}

impl TermCounts {
    /// Adds another count set into this one.
    pub fn merge(&mut self, o: &TermCounts) {
        self.dadn += o.dadn;
        self.zn += o.zn;
        self.cvn += o.cvn;
        self.stripes += o.stripes;
        self.pra += o.pra;
        self.pra_red += o.pra_red;
        self.pra_csd += o.pra_csd;
    }

    /// Terms normalized to the bit-parallel baseline (the y-axis of
    /// Figs. 2 and 3; lower is better).
    pub fn normalized(&self) -> NormalizedTerms {
        let d = self.dadn as f64;
        NormalizedTerms {
            zn: self.zn as f64 / d,
            cvn: self.cvn as f64 / d,
            stripes: self.stripes as f64 / d,
            pra: self.pra as f64 / d,
            pra_red: self.pra_red as f64 / d,
            pra_csd: self.pra_csd as f64 / d,
        }
    }
}

/// Term counts relative to the bit-parallel baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedTerms {
    /// Ideal zero skipping / baseline.
    pub zn: f64,
    /// Cnvlutin / baseline.
    pub cvn: f64,
    /// Stripes / baseline.
    pub stripes: f64,
    /// PRA-fp16 / baseline.
    pub pra: f64,
    /// PRA-red / baseline.
    pub pra_red: f64,
    /// PRA-CSD / baseline (ablation).
    pub pra_csd: f64,
}

/// Per-coordinate coverage: `coverage_x(spec)[x]` is the number of
/// `(window, filter-element)` pairs along the x dimension that read input
/// column `x`.
pub fn coverage_x(spec: &ConvLayerSpec) -> Vec<u64> {
    coverage(spec.input.x, spec.out_x(), spec.filter.x, spec.stride, spec.padding)
}

/// Per-coordinate coverage along y.
pub fn coverage_y(spec: &ConvLayerSpec) -> Vec<u64> {
    coverage(spec.input.y, spec.out_y(), spec.filter.y, spec.stride, spec.padding)
}

fn coverage(n: usize, out: usize, f: usize, stride: usize, pad: usize) -> Vec<u64> {
    let mut c = vec![0u64; n];
    for w in 0..out {
        let origin = w as isize * stride as isize - pad as isize;
        for k in 0..f {
            let x = origin + k as isize;
            if x >= 0 && (x as usize) < n {
                c[x as usize] += 1;
            }
        }
    }
    c
}

/// Computes the potential-study term counts for one layer.
///
/// `layer_index` selects CVN's dense-first-layer rule (index 0).
pub fn layer_terms(layer: &LayerWorkload, repr: Representation, layer_index: usize) -> TermCounts {
    let spec = &layer.spec;
    let bits = u64::from(repr.bits());
    let n_filters = spec.num_filters as u64;
    let cx = coverage_x(spec);
    let cy = coverage_y(spec);

    let mut zn_mults = 0u64;
    let mut pra_bits = 0u64;
    let mut red_bits = 0u64;
    let mut csd_terms = 0u64;
    let window = layer.window;
    let data = layer.neurons.as_slice();
    let (nx, ni) = (spec.input.x, spec.input.i);
    #[allow(clippy::needless_range_loop)] // x, y also index into the tensor
    for y in 0..spec.input.y {
        for x in 0..nx {
            let w = cx[x] * cy[y];
            if w == 0 {
                continue;
            }
            let base = (y * nx + x) * ni;
            for &v in &data[base..base + ni] {
                if v == 0 {
                    continue;
                }
                zn_mults += w;
                pra_bits += w * u64::from(v.count_ones());
                let t = window.trim(v);
                red_bits += w * u64::from(t.count_ones());
                csd_terms += w * u64::from(csd::term_count(t));
            }
        }
    }

    TermCounts {
        dadn: spec.multiplications() * bits,
        zn: zn_mults * n_filters * bits,
        cvn: zero_skip::cvn_terms(layer, layer_index == 0, repr.bits()),
        stripes: spec.multiplications() * u64::from(layer.stripes_precision),
        pra: pra_bits * n_filters,
        pra_red: red_bits * n_filters,
        pra_csd: csd_terms * n_filters,
    }
}

/// Sums [`layer_terms`] over a whole network workload.
pub fn network_terms(workload: &NetworkWorkload) -> TermCounts {
    let mut total = TermCounts::default();
    for (idx, layer) in workload.layers.iter().enumerate() {
        total.merge(&layer_terms(layer, workload.repr, idx));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_fixed::PrecisionWindow;
    use pra_tensor::{ConvLayerSpec, Tensor3};

    fn layer(
        nx: usize,
        i: usize,
        pad: usize,
        f: impl FnMut(usize, usize, usize) -> u16,
    ) -> LayerWorkload {
        let spec = ConvLayerSpec::new("toy", (nx, nx, i), (3, 3), 8, 1, pad).unwrap();
        LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, f),
            spec,
            window: PrecisionWindow::with_width(8, 2),
            stripes_precision: 8,
        }
    }

    #[test]
    fn coverage_sums_to_windows_times_filter() {
        let spec = ConvLayerSpec::new("t", (17, 17, 4), (3, 3), 2, 2, 1).unwrap();
        let cx = coverage_x(&spec);
        // Total (window, element) pairs that land in-bounds is at most
        // Ox*Fx; padding reduces it.
        let total: u64 = cx.iter().sum();
        assert!(total <= (spec.out_x() * spec.filter.x) as u64);
        assert!(total > 0);
    }

    #[test]
    fn coverage_interior_is_full_for_unit_stride() {
        let spec = ConvLayerSpec::new("t", (16, 16, 4), (3, 3), 2, 1, 1).unwrap();
        let cx = coverage_x(&spec);
        // Interior columns are read by all 3 filter elements.
        assert_eq!(cx[8], 3);
        // Border columns by fewer.
        assert!(cx[0] < 3);
    }

    #[test]
    fn zero_neurons_contribute_no_pra_terms() {
        let l = layer(8, 16, 0, |_, _, _| 0);
        let t = layer_terms(&l, Representation::Fixed16, 1);
        assert_eq!(t.pra, 0);
        assert_eq!(t.zn, 0);
        assert!(t.dadn > 0);
        assert_eq!(t.stripes, l.spec.multiplications() * 8);
    }

    #[test]
    fn pra_counts_essential_bits_exactly() {
        // Value 0b101 everywhere (2 essential bits), no padding: PRA terms
        // = 2 * mults; DaDN = 16 * mults.
        let l = layer(8, 16, 0, |_, _, _| 0b101 << 2);
        let t = layer_terms(&l, Representation::Fixed16, 1);
        assert_eq!(t.pra, l.spec.multiplications() * 2);
        assert_eq!(t.dadn, l.spec.multiplications() * 16);
        assert_eq!(t.zn, l.spec.multiplications() * 16);
    }

    #[test]
    fn trimming_reduces_pra_red_below_pra() {
        // Suffix bit below the window: trimmed away in PRA-red.
        let l = layer(8, 16, 0, |_, _, _| (0b101 << 2) | 0b1);
        let t = layer_terms(&l, Representation::Fixed16, 1);
        assert_eq!(t.pra, l.spec.multiplications() * 3);
        assert_eq!(t.pra_red, l.spec.multiplications() * 2);
    }

    #[test]
    fn csd_never_exceeds_pra_red() {
        let l = layer(8, 32, 1, |x, y, i| ((x * 7 + y * 13 + i * 3) % 251) as u16);
        let t = layer_terms(&l, Representation::Fixed16, 1);
        assert!(t.pra_csd <= t.pra_red);
    }

    #[test]
    fn padding_counts_for_dadn_but_not_zn() {
        // With padding, DaDN multiplies zeros; ZN skips them, so even a
        // dense all-ones tensor gives zn < dadn.
        let l = layer(8, 16, 1, |_, _, _| 1 << 2);
        let t = layer_terms(&l, Representation::Fixed16, 1);
        assert!(t.zn < t.dadn);
    }

    #[test]
    fn normalized_is_fraction_of_dadn() {
        let l = layer(8, 16, 0, |_, _, i| if i % 2 == 0 { 0b11 << 2 } else { 0 });
        let t = layer_terms(&l, Representation::Fixed16, 1);
        let n = t.normalized();
        // Half the neurons are zero: ZN halves the terms.
        assert!((n.zn - 0.5).abs() < 1e-12);
        // PRA: 2 bits of 16 on half the neurons.
        assert!((n.pra - 0.5 * 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn quant8_uses_8_bit_baseline() {
        let l = LayerWorkload {
            stripes_precision: 8,
            window: PrecisionWindow::new(7, 0),
            ..layer(8, 16, 0, |_, _, _| 0b11)
        };
        let t = layer_terms(&l, Representation::Quant8, 1);
        assert_eq!(t.dadn, l.spec.multiplications() * 8);
        assert_eq!(t.pra, l.spec.multiplications() * 2);
    }
}
