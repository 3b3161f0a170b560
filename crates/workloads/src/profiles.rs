//! Published per-network measurements used as calibration targets and as
//! the paper-side of every paper-vs-measured comparison.
//!
//! * [`precisions`] — Table II: per-layer neuron precision profiles in
//!   bits, found with the profiling methodology of Judd et al. (paper
//!   reference 4).
//! * [`table1`] — Table I: average fraction of non-zero neuron bits, over
//!   all neurons ("All") and over non-zero neurons ("NZ"), for the 16-bit
//!   fixed-point and the 8-bit quantized representations.

use crate::networks::Network;

/// Table II per-layer neuron precisions (bits) for `net`.
pub fn precisions(net: Network) -> &'static [u8] {
    match net {
        Network::AlexNet => &[9, 8, 5, 5, 7],
        Network::NiN => &[8, 8, 8, 9, 7, 8, 8, 9, 9, 8, 8, 8],
        Network::GoogLeNet => &[10, 8, 10, 9, 8, 10, 9, 8, 9, 10, 7],
        Network::VggM => &[7, 7, 7, 8, 7],
        Network::VggS => &[7, 8, 9, 7, 9],
        Network::Vgg19 => &[12, 12, 12, 11, 12, 10, 11, 11, 13, 12, 13, 13, 13, 13, 13, 13],
    }
}

/// One network's row of Table I: essential-bit fractions (as fractions,
/// not percent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// 16-bit fixed point, over all neurons.
    pub fp16_all: f64,
    /// 16-bit fixed point, over non-zero neurons.
    pub fp16_nz: f64,
    /// 8-bit quantized, over all neurons.
    pub q8_all: f64,
    /// 8-bit quantized, over non-zero neurons.
    pub q8_nz: f64,
}

/// Table I of the paper for `net`.
pub fn table1(net: Network) -> Table1Row {
    let (fp16_all, fp16_nz, q8_all, q8_nz) = match net {
        Network::AlexNet => (7.8, 18.1, 31.4, 44.3),
        Network::NiN => (10.4, 22.1, 27.1, 37.4),
        Network::GoogLeNet => (6.4, 19.0, 26.8, 42.6),
        Network::VggM => (5.1, 16.5, 38.4, 47.4),
        Network::VggS => (5.7, 16.7, 34.3, 46.0),
        Network::Vgg19 => (12.7, 24.2, 16.5, 29.1),
    };
    Table1Row {
        fp16_all: fp16_all / 100.0,
        fp16_nz: fp16_nz / 100.0,
        q8_all: q8_all / 100.0,
        q8_nz: q8_nz / 100.0,
    }
}

/// Table V of the paper: fraction of PRA-2b-1R performance due to software
/// guidance, per network (as a fraction).
pub fn table5_software_benefit(net: Network) -> f64 {
    match net {
        Network::AlexNet => 0.23,
        Network::NiN => 0.10,
        Network::GoogLeNet => 0.18,
        Network::VggM => 0.22,
        Network::VggS => 0.21,
        Network::Vgg19 => 0.19,
    }
}

/// Paper-reported speedups over DaDianNao used in paper-vs-measured
/// reports: Stripes (Fig. 9 leftmost bars, geometric-mean 1.85×) and the
/// headline PRA variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSpeedups {
    /// Stripes speedup over DaDN (geo mean 1.85).
    pub stripes: f64,
    /// Single-stage Pragmatic (PRA-4b / PRAsingle), pallet sync (2.59 geo).
    pub pra_single: f64,
    /// PRA-2b with per-column sync and 1 SSR (3.1 geo).
    pub pra_2b_1r: f64,
}

/// Per-network paper speedups. The paper reports per-network numbers only
/// in figures; values here are read off Fig. 9/10 and the quoted extremes
/// (2.11× for VGG19, 2.97× for VGGM in §VI-B1) and are used for *shape*
/// comparison, not exact matching.
pub fn paper_speedups(net: Network) -> PaperSpeedups {
    let (stripes, pra_single, pra_2b_1r) = match net {
        Network::AlexNet => (2.09, 2.62, 3.15),
        Network::NiN => (1.91, 2.61, 3.05),
        Network::GoogLeNet => (1.76, 2.73, 3.20),
        Network::VggM => (2.21, 2.97, 3.55),
        Network::VggS => (2.05, 2.77, 3.35),
        Network::Vgg19 => (1.27, 2.11, 2.45),
    };
    PaperSpeedups { stripes, pra_single, pra_2b_1r }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_values() {
        assert_eq!(precisions(Network::AlexNet), &[9, 8, 5, 5, 7]);
        assert_eq!(precisions(Network::Vgg19).len(), 16);
        assert_eq!(precisions(Network::GoogLeNet).len(), 11);
    }

    #[test]
    fn table1_fractions_in_unit_interval() {
        for net in Network::ALL {
            let r = table1(net);
            for v in [r.fp16_all, r.fp16_nz, r.q8_all, r.q8_nz] {
                assert!(v > 0.0 && v < 1.0, "{net}: {v}");
            }
            // NZ >= All by definition (zeros only dilute).
            assert!(r.fp16_nz >= r.fp16_all);
            assert!(r.q8_nz >= r.q8_all);
        }
    }

    #[test]
    fn software_benefit_averages_to_19_percent() {
        let avg: f64 = Network::ALL.iter().map(|&n| table5_software_benefit(n)).sum::<f64>() / 6.0;
        assert!((avg - 0.19).abs() < 0.005, "avg {avg}");
    }

    #[test]
    fn max_precision_is_13_bits() {
        let max = Network::ALL.iter().flat_map(|&n| precisions(n).iter().copied()).max().unwrap();
        assert_eq!(max, 13);
    }

    #[test]
    fn implied_zero_fraction_is_plausible() {
        // zero_frac = 1 - All/NZ must be a valid probability.
        for net in Network::ALL {
            let r = table1(net);
            let zf16 = 1.0 - r.fp16_all / r.fp16_nz;
            let zf8 = 1.0 - r.q8_all / r.q8_nz;
            assert!((0.0..1.0).contains(&zf16), "{net} {zf16}");
            assert!((0.0..1.0).contains(&zf8), "{net} {zf8}");
        }
    }
}
