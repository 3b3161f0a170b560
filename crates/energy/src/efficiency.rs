//! Energy efficiency (§VI-D, Fig. 11).
//!
//! "Energy Efficiency, or simply efficiency for a system NEW relative to
//! BASE is defined as the ratio E_BASE / E_NEW of the energy required by
//! BASE to compute all of the convolution layers over that of NEW."
//! With both chips running at the same frequency, `E = P × cycles / f`,
//! so efficiency is the speedup divided by the power ratio.

use crate::chip::chip_power_w;
use crate::unit::Design;

/// Energy accounting for one design on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Which design.
    pub design: Design,
    /// Execution cycles for the convolutional layers.
    pub cycles: u64,
    /// Chip power (W).
    pub power_w: f64,
}

impl EnergyReport {
    /// Builds a report from a design and its measured cycle count.
    pub fn new(design: Design, cycles: u64) -> Self {
        Self { design, cycles, power_w: chip_power_w(design) }
    }

    /// Energy in W·cycles (joules × frequency; the frequency cancels in
    /// every ratio the paper reports).
    pub fn energy(&self) -> f64 {
        self.power_w * self.cycles as f64
    }
}

/// Efficiency of `new` relative to `base`: `E_base / E_new`.
pub fn efficiency(base: &EnergyReport, new: &EnergyReport) -> f64 {
    base.energy() / new.energy()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pra(l: u8, ssrs: usize) -> Design {
        Design::Pra { first_stage_bits: l, ssrs }
    }

    #[test]
    fn efficiency_is_speedup_over_power_ratio() {
        let base = EnergyReport::new(Design::Dadn, 1000);
        let new = EnergyReport::new(pra(2, 0), 400);
        let speedup = 1000.0 / 400.0;
        let power_ratio = new.power_w / base.power_w;
        assert!((efficiency(&base, &new) - speedup / power_ratio).abs() < 1e-12);
    }

    #[test]
    fn paper_headline_efficiencies_reproduce() {
        // Fig. 11 geo means with the paper's speedups: STR 1.16 (1.85x),
        // PRA-4b 0.95 (2.59x), PRA-2b 1.28 (2.59x), PRA-2b-1R 1.48 (3.1x).
        let base = EnergyReport::new(Design::Dadn, 1_000_000);
        let check = |design, speedup: f64, expected: f64, tol: f64| {
            let new = EnergyReport::new(design, (1_000_000.0 / speedup) as u64);
            let eff = efficiency(&base, &new);
            assert!(
                (eff - expected).abs() < tol,
                "{}: efficiency {eff:.2} vs paper {expected}",
                new.design.label()
            );
        };
        check(Design::Stripes, 1.85, 1.16, 0.20);
        check(pra(4, 0), 2.59, 0.95, 0.20);
        check(pra(2, 0), 2.59, 1.28, 0.20);
        check(pra(2, 1), 3.10, 1.48, 0.25);
    }

    #[test]
    fn identical_runs_have_unit_efficiency() {
        let a = EnergyReport::new(Design::Dadn, 12345);
        assert!((efficiency(&a, &a) - 1.0).abs() < 1e-12);
    }
}
