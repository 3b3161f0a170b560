//! Per-unit (tile NFU) area composition, excluding the SB/NBin/NBout
//! memory blocks — the "Area U." rows of Tables III and IV.

use crate::primitives::{adder_tree, and_gates, barrel_shifter, multiplier, registers};

/// A design point whose area/power the model can evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// DaDianNao: 256 16-bit multipliers + 16 17-input 32-bit adder trees.
    Dadn,
    /// Stripes: 256 bit-serial inner-product units.
    Stripes,
    /// Pragmatic with `first_stage_bits` = L and `ssrs` synapse set
    /// registers (0 = per-pallet synchronization, no SSRs).
    Pra {
        /// First-stage shifter bits (0..=4).
        first_stage_bits: u8,
        /// Synapse set registers for per-column synchronization.
        ssrs: usize,
    },
    /// Throughput-boosted Pragmatic: each lane consumes `per_cycle`
    /// oneffsets per cycle through replicated first-stage shifters and a
    /// `16 × per_cycle`-input adder tree (the extension the
    /// `ablation_throughput` bench evaluates).
    PraBoosted {
        /// First-stage shifter bits (0..=4).
        first_stage_bits: u8,
        /// Oneffsets per lane per cycle.
        per_cycle: u8,
    },
}

impl Design {
    /// The paper's label for the design.
    pub fn label(&self) -> String {
        match self {
            Design::Dadn => "DaDN".into(),
            Design::Stripes => "Stripes".into(),
            Design::Pra { first_stage_bits, ssrs: 0 } => format!("PRA-{first_stage_bits}b"),
            Design::Pra { first_stage_bits, ssrs } => format!("PRA-{first_stage_bits}b-{ssrs}R"),
            Design::PraBoosted { first_stage_bits, per_cycle } => {
                format!("PRA-{first_stage_bits}b-x{per_cycle}")
            }
        }
    }
}

/// Unit (NFU) area in µm² for one tile.
pub fn unit_area_um2(design: Design) -> f64 {
    match design {
        Design::Dadn => {
            // 256 multipliers, 16 filter-lane adder trees (16 products +
            // partial sum), pipeline registers.
            256.0 * multiplier(16) + 16.0 * adder_tree(17, 32) + registers(256 * 48)
        }
        Design::Stripes => {
            // 256 serial IPs: 16 lanes x 16-bit AND array, 16-input tree
            // of 17-bit terms, serializer adder, 32-bit shift-add
            // accumulator, double-buffered synapse registers.
            256.0
                * (and_gates(256)
                    + adder_tree(16, 17)
                    + 48.0 * crate::primitives::A_FA
                    + registers(2 * 256 + 64))
        }
        Design::Pra { first_stage_bits, ssrs } => {
            pra_pip_area(first_stage_bits, 1) * 256.0 + registers(4096) * ssrs as f64
        }
        Design::PraBoosted { first_stage_bits, per_cycle } => {
            pra_pip_area(first_stage_bits, per_cycle.max(1) as usize) * 256.0
        }
    }
}

/// Unit area in mm².
pub fn unit_area_mm2(design: Design) -> f64 {
    unit_area_um2(design) / 1e6
}

/// One Pragmatic Inner Product unit (Fig. 6 / Fig. 7a) with `l` first-stage
/// shifter bits and `per_cycle` oneffsets consumed per lane per cycle
/// (1 = the paper's PIP; >1 replicates the shifters and widens the tree).
fn pra_pip_area(l: u8, per_cycle: usize) -> f64 {
    let w_out = 16 + (1usize << l) - 1;
    let single_stage = (1u32 << l) > 15;
    let lanes = 16 * per_cycle;

    // First-stage shifters, one per consumed oneffset (absent at L = 0
    // where lanes can only take the common offset).
    let first = if l == 0 { 0.0 } else { lanes as f64 * barrel_shifter(16, 1 << l) };
    // Null-term AND plus the (cheaper) negation XOR per lane, across the
    // shifted width.
    let gates = and_gates(lanes * w_out * 3 / 2);
    // The adder tree over first-stage-shifted terms.
    let tree = adder_tree(lanes, w_out);
    // Common second-stage shifter over the tree output (tree adds 4 bits).
    let second = if single_stage { 0.0 } else { barrel_shifter(w_out + 4, 16) };
    // Accumulator: two 38-bit adders plus the max unit (Fig. 6).
    let acc = (38 * 2 + 16) as f64 * crate::primitives::A_FA;
    // Registers: accumulator, double-buffered oneffset lanes (pow + eon,
    // per consumed oneffset), synapse registers (SR).
    let regs = registers(38 * 2 + lanes * 5 * 2 + 16 * 16 + 4);
    // Column control (min tree + subtractors), amortized over 16 PIPs.
    let ctrl = 124.0 * crate::primitives::A_FA / 16.0 * per_cycle as f64;
    first + gates + tree + second + acc + regs + ctrl
}

/// The paper's Table III/IV unit areas in mm², used for paper-vs-measured
/// reporting.
pub fn paper_unit_area_mm2(design: Design) -> Option<f64> {
    Some(match design {
        Design::Dadn => 1.55,
        Design::Stripes => 3.05,
        Design::Pra { first_stage_bits: 0, ssrs: 0 } => 3.11,
        Design::Pra { first_stage_bits: 1, ssrs: 0 } => 3.16,
        Design::Pra { first_stage_bits: 2, ssrs: 0 } => 3.54,
        Design::Pra { first_stage_bits: 3, ssrs: 0 } => 4.41,
        Design::Pra { first_stage_bits: 4, ssrs: 0 } => 5.75,
        Design::Pra { first_stage_bits: 2, ssrs: 1 } => 3.58,
        Design::Pra { first_stage_bits: 2, ssrs: 4 } => 3.73,
        Design::Pra { first_stage_bits: 2, ssrs: 16 } => 4.33,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pra(l: u8, ssrs: usize) -> Design {
        Design::Pra { first_stage_bits: l, ssrs }
    }

    #[test]
    fn orderings_match_table3() {
        // DaDN < STR < PRA-0b < 1b < 2b < 3b < 4b.
        let mut prev = unit_area_mm2(Design::Dadn);
        for d in [Design::Stripes, pra(0, 0), pra(1, 0), pra(2, 0), pra(3, 0), pra(4, 0)] {
            let a = unit_area_mm2(d);
            assert!(a > prev, "{} not larger ({a} vs {prev})", d.label());
            prev = a;
        }
    }

    #[test]
    fn every_row_within_model_tolerance() {
        // Analytic model vs synthesis: each Table III/IV row within 25%
        // (most are under 12%; Stripes is the worst case, documented in
        // EXPERIMENTS.md).
        let designs = [
            Design::Dadn,
            Design::Stripes,
            pra(0, 0),
            pra(1, 0),
            pra(2, 0),
            pra(3, 0),
            pra(4, 0),
            pra(2, 1),
            pra(2, 4),
            pra(2, 16),
        ];
        for d in designs {
            let model = unit_area_mm2(d);
            let paper = paper_unit_area_mm2(d).unwrap();
            let err = (model - paper).abs() / paper;
            assert!(err < 0.25, "{}: model {model:.2} vs paper {paper:.2}", d.label());
        }
    }

    #[test]
    fn ssr_increments_match_table4() {
        let base = unit_area_mm2(pra(2, 0));
        let one = unit_area_mm2(pra(2, 1));
        let sixteen = unit_area_mm2(pra(2, 16));
        assert!((one - base - 0.05).abs() < 0.01);
        assert!((sixteen - base - 16.0 * 0.05).abs() < 0.05);
    }

    #[test]
    fn second_stage_disappears_at_single_stage() {
        // Going 3b -> 4b removes the second-stage shifter but more than
        // pays for it in wider lanes.
        let a3 = unit_area_mm2(pra(3, 0));
        let a4 = unit_area_mm2(pra(4, 0));
        assert!(a4 > a3);
    }

    #[test]
    fn labels() {
        assert_eq!(Design::Dadn.label(), "DaDN");
        assert_eq!(pra(2, 1).label(), "PRA-2b-1R");
        assert_eq!(pra(4, 0).label(), "PRA-4b");
    }
}
