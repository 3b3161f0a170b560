//! The Pragmatic Inner Product unit (PIP) datapath (Fig. 6, Fig. 7a).
//!
//! Every cycle a PIP combines 16 synapses with their lanes' pending
//! oneffsets: each oneffset drives a shifter that effectively multiplies
//! the synapse by a power of two, an AND gate injects null terms for
//! stalled or exhausted lanes, a `neg` wire (used by the CSD extension)
//! subtracts instead of adds, the shifted synapses reduce through the
//! adder tree, and — in the 2-stage arrangement of §V-D — the tree output
//! passes through one common second-stage shifter:
//!
//! ```text
//! Σᵢ (Sᵢ << Kᵢ) = ( Σᵢ (Sᵢ << K′ᵢ) ) << C      with Kᵢ = K′ᵢ + C
//! ```
//!
//! The first-stage shifts `K′ᵢ` are bounded by `2^L`; the common term `C`
//! is the cycle's minimum oneffset chosen by the column control.

/// Per-lane control for one PIP cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneControl {
    /// First-stage shift `K′ = oneffset − C`; must be below `2^L` for the
    /// configured first-stage width.
    pub shift: u8,
    /// Whether the lane contributes a term this cycle (stalled/exhausted
    /// lanes inject a null term through the AND gate).
    pub active: bool,
    /// Whether the term is subtracted (the `neg` wire; always false for
    /// plain oneffset encoding of unsigned neurons).
    pub neg: bool,
}

impl LaneControl {
    /// An active, non-negated lane shifting by `shift`.
    pub fn active(shift: u8) -> Self {
        Self { shift, active: true, neg: false }
    }
}

/// One PIP cycle: shift each active synapse by its lane's first-stage
/// amount, negate where requested, reduce through the adder tree, and
/// apply the common second-stage shift.
///
/// Arithmetic is exact (`i64`); the hardware's datapath widths
/// (16 + 2^L − 1 bits into the tree, Fig. 7a) are sized so no information
/// is lost, which the functional-equivalence tests verify end to end.
pub fn pip_cycle(synapses: &[i16; 16], lanes: &[LaneControl; 16], second_stage_shift: u8) -> i64 {
    let mut tree = 0i64;
    for (s, lane) in synapses.iter().zip(lanes) {
        if !lane.active {
            continue;
        }
        let term = (i64::from(*s)) << lane.shift;
        tree += if lane.neg { -term } else { term };
    }
    tree << second_stage_shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle() -> [LaneControl; 16] {
        [LaneControl::default(); 16]
    }

    #[test]
    fn fig4c_example_single_cycle() {
        // Fig. 4c: synapses s0 = 001, s1 = 111; neurons n0 = 001 (oneffset
        // 0), n1 = 010 (oneffset 1). One cycle computes the full inner
        // product 1·1 + 7·2 = 15.
        let mut synapses = [0i16; 16];
        synapses[0] = 0b001;
        synapses[1] = 0b111;
        let mut lanes = idle();
        lanes[0] = LaneControl::active(0);
        lanes[1] = LaneControl::active(1);
        assert_eq!(pip_cycle(&synapses, &lanes, 0), 15);
    }

    #[test]
    fn two_stage_equals_one_stage() {
        // (s << (k' + c)) decomposed: shift by k' in the lane, by c at the
        // second stage.
        let mut synapses = [0i16; 16];
        synapses[0] = 21;
        synapses[1] = -9;
        let mut one = idle();
        one[0] = LaneControl::active(5);
        one[1] = LaneControl::active(3);
        let direct = pip_cycle(&synapses, &one, 0);

        let mut two = idle();
        two[0] = LaneControl::active(2);
        two[1] = LaneControl::active(0);
        let staged = pip_cycle(&synapses, &two, 3);
        assert_eq!(direct, staged);
    }

    #[test]
    fn inactive_lanes_inject_null_terms() {
        let synapses = [i16::MAX; 16];
        let mut lanes = idle();
        lanes[7] = LaneControl::active(0);
        assert_eq!(pip_cycle(&synapses, &lanes, 0), i64::from(i16::MAX));
    }

    #[test]
    fn neg_wire_subtracts() {
        let mut synapses = [0i16; 16];
        synapses[0] = 100;
        synapses[1] = 100;
        let mut lanes = idle();
        lanes[0] = LaneControl::active(1); // +200
        lanes[1] = LaneControl { shift: 0, active: true, neg: true }; // -100
        assert_eq!(pip_cycle(&synapses, &lanes, 0), 100);
    }

    #[test]
    fn negative_synapses_shift_correctly() {
        let mut synapses = [0i16; 16];
        synapses[0] = -3;
        let mut lanes = idle();
        lanes[0] = LaneControl::active(4);
        assert_eq!(pip_cycle(&synapses, &lanes, 2), -3 * 16 * 4);
    }

    #[test]
    fn worst_case_magnitude_fits_exactly() {
        // 16 lanes of the widest synapse at the widest shift must not
        // overflow the i64 model (hardware: 31-bit terms + 4-bit tree
        // growth + accumulator).
        let synapses = [i16::MIN; 16];
        let lanes = [LaneControl::active(15); 16];
        let v = pip_cycle(&synapses, &lanes, 0);
        assert_eq!(v, (i64::from(i16::MIN) * 16) << 15);
    }
}
