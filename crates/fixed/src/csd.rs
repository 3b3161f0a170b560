//! Canonical-signed-digit (CSD) recoding — the modified-Booth extension.
//!
//! The PIP of Fig. 6 carries `neg` wires on its inputs, allowing a term to
//! be *subtracted* rather than added. With signed terms a neuron can be
//! recoded so that runs of ones collapse: `0111₂ = 2³ − 2⁰` needs two terms
//! instead of three. CSD is the unique minimal such recoding with no two
//! adjacent non-zero digits; its expected term count for random values is
//! ~n/3 versus ~n/2 for plain oneffsets.
//!
//! The MICRO version of the paper evaluates plain oneffsets only; this
//! module implements the recoding as the natural extension and the
//! `ablation_booth` bench quantifies what it would buy.

/// One signed power-of-two term: `±2^pow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignedPower {
    /// The power of two. For 16-bit inputs this can be 16 (e.g.
    /// `0xFFFF = 2¹⁶ − 2⁰`).
    pub pow: u8,
    /// Whether the term is subtracted.
    pub neg: bool,
}

impl SignedPower {
    /// The term's signed value.
    pub fn value(&self) -> i32 {
        let m = 1i32 << self.pow;
        if self.neg {
            -m
        } else {
            m
        }
    }
}

/// Encodes `v` into canonical signed-digit form, ascending power order.
///
/// The result satisfies [`decode`]`(..) == v` and has no two adjacent
/// non-zero digits.
///
/// ```
/// use pra_fixed::csd::{encode, decode};
///
/// let terms = encode(0b0111); // 7 = 8 - 1
/// assert_eq!(terms.len(), 2);
/// assert_eq!(decode(&terms), 7);
/// ```
pub fn encode(v: u16) -> Vec<SignedPower> {
    let mut out = Vec::new();
    let mut x = v as u32;
    let mut pow = 0u8;
    while x != 0 {
        if x & 1 == 0 {
            x >>= 1;
            pow += 1;
            continue;
        }
        // x is odd: emit +1 if x mod 4 == 1, else -1 (and carry).
        if x & 0b11 == 0b01 {
            out.push(SignedPower { pow, neg: false });
            x -= 1;
        } else {
            out.push(SignedPower { pow, neg: true });
            x += 1;
        }
    }
    out
}

/// Power-set bit mask of the CSD recoding of `v`: bit `k` is set iff the
/// recoding contains `±2^k`. This is the allocation-free form the cycle
/// simulator schedules from (signs do not affect timing); it equals
/// folding [`encode`]`(v)` over `1 << pow`.
///
/// ```
/// use pra_fixed::csd::{encode, mask};
///
/// let v = 0b0111_0110;
/// let folded = encode(v).iter().fold(0u32, |m, t| m | (1 << t.pow));
/// assert_eq!(mask(v), folded);
/// ```
pub fn mask(v: u16) -> u32 {
    let mut out = 0u32;
    let mut x = v as u32;
    let mut pow = 0u32;
    while x != 0 {
        if x & 1 == 0 {
            x >>= 1;
            pow += 1;
            continue;
        }
        out |= 1 << pow;
        // Same digit rule as `encode`: +1 if x mod 4 == 1, else -1 + carry.
        if x & 0b11 == 0b01 {
            x -= 1;
        } else {
            x += 1;
        }
    }
    out
}

/// Reconstructs the value of a signed-power list.
pub fn decode(terms: &[SignedPower]) -> i32 {
    terms.iter().map(SignedPower::value).sum()
}

/// Number of CSD terms of `v` — the essential term count under signed
/// recoding. Always `<= v.count_ones()`.
pub fn term_count(v: u16) -> u32 {
    encode(v).len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_equals_encode_fold_exhaustively() {
        for v in 0..=u16::MAX {
            let folded = encode(v).iter().fold(0u32, |m, t| m | (1 << t.pow));
            assert_eq!(mask(v), folded, "v = {v:#06x}");
        }
    }

    #[test]
    fn seven_needs_two_terms() {
        let t = encode(7);
        assert_eq!(t.len(), 2);
        assert_eq!(decode(&t), 7);
    }

    #[test]
    fn all_ones_collapses() {
        // 0xFFFF = 2^16 - 2^0.
        let t = encode(u16::MAX);
        assert_eq!(t.len(), 2);
        assert_eq!(decode(&t), 65535);
        assert_eq!(t[0], SignedPower { pow: 0, neg: true });
        assert_eq!(t[1], SignedPower { pow: 16, neg: false });
    }

    #[test]
    fn zero_is_empty() {
        assert!(encode(0).is_empty());
        assert_eq!(decode(&[]), 0);
    }

    #[test]
    fn round_trip_exhaustive() {
        for v in 0..=u16::MAX {
            assert_eq!(decode(&encode(v)), v as i32, "value {v}");
        }
    }

    #[test]
    fn no_adjacent_nonzero_digits() {
        for v in (0..=u16::MAX).step_by(17) {
            let t = encode(v);
            for w in t.windows(2) {
                assert!(w[1].pow >= w[0].pow + 2, "adjacent digits in CSD of {v}");
            }
        }
    }

    #[test]
    fn never_more_terms_than_popcount() {
        for v in 0..=u16::MAX {
            assert!(term_count(v) <= v.count_ones() || v.count_ones() == 0);
        }
    }

    #[test]
    fn isolated_bits_unchanged() {
        // A value with no adjacent ones is its own CSD form.
        let v = 0b0101_0101_0101_0101u16;
        let t = encode(v);
        assert_eq!(t.len() as u32, v.count_ones());
        assert!(t.iter().all(|s| !s.neg));
    }

    #[test]
    fn expected_density_below_oneffsets() {
        // Average CSD terms over all u16 should be well below average
        // popcount (8.0): the asymptotic CSD density is n/3 + O(1).
        let total: u64 = (0..=u16::MAX).map(|v| term_count(v) as u64).sum();
        let avg = total as f64 / 65536.0;
        assert!(avg < 6.0, "avg CSD terms {avg}");
    }
}
