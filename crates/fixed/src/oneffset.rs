//! The oneffset representation (§V-A1).
//!
//! A neuron `n` is represented as an explicit list of the offsets of its
//! essential bits — its constituent powers of two. For example
//! `n = 101₂` is represented as `((0, eon=0), (2, eon=1))`: each oneffset is
//! a pair `(pow, eon)` where `pow` is a 4-bit power and `eon` ("end of
//! neuron") is a single out-of-band bit set on the neuron's last oneffset.
//!
//! Oneffsets are generated and processed **least-significant first**
//! (ascending powers), the order used by the 2-stage-shifting example of
//! Fig. 7 where the per-cycle minimum oneffset drives the common
//! second-stage shifter. (§V-C describes the generator as a "leading one
//! detector"; a trailing-one detector is the same structure on the
//! bit-reversed input and matches the worked example, so ascending order is
//! the crate default. [`OneffsetList::iter_descending`] provides the other
//! order for ablation.)
//!
//! In the worst case all 16 bits of a neuron are 1 and its PRA
//! representation holds 16 oneffsets.

/// One oneffset: a power of two plus the end-of-neuron marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Oneffset {
    /// The power of two (0–15 for 16-bit neurons, 0–7 for 8-bit).
    pub pow: u8,
    /// Set on the last oneffset of a neuron (out-of-band wire in hardware).
    pub eon: bool,
}

/// The complete oneffset list of one neuron, in ascending power order.
///
/// A zero neuron has an empty list (the lane immediately signals
/// end-of-neuron and injects null terms while waiting, §V-A4).
///
/// ```
/// use pra_fixed::OneffsetList;
///
/// let n = OneffsetList::encode(0b0000_0101_1000_0000);
/// assert_eq!(n.powers(), &[7, 8, 10]);
/// assert_eq!(n.decode(), 0b0000_0101_1000_0000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OneffsetList {
    powers: [u8; 16],
    len: u8,
}

impl OneffsetList {
    /// Encodes a stored 16-bit value into its oneffset list.
    pub fn encode(v: u16) -> Self {
        let mut powers = [0u8; 16];
        let mut len = 0u8;
        let mut rest = v;
        while rest != 0 {
            let p = rest.trailing_zeros() as u8;
            powers[len as usize] = p;
            len += 1;
            rest &= rest - 1; // clear lowest set bit
        }
        Self { powers, len }
    }

    /// Number of oneffsets (the neuron's essential bit count).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the neuron is zero (no essential bits).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The powers in ascending order.
    pub fn powers(&self) -> &[u8] {
        &self.powers[..self.len as usize]
    }

    /// Reconstructs the stored value: `Σ 2^pow`.
    pub fn decode(&self) -> u16 {
        self.powers().iter().fold(0u16, |acc, &p| acc | (1 << p))
    }

    /// Iterates the oneffsets in ascending power order with `eon` set on
    /// the last one.
    pub fn iter(&self) -> impl Iterator<Item = Oneffset> + '_ {
        let n = self.len as usize;
        self.powers[..n].iter().enumerate().map(move |(k, &pow)| Oneffset { pow, eon: k + 1 == n })
    }

    /// Iterates the oneffsets in descending power order (MSB first), the
    /// literal "leading one detector" order of §V-C; provided for the
    /// encoding-order ablation.
    pub fn iter_descending(&self) -> impl Iterator<Item = Oneffset> + '_ {
        let n = self.len as usize;
        self.powers[..n]
            .iter()
            .rev()
            .enumerate()
            .map(move |(k, &pow)| Oneffset { pow, eon: k + 1 == n })
    }
}

impl From<u16> for OneffsetList {
    fn from(v: u16) -> Self {
        Self::encode(v)
    }
}

/// Streaming oneffset generator mimicking the hardware unit of §V-C: one
/// oneffset is produced per neuron per cycle by a trailing/leading-one
/// detector over the remaining bits.
///
/// ```
/// use pra_fixed::oneffset::OneffsetGenerator;
///
/// let mut g = OneffsetGenerator::new(0b101);
/// let a = g.next_oneffset().unwrap();
/// assert_eq!((a.pow, a.eon), (0, false));
/// let b = g.next_oneffset().unwrap();
/// assert_eq!((b.pow, b.eon), (2, true));
/// assert!(g.next_oneffset().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneffsetGenerator {
    remaining: u16,
}

impl OneffsetGenerator {
    /// Starts generating oneffsets for stored value `v`.
    pub fn new(v: u16) -> Self {
        Self { remaining: v }
    }

    /// Whether all oneffsets have been emitted (a zero neuron is done
    /// immediately).
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// The next oneffset, ascending order, or `None` when exhausted.
    pub fn next_oneffset(&mut self) -> Option<Oneffset> {
        if self.remaining == 0 {
            return None;
        }
        let pow = self.remaining.trailing_zeros() as u8;
        self.remaining &= self.remaining - 1;
        Some(Oneffset { pow, eon: self.remaining == 0 })
    }

    /// The power of the next oneffset without consuming it.
    pub fn peek_pow(&self) -> Option<u8> {
        if self.remaining == 0 {
            None
        } else {
            Some(self.remaining.trailing_zeros() as u8)
        }
    }
}

impl Iterator for OneffsetGenerator {
    type Item = Oneffset;

    fn next(&mut self) -> Option<Oneffset> {
        self.next_oneffset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_paper_example() {
        // §V-A1: n = 101₂ is represented as ((0010, 0), (0000, 1)) in
        // MSB-first order; ascending order is pow 0 then pow 2.
        let l = OneffsetList::encode(0b101);
        assert_eq!(l.powers(), &[0, 2]);
        let offs: Vec<_> = l.iter().collect();
        assert_eq!(offs[0], Oneffset { pow: 0, eon: false });
        assert_eq!(offs[1], Oneffset { pow: 2, eon: true });
    }

    #[test]
    fn encode_five_point_five() {
        // §V-A1: n = 5.5 = 0101.1₂ -> oneffsets (2, 0, −1); with a 1-bit
        // fraction the stored integer is 1011₂ -> powers 0, 1, 3.
        let l = OneffsetList::encode(0b1011);
        assert_eq!(l.powers(), &[0, 1, 3]);
    }

    #[test]
    fn zero_has_empty_list() {
        let l = OneffsetList::encode(0);
        assert!(l.is_empty());
        assert_eq!(l.decode(), 0);
        assert_eq!(l.iter().count(), 0);
    }

    #[test]
    fn worst_case_sixteen_oneffsets() {
        let l = OneffsetList::encode(u16::MAX);
        assert_eq!(l.len(), 16);
        assert_eq!(l.decode(), u16::MAX);
    }

    #[test]
    fn round_trip_exhaustive() {
        for v in 0..=u16::MAX {
            assert_eq!(OneffsetList::encode(v).decode(), v);
        }
    }

    #[test]
    fn powers_strictly_ascending() {
        for v in [0x8001u16, 0xABCD, 0x00FF, 0x8000] {
            let l = OneffsetList::encode(v);
            for w in l.powers().windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn eon_set_only_on_last() {
        let l = OneffsetList::encode(0b111);
        let eons: Vec<bool> = l.iter().map(|o| o.eon).collect();
        assert_eq!(eons, vec![false, false, true]);
    }

    #[test]
    fn descending_iter_reverses() {
        let l = OneffsetList::encode(0b1001_0010);
        let powers: Vec<u8> = l.iter_descending().map(|o| o.pow).collect();
        assert_eq!(powers, vec![7, 4, 1]);
        let eons: Vec<bool> = l.iter_descending().map(|o| o.eon).collect();
        assert_eq!(eons, vec![false, false, true]);
    }

    #[test]
    fn generator_matches_list() {
        for v in [0u16, 1, 0xF0F0, u16::MAX, 42] {
            let from_gen: Vec<_> = OneffsetGenerator::new(v).collect();
            let from_list: Vec<_> = OneffsetList::encode(v).iter().collect();
            assert_eq!(from_gen, from_list);
        }
    }

    #[test]
    fn generator_peek_does_not_consume() {
        let mut g = OneffsetGenerator::new(0b110);
        assert_eq!(g.peek_pow(), Some(1));
        assert_eq!(g.peek_pow(), Some(1));
        assert_eq!(g.next_oneffset().unwrap().pow, 1);
        assert_eq!(g.peek_pow(), Some(2));
    }

    #[test]
    fn list_len_equals_popcount() {
        for v in 0..1024u16 {
            assert_eq!(OneffsetList::encode(v).len(), v.count_ones() as usize);
        }
    }
}
