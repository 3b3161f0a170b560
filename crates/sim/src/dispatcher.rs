//! Dispatcher model (§V-C, §V-A4).
//!
//! The dispatcher reads a pallet's 16 neuron bricks from NM, converts them
//! on-the-fly to oneffsets (the oneffset generators pipeline behind the
//! fetch and their latency is hidden), and broadcasts one oneffset per
//! neuron per cycle to all tiles. Its performance-visible behaviour is the
//! fetch latency: `NMC` cycles — one per NM row touched — which overlaps
//! with processing of the current pallet, so a pallet step costs
//! `max(NMC, PC)` cycles.

use pra_tensor::brick::{BrickStep, PalletRef};
use pra_tensor::ConvLayerSpec;

use crate::neuron_memory::NeuronMemory;

/// The dispatcher: wraps the NM model and implements the overlap rule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dispatcher {
    nm: NeuronMemory,
}

impl Dispatcher {
    /// Creates a dispatcher over the given NM model.
    pub fn new(nm: NeuronMemory) -> Self {
        Self { nm }
    }

    /// The underlying NM model.
    pub fn neuron_memory(&self) -> &NeuronMemory {
        &self.nm
    }

    /// NM fetch cycles (`NMC`) for one pallet's bricks at one brick step:
    /// one cycle per distinct row activated, zero when every brick is
    /// padding.
    pub fn fetch_cycles(&self, spec: &ConvLayerSpec, pallet: PalletRef, step: BrickStep) -> u64 {
        self.nm.pallet_fetch_rows(spec, pallet, step) as u64
    }

    /// The §V-A4 overlap rule: processing the current step takes `pc`
    /// cycles while the next fetch takes `nmc`; the observed cost is the
    /// maximum, and any excess of `nmc` over `pc` is an NM stall.
    pub fn overlapped_cost(pc: u64, nmc: u64) -> (u64, u64) {
        let cost = pc.max(nmc);
        (cost, cost - pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron_memory::NmLayout;
    use pra_tensor::ConvLayerSpec;

    #[test]
    fn overlap_hides_fast_fetches() {
        assert_eq!(Dispatcher::overlapped_cost(10, 2), (10, 0));
        assert_eq!(Dispatcher::overlapped_cost(2, 10), (10, 8));
        assert_eq!(Dispatcher::overlapped_cost(3, 3), (3, 0));
    }

    #[test]
    fn fetch_cycles_track_rows() {
        let spec = ConvLayerSpec::new("t", (64, 64, 64), (3, 3), 16, 1, 0).unwrap();
        let d = Dispatcher::new(NeuronMemory::new(NmLayout::PalletMajor, 256));
        let pallet = PalletRef { wx0: 0, wy: 2, lanes: 16 };
        let step = BrickStep { fx: 0, fy: 0, i0: 0 };
        let c = d.fetch_cycles(&spec, pallet, step);
        assert!((1..=2).contains(&c), "cycles {c}");
    }
}
