//! Pragmatic configuration: the design space explored in §VI.

use pra_sim::{ChipConfig, NmLayout};
use pra_workloads::Representation;

use crate::column::{ScanOrder, SchedulerConfig};

/// Neuron-lane synchronization policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncPolicy {
    /// Pallet-level synchronization (§V-A4): all 256 lanes of a tile wait
    /// for the neuron with the most essential bits before the next brick
    /// step.
    PerPallet,
    /// Per-column synchronization (§V-E): each PIP column advances
    /// independently; one SB port and `ssrs` synapse set registers
    /// arbitrate synapse reuse.
    PerColumn {
        /// Number of synapse set registers in front of the SB.
        ssrs: usize,
    },
    /// Per-column with unbounded SSRs and no SB port conflicts — the
    /// `perCol-ideal` upper bound of Figs. 10 and 12.
    PerColumnIdeal,
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::PerPallet => f.write_str("perPall"),
            SyncPolicy::PerColumn { ssrs } => write!(f, "perCol-{ssrs}R"),
            SyncPolicy::PerColumnIdeal => f.write_str("perCol-ideal"),
        }
    }
}

/// Neuron term encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Plain oneffsets — one term per essential bit (the paper's design).
    Oneffset,
    /// Canonical-signed-digit (modified Booth) recoding — the extension
    /// implied by the PIP's `neg` wires, evaluated as an ablation.
    Csd,
}

/// Simulation fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Simulate every pallet of every layer.
    Full,
    /// Simulate at most this many pallets per layer, deterministically
    /// spaced, and scale cycles and counters to the full layer. Benches
    /// use this; results converge quickly because pallet statistics are
    /// stationary within a layer.
    Sampled {
        /// Upper bound on simulated pallets per layer.
        max_pallets: usize,
    },
}

/// The configuration slice that determines a layer's encoded lane masks
/// (together with the layer's precision window): design points that agree
/// here schedule from identical masks, so a build encodes each brick once
/// per key and schedules it under every scheduler that shares the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodingKey {
    /// Whether §V-F software trimming is applied before encoding.
    pub software_trim: bool,
    /// The term encoding.
    pub encoding: Encoding,
}

/// A complete Pragmatic design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PraConfig {
    /// Shared chip structure (tiles, lanes, NM/SB geometry).
    pub chip: ChipConfig,
    /// First-stage synapse shifter control bits `L` (§V-D): lanes can
    /// absorb oneffset differences below `2^L` in one cycle. `L = 4`
    /// covers all 16 positions of a 16-bit neuron — the single-stage
    /// PRAsingle of §V-A/B.
    pub first_stage_bits: u8,
    /// Lane synchronization policy.
    pub sync: SyncPolicy,
    /// Whether software supplies per-layer precisions that trim prefix and
    /// suffix bits at the previous layer's output (§V-F). All evaluated
    /// configurations enable this; Table V measures its contribution.
    pub software_trim: bool,
    /// Neuron representation (16-bit fixed point or 8-bit quantized).
    pub repr: Representation,
    /// Term encoding (oneffsets, or CSD for the ablation).
    pub encoding: Encoding,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// Neuron Memory layout for dispatcher fetch modelling.
    pub nm_layout: NmLayout,
    /// Oneffset consumption order (LSB first per Fig. 7; MSB first per the
    /// literal §V-C leading-one detector — an ablation).
    pub scan_order: ScanOrder,
    /// Oneffsets per lane per cycle (1 in the paper's PIP; 2 models the
    /// throughput-boosted PIP extension with twice the shifters).
    pub oneffsets_per_cycle: u8,
}

impl PraConfig {
    /// The single-stage Pragmatic (PRAsingle / "4-bit") of §V-A–V-B with
    /// pallet synchronization.
    pub fn single_stage(repr: Representation) -> Self {
        Self::two_stage(4, repr)
    }

    /// A 2-stage shifting variant (§V-D) with `l` first-stage bits and
    /// pallet synchronization — "0-bit" through "4-bit" of Fig. 9.
    pub fn two_stage(l: u8, repr: Representation) -> Self {
        assert!(l <= 4, "first-stage shifter bits are 0..=4, got {l}");
        Self {
            chip: ChipConfig::dadn(),
            first_stage_bits: l,
            sync: SyncPolicy::PerPallet,
            software_trim: true,
            repr,
            encoding: Encoding::Oneffset,
            fidelity: Fidelity::Full,
            nm_layout: NmLayout::PalletMajor,
            scan_order: ScanOrder::LsbFirst,
            oneffsets_per_cycle: 1,
        }
    }

    /// PRA-2b with per-column synchronization and `ssrs` synapse set
    /// registers (the PRAxR-2b family of §VI-C).
    pub fn per_column(ssrs: usize, repr: Representation) -> Self {
        Self { sync: SyncPolicy::PerColumn { ssrs }, ..Self::two_stage(2, repr) }
    }

    /// Whether a second-stage shifter exists (it does not when the first
    /// stage already covers every bit position of the representation).
    pub fn is_single_stage(&self) -> bool {
        (1u32 << self.first_stage_bits) > u32::from(self.repr.max_pow())
    }

    /// The paper's label for this configuration, e.g. `"PRA-2b"` or
    /// `"PRA-2b-1R"`.
    pub fn label(&self) -> String {
        let mut base = format!("PRA-{}b", self.first_stage_bits);
        if self.oneffsets_per_cycle > 1 {
            base.push_str(&format!("-x{}", self.oneffsets_per_cycle));
        }
        let enc = match self.encoding {
            Encoding::Oneffset => "",
            Encoding::Csd => "-csd",
        };
        match self.sync {
            SyncPolicy::PerPallet => format!("{base}{enc}"),
            SyncPolicy::PerColumn { ssrs } => format!("{base}-{ssrs}R{enc}"),
            SyncPolicy::PerColumnIdeal => format!("{base}-idealR{enc}"),
        }
    }

    /// The mask-encoding settings implied by this configuration.
    pub fn encoding_key(&self) -> EncodingKey {
        EncodingKey { software_trim: self.software_trim, encoding: self.encoding }
    }

    /// The column-scheduler parameters implied by this configuration.
    pub fn scheduler(&self) -> SchedulerConfig {
        SchedulerConfig {
            l_bits: self.first_stage_bits,
            order: self.scan_order,
            per_cycle: self.oneffsets_per_cycle,
        }
    }

    /// Returns this configuration with sampled fidelity.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Returns this configuration with software trimming switched
    /// on or off.
    pub fn with_trim(mut self, trim: bool) -> Self {
        self.software_trim = trim;
        self
    }
}

impl Default for PraConfig {
    fn default() -> Self {
        Self::two_stage(2, Representation::Fixed16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_detection() {
        assert!(PraConfig::single_stage(Representation::Fixed16).is_single_stage());
        assert!(!PraConfig::two_stage(2, Representation::Fixed16).is_single_stage());
        // For 8-bit neurons, L=3 already covers shifts 0..7.
        assert!(PraConfig::two_stage(3, Representation::Quant8).is_single_stage());
        assert!(!PraConfig::two_stage(2, Representation::Quant8).is_single_stage());
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(PraConfig::two_stage(2, Representation::Fixed16).label(), "PRA-2b");
        assert_eq!(PraConfig::per_column(1, Representation::Fixed16).label(), "PRA-2b-1R");
        let ideal = PraConfig {
            sync: SyncPolicy::PerColumnIdeal,
            ..PraConfig::two_stage(2, Representation::Fixed16)
        };
        assert_eq!(ideal.label(), "PRA-2b-idealR");
    }

    #[test]
    #[should_panic(expected = "0..=4")]
    fn l_bits_bounded() {
        let _ = PraConfig::two_stage(5, Representation::Fixed16);
    }

    #[test]
    fn defaults_enable_trimming() {
        assert!(PraConfig::default().software_trim);
        assert!(!PraConfig::default().with_trim(false).software_trim);
    }

    #[test]
    fn sync_display() {
        assert_eq!(SyncPolicy::PerPallet.to_string(), "perPall");
        assert_eq!(SyncPolicy::PerColumn { ssrs: 4 }.to_string(), "perCol-4R");
        assert_eq!(SyncPolicy::PerColumnIdeal.to_string(), "perCol-ideal");
    }
}
