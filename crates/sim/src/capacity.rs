//! On-chip memory capacity model (§IV-B).
//!
//! DaDianNao's design goal was "minimizing off-chip bandwidth while
//! maximizing on-chip compute utilization": synapses live in the 16 × 2 MB
//! eDRAM SBs and all inter-layer neurons in the 4 MB central NM, so
//! off-chip accesses happen only for the input image, each layer's
//! synapses once, and the final output. This module checks those
//! assumptions per layer — which real networks violate for early, large
//! layers — and quantifies the spill traffic when they do. Pragmatic
//! inherits the memory system unchanged, so the analysis applies to every
//! modelled engine equally.

use pra_tensor::{ConvLayerSpec, BRICK};

use crate::config::ChipConfig;

/// Memory footprint of one layer and how it maps onto the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Bytes of input neurons as stored in NM (ragged channel bricks are
    /// padded to whole bricks by the pallet-major layout).
    pub input_neuron_bytes: usize,
    /// Bytes of output neurons written back to NM.
    pub output_neuron_bytes: usize,
    /// Bytes of synapses for the whole layer.
    pub synapse_bytes: usize,
    /// NM bytes needed while the layer runs (input + output live
    /// simultaneously, double-buffered across layers).
    pub nm_required_bytes: usize,
    /// Whether input + output fit the central NM.
    pub fits_nm: bool,
    /// Whether the layer's synapses fit the combined SBs.
    pub fits_sb: bool,
    /// Neuron bytes that must spill off-chip (read + written back) when
    /// the NM overflows.
    pub nm_spill_bytes: usize,
    /// Times the SBs must be refilled from off-chip during the layer
    /// (1 = loaded once, the DaDN assumption).
    pub sb_refills: usize,
}

/// Computes the footprint of `spec` under `cfg` with `bits`-wide neurons
/// and 16-bit synapses.
pub fn layer_footprint(cfg: &ChipConfig, spec: &ConvLayerSpec, bits: u32) -> MemoryFootprint {
    let neuron_bytes = bits as usize / 8;
    let padded_depth = spec.input.i.div_ceil(BRICK) * BRICK;
    let input_neuron_bytes = spec.input.x * spec.input.y * padded_depth * neuron_bytes;
    let out = spec.output_dim();
    let out_padded_depth = out.i.div_ceil(BRICK) * BRICK;
    let output_neuron_bytes = out.x * out.y * out_padded_depth * neuron_bytes;
    // Synapses stay 16-bit in every configuration of the paper.
    let synapse_bytes = spec.num_filters * spec.synapses_per_filter() * 2;

    let nm_required_bytes = input_neuron_bytes + output_neuron_bytes;
    let nm_capacity = cfg.nm_bytes;
    let sb_capacity = cfg.sb_bytes_per_tile * cfg.tiles;
    let fits_nm = nm_required_bytes <= nm_capacity;
    let fits_sb = synapse_bytes <= sb_capacity;
    MemoryFootprint {
        input_neuron_bytes,
        output_neuron_bytes,
        synapse_bytes,
        nm_required_bytes,
        fits_nm,
        fits_sb,
        nm_spill_bytes: nm_required_bytes.saturating_sub(nm_capacity),
        sb_refills: synapse_bytes.div_ceil(sb_capacity).max(1),
    }
}

/// Network-level capacity summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacityReport {
    /// Layers whose neurons overflow NM.
    pub nm_overflow_layers: usize,
    /// Layers whose synapses overflow the SBs.
    pub sb_overflow_layers: usize,
    /// Total off-chip neuron spill traffic (bytes).
    pub total_spill_bytes: usize,
    /// Peak NM requirement across layers (bytes).
    pub peak_nm_bytes: usize,
    /// Peak synapse footprint across layers (bytes).
    pub peak_sb_bytes: usize,
}

/// Summarizes [`layer_footprint`] over a network's layers.
pub fn network_report<'a>(
    cfg: &ChipConfig,
    specs: impl IntoIterator<Item = &'a ConvLayerSpec>,
    bits: u32,
) -> CapacityReport {
    let mut r = CapacityReport::default();
    for spec in specs {
        let f = layer_footprint(cfg, spec, bits);
        if !f.fits_nm {
            r.nm_overflow_layers += 1;
        }
        if !f.fits_sb {
            r.sb_overflow_layers += 1;
        }
        r.total_spill_bytes += f.nm_spill_bytes;
        r.peak_nm_bytes = r.peak_nm_bytes.max(f.nm_required_bytes);
        r.peak_sb_bytes = r.peak_sb_bytes.max(f.synapse_bytes);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(nx: usize, i: usize, f: usize, n: usize) -> ConvLayerSpec {
        ConvLayerSpec::new("cap", (nx, nx, i), (f, f), n, 1, f / 2).unwrap()
    }

    #[test]
    fn small_layer_fits_everything() {
        let cfg = ChipConfig::dadn();
        let fp = layer_footprint(&cfg, &spec(13, 256, 3, 384), 16);
        assert!(fp.fits_nm);
        assert!(fp.fits_sb);
        assert_eq!(fp.nm_spill_bytes, 0);
        assert_eq!(fp.sb_refills, 1);
    }

    #[test]
    fn vgg19_early_layers_overflow_nm() {
        // conv1_2: 224x224x64 in + 224x224x64 out = 12.8 MB >> 4 MB NM.
        let cfg = ChipConfig::dadn();
        let fp = layer_footprint(&cfg, &spec(224, 64, 3, 64), 16);
        assert!(!fp.fits_nm);
        assert!(fp.nm_spill_bytes > 8 << 20);
        assert!(fp.fits_sb);
    }

    #[test]
    fn quantized_halves_neuron_footprint() {
        let cfg = ChipConfig::dadn();
        let s = spec(112, 128, 3, 128);
        let f16 = layer_footprint(&cfg, &s, 16);
        let f8 = layer_footprint(&cfg, &s, 8);
        assert_eq!(f8.input_neuron_bytes * 2, f16.input_neuron_bytes);
        assert!(f8.nm_required_bytes < f16.nm_required_bytes);
    }

    #[test]
    fn ragged_depth_pads_to_bricks() {
        let cfg = ChipConfig::dadn();
        let s = ConvLayerSpec::new("r", (10, 10, 3), (3, 3), 16, 1, 1).unwrap();
        let fp = layer_footprint(&cfg, &s, 16);
        // 3 channels stored as one 16-deep brick.
        assert_eq!(fp.input_neuron_bytes, 10 * 10 * 16 * 2);
    }

    #[test]
    fn fully_connected_synapses_overflow_sb() {
        // A VGG-style FC layer: 25088 inputs x 4096 outputs of 16-bit
        // synapses = ~205 MB, far beyond the 32 MB of SBs.
        let cfg = ChipConfig::dadn();
        let fc = ConvLayerSpec::new("fc6", (1, 1, 25088), (1, 1), 4096, 1, 0).unwrap();
        let fp = layer_footprint(&cfg, &fc, 16);
        assert!(!fp.fits_sb);
        assert!(fp.sb_refills >= 6);
    }

    #[test]
    fn network_report_aggregates() {
        let cfg = ChipConfig::dadn();
        let specs = vec![spec(224, 64, 3, 64), spec(13, 256, 3, 384)];
        let r = network_report(&cfg, &specs, 16);
        assert_eq!(r.nm_overflow_layers, 1);
        assert_eq!(r.sb_overflow_layers, 0);
        assert!(r.peak_nm_bytes > 12 << 20);
        assert!(r.total_spill_bytes > 0);
    }
}
