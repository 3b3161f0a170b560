//! Chip configuration (§IV-B).
//!
//! The baseline DaDianNao chip comprises 16 tiles. Each tile processes 16
//! filters concurrently, calculating 16 neuron×synapse products per filter
//! (one brick), for 256 products per tile per cycle and 4K synapses chip
//! wide. Pragmatic keeps all of these parameters and adds window
//! parallelism: each tile combines every synapse brick with 16 neuron
//! bricks, one per window of a pallet.

/// Structural parameters shared by every modelled accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipConfig {
    /// Number of tiles (DaDN: 16).
    pub tiles: usize,
    /// Filters processed concurrently per tile (DaDN: 16).
    pub filters_per_tile: usize,
    /// Elements per brick / lanes per filter (DaDN: 16).
    pub brick: usize,
    /// Windows per pallet — Pragmatic's window parallelism (16).
    pub windows_per_pallet: usize,
    /// Neuron Memory capacity in bytes (DaDN: 4 MB central eDRAM).
    pub nm_bytes: usize,
    /// Neuron Memory row width in bytes (one row activation fetches this
    /// much; 512 B = 16 bricks of 16-bit neurons).
    pub nm_row_bytes: usize,
    /// Synapse Buffer capacity per tile in bytes (DaDN: 2 MB eDRAM).
    pub sb_bytes_per_tile: usize,
    /// Clock frequency in GHz (DaDN: 0.980).
    pub frequency_ghz: f64,
}

impl ChipConfig {
    /// The DaDianNao configuration the paper modifies (§IV-B).
    pub fn dadn() -> Self {
        Self {
            tiles: 16,
            filters_per_tile: 16,
            brick: 16,
            windows_per_pallet: 16,
            nm_bytes: 4 << 20,
            nm_row_bytes: 512,
            sb_bytes_per_tile: 2 << 20,
            frequency_ghz: 0.980,
        }
    }

    /// Filters processed concurrently chip-wide (`tiles × filters_per_tile`
    /// = 256 for DaDN).
    pub fn filters_per_cycle(&self) -> usize {
        self.tiles * self.filters_per_tile
    }

    /// Number of filter groups a layer of `n` filters needs,
    /// `ceil(n / 256)` for the default configuration.
    pub fn filter_groups(&self, n: usize) -> usize {
        n.div_ceil(self.filters_per_cycle())
    }

    /// Neurons per NM row for a representation of `bits` width.
    pub fn nm_row_neurons(&self, bits: u32) -> usize {
        self.nm_row_bytes * 8 / bits as usize
    }

    /// Terms (1-bit × 16-bit products) the bit-parallel baseline is
    /// equivalent to per cycle: `tiles × filters × brick × bits`.
    pub fn baseline_terms_per_cycle(&self, bits: u32) -> u64 {
        (self.tiles * self.filters_per_tile * self.brick) as u64 * bits as u64
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::dadn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dadn_defaults_match_paper() {
        let c = ChipConfig::dadn();
        assert_eq!(c.tiles, 16);
        assert_eq!(c.filters_per_cycle(), 256);
        assert_eq!(c.nm_bytes, 4 * 1024 * 1024);
        assert_eq!(c.sb_bytes_per_tile, 2 * 1024 * 1024);
        // 4K terms-equivalent per cycle per the paper's §V-A3 (x16 bits).
        assert_eq!(c.baseline_terms_per_cycle(16), 4096 * 16);
    }

    #[test]
    fn filter_groups_round_up() {
        let c = ChipConfig::dadn();
        assert_eq!(c.filter_groups(256), 1);
        assert_eq!(c.filter_groups(257), 2);
        assert_eq!(c.filter_groups(96), 1);
        assert_eq!(c.filter_groups(1024), 4);
    }

    #[test]
    fn nm_row_neurons_by_width() {
        let c = ChipConfig::dadn();
        assert_eq!(c.nm_row_neurons(16), 256);
        assert_eq!(c.nm_row_neurons(8), 512);
    }
}
