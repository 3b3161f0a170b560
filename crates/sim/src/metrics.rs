//! Run results and derived metrics.

use crate::counters::AccessCounters;

/// Result of simulating one convolutional layer on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// The layer's name.
    pub layer: String,
    /// Execution cycles.
    pub cycles: u64,
    /// Multiplications the layer performs (engine-independent).
    pub multiplications: u64,
    /// Access/activity counters for the energy model.
    pub counters: AccessCounters,
}

/// Result of simulating a network's convolutional layers on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Engine label, e.g. `"DaDN"`, `"Stripes"`, `"PRA-2b"`.
    pub engine: String,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerResult>,
}

impl RunResult {
    /// Creates a result with no layers.
    pub fn new(engine: impl Into<String>) -> Self {
        Self { engine: engine.into(), layers: Vec::new() }
    }

    /// Total cycles over all layers.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total effectual terms processed.
    pub fn total_terms(&self) -> u64 {
        self.layers.iter().map(|l| l.counters.terms).sum()
    }

    /// Aggregated counters over all layers.
    pub fn total_counters(&self) -> AccessCounters {
        let mut c = AccessCounters::new();
        for l in &self.layers {
            c.merge(&l.counters);
        }
        c
    }

    /// Speedup of this run relative to `baseline` over the whole
    /// convolutional stack (the paper's performance metric).
    ///
    /// # Panics
    ///
    /// Panics if this run has zero total cycles.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        let own = self.total_cycles();
        assert!(own > 0, "speedup undefined for a zero-cycle run");
        baseline.total_cycles() as f64 / own as f64
    }

    /// Per-layer speedups relative to `baseline` (layers matched by
    /// position).
    pub fn layer_speedups(&self, baseline: &RunResult) -> Vec<f64> {
        self.layers
            .iter()
            .zip(&baseline.layers)
            .map(|(a, b)| b.cycles as f64 / a.cycles as f64)
            .collect()
    }
}

/// Geometric mean, the paper's cross-network summary statistic ("geo" bars
/// in Figs. 9–12).
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(engine: &str, cycles: &[u64]) -> RunResult {
        RunResult {
            engine: engine.into(),
            layers: cycles
                .iter()
                .enumerate()
                .map(|(i, &c)| LayerResult {
                    layer: format!("l{i}"),
                    cycles: c,
                    multiplications: 100,
                    counters: AccessCounters { terms: c * 2, ..Default::default() },
                })
                .collect(),
        }
    }

    #[test]
    fn totals_sum_layers() {
        let r = run("e", &[10, 20, 30]);
        assert_eq!(r.total_cycles(), 60);
        assert_eq!(r.total_terms(), 120);
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let base = run("base", &[100, 100]);
        let fast = run("fast", &[40, 60]);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn layer_speedups_align_by_position() {
        let base = run("base", &[100, 90]);
        let fast = run("fast", &[50, 30]);
        assert_eq!(fast.layer_speedups(&base), vec![2.0, 3.0]);
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.5, 2.5, 2.5]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_value() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn total_counters_merge() {
        let r = run("e", &[5, 7]);
        assert_eq!(r.total_counters().terms, 24);
    }
}
