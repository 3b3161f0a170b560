//! Reproduction harness shared by the per-table/per-figure bench targets.
//!
//! Every quantitative table and figure of the paper's evaluation has a
//! bench target (`cargo bench -p pra-bench --bench <id>`) that regenerates
//! it and prints paper-vs-measured rows; see DESIGN.md §4 for the index.
//! This library provides the shared machinery: deterministic seeds,
//! simulation fidelity, parallel workload construction, one workload's
//! engine runs, and aligned table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod sweep;

use std::fmt::Write as _;

use pra_core::{run_shared, Fidelity, PraConfig, SharedEncodedNetwork};
use pra_engines::{dadn, stripes};
use pra_sim::{ChipConfig, RunResult};
use pra_workloads::{Network, NetworkWorkload, Representation};
use rayon::prelude::*;

/// Deterministic seed shared by all reproduction benches.
pub const SEED: u64 = 0x90AD_57EE_1234_5678;

/// Simulation fidelity used by the cycle-level benches: **full** by
/// default — every pallet of every layer is simulated, so the bench
/// tables are the paper-comparable numbers with no sampling error. The
/// escape hatch for constrained machines is `PRA_BENCH_PALLETS=<n>`
/// (deterministically spaced sampling, converges within a couple of
/// percent by 64 pallets/layer; `0` samples one pallet, as `pra sweep
/// --sampled 0` does); `PRA_BENCH_PALLETS=full` spells the default
/// explicitly. Any other value keeps the default and prints one stderr
/// line naming the variable.
pub fn fidelity() -> Fidelity {
    let var = std::env::var("PRA_BENCH_PALLETS").ok();
    parse_fidelity(var.as_deref()).unwrap_or_else(|| {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "PRA_BENCH_PALLETS={:?} is neither `full` nor a pallet count; simulating at full \
                 fidelity",
                var.unwrap_or_default()
            );
        });
        Fidelity::Full
    })
}

/// Parses a `PRA_BENCH_PALLETS` value: unset or `full` is full fidelity,
/// a count `n` samples `max(n, 1)` pallets per layer, and anything else
/// is `None`.
fn parse_fidelity(value: Option<&str>) -> Option<Fidelity> {
    match value {
        None | Some("full") => Some(Fidelity::Full),
        Some(n) => n.parse().ok().map(|n: usize| Fidelity::Sampled { max_pallets: n.max(1) }),
    }
}

/// Builds the workloads for all six networks on the rayon pool (each
/// build additionally fans its row-generation jobs out, so small
/// networks do not serialize behind VGG-19).
pub fn build_workloads(repr: Representation) -> Vec<NetworkWorkload> {
    Network::ALL.par_iter().map(|&net| NetworkWorkload::build(net, repr, SEED)).collect()
}

/// Runs `f` once per network workload, in parallel, preserving order.
pub fn per_network<R: Send>(
    workloads: &[NetworkWorkload],
    f: impl Fn(&NetworkWorkload) -> R + Sync,
) -> Vec<R> {
    workloads.par_iter().map(&f).collect()
}

/// One workload's runs on the baselines and on a set of Pragmatic design
/// points.
#[derive(Debug)]
pub struct EngineRuns {
    /// The bit-parallel baseline every speedup is taken over.
    pub dadn: RunResult,
    /// Stripes.
    pub stripes: RunResult,
    /// One run per Pragmatic design point, in `configs` order.
    pub pra: Vec<RunResult>,
}

impl EngineRuns {
    /// Speedups over DaDN: Stripes first, then each design point in
    /// order.
    pub fn speedups(&self) -> Vec<f64> {
        std::iter::once(&self.stripes)
            .chain(&self.pra)
            .map(|r| r.speedup_over(&self.dadn))
            .collect()
    }
}

/// Runs `workload` on DaDN, Stripes and every design point of
/// `configs` the way a [`sweep`] job does: one [`SharedEncodedNetwork`]
/// for the whole set, [`run_shared`] per design point, and the baselines
/// over the workload's views with the shared traffic counters.
///
/// # Panics
///
/// Panics if `configs` is empty or a design point's representation
/// differs from the workload's.
pub fn run_engines(configs: &[PraConfig], workload: &NetworkWorkload) -> EngineRuns {
    let chip = ChipConfig::dadn();
    let repr = workload.repr;
    let shared = SharedEncodedNetwork::from_workload(configs, workload);
    let views = workload.views();
    let pra = configs.iter().map(|cfg| run_shared(cfg, &views, &shared, |_, _| {})).collect();
    let traffic = shared.traffic_view(&chip, Default::default(), repr);
    EngineRuns {
        dadn: dadn::run_views(&chip, &views, repr, traffic),
        stripes: stripes::run_views(&chip, &views, repr, traffic),
        pra,
    }
}

/// An aligned text table for paper-vs-measured reporting.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        fn line(out: &mut String, cells: &[String], widths: &[usize]) {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = *w);
            }
            out.push('\n');
        }
        let mut out = String::new();
        line(&mut out, &self.header, &widths);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row, &widths);
        }
        out
    }

    /// Prints the table to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===\n{}", self.render());
    }

    /// Prints the table and also drops it as `target/pra-reports/<id>.csv`.
    pub fn print_and_save(&self, title: &str, id: &str) {
        self.print(title);
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        let _ = report::write_csv(id, &header, &self.rows);
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `"12.7%"`.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats a speedup/ratio with two decimals and an `x`, e.g. `"2.59x"`.
pub fn times(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a paper-vs-measured pair as `measured (paper)`.
pub fn vs(measured: &str, paper: &str) -> String {
    format!("{measured} ({paper})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["net", "value"]);
        t.row(["Alexnet", "1.0"]).row(["VGG19", "12.75"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("net"));
        assert!(lines[3].ends_with("12.75"));
        // Columns align right.
        assert_eq!(lines[2].find("1.0").map(|i| i + 3), lines[3].find("12.75").map(|i| i + 5));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.127), "12.7%");
        assert_eq!(times(2.591), "2.59x");
        assert_eq!(vs("2.43x", "2.59x"), "2.43x (2.59x)");
    }

    #[test]
    fn fidelity_parse_clamps_zero_and_rejects_typos() {
        let sampled = |n| Some(Fidelity::Sampled { max_pallets: n });
        assert_eq!(parse_fidelity(None), Some(Fidelity::Full));
        assert_eq!(parse_fidelity(Some("full")), Some(Fidelity::Full));
        assert_eq!(parse_fidelity(Some("64")), sampled(64));
        assert_eq!(parse_fidelity(Some("1")), sampled(1));
        assert_eq!(
            parse_fidelity(Some("0")),
            sampled(1),
            "0 samples one pallet, as --sampled does"
        );
        for typo in ["ful", "Full", "", " 8", "-1", "8x"] {
            assert_eq!(parse_fidelity(Some(typo)), None, "{typo:?} is not a setting");
        }
    }

    #[test]
    fn fidelity_default_is_full() {
        match fidelity() {
            Fidelity::Full => {}
            // The escape hatch may be active in the environment; it must
            // at least parse to a sane pallet budget.
            Fidelity::Sampled { max_pallets } => assert!(max_pallets >= 1),
        }
    }
}
