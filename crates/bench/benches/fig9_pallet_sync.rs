//! Figure 9 — Pragmatic's performance relative to DaDianNao with 2-stage
//! shifting and per-pallet synchronization: Stripes, then PRA with 0- to
//! 4-bit first-stage shifters. Paper geo means: Stripes 1.85x, PRAsingle
//! (4-bit) 2.59x, with the 2-/3-bit variants within 0.2% of single-stage
//! and 0-bit still 20% ahead of Stripes.

use pra_bench::{build_workloads, fidelity, per_network, run_engines, times, vs, Table};
use pra_core::PraConfig;
use pra_sim::geomean;
use pra_workloads::{profiles, Representation};

fn main() {
    let workloads = build_workloads(Representation::Fixed16);

    let configs: Vec<PraConfig> = (0..=4u8)
        .map(|l| PraConfig::two_stage(l, Representation::Fixed16).with_fidelity(fidelity()))
        .collect();
    let rows = per_network(&workloads, |w| run_engines(&configs, w).speedups());

    let mut table = Table::new(["network", "Stripes", "0-bit", "1-bit", "2-bit", "3-bit", "4-bit"]);
    let mut cols: Vec<Vec<f64>> = vec![vec![]; 6];
    for (w, sp) in workloads.iter().zip(&rows) {
        let paper = profiles::paper_speedups(w.network);
        for (c, v) in cols.iter_mut().zip(sp) {
            c.push(*v);
        }
        table.row([
            w.network.name().to_string(),
            vs(&times(sp[0]), &times(paper.stripes)),
            times(sp[1]),
            times(sp[2]),
            times(sp[3]),
            times(sp[4]),
            vs(&times(sp[5]), &times(paper.pra_single)),
        ]);
    }
    table.row([
        "geomean".to_string(),
        vs(&times(geomean(&cols[0])), "1.85x"),
        times(geomean(&cols[1])),
        times(geomean(&cols[2])),
        times(geomean(&cols[3])),
        times(geomean(&cols[4])),
        vs(&times(geomean(&cols[5])), "2.59x"),
    ]);
    table.print_and_save(
        "Figure 9: speedup over DaDN, per-pallet synchronization, measured (paper)",
        "fig9_pallet_sync",
    );
}
