//! Figure 10 — relative performance of PRA-2b with per-column
//! synchronization as a function of the number of synapse set registers
//! (1, 4, 16) plus the ideal unbounded case. Paper: one SSR already
//! boosts PRA-2b from 2.59x to 3.1x on average, close to the 3.45x ideal.

use pra_bench::{build_workloads, fidelity, per_network, run_engines, times, vs, Table};
use pra_core::{PraConfig, SyncPolicy};
use pra_sim::geomean;
use pra_workloads::{profiles, Representation};

fn main() {
    let workloads = build_workloads(Representation::Fixed16);

    let configs: Vec<PraConfig> = [
        SyncPolicy::PerColumn { ssrs: 1 },
        SyncPolicy::PerColumn { ssrs: 4 },
        SyncPolicy::PerColumn { ssrs: 16 },
        SyncPolicy::PerColumnIdeal,
    ]
    .into_iter()
    .map(|sync| PraConfig {
        sync,
        ..PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity())
    })
    .collect();

    let rows = per_network(&workloads, |w| run_engines(&configs, w).speedups());

    let mut table =
        Table::new(["network", "Stripes", "1-reg", "4-regs", "16-regs", "perCol-ideal"]);
    let mut cols: Vec<Vec<f64>> = vec![vec![]; 5];
    for (w, sp) in workloads.iter().zip(&rows) {
        let paper = profiles::paper_speedups(w.network);
        for (c, v) in cols.iter_mut().zip(sp) {
            c.push(*v);
        }
        table.row([
            w.network.name().to_string(),
            times(sp[0]),
            vs(&times(sp[1]), &times(paper.pra_2b_1r)),
            times(sp[2]),
            times(sp[3]),
            times(sp[4]),
        ]);
    }
    table.row([
        "geomean".to_string(),
        vs(&times(geomean(&cols[0])), "1.85x"),
        vs(&times(geomean(&cols[1])), "3.10x"),
        times(geomean(&cols[2])),
        times(geomean(&cols[3])),
        vs(&times(geomean(&cols[4])), "3.45x"),
    ]);
    table.print_and_save(
        "Figure 10: PRA-2b speedup over DaDN, per-column synchronization, measured (paper)",
        "fig10_column_sync",
    );
}
