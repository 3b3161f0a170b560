//! Ablation A2 — Neuron Memory layout. §V-A4 relies on pallets landing in
//! at most two NM rows ("with unit stride the 256 neurons would be
//! typically all stored in the same NM row"); that requires the
//! brick-interleaved (pallet-major) layout. This bench measures the
//! dispatcher stall cycles PRA-2b would suffer with a naive row-major
//! layout instead.

use pra_bench::{build_workloads, fidelity, per_network, run_engines, times, Table};
use pra_core::PraConfig;
use pra_sim::{geomean, NmLayout};
use pra_workloads::Representation;

fn main() {
    let workloads = build_workloads(Representation::Fixed16);

    let pallet_major = PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity());
    let row_major = PraConfig { nm_layout: NmLayout::RowMajor, ..pallet_major };
    let rows = per_network(&workloads, |w| {
        let runs = run_engines(&[pallet_major, row_major], w);
        let (r_pm, r_rm) = (&runs.pra[0], &runs.pra[1]);
        (
            r_pm.speedup_over(&runs.dadn),
            r_rm.speedup_over(&runs.dadn),
            r_pm.total_counters().stall_cycles,
            r_rm.total_counters().stall_cycles,
        )
    });

    let mut table = Table::new(["network", "pallet-major", "row-major", "stalls PM", "stalls RM"]);
    let (mut pm, mut rm) = (vec![], vec![]);
    for (w, (s_pm, s_rm, st_pm, st_rm)) in workloads.iter().zip(&rows) {
        pm.push(*s_pm);
        rm.push(*s_rm);
        table.row([
            w.network.name().to_string(),
            times(*s_pm),
            times(*s_rm),
            st_pm.to_string(),
            st_rm.to_string(),
        ]);
    }
    table.row([
        "geomean".to_string(),
        times(geomean(&pm)),
        times(geomean(&rm)),
        String::new(),
        String::new(),
    ]);
    table.print("Ablation: NM layout — PRA-2b speedup and NM stall cycles per layout");
}
