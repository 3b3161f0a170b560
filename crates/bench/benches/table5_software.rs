//! Table V — share of PRA-2b-1R's performance due to the software-provided
//! per-layer precisions (§V-F trimming), per network. Paper average: 19%.

use pra_bench::{build_workloads, fidelity, pct, per_network, run_engines, times, vs, Table};
use pra_core::PraConfig;
use pra_workloads::{profiles, Representation};

fn main() {
    let workloads = build_workloads(Representation::Fixed16);

    let cfg = PraConfig::per_column(1, Representation::Fixed16).with_fidelity(fidelity());
    let rows = per_network(&workloads, |w| {
        let runs = run_engines(&[cfg, cfg.with_trim(false)], w);
        (runs.pra[0].speedup_over(&runs.dadn), runs.pra[1].speedup_over(&runs.dadn))
    });

    let mut table = Table::new(["network", "with precisions", "without", "benefit"]);
    let mut benefits = vec![];
    for (w, (with_trim, without)) in workloads.iter().zip(&rows) {
        let benefit = with_trim / without - 1.0;
        benefits.push(benefit);
        table.row([
            w.network.name().to_string(),
            times(*with_trim),
            times(*without),
            vs(&pct(benefit), &pct(profiles::table5_software_benefit(w.network))),
        ]);
    }
    let avg = benefits.iter().sum::<f64>() / benefits.len() as f64;
    table.row(["average".into(), String::new(), String::new(), vs(&pct(avg), "19.0%")]);
    table.print_and_save(
        "Table V: performance benefit of software guidance for PRA-2b-1R, measured (paper)",
        "table5_software",
    );
}
