//! Figure 12 — performance with the 8-bit quantized representation of
//! TensorFlow: Stripes, single-stage PRA (perPall), PRA-2b (perPall),
//! PRA-2b with one SSR, and the per-column ideal. Paper: PRA's benefits
//! persist under quantization, nearly 3.5x for PRA-2b-1R.

use pra_bench::{build_workloads, fidelity, per_network, run_engines, times, vs, Table};
use pra_core::{PraConfig, SyncPolicy};
use pra_sim::geomean;
use pra_workloads::Representation;

fn main() {
    let workloads = build_workloads(Representation::Quant8);

    // L = 3 covers all eight shift positions of an 8-bit neuron: the
    // quantized single-stage design.
    let configs: Vec<PraConfig> = [
        (3u8, SyncPolicy::PerPallet),
        (2, SyncPolicy::PerPallet),
        (2, SyncPolicy::PerColumn { ssrs: 1 }),
        (2, SyncPolicy::PerColumnIdeal),
    ]
    .into_iter()
    .map(|(l, sync)| PraConfig {
        sync,
        ..PraConfig::two_stage(l, Representation::Quant8).with_fidelity(fidelity())
    })
    .collect();

    let rows = per_network(&workloads, |w| run_engines(&configs, w).speedups());

    let mut table = Table::new([
        "network",
        "Stripes",
        "perPall",
        "perPall-2bit",
        "perCol-1reg-2bit",
        "perCol-ideal-2bit",
    ]);
    let mut cols: Vec<Vec<f64>> = vec![vec![]; 5];
    for (w, sp) in workloads.iter().zip(&rows) {
        for (c, v) in cols.iter_mut().zip(sp) {
            c.push(*v);
        }
        let is_vgg19 = w.network == pra_workloads::Network::Vgg19;
        table.row([
            w.network.name().to_string(),
            times(sp[0]),
            times(sp[1]),
            times(sp[2]),
            if is_vgg19 { vs(&times(sp[3]), "~3.5x") } else { times(sp[3]) },
            times(sp[4]),
        ]);
    }
    table.row([
        "geomean".to_string(),
        times(geomean(&cols[0])),
        times(geomean(&cols[1])),
        times(geomean(&cols[2])),
        times(geomean(&cols[3])),
        times(geomean(&cols[4])),
    ]);
    table.print_and_save(
        "Figure 12: speedup over the 8-bit bit-parallel baseline, quantized representation",
        "fig12_quantized",
    );
    println!(
        "The paper's \"nearly 3.5x for PRA-2b-1R\" corresponds to the top bar\n\
         (VGG19, whose quantized stream has the lowest essential-bit content\n\
         in Table I); networks with denser quantized streams (VGGM/VGGS at\n\
         34-38% non-zero bits) are bounded well below that."
    );
}
