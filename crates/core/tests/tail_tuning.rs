//! Tail-share tuning harness (run with `--ignored --nocapture`): sweeps
//! the heavy-tail `dense_prob` of the activation generator and reports the
//! resulting headline speedups, documenting how DENSE_PROB was fitted.

use pra_core::{run_shared, Fidelity, PraConfig, SharedEncodedNetwork, SyncPolicy};
use pra_engines::{dadn, stripes};
use pra_sim::{geomean, ChipConfig};
use pra_workloads::calibrate::fit_model_with_tail;
use pra_workloads::{Network, NetworkWorkload, Representation};

#[test]
#[ignore]
fn sweep_dense_prob() {
    let chip = ChipConfig::dadn();
    let fidelity = Fidelity::Sampled { max_pallets: 32 };
    let configs = [
        PraConfig::single_stage(Representation::Fixed16),
        PraConfig::two_stage(2, Representation::Fixed16),
        PraConfig::per_column(1, Representation::Fixed16),
        PraConfig {
            sync: SyncPolicy::PerColumnIdeal,
            ..PraConfig::two_stage(2, Representation::Fixed16)
        },
    ]
    .map(|cfg| cfg.with_fidelity(fidelity));
    for (dense, heavy) in [
        (0.06, 1.0),
        (0.10, 0.4),
        (0.12, 0.35),
        (0.15, 0.3),
        (0.15, 0.2),
        (0.20, 0.25),
        (0.20, 0.15),
    ] {
        let mut strs = vec![];
        let mut p4 = vec![];
        let mut p2 = vec![];
        let mut p2_1r = vec![];
        let mut ideal = vec![];
        for net in Network::ALL {
            let model = fit_model_with_tail(net, Representation::Fixed16, dense, heavy);
            let w = NetworkWorkload::build_with_model(net, Representation::Fixed16, model, 0x51AE);
            let shared = SharedEncodedNetwork::from_workload(&configs, &w);
            let views = w.views();
            let traffic = shared.traffic_view(&chip, Default::default(), w.repr);
            let base = dadn::run_views(&chip, &views, w.repr, traffic);
            strs.push(stripes::run_views(&chip, &views, w.repr, traffic).speedup_over(&base));
            let mk =
                |k: usize| run_shared(&configs[k], &views, &shared, |_, _| {}).speedup_over(&base);
            p4.push(mk(0));
            p2.push(mk(1));
            p2_1r.push(mk(2));
            ideal.push(mk(3));
        }
        println!(
            "dense={dense:.2} heavy={heavy:.2}: STR {:.2} | PRA-4b {:.2} | PRA-2b {:.2} | PRA-2b-1R {:.2} | ideal {:.2}  (paper: 1.85 / 2.59 / 2.59 / 3.10 / 3.45)",
            geomean(&strs),
            geomean(&p4),
            geomean(&p2),
            geomean(&p2_1r),
            geomean(&ideal),
        );
    }
}
