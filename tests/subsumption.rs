//! Cross-engine ordering invariants (DESIGN.md §6): Pragmatic subsumes
//! Stripes, which subsumes DaDianNao; finer synchronization and wider
//! first stages never hurt; software trimming never hurts.

use pragmatic::core::{Fidelity, PraConfig, SyncPolicy};
use pragmatic::engines::{dadn, stripes};
use pragmatic::fixed::PrecisionWindow;
use pragmatic::sim::ChipConfig;
use pragmatic::tensor::{ConvLayerSpec, Tensor3};
use pragmatic::workloads::{LayerWorkload, Network, NetworkWorkload, Representation};

/// An aligned (pallet-friendly) layer with calibrated VGG-S values.
fn layer() -> LayerWorkload {
    let model =
        pragmatic::workloads::calibrate::calibrated_model(Network::VggS, Representation::Fixed16);
    let window = PrecisionWindow::with_width(9, 2);
    let spec = ConvLayerSpec::new("sub", (34, 12, 48), (3, 3), 128, 1, 0).unwrap();
    let mut sampler = pragmatic::workloads::Sampler::seeded(0x5B5);
    let neurons = Tensor3::from_fn(spec.input, |_, _, _| {
        model.sample(window, Representation::Fixed16, &mut sampler)
    });
    LayerWorkload { spec, window, stripes_precision: 9, neurons }
}

#[test]
fn pra_beats_stripes_beats_dadn() {
    let chip = ChipConfig::dadn();
    let l = layer();
    let dadn_c = dadn::simulate_layer(&chip, &l, Representation::Fixed16).cycles;
    let str_c = stripes::simulate_layer(&chip, &l, Representation::Fixed16).cycles;
    let pra_c =
        pragmatic::core::simulate_layer(&PraConfig::single_stage(Representation::Fixed16), &l)
            .cycles;
    assert!(str_c <= dadn_c, "Stripes {str_c} vs DaDN {dadn_c}");
    assert!(pra_c <= str_c, "PRA {pra_c} vs Stripes {str_c}");
    assert!(pra_c < dadn_c / 2, "PRA should be well over 2x on calibrated values");
}

#[test]
fn wider_first_stage_monotone() {
    let l = layer();
    let mut prev = u64::MAX;
    for lbits in 0..=4u8 {
        let c = pragmatic::core::simulate_layer(
            &PraConfig::two_stage(lbits, Representation::Fixed16),
            &l,
        )
        .cycles;
        assert!(c <= prev, "L={lbits}: {c} > {prev}");
        prev = c;
    }
}

#[test]
fn sync_hierarchy_monotone() {
    let l = layer();
    let pallet =
        pragmatic::core::simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &l)
            .cycles;
    let mut prev = pallet + l.spec.pallets() as u64 * l.spec.brick_steps() as u64; // small slack for port serialization
    for ssrs in [1usize, 2, 4, 8, 16] {
        let c = pragmatic::core::simulate_layer(
            &PraConfig::per_column(ssrs, Representation::Fixed16),
            &l,
        )
        .cycles;
        assert!(c <= prev, "{ssrs} SSRs: {c} > {prev}");
        prev = c;
    }
    let ideal = pragmatic::core::simulate_layer(
        &PraConfig {
            sync: SyncPolicy::PerColumnIdeal,
            ..PraConfig::two_stage(2, Representation::Fixed16)
        },
        &l,
    )
    .cycles;
    assert!(ideal <= prev);
    assert!(ideal <= pallet);
}

#[test]
fn trimming_never_hurts() {
    let l = layer();
    for cfgs in [
        PraConfig::two_stage(2, Representation::Fixed16),
        PraConfig::per_column(1, Representation::Fixed16),
    ] {
        let on = pragmatic::core::simulate_layer(&cfgs, &l).cycles;
        let off = pragmatic::core::simulate_layer(&cfgs.with_trim(false), &l).cycles;
        assert!(on <= off, "{}: trim {on} vs no-trim {off}", cfgs.label());
    }
}

#[test]
fn network_level_orderings_hold_on_alexnet() {
    let w = NetworkWorkload::build(Network::AlexNet, Representation::Fixed16, 0x600D);
    let fid = Fidelity::Sampled { max_pallets: 24 };
    let configs = [
        PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fid),
        PraConfig::per_column(1, Representation::Fixed16).with_fidelity(fid),
    ];
    let s = pra_bench::run_engines(&configs, &w).speedups();
    let (str_s, p2, p2_1r) = (s[0], s[1], s[2]);
    assert!(str_s > 1.0);
    assert!(p2 > str_s);
    assert!(p2_1r > p2);
}
