//! Cycle-for-cycle equivalence of the layer-scoped scheduling pipeline.
//!
//! The memoized simulator ([`pra_core::simulate_layer`]) must be
//! indistinguishable from the retained pre-memoization oracle
//! ([`pra_core::simulate_layer_raw`]) — not just in total cycles but in
//! every counter — across the design space: both encodings, trimming on
//! and off, every first-stage width, every synchronization policy, both
//! representations, ragged geometry and sampled fidelity. One case is
//! wide enough (64 pallets) that the memoized path splits its pallets
//! into several parallel chunks at 2+ threads, which pins the
//! pallet-parallel reduction against the serial oracle.
//!
//! The same obligation holds one level up for the cross-config shared
//! artifacts: every layer of [`pra_core::run_shared`] against one
//! [`SharedEncodedNetwork`] must equal [`pra_core::simulate_layer`] on
//! that layer — the unshared path the oracle grid above pins — across
//! the grid of encodings, trim settings, sync policies and
//! representations the sweep mixes into one job.

use pra_core::{
    run_shared, simulate_layer, simulate_layer_raw, Encoding, Fidelity, PraConfig,
    SharedEncodedNetwork, SyncPolicy,
};
use pra_fixed::PrecisionWindow;
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::{ActivationModel, LayerWorkload, Network, NetworkWorkload, Representation};

/// A layer with a ragged pallet row (out_x = 20) and mixed values.
fn toy_layer() -> LayerWorkload {
    let spec = ConvLayerSpec::new("toy", (20, 6, 32), (3, 3), 64, 1, 1).unwrap();
    LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| {
            ((x * 131 + y * 241 + i * 37) % 4093) as u16
        }),
        spec,
        window: PrecisionWindow::with_width(9, 2),
        stripes_precision: 9,
    }
}

/// Ragged channel depth (24 = 1.5 bricks) and stride 2.
fn ragged_layer() -> LayerWorkload {
    let spec = ConvLayerSpec::new("ragged", (22, 8, 24), (3, 3), 32, 2, 1).unwrap();
    LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 7 + y * 911 + i * 5) % 600) as u16),
        spec,
        window: PrecisionWindow::with_width(11, 1),
        stripes_precision: 11,
    }
}

fn assert_identical(cfg: &PraConfig, layer: &LayerWorkload, what: &str) {
    let memoized = simulate_layer(cfg, layer);
    let raw = simulate_layer_raw(cfg, layer);
    assert_eq!(memoized, raw, "memoized != raw for {what}");
}

#[test]
fn memoized_equals_raw_across_l_and_trim() {
    let layer = toy_layer();
    for l in 0..=4 {
        for trim in [true, false] {
            let cfg = PraConfig::two_stage(l, Representation::Fixed16).with_trim(trim);
            assert_identical(&cfg, &layer, &format!("L={l} trim={trim}"));
        }
    }
}

#[test]
fn memoized_equals_raw_for_csd_encoding() {
    let layer = toy_layer();
    let cfg =
        PraConfig { encoding: Encoding::Csd, ..PraConfig::two_stage(2, Representation::Fixed16) };
    assert_identical(&cfg, &layer, "csd");
}

#[test]
fn memoized_equals_raw_across_sync_policies() {
    let layer = toy_layer();
    for sync in [
        SyncPolicy::PerPallet,
        SyncPolicy::PerColumn { ssrs: 1 },
        SyncPolicy::PerColumn { ssrs: 4 },
        SyncPolicy::PerColumnIdeal,
    ] {
        let cfg = PraConfig { sync, ..PraConfig::two_stage(2, Representation::Fixed16) };
        assert_identical(&cfg, &layer, &format!("{sync}"));
    }
}

/// AlexNet conv1's shape: stride 4 and 55 windows per row, so each row
/// has three full pallets and a 7-lane one, and each pallet column 55
/// window rows, which per-column sync walks as six batches of eight and
/// one of seven.
fn strided_layer() -> LayerWorkload {
    let spec = ConvLayerSpec::new("strided", (227, 227, 3), (11, 11), 16, 4, 0).unwrap();
    LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 53 + y * 97 + i * 11) % 1500) as u16),
        spec,
        window: PrecisionWindow::with_width(11, 0),
        stripes_precision: 11,
    }
}

#[test]
fn memoized_equals_raw_on_ragged_geometry_and_sampling() {
    // The strided layer's 40-pallet sample spreads over every pallet
    // column, full and ragged, at scattered window rows.
    for (layer, sample) in [(ragged_layer(), 3), (strided_layer(), 40)] {
        for sync in [SyncPolicy::PerPallet, SyncPolicy::PerColumn { ssrs: 2 }] {
            let cfg = PraConfig { sync, ..PraConfig::two_stage(2, Representation::Fixed16) };
            let name = layer.spec.name();
            assert_identical(&cfg, &layer, &format!("{name} full, {sync}"));
            let sampled = cfg.with_fidelity(Fidelity::Sampled { max_pallets: sample });
            assert_identical(&sampled, &layer, &format!("{name} sampled, {sync}"));
        }
    }
}

#[test]
fn memoized_equals_raw_for_quant8() {
    let spec = ConvLayerSpec::new("q8", (18, 5, 16), (3, 3), 32, 1, 1).unwrap();
    let layer = LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 31 + y * 17 + i * 13) % 256) as u16),
        spec,
        window: PrecisionWindow::new(7, 0),
        stripes_precision: 8,
    };
    for l in [0u8, 2, 3] {
        let cfg = PraConfig::two_stage(l, Representation::Quant8);
        assert_identical(&cfg, &layer, &format!("quant8 L={l}"));
    }
}

#[test]
fn pallet_parallel_equals_serial() {
    // 64 pallets (64×16 windows, four per row) of 144 brick steps give
    // per-column sync's walk eight batches (four pallet columns of 16
    // window rows) and two contiguous chunks of whole batches at any
    // thread count ≥ 2 (a worker gets at least 4,096 pallet-steps), so
    // its order-preserving reduction runs for real and must match the
    // serial oracle bit for bit; `weighted_pass.rs` pins the pallet-sync
    // pass's row chunks the same way. CI runs this file at
    // RAYON_NUM_THREADS = 1, 2 and 8.
    let spec = ConvLayerSpec::new("wide", (64, 16, 256), (3, 3), 64, 1, 1).unwrap();
    assert_eq!(spec.pallets(), 64);
    let layer = LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| {
            ((x * 131 + y * 241 + i * 37) % 4093) as u16
        }),
        spec,
        window: PrecisionWindow::with_width(9, 2),
        stripes_precision: 9,
    };
    for sync in [SyncPolicy::PerPallet, SyncPolicy::PerColumn { ssrs: 2 }] {
        let cfg = PraConfig { sync, ..PraConfig::two_stage(2, Representation::Fixed16) };
        assert_identical(&cfg, &layer, &format!("64 pallets, {sync}"));
    }
}

#[test]
fn msb_first_ablation_still_identical() {
    // MSB-first takes the general scheduler path inside the memo; the
    // pipeline must stay exact there too.
    let layer = toy_layer();
    let cfg = PraConfig {
        scan_order: pra_core::ScanOrder::MsbFirst,
        ..PraConfig::two_stage(1, Representation::Fixed16)
    };
    assert_identical(&cfg, &layer, "msb-first");
}

#[test]
fn throughput_boosted_pip_still_identical() {
    let layer = toy_layer();
    let cfg =
        PraConfig { oneffsets_per_cycle: 2, ..PraConfig::two_stage(2, Representation::Fixed16) };
    assert_identical(&cfg, &layer, "x2 per cycle");
}

/// A small two-layer workload with calibrated-looking values for the
/// cross-config grid (explicit model: no calibration fit in tests).
fn tiny_workload(repr: Representation) -> NetworkWorkload {
    let model = ActivationModel {
        zero_frac: 0.45,
        sigma: 0.12,
        suffix_density: 0.35,
        outlier_prob: 0.008,
        dense_prob: 0.10,
        heavy_share: 0.40,
    };
    let mut w = NetworkWorkload::build_with_model(Network::AlexNet, repr, model, 0x5AED);
    // Keep the two most irregular layers (ragged pallets, padding) and
    // shrink the rest away for test speed.
    w.layers.truncate(2);
    for layer in &mut w.layers {
        layer.spec.num_filters = layer.spec.num_filters.min(64);
    }
    w
}

fn assert_shared_equals_per_config(configs: &[PraConfig], w: &NetworkWorkload, what: &str) {
    let shared = SharedEncodedNetwork::from_workload(configs, w);
    for cfg in configs {
        let via_shared = run_shared(cfg, &w.views(), &shared, |_, _| {});
        let unshared: Vec<_> = w.layers.iter().map(|l| simulate_layer(cfg, l)).collect();
        assert_eq!(via_shared.layers, unshared, "shared != unshared for {} ({what})", cfg.label());
    }
}

#[test]
fn shared_equals_per_config_for_the_sweep_configs() {
    // The exact configuration mix every sweep job shares artifacts
    // across: PRA-2b and PRA-2b-1R share a schedule memo, PRA-4b only
    // the mask encoding.
    for repr in [Representation::Fixed16, Representation::Quant8] {
        let w = tiny_workload(repr);
        let configs = [
            PraConfig::two_stage(2, repr),
            PraConfig::single_stage(repr),
            PraConfig::per_column(1, repr),
        ];
        assert_shared_equals_per_config(&configs, &w, &format!("{repr}"));
    }
}

#[test]
fn shared_equals_per_config_across_encodings_and_trim() {
    // Mixed encoding keys in one shared network: every (encoding, trim)
    // combination must get its own masks and still match the unshared
    // path result-for-result.
    let w = tiny_workload(Representation::Fixed16);
    let mut configs = Vec::new();
    for encoding in [Encoding::Oneffset, Encoding::Csd] {
        for trim in [true, false] {
            configs.push(PraConfig {
                encoding,
                ..PraConfig::two_stage(2, Representation::Fixed16).with_trim(trim)
            });
        }
    }
    assert_shared_equals_per_config(&configs, &w, "encoding x trim grid");
}

#[test]
fn shared_equals_per_config_across_sync_and_fidelity() {
    // Sync policy and fidelity live outside the shared artifacts; a
    // memo warmed by one config must serve the others unchanged.
    let w = tiny_workload(Representation::Fixed16);
    let base = PraConfig::two_stage(2, Representation::Fixed16);
    let configs = [
        base,
        PraConfig { sync: SyncPolicy::PerColumn { ssrs: 4 }, ..base },
        PraConfig { sync: SyncPolicy::PerColumnIdeal, ..base },
        base.with_fidelity(Fidelity::Sampled { max_pallets: 5 }),
    ];
    assert_shared_equals_per_config(&configs, &w, "sync x fidelity");
}

#[test]
fn shared_equals_per_config_for_scan_order_and_throughput_ablations() {
    let w = tiny_workload(Representation::Fixed16);
    let base = PraConfig::two_stage(1, Representation::Fixed16);
    let configs = [
        base,
        PraConfig { scan_order: pra_core::ScanOrder::MsbFirst, ..base },
        PraConfig { oneffsets_per_cycle: 2, ..base },
    ];
    assert_shared_equals_per_config(&configs, &w, "scan order x per-cycle");
}
