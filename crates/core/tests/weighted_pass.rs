//! Pallet sync, Stripes, term counts and NM/SB traffic as one weighted
//! pass over distinct pallet-steps, against the walks they replaced.
//!
//! Every engine charges a pallet-step by what it reads — its input row,
//! pallet column, `fx` and channel brick — so the simulators cost each
//! distinct step once and weight it by how many selected pallet-steps
//! read the same bricks (`pra_tensor::brick::row_visits`). The oracles
//! walk every pallet-step:
//!
//! * PRA cycles, NM stalls and terms: [`simulate_layer_raw`], which
//!   schedules every brick per fetch and syncs each pallet with
//!   `tile::pallet_sync` (per-column sync: `tile::column_sync`, whose
//!   walk leaves terms to the weighted sum);
//! * Stripes: the per-pallet-step fold of `max(p, NMC)`, kept here;
//! * traffic: the per-pallet-step count of brick reads and NM rows,
//!   kept here.
//!
//! Random geometries cover strides 1–4, padding 0–2, ragged last
//! pallets, all-padding rows, both NM layouts, rows of 16 to 512
//! neurons (both sides of the NM closed form's `stride · 16 ≤ row`
//! precondition), and `Full` and `Sampled` fidelity with 1 to more than
//! the layer's pallets. One layer splits into several chunks at 2+
//! threads; CI runs this file at `RAYON_NUM_THREADS` 1, 2 and 8.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pra_core::{simulate_layer, simulate_layer_raw, Fidelity, PraConfig, SyncPolicy};
use pra_engines::{shared_traffic, stripes};
use pra_fixed::PrecisionWindow;
use pra_sim::{AccessCounters, ChipConfig, Dispatcher, LayerResult, NeuronMemory, NmLayout};
use pra_tensor::brick::{brick_for, brick_steps, in_bounds_lanes, pallets, row_steps, row_visits};
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::{LayerView, LayerWorkload, Network, Representation};

/// The Stripes fold the weighted pass replaced: `max(p, NMC)` for every
/// pallet-step, as `(cycles, NM stalls)` of one filter group.
fn stripes_walk(spec: &ConvLayerSpec, dispatcher: &Dispatcher, p: u64) -> (u64, u64) {
    let steps = brick_steps(spec);
    let (mut cycles, mut stalls) = (0u64, 0u64);
    for pallet in pallets(spec) {
        for &step in &steps {
            let (cost, stall) =
                Dispatcher::overlapped_cost(p, dispatcher.fetch_cycles(spec, pallet, step));
            cycles += cost;
            stalls += stall;
        }
    }
    (cycles, stalls)
}

/// The traffic walk the weighted count replaced: brick reads and NM
/// rows summed over every pallet-step.
fn traffic_walk(
    chip: &ChipConfig,
    spec: &ConvLayerSpec,
    dispatcher: &Dispatcher,
) -> AccessCounters {
    let fg = chip.filter_groups(spec.num_filters) as u64;
    let steps = brick_steps(spec);
    let mut c = AccessCounters::new();
    for pallet in pallets(spec) {
        for &step in &steps {
            c.nm_row_activations += dispatcher.fetch_cycles(spec, pallet, step);
            c.nm_brick_reads += in_bounds_lanes(spec, pallet, step).len() as u64;
        }
    }
    c.sb_set_reads = spec.pallets() as u64 * steps.len() as u64 * fg;
    c.nm_brick_writes = (spec.windows() * spec.num_filters.div_ceil(chip.brick)) as u64;
    c
}

/// A chip whose NM rows hold `row_neurons` 16-bit neurons.
fn chip_with_rows(row_neurons: usize) -> ChipConfig {
    ChipConfig { nm_row_bytes: row_neurons * 2, ..ChipConfig::dadn() }
}

/// A Fixed16 layer of `spec` with seeded values: a third zeros, the
/// rest spread over the trimmed window and past it.
fn seeded_layer(spec: ConvLayerSpec, seed: u64) -> LayerWorkload {
    let neurons = Tensor3::from_fn(spec.input, |x, y, i| {
        let h = (seed ^ (x as u64) << 40 ^ (y as u64) << 20 ^ i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
        if h.is_multiple_of(3) {
            0
        } else {
            (h >> 8) as u16 & 0x3FFF
        }
    });
    LayerWorkload { spec, window: PrecisionWindow::with_width(9, 2), stripes_precision: 9, neurons }
}

/// The traffic counters of a result, by name.
fn traffic_of(c: &AccessCounters) -> [(&'static str, u64); 4] {
    [
        ("nm_brick_reads", c.nm_brick_reads),
        ("nm_row_activations", c.nm_row_activations),
        ("nm_brick_writes", c.nm_brick_writes),
        ("sb_set_reads", c.sb_set_reads),
    ]
}

/// The weighted pass equals the walks on `layer` under `cfg`: PRA
/// against `simulate_layer_raw` in every result field, and traffic
/// against the walk in every counter.
fn assert_pass_equals_walks(cfg: &PraConfig, layer: &LayerWorkload, what: &str) {
    let spec = &layer.spec;
    let got = simulate_layer(cfg, layer);
    assert_eq!(got, simulate_layer_raw(cfg, layer), "PRA {what}");
    let nm = NeuronMemory::new(cfg.nm_layout, cfg.chip.nm_row_neurons(16));
    let walk = traffic_walk(&cfg.chip, spec, &Dispatcher::new(nm));
    assert_eq!(traffic_of(&got.counters), traffic_of(&walk), "PRA traffic {what}");
    assert_eq!(shared_traffic(&cfg.chip, spec, &Dispatcher::new(nm)), walk, "traffic {what}");
}

/// Stripes on `view` equals its fold in every result field.
fn assert_stripes_equals_walk(chip: &ChipConfig, view: LayerView<'_>, what: &str) {
    let spec = view.spec;
    let repr = Representation::Fixed16;
    let p = u64::from(view.stripes_precision);
    let nm = NeuronMemory::new(NmLayout::PalletMajor, chip.nm_row_neurons(repr.bits()));
    let dispatcher = Dispatcher::new(nm);
    let (cycles, stalls) = stripes_walk(spec, &dispatcher, p);
    let fg = chip.filter_groups(spec.num_filters) as u64;
    let mut counters = traffic_walk(chip, spec, &dispatcher);
    counters.terms = spec.multiplications() * p;
    counters.stall_cycles = stalls * fg;
    let want = LayerResult {
        layer: spec.name().to_string(),
        cycles: cycles * fg,
        multiplications: spec.multiplications(),
        counters,
    };
    assert_eq!(stripes::simulate_layer_view(chip, view, repr, None), want, "Stripes {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random small geometries under pallet sync and one-SSR per-column
    /// sync (whose terms now come from the weighted sum), both NM
    /// layouts, five row widths, and full or sampled fidelity.
    #[test]
    fn weighted_pass_equals_pallet_walks(
        (nx, ny, depth) in (1usize..=36, 1usize..=5, 1usize..=40),
        (f, stride, pad) in (1usize..=5, 1usize..=4, 0usize..=2),
        filters in prop_oneof![Just(16usize), Just(300usize)],
        row_neurons in prop_oneof![
            Just(16usize),
            Just(32usize),
            Just(48usize),
            Just(256usize),
            Just(512usize),
        ],
        row_major in any::<bool>(),
        sampled in prop_oneof![2 => Just(0usize), 3 => 1usize..=40],
        seed in any::<u64>(),
    ) {
        let Ok(spec) = ConvLayerSpec::new("p", (nx, ny, depth), (f, f), filters, stride, pad) else {
            return;
        };
        let layer = seeded_layer(spec, seed);
        let chip = chip_with_rows(row_neurons);
        assert_stripes_equals_walk(&chip, layer.view(), &format!("{:?}", layer.spec));
        let fidelity = match sampled {
            0 => Fidelity::Full,
            n => Fidelity::Sampled { max_pallets: n },
        };
        let nm_layout = if row_major { NmLayout::RowMajor } else { NmLayout::PalletMajor };
        for sync in [SyncPolicy::PerPallet, SyncPolicy::PerColumn { ssrs: 1 }] {
            let cfg = PraConfig {
                sync,
                nm_layout,
                chip,
                ..PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity)
            };
            assert_pass_equals_walks(&cfg, &layer, &format!("{sync} {:?} {fidelity:?}", layer.spec));
        }
    }
}

/// Sampled fidelity from one pallet up to past the layer's pallet count,
/// on a layer with ragged rows and padding.
#[test]
fn every_sample_size_equals_the_walk() {
    let spec = ConvLayerSpec::new("s", (20, 6, 24), (3, 3), 32, 1, 1).unwrap();
    let layer = seeded_layer(spec, 7);
    let n = layer.spec.pallets();
    for k in 1..=n + 2 {
        let cfg = PraConfig::two_stage(2, Representation::Fixed16)
            .with_fidelity(Fidelity::Sampled { max_pallets: k });
        assert_pass_equals_walks(&cfg, &layer, &format!("{k} of {n} pallets"));
    }
}

/// A layer that splits into several chunks at any thread count of 2 or
/// more — a worker gets at least 4,096 brick steps — so both
/// order-preserving reductions run for real: 4 pallet columns × 50
/// input rows = 200 visits of 3 × 16 distinct steps each (9,600) for
/// the pass, and 192 pallets of 144 steps (27,648), in 24 batches of
/// eight, for the per-column walk.
#[test]
fn row_chunked_pass_equals_the_serial_walk() {
    let spec = ConvLayerSpec::new("wide", (64, 48, 256), (3, 3), 64, 1, 1).unwrap();
    assert_eq!(row_visits(&spec, &pallets(&spec)).len() * 3 * 16, 9_600);
    assert_eq!(spec.pallets() * spec.brick_steps(), 27_648);
    let layer = seeded_layer(spec, 11);
    for sync in [SyncPolicy::PerPallet, SyncPolicy::PerColumn { ssrs: 2 }] {
        let cfg = PraConfig { sync, ..PraConfig::two_stage(2, Representation::Fixed16) };
        assert_pass_equals_walks(&cfg, &layer, &format!("200 visits, {sync}"));
    }
}

/// Every distinct conv geometry the sweep simulates.
fn network_geometries() -> Vec<ConvLayerSpec> {
    let mut seen = std::collections::HashSet::new();
    Network::ALL
        .iter()
        .flat_map(|n| n.conv_layers())
        .filter(|s| {
            let (i, f) = (s.input, s.filter);
            seen.insert((i.x, i.y, i.i, f.x, f.y, s.stride, s.padding, s.num_filters))
        })
        .collect()
}

/// On every distinct conv geometry of the six networks, the visits
/// stand for exactly the walk's pallet-steps — each step keyed by what
/// it reads, which is all any engine charges it for — and Stripes and
/// the traffic count equal their walks at the fp16 and quant8 row
/// widths.
#[test]
fn weighted_pass_exact_on_every_network_geometry() {
    type Reads = BTreeMap<(usize, usize, isize, usize, usize), u64>;
    let mut checked = 0usize;
    for spec in network_geometries() {
        let all = pallets(&spec);
        let mut walk = Reads::new();
        for &p in &all {
            for step in brick_steps(&spec) {
                let y = brick_for(&spec, p, 0, step).y;
                *walk.entry((p.wx0, p.lanes, y, step.fx, step.i0)).or_default() += 1;
                checked += 1;
            }
        }
        let mut pass = Reads::new();
        for v in row_visits(&spec, &all) {
            for step in row_steps(&spec, v.fy) {
                let y = brick_for(&spec, v.pallet, 0, step).y;
                pass.insert((v.pallet.wx0, v.pallet.lanes, y, step.fx, step.i0), v.count);
            }
        }
        assert_eq!(pass, walk, "{spec:?}");
        // Stripes is value-blind: a neuron-free view is all it reads.
        let view = LayerView {
            spec: &spec,
            window: PrecisionWindow::with_width(8, 0),
            stripes_precision: 8,
        };
        for row_neurons in [256, 512] {
            assert_stripes_equals_walk(&chip_with_rows(row_neurons), view, "network geometry");
        }
    }
    assert!(checked > 100_000, "{checked} pallet-steps");
}
