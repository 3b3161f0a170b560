//! Criterion microbenchmarks for the hot kernels: oneffset encoding, CSD
//! recoding, the column scheduler, the PIP datapath, the reference
//! convolution, full Pragmatic (per-pallet and per-column sync) and
//! Stripes layer simulations — with and without the schedule-table
//! build — and synthetic workload generation (serial vs parallel row
//! jobs).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pra_core::column::{schedule_brick, schedule_brick_oracle, schedule_values, SchedulerConfig};
use pra_core::pip::{pip_cycle, LaneControl};
use pra_core::{LayerScheduler, PraConfig};
use pra_engines::stripes;
use pra_fixed::{csd, OneffsetList};
use pra_sim::{ChipConfig, Dispatcher, NeuronMemory};
use pra_tensor::conv::convolve;
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::generator::generate_synapses;
use pra_workloads::{ActivationModel, LayerWorkload, Network, NetworkWorkload, Representation};

fn bench_encoding(c: &mut Criterion) {
    let values: Vec<u16> =
        (0..4096u32).map(|k| (k.wrapping_mul(2654435761) >> 16) as u16).collect();
    c.bench_function("oneffset_encode_4k", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &v in &values {
                total += OneffsetList::encode(black_box(v)).len();
            }
            black_box(total)
        })
    });
    c.bench_function("csd_encode_4k", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &v in &values {
                total += csd::encode(black_box(v)).len();
            }
            black_box(total)
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let mut bricks = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..256 {
        let mut vals = [0u16; 16];
        for v in &mut vals {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = (state >> 48) as u16 & 0x1FF;
        }
        bricks.push(vals);
    }
    for l in [0u8, 2, 4] {
        c.bench_function(&format!("column_schedule_256bricks_l{l}"), |b| {
            b.iter(|| {
                let mut cycles = 0u64;
                for vals in &bricks {
                    cycles += u64::from(schedule_values(black_box(vals), l).cycles);
                }
                black_box(cycles)
            })
        });
    }
    c.bench_function("schedule_brick_masked", |b| {
        let masks: [u32; 16] = std::array::from_fn(|i| (0x5A5Au32).rotate_left(i as u32) & 0xFFFF);
        b.iter(|| black_box(schedule_brick(black_box(&masks), 2)))
    });
    // Fast path vs retained oracle on the same bricks: the dispatching
    // entry point (schedule_brick) takes the branchless path for the
    // paper configuration; schedule_brick_oracle is the general loop.
    let mask_bricks: Vec<[u32; 16]> = bricks
        .iter()
        .map(|vals| {
            let mut m = [0u32; 16];
            for (slot, &v) in m.iter_mut().zip(vals) {
                *slot = u32::from(v);
            }
            m
        })
        .collect();
    c.bench_function("schedule_brick_fast_256bricks_l2", |b| {
        b.iter(|| {
            let mut cycles = 0u64;
            for m in &mask_bricks {
                cycles += u64::from(schedule_brick(black_box(m), 2).cycles);
            }
            black_box(cycles)
        })
    });
    c.bench_function("schedule_brick_oracle_256bricks_l2", |b| {
        let cfg = SchedulerConfig::paper(2);
        b.iter(|| {
            let mut cycles = 0u64;
            for m in &mask_bricks {
                cycles += u64::from(schedule_brick_oracle(black_box(m), cfg).cycles);
            }
            black_box(cycles)
        })
    });
}

fn bench_pip(c: &mut Criterion) {
    let synapses: [i16; 16] = std::array::from_fn(|i| (i as i16 - 8) * 321);
    let lanes: [LaneControl; 16] = std::array::from_fn(|i| LaneControl::active((i % 4) as u8));
    c.bench_function("pip_cycle", |b| {
        b.iter(|| black_box(pip_cycle(black_box(&synapses), black_box(&lanes), 3)))
    });
}

fn bench_layers(c: &mut Criterion) {
    let spec = ConvLayerSpec::new("bench", (32, 32, 64), (3, 3), 32, 1, 1).unwrap();
    let neurons = Tensor3::from_fn(spec.input, |x, y, i| ((x * 131 + y * 17 + i * 7) % 300) as u16);
    let synapses = generate_synapses(&spec, 7);
    c.bench_function("reference_convolve_32x32x64", |b| {
        b.iter(|| black_box(convolve(black_box(&spec), &neurons, &synapses)))
    });

    let layer = LayerWorkload {
        spec: spec.clone(),
        window: pra_fixed::PrecisionWindow::with_width(9, 2),
        stripes_precision: 9,
        neurons: neurons.clone(),
    };
    let cfg = PraConfig::two_stage(2, Representation::Fixed16);
    c.bench_function("pra2b_simulate_layer_32x32x64", |b| {
        b.iter_batched(
            || layer.clone(),
            |l| black_box(pra_core::simulate_layer(black_box(&cfg), &l)),
            BatchSize::LargeInput,
        )
    });
    // The simulation alone, as `run_shared` calls it: a prebuilt
    // schedule table and precomputed traffic, so the weighted pass (and,
    // per column, the pallet walk) is all that is timed. The second
    // layer has AlexNet conv1's shape: stride 4, and 55 windows per row,
    // so three full pallets and a 7-lane one per row.
    let per_column = PraConfig::per_column(1, Representation::Fixed16);
    let strided = LayerWorkload {
        spec: ConvLayerSpec::new("bench_s4", (227, 227, 3), (11, 11), 96, 4, 0).unwrap(),
        window: pra_fixed::PrecisionWindow::with_width(9, 2),
        stripes_precision: 9,
        neurons: Tensor3::from_fn((227, 227, 3), |x, y, i| {
            ((x * 131 + y * 17 + i * 7) % 300) as u16
        }),
    };
    let sched = LayerScheduler::new(&cfg, layer.window, &layer.neurons);
    let strided_sched = LayerScheduler::new(&cfg, strided.window, &strided.neurons);
    let nm = NeuronMemory::new(cfg.nm_layout, cfg.chip.nm_row_neurons(16));
    for (name, sim_cfg, layer, sched) in [
        ("pra2b_simulate_layer_shared_32x32x64", cfg, &layer, &sched),
        ("pra2b1r_simulate_layer_shared_32x32x64", per_column, &layer, &sched),
        ("pra2b1r_simulate_layer_shared_227x227x3_s4", per_column, &strided, &strided_sched),
    ] {
        let traffic = pra_engines::shared_traffic(&cfg.chip, &layer.spec, &Dispatcher::new(nm));
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(pra_core::simulate_layer_shared(
                    black_box(&sim_cfg),
                    layer.view(),
                    sched,
                    Some(&traffic),
                ))
            })
        });
    }
    // Memoized pipeline vs the retained pre-memoization oracle: the gap
    // is the K×K brick-reuse factor plus the encode-once saving.
    c.bench_function("pra2b_simulate_layer_raw_32x32x64", |b| {
        b.iter_batched(
            || layer.clone(),
            |l| black_box(pra_core::simulate_layer_raw(black_box(&cfg), &l)),
            BatchSize::LargeInput,
        )
    });
    // Per-column sync with one SSR (the per-set recurrence) and Stripes
    // (a fold of max(p, NM rows) over pallet-steps) on the same layer.
    c.bench_function("pra2b1r_simulate_layer_32x32x64", |b| {
        b.iter_batched(
            || layer.clone(),
            |l| black_box(pra_core::simulate_layer(black_box(&per_column), &l)),
            BatchSize::LargeInput,
        )
    });
    let chip = ChipConfig::dadn();
    c.bench_function("stripes_simulate_layer_32x32x64", |b| {
        b.iter(|| {
            black_box(stripes::simulate_layer(black_box(&chip), &layer, Representation::Fixed16))
        })
    });
}

fn bench_generator(c: &mut Criterion) {
    // Generator throughput over a whole network build (AlexNet, ~400k
    // neurons), with an explicit model so the first-use calibration fit
    // stays out of the measurement. Serial and parallel row jobs are
    // bit-identical by construction; the gap is pure thread fan-out.
    let model = ActivationModel {
        zero_frac: 0.45,
        sigma: 0.12,
        suffix_density: 0.35,
        outlier_prob: 0.008,
        dense_prob: 0.10,
        heavy_share: 0.40,
    };
    let repr = Representation::Fixed16;
    let neurons: usize = Network::AlexNet.conv_layers().iter().map(|s| s.input.len()).sum();
    c.bench_function("workload_gen_serial_alexnet", |b| {
        b.iter(|| {
            black_box(NetworkWorkload::build_with_model_serial(Network::AlexNet, repr, model, 7))
        })
    });
    c.bench_function("workload_gen_parallel_alexnet", |b| {
        b.iter(|| black_box(NetworkWorkload::build_with_model(Network::AlexNet, repr, model, 7)))
    });
    // Throughput in the unit the ROADMAP tracks.
    for (label, parallel) in [("serial", false), ("parallel", true)] {
        let reps = 3u64;
        let start = std::time::Instant::now();
        for r in 0..reps {
            let w = if parallel {
                NetworkWorkload::build_with_model(Network::AlexNet, repr, model, 7 + r)
            } else {
                NetworkWorkload::build_with_model_serial(Network::AlexNet, repr, model, 7 + r)
            };
            black_box(w);
        }
        let per_build = start.elapsed().as_secs_f64() / reps as f64;
        println!(
            "workload_gen_{label:<8} throughput: {:>7.1} Mneurons/s ({neurons} neurons/build)",
            neurons as f64 / per_build / 1e6
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_encoding, bench_scheduler, bench_pip, bench_layers, bench_generator
}
criterion_main!(benches);
