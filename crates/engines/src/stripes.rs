//! Stripes (STR) — bit-serial with per-layer precision (§I, ref 4).
//!
//! Stripes processes neurons bit-serially over `p` cycles, where `p` is
//! the layer's software-provided precision (Table II), while processing 16
//! windows (a pallet) per tile concurrently to match DaDN's throughput.
//! Each brick step of a pallet costs exactly `p` cycles regardless of the
//! neuron values — Stripes removes the Excess of Precision but not the
//! Lack of Explicitness. The ideal speedup over DaDN is `16/p`, degraded
//! by ragged pallets (the last pallet of a row runs with idle window
//! lanes) and, in principle, by NM fetch latency (§V-A4's `max(NMC, PC)`
//! rule, which this model applies per brick step).
//!
//! Being value-blind, a layer's cost is `max(p, NMC)` summed over its
//! pallet-steps, with no per-lane work. `NMC` is the dispatcher's
//! closed-form NM row count (O(1) per pallet-step under the default
//! pallet-major layout, see `pra_sim::NeuronMemory::pallet_fetch_rows`),
//! and it depends only on what a step reads — its input row, pallet
//! column, `fx` and channel brick — so each distinct pallet-step is
//! costed once and weighted by how many pallet-steps read the same
//! bricks (`pra_tensor::brick::row_visits`). A fully padded step costs
//! `p`.

use pra_sim::{AccessCounters, ChipConfig, Dispatcher, LayerResult, NeuronMemory, RunResult};
use pra_tensor::brick::{pallets, row_steps, row_visits};
use pra_workloads::{LayerView, LayerWorkload, Representation};

use crate::shared_traffic;

/// Simulates one layer on Stripes with serial precision
/// `layer.stripes_precision`.
pub fn simulate_layer(
    cfg: &ChipConfig,
    layer: &LayerWorkload,
    repr: Representation,
) -> LayerResult {
    simulate_layer_view(cfg, layer.view(), repr, None)
}

/// Simulates one borrowed layer on Stripes. Stripes consumes the same
/// precision-trimmed streams as Pragmatic but its cost is value-blind —
/// `stripes_precision` cycles per brick step — so the view carries all
/// it needs. `traffic` reuses precomputed engine-independent NM/SB
/// counters (the §VI-A convention) instead of recounting them.
pub fn simulate_layer_view(
    cfg: &ChipConfig,
    layer: LayerView<'_>,
    repr: Representation,
    traffic: Option<&AccessCounters>,
) -> LayerResult {
    let spec = layer.spec;
    let p = u64::from(layer.stripes_precision.max(1));
    let dispatcher =
        Dispatcher::new(NeuronMemory::new(Default::default(), cfg.nm_row_neurons(repr.bits())));
    let fg = cfg.filter_groups(spec.num_filters) as u64;

    let (mut cycles, mut stalls) = (0u64, 0u64);
    for v in row_visits(spec, &pallets(spec)) {
        for step in row_steps(spec, v.fy) {
            let nmc = dispatcher.fetch_cycles(spec, v.pallet, step);
            let (cost, stall) = Dispatcher::overlapped_cost(p, nmc);
            cycles += v.count * cost;
            stalls += v.count * stall;
        }
    }
    cycles *= fg;
    stalls *= fg;

    let mut counters = match traffic {
        Some(t) => *t,
        None => shared_traffic(cfg, spec, &dispatcher),
    };
    // Every multiplication is processed over p serial cycles -> p terms.
    counters.terms = spec.multiplications() * p;
    counters.stall_cycles = stalls;
    LayerResult {
        layer: spec.name().to_string(),
        cycles,
        multiplications: spec.multiplications(),
        counters,
    }
}

/// Simulates a network's convolutional layers on Stripes, over borrowed
/// layer views ([`pra_workloads::NetworkWorkload::views`]), optionally
/// reusing per-layer engine-independent traffic counters (index-aligned
/// with `views`).
pub fn run_views(
    cfg: &ChipConfig,
    views: &[LayerView<'_>],
    repr: Representation,
    traffic: Option<&[AccessCounters]>,
) -> RunResult {
    let mut result = RunResult::new("Stripes");
    for (idx, view) in views.iter().enumerate() {
        result.layers.push(simulate_layer_view(cfg, *view, repr, traffic.map(|t| &t[idx])));
    }
    result
}

/// Bit-exact functional model of the Stripes datapath: for each window and
/// filter, process the neurons one bit per cycle starting from the LSB —
/// AND each neuron bit with the full synapse, reduce the 16 lane terms,
/// shift by the bit position and accumulate (Fig. 4b). Neurons are first
/// trimmed to the layer's serial precision window: Stripes only ever sees
/// the `p` bits software selected.
///
/// The result equals the reference convolution over the trimmed neurons —
/// the baseline's functional-equivalence test.
pub fn compute_layer(
    spec: &pra_tensor::ConvLayerSpec,
    neurons: &pra_tensor::Tensor3<u16>,
    synapses: &[pra_tensor::Tensor3<i16>],
    window: pra_fixed::PrecisionWindow,
) -> pra_tensor::Tensor3<i64> {
    use pra_tensor::BRICK;
    let steps = pra_tensor::brick::brick_steps(spec);
    let mut out = pra_tensor::Tensor3::<i64>::zeros(spec.output_dim());
    for wy in 0..spec.out_y() {
        for wx in 0..spec.out_x() {
            let (ox, oy) = spec.window_origin(wx, wy);
            let mut acc = vec![0i64; spec.num_filters];
            for step in &steps {
                let brick =
                    neurons.brick_padded(ox + step.fx as isize, oy + step.fy as isize, step.i0);
                let trimmed: [u16; BRICK] = std::array::from_fn(|k| window.trim(brick[k]));
                for (f, filter) in synapses.iter().enumerate() {
                    // Serial cycles: bit positions lsb..=msb of the window.
                    for bit in window.lsb()..=window.msb() {
                        let mut tree = 0i64;
                        for (k, &n) in trimmed.iter().enumerate() {
                            if step.i0 + k >= spec.input.i {
                                break;
                            }
                            if n & (1 << bit) != 0 {
                                tree += i64::from(filter.get(step.fx, step.fy, step.i0 + k));
                            }
                        }
                        acc[f] += tree << bit;
                    }
                }
            }
            for (f, &v) in acc.iter().enumerate() {
                out.set(wx, wy, f, v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dadn;
    use pra_fixed::PrecisionWindow;
    use pra_tensor::{ConvLayerSpec, Tensor3};

    fn layer_with_precision(nx: usize, p: u8) -> LayerWorkload {
        let spec = ConvLayerSpec::new("toy", (nx, nx, 32), (3, 3), 256, 1, 1).unwrap();
        let neurons = Tensor3::from_fn(spec.input, |x, y, k| ((x * y + k) % 13) as u16);
        let window =
            if p >= 14 { PrecisionWindow::full() } else { PrecisionWindow::with_width(p, 2) };
        LayerWorkload { spec, window, stripes_precision: p, neurons }
    }

    #[test]
    fn speedup_is_16_over_p_for_aligned_layers() {
        // 32x32 output: pallets divide evenly, so the ideal ratio holds
        // exactly when NM fetches stay hidden.
        let cfg = ChipConfig::dadn();
        let l = layer_with_precision(32, 8);
        let str_r = simulate_layer(&cfg, &l, Representation::Fixed16);
        let dadn_r = dadn::simulate_layer(&cfg, &l, Representation::Fixed16);
        let speedup = dadn_r.cycles as f64 / str_r.cycles as f64;
        assert!((speedup - 2.0).abs() < 1e-9, "speedup {speedup}");
    }

    #[test]
    fn precision_16_matches_dadn_on_aligned_layers() {
        let cfg = ChipConfig::dadn();
        let l = layer_with_precision(32, 16);
        let str_r = simulate_layer(&cfg, &l, Representation::Fixed16);
        let dadn_r = dadn::simulate_layer(&cfg, &l, Representation::Fixed16);
        assert_eq!(str_r.cycles, dadn_r.cycles);
    }

    #[test]
    fn ragged_pallets_cost_full_price() {
        // Ox = 17 -> 2 pallets per row (16 + 1 lanes), same cycles as 32
        // windows' worth per row.
        let cfg = ChipConfig::dadn();
        let spec = ConvLayerSpec::new("r", (19, 19, 16), (3, 3), 16, 1, 0).unwrap();
        let l = LayerWorkload {
            neurons: Tensor3::zeros(spec.input),
            spec,
            window: PrecisionWindow::with_width(8, 2),
            stripes_precision: 8,
        };
        let r = simulate_layer(&cfg, &l, Representation::Fixed16);
        // 17 rows x 2 pallets x 9 steps x 8 cycles.
        assert_eq!(r.cycles, 17 * 2 * 9 * 8);
    }

    #[test]
    fn lower_precision_is_faster() {
        let cfg = ChipConfig::dadn();
        let l5 = layer_with_precision(32, 5);
        let l9 = layer_with_precision(32, 9);
        let c5 = simulate_layer(&cfg, &l5, Representation::Fixed16).cycles;
        let c9 = simulate_layer(&cfg, &l9, Representation::Fixed16).cycles;
        assert!(c5 < c9);
    }

    #[test]
    fn terms_are_p_per_multiplication() {
        let cfg = ChipConfig::dadn();
        let l = layer_with_precision(16, 7);
        let r = simulate_layer(&cfg, &l, Representation::Fixed16);
        assert_eq!(r.counters.terms, l.spec.multiplications() * 7);
    }

    #[test]
    fn nm_fetches_hidden_at_typical_precisions() {
        let cfg = ChipConfig::dadn();
        let l = layer_with_precision(32, 8);
        let r = simulate_layer(&cfg, &l, Representation::Fixed16);
        assert_eq!(r.counters.stall_cycles, 0);
    }

    #[test]
    fn functional_model_matches_reference_on_trimmed_values() {
        use pra_tensor::conv::convolve;
        let spec = ConvLayerSpec::new("f", (7, 6, 20), (3, 3), 4, 1, 1).unwrap();
        let neurons =
            Tensor3::from_fn(spec.input, |x, y, i| ((x * 977 + y * 131 + i * 17) % 65536) as u16);
        let synapses = pra_workloads::generator::generate_synapses(&spec, 0xABBA);
        let window = PrecisionWindow::new(10, 2);
        let got = compute_layer(&spec, &neurons, &synapses, window);
        let trimmed = neurons.map(|v| window.trim(v));
        assert_eq!(got, convolve(&spec, &trimmed, &synapses));
    }

    #[test]
    fn functional_model_full_window_is_exact() {
        use pra_tensor::conv::convolve;
        let spec = ConvLayerSpec::new("f", (5, 5, 16), (2, 2), 3, 2, 0).unwrap();
        let neurons =
            Tensor3::from_fn(spec.input, |x, y, i| ((x + 3 * y + 7 * i) * 2551 % 65536) as u16);
        let synapses = pra_workloads::generator::generate_synapses(&spec, 0xD1CE);
        let got = compute_layer(&spec, &neurons, &synapses, PrecisionWindow::full());
        assert_eq!(got, convolve(&spec, &neurons, &synapses));
    }
}
