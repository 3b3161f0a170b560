//! DaDianNao (DaDN) — the bit-parallel baseline (§IV-B).
//!
//! Each cycle a DaDN tile accepts one neuron brick (16 neurons) and 16
//! synapse bricks (one per filter), computing 256 16-bit products; the
//! 16-tile chip covers 256 filters. A window therefore takes
//! `Fx · Fy · ceil(I/16)` cycles and a layer
//! `Ox · Oy · Fx · Fy · ceil(I/16) · ceil(N/256)` cycles, independent of
//! the neuron values — DaDN processes every bit of every neuron.

use pra_sim::{AccessCounters, ChipConfig, Dispatcher, LayerResult, NeuronMemory, RunResult};
use pra_tensor::ConvLayerSpec;
use pra_workloads::{LayerView, LayerWorkload, Representation};

use crate::shared_traffic;

/// DaDN cycles for a layer: one brick step per cycle per window, times
/// filter groups. DaDN is value-blind, so the geometry is all it needs.
pub fn layer_cycles(cfg: &ChipConfig, spec: &ConvLayerSpec) -> u64 {
    (spec.windows() * spec.brick_steps()) as u64 * cfg.filter_groups(spec.num_filters) as u64
}

/// Simulates one layer on DaDN.
pub fn simulate_layer(
    cfg: &ChipConfig,
    layer: &LayerWorkload,
    repr: Representation,
) -> LayerResult {
    simulate_layer_view(cfg, layer.view(), repr, None)
}

/// Simulates one borrowed layer on DaDN, optionally reusing precomputed
/// engine-independent NM/SB traffic counters. The dispatcher models the
/// representation's actual row capacity (256 16-bit or 512 8-bit neurons
/// per 512-byte row), the same convention the other engines use.
pub fn simulate_layer_view(
    cfg: &ChipConfig,
    layer: LayerView<'_>,
    repr: Representation,
    traffic: Option<&AccessCounters>,
) -> LayerResult {
    let spec = layer.spec;
    let mut counters = match traffic {
        Some(t) => *t,
        None => {
            let nm = NeuronMemory::new(Default::default(), cfg.nm_row_neurons(repr.bits()));
            shared_traffic(cfg, spec, &Dispatcher::new(nm))
        }
    };
    counters.terms = spec.multiplications() * crate::bit_parallel_terms_per_mult(repr);
    LayerResult {
        layer: spec.name().to_string(),
        cycles: layer_cycles(cfg, spec),
        multiplications: spec.multiplications(),
        counters,
    }
}

/// Simulates a network's convolutional layers on DaDN, over borrowed
/// layer views ([`pra_workloads::NetworkWorkload::views`]), optionally
/// reusing per-layer engine-independent traffic counters (index-aligned
/// with `views`).
pub fn run_views(
    cfg: &ChipConfig,
    views: &[LayerView<'_>],
    repr: Representation,
    traffic: Option<&[AccessCounters]>,
) -> RunResult {
    let mut result = RunResult::new("DaDN");
    for (idx, view) in views.iter().enumerate() {
        result.layers.push(simulate_layer_view(cfg, *view, repr, traffic.map(|t| &t[idx])));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_fixed::PrecisionWindow;
    use pra_tensor::Tensor3;

    fn toy_layer(nx: usize, i: usize, n: usize) -> LayerWorkload {
        let spec = ConvLayerSpec::new("toy", (nx, nx, i), (3, 3), n, 1, 1).unwrap();
        let neurons = Tensor3::from_fn(spec.input, |x, y, k| ((x + y + k) % 7) as u16);
        LayerWorkload { spec, window: PrecisionWindow::full(), stripes_precision: 16, neurons }
    }

    #[test]
    fn cycles_formula() {
        let cfg = ChipConfig::dadn();
        let l = toy_layer(16, 32, 256);
        // 16x16 windows, 3*3*2 brick steps, 1 filter group.
        assert_eq!(layer_cycles(&cfg, &l.spec), 16 * 16 * 18);
    }

    #[test]
    fn filter_groups_multiply_cycles() {
        let cfg = ChipConfig::dadn();
        let small = toy_layer(16, 32, 256);
        let big = toy_layer(16, 32, 512);
        assert_eq!(layer_cycles(&cfg, &big.spec), 2 * layer_cycles(&cfg, &small.spec));
    }

    #[test]
    fn cycles_independent_of_values() {
        let cfg = ChipConfig::dadn();
        let mut a = toy_layer(16, 32, 64);
        let r1 = simulate_layer(&cfg, &a, Representation::Fixed16);
        a.neurons = Tensor3::from_fn(a.spec.input, |_, _, _| u16::MAX);
        let r2 = simulate_layer(&cfg, &a, Representation::Fixed16);
        assert_eq!(r1.cycles, r2.cycles);
    }

    #[test]
    fn terms_are_16_per_multiplication() {
        let cfg = ChipConfig::dadn();
        let l = toy_layer(8, 16, 16);
        let r = simulate_layer(&cfg, &l, Representation::Fixed16);
        assert_eq!(r.counters.terms, l.spec.multiplications() * 16);
        let r8 = simulate_layer(&cfg, &l, Representation::Quant8);
        assert_eq!(r8.counters.terms, l.spec.multiplications() * 8);
    }

    #[test]
    fn ragged_depth_rounds_to_brick() {
        let cfg = ChipConfig::dadn();
        let l17 = toy_layer(8, 17, 16);
        let l32 = toy_layer(8, 32, 16);
        assert_eq!(layer_cycles(&cfg, &l17.spec), layer_cycles(&cfg, &l32.spec));
    }
}
