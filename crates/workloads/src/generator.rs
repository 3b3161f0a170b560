//! Seeded synthetic activation streams.
//!
//! The paper measures real ImageNet traces; this reproduction generates
//! synthetic streams whose bit-level statistics are calibrated to the
//! paper's own measurements (Table I), which is what every experiment
//! actually depends on (DESIGN.md §2). The value model follows the paper's
//! observation that "the measurements are consistent with the neuron values
//! following a normal distribution centered at 0, and then being filtered
//! by a rectifier linear unit" (§II-A):
//!
//! * a neuron is zero with probability `zero_frac` (the rectified half),
//! * otherwise its magnitude is a half-Gaussian scaled into the layer's
//!   precision window (Table II),
//! * low-order *suffix* bits below the window and rare *prefix* outlier
//!   bits above it model the fraction tail and outlier values that the
//!   software-provided precision of §V-F trims away.
//!
//! Generation is organized as independent *row jobs*: every `(layer, y)`
//! row of a network draws from its own [`Sampler`] stream, seeded through
//! the SplitMix64-style [`mix_seed`] mixer. Because each row's stream
//! depends only on `(workload seed, layer index, row index)` — never on
//! which thread runs the job or in what order — fanning the jobs out on
//! the rayon pool produces bit-identical tensors to the serial path
//! (DESIGN.md §8).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;

use pra_fixed::PrecisionWindow;
use pra_tensor::{ConvLayerSpec, Tensor3};

use crate::networks::Network;
use crate::profiles;

/// Bit position where fixed-point precision windows are anchored: every
/// layer keeps `lsb = 2`, leaving two suffix-noise bits below the window.
pub const WINDOW_LSB: u8 = 2;

/// Derives an independent child seed from `seed` for stream number
/// `stream` — the SplitMix64 finalizer over the golden-ratio sequence.
///
/// Every generation job (one per layer, then one per row within a layer)
/// seeds its own [`Sampler`] with a mixed seed, so jobs can run in any
/// order, on any thread, and still produce the exact bytes the serial
/// path produces. The finalizer's avalanche guarantees that adjacent
/// stream numbers land on statistically independent xoshiro states
/// (a plain `seed ^ stream` would hand neighbouring rows correlated
/// low bits).
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded activation-stream sampler: the RNG plus the cached second
/// output of the Box–Muller transform.
///
/// Box–Muller produces two independent normals per `(ln, sqrt, sin_cos)`
/// evaluation; the naive generator discarded the second one and paid the
/// transcendental cost on every non-zero draw. Caching the spare halves
/// the dominant cost of workload generation without changing the
/// distribution — each cached value is an independent standard normal.
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: StdRng,
    spare_normal: Option<f64>,
}

impl Sampler {
    /// Creates a sampler for one generation stream.
    pub fn seeded(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), spare_normal: None }
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    fn uniform(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// 64 uniformly random bits.
    #[inline]
    fn bits(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// The absolute value of a standard normal draw (Box–Muller with the
    /// spare second output cached across calls).
    fn half_gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z.abs();
        }
        let u1: f64 = self.uniform().max(1e-12);
        let u2: f64 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare_normal = Some(r * s);
        (r * c).abs()
    }
}

/// The two neuron representations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Representation {
    /// DaDianNao's 16-bit fixed point (§I).
    Fixed16,
    /// TensorFlow's 8-bit quantized representation (§VI-F).
    Quant8,
}

impl Representation {
    /// Container width in bits (16 or 8).
    pub fn bits(&self) -> u32 {
        match self {
            Representation::Fixed16 => 16,
            Representation::Quant8 => 8,
        }
    }

    /// Largest oneffset power (15 or 7).
    pub fn max_pow(&self) -> u8 {
        (self.bits() - 1) as u8
    }
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Representation::Fixed16 => f.write_str("16-bit fixed-point"),
            Representation::Quant8 => f.write_str("8-bit quantized"),
        }
    }
}

/// Distribution parameters of the synthetic activation stream for one
/// network and representation. Produced by [`crate::calibrate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationModel {
    /// Probability a neuron is exactly zero (rectified).
    pub zero_frac: f64,
    /// Half-Gaussian scale, relative to the precision-window maximum.
    pub sigma: f64,
    /// Probability that each suffix bit (below the window) of a non-zero
    /// neuron is set. Zero in the 8-bit quantized representation.
    pub suffix_density: f64,
    /// Probability that a non-zero neuron carries a prefix outlier bit
    /// above the window. Zero in the 8-bit quantized representation.
    pub outlier_prob: f64,
    /// Probability that a non-zero neuron comes from the *dense* mixture
    /// component instead of the half-Gaussian: real activation traces
    /// contain a share of large, bit-dense values that dominate the
    /// max-oneffset statistics Pragmatic's synchronization pays for.
    /// Fitted once, globally, against Fig. 9/10 (see `calibrate`).
    pub dense_prob: f64,
    /// Within the dense component, the share of *heavy* draws (uniform
    /// over the full window, reaching the highest bit densities); the rest
    /// are *medium* draws with 3–6 essential bits. Medium draws set the
    /// per-column (max-of-16) statistics, heavy draws the per-pallet
    /// (max-of-256) statistics.
    pub heavy_share: f64,
}

/// The sigma-independent randomness of one non-zero draw: the dense
/// component's magnitude (or the half-Gaussian variate when the draw
/// took the Gaussian component) plus the tail bits. Splitting the draw
/// this way lets the calibration bisection freeze one set of draws and
/// re-assemble them under every candidate sigma
/// ([`ActivationModel::store_parts`]) instead of re-sampling the full
/// stream per iteration.
#[derive(Debug, Clone, Copy)]
pub struct DrawParts {
    /// Dense-component magnitude; `None` when the draw took the
    /// half-Gaussian component.
    pub dense_mag: Option<u32>,
    /// Standard half-Gaussian variate (0 when the draw is dense).
    pub gaussian: f64,
    /// Suffix-noise and prefix-outlier bits (0 under `Quant8`).
    pub tail: u16,
}

impl ActivationModel {
    /// Draws one stored neuron value for a layer whose precision window is
    /// `window`, in representation `repr`.
    ///
    /// One uniform draw decides both the rectification and the mixture
    /// component: conditioned on landing in `[zero_frac, 1)`, the rescaled
    /// draw is again uniform, so the component decision costs no extra
    /// randomness. The tail bits of a fixed-point neuron are decided by
    /// 16-bit slices of a single 64-bit draw (probabilities quantized to
    /// `1/65536` — self-consistent, because calibration measures through
    /// this exact path).
    pub fn sample(&self, window: PrecisionWindow, repr: Representation, s: &mut Sampler) -> u16 {
        let u = s.uniform();
        if u < self.zero_frac {
            return 0;
        }
        let u_nz = (u - self.zero_frac) / (1.0 - self.zero_frac);
        let parts = self.draw_parts(u_nz, window, repr, s);
        self.store_parts(parts, window, repr)
    }

    /// Draws the sigma-independent randomness of a non-zero neuron —
    /// the calibration entry point (its objective model has
    /// `zero_frac = 0`, so every draw is non-zero by construction).
    pub fn draw_nonzero_parts(
        &self,
        window: PrecisionWindow,
        repr: Representation,
        s: &mut Sampler,
    ) -> DrawParts {
        let u_nz = s.uniform();
        self.draw_parts(u_nz, window, repr, s)
    }

    /// The sigma-independent half of [`ActivationModel::sample`]:
    /// component choice, dense magnitude or standard half-Gaussian
    /// variate, and tail bits. `u_nz` is uniform in `[0, 1)` given that
    /// the neuron is non-zero.
    fn draw_parts(
        &self,
        u_nz: f64,
        window: PrecisionWindow,
        repr: Representation,
        s: &mut Sampler,
    ) -> DrawParts {
        let dense = u_nz < self.dense_prob;
        let (p, max) = match repr {
            Representation::Fixed16 => {
                let p = window.width() as u32;
                (p, (1u32 << p) - 1)
            }
            Representation::Quant8 => (8, 255),
        };
        let dense_mag = dense.then(|| self.dense_draw(p, max, u_nz / self.dense_prob, s));
        let gaussian = if dense { 0.0 } else { s.half_gaussian() };
        let tail = match repr {
            Representation::Fixed16 => self.tail_bits(window, s),
            Representation::Quant8 => 0,
        };
        DrawParts { dense_mag, gaussian, tail }
    }

    /// The sigma-dependent half of [`ActivationModel::sample`]: scales
    /// the half-Gaussian variate into the window under this model's
    /// `sigma` and assembles the stored value. Pure arithmetic — the
    /// calibration fit calls this against frozen [`DrawParts`] to
    /// evaluate many sigma candidates without re-drawing.
    pub fn store_parts(
        &self,
        parts: DrawParts,
        window: PrecisionWindow,
        repr: Representation,
    ) -> u16 {
        let max = match repr {
            Representation::Fixed16 => (1u32 << window.width() as u32) - 1,
            Representation::Quant8 => 255,
        };
        let mag = match parts.dense_mag {
            Some(m) => m,
            None => (parts.gaussian * self.sigma * max as f64).round() as u32,
        };
        let core = mag.clamp(1, max) as u16;
        match repr {
            Representation::Fixed16 => (core << window.lsb()) | parts.tail,
            Representation::Quant8 => core,
        }
    }

    /// Suffix-noise bits below the window, plus the rare prefix outlier
    /// bit above it.
    fn tail_bits(&self, window: PrecisionWindow, s: &mut Sampler) -> u16 {
        if self.suffix_density == 0.0 && self.outlier_prob == 0.0 {
            return 0;
        }
        let mut chunks = s.bits();
        let mut avail = 4u32;
        let mut out = 0u16;
        let suffix_t = (self.suffix_density * 65536.0) as u64;
        for b in 0..window.lsb() {
            if avail == 0 {
                chunks = s.bits();
                avail = 4;
            }
            if chunks & 0xFFFF < suffix_t {
                out |= 1 << b;
            }
            chunks >>= 16;
            avail -= 1;
        }
        if window.msb() < 15 {
            if avail == 0 {
                chunks = s.bits();
            }
            if chunks & 0xFFFF < (self.outlier_prob * 65536.0) as u64 {
                let hi = s.rng.random_range(window.msb() + 1..=15);
                out |= 1 << hi;
            }
        }
        out
    }

    /// One draw of the dense mixture component: heavy (uniform over the
    /// window) with probability `heavy_share`, otherwise medium — 3 to 6
    /// essential bits scattered uniformly across the window. `heavy_u` is
    /// the caller's rescaled component draw, uniform given *dense*.
    fn dense_draw(&self, p: u32, max: u32, heavy_u: f64, s: &mut Sampler) -> u32 {
        if heavy_u < self.heavy_share {
            return s.rng.random_range(1..=max);
        }
        let k = s.rng.random_range(3..=6u32).min(p);
        let mut v = 0u32;
        while v.count_ones() < k {
            v |= 1 << s.rng.random_range(0..p);
        }
        v
    }
}

/// One convolutional layer plus its generated input-neuron stream.
#[derive(Debug, Clone)]
pub struct LayerWorkload {
    /// Layer geometry.
    pub spec: ConvLayerSpec,
    /// The layer's precision window (Table II precision anchored at
    /// [`WINDOW_LSB`] for fixed point; the full 8-bit window for Quant8).
    pub window: PrecisionWindow,
    /// The Stripes serial precision for this layer: the Table II value for
    /// fixed point, clamped to 8 for the quantized representation.
    pub stripes_precision: u8,
    /// Generated input neurons (stored values; quantized codes fit in the
    /// low 8 bits under [`Representation::Quant8`]).
    pub neurons: Tensor3<u16>,
}

impl LayerWorkload {
    /// The layer's neurons after §V-F software trimming (prefix/suffix
    /// bits outside the precision window zeroed).
    pub fn trimmed_neurons(&self) -> Tensor3<u16> {
        let w = self.window;
        self.neurons.map(|v| w.trim(v))
    }

    /// This layer's neuron-free description.
    pub fn view(&self) -> LayerView<'_> {
        LayerView {
            spec: &self.spec,
            window: self.window,
            stripes_precision: self.stripes_precision,
        }
    }
}

/// A layer without its neurons: the geometry, precision window and
/// Stripes precision every engine reads. Once a layer's schedule tables
/// exist, the neuron values have nothing left to give — a column's cost
/// depends only on its brick's oneffsets and the scheduler (§V-D) — so
/// the engines run from views alone, and a warm run needs no workload
/// ([`layer_views`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerView<'a> {
    /// Layer geometry.
    pub spec: &'a ConvLayerSpec,
    /// The layer's precision window.
    pub window: PrecisionWindow,
    /// The Stripes serial precision for this layer.
    pub stripes_precision: u8,
}

impl LayerView<'_> {
    /// This layer with `neurons` attached.
    pub fn with_neurons(self, neurons: Tensor3<u16>) -> LayerWorkload {
        LayerWorkload {
            spec: self.spec.clone(),
            window: self.window,
            stripes_precision: self.stripes_precision,
            neurons,
        }
    }
}

/// Every conv layer of `network` under `repr`, without neurons: the
/// geometry plus the window and Stripes precision derived from the
/// layer's Table II precision — exactly what generation and trace loads
/// attach to each layer, so a stored workload's [`NetworkWorkload::views`]
/// equal these. The geometry is built once per process.
pub fn layer_views(network: Network, repr: Representation) -> Vec<LayerView<'static>> {
    static SPECS: [OnceLock<Vec<ConvLayerSpec>>; Network::ALL.len()] =
        [const { OnceLock::new() }; Network::ALL.len()];
    let specs = SPECS[network as usize].get_or_init(|| network.conv_layers());
    specs
        .iter()
        .zip(profiles::precisions(network))
        .map(|(spec, &p)| LayerView {
            spec,
            window: layer_window(repr, p),
            stripes_precision: stripes_precision(repr, p),
        })
        .collect()
}

/// A network's full convolutional workload in one representation.
#[derive(Debug, Clone)]
pub struct NetworkWorkload {
    /// Which network.
    pub network: Network,
    /// Which representation.
    pub repr: Representation,
    /// The activation model the layers were drawn from.
    pub model: ActivationModel,
    /// Per-layer geometry and neuron streams.
    pub layers: Vec<LayerWorkload>,
}

/// One independent generation job: a single `(layer, y)` row of neurons
/// with its own mixed seed (see the module docs for the determinism
/// argument).
struct RowJob<'a> {
    window: PrecisionWindow,
    seed: u64,
    row: &'a mut [u16],
}

impl NetworkWorkload {
    /// Generates the workload for `network` under `repr` using the
    /// calibrated activation model and a deterministic `seed`,
    /// parallelizing row generation across the rayon pool.
    ///
    /// This is the *pure* generation kernel: it never touches disk.
    /// Cache-aware construction goes through
    /// [`crate::cache::ArtifactStore::workload`] (DESIGN.md §9/§15),
    /// which consults the content-addressed store first and falls back
    /// to this — bit-identical by the round-trip guarantee.
    pub fn build(network: Network, repr: Representation, seed: u64) -> Self {
        let model = crate::calibrate::calibrated_model(network, repr);
        Self::build_with_model(network, repr, model, seed)
    }

    /// [`NetworkWorkload::build`] on the serial path — bit-identical
    /// output, used to pin the serial-equals-parallel invariant.
    pub fn build_serial(network: Network, repr: Representation, seed: u64) -> Self {
        let model = crate::calibrate::calibrated_model(network, repr);
        Self::build_impl(network, repr, model, seed, false)
    }

    /// Generates the workload from an explicit activation model
    /// (parallel).
    pub fn build_with_model(
        network: Network,
        repr: Representation,
        model: ActivationModel,
        seed: u64,
    ) -> Self {
        Self::build_impl(network, repr, model, seed, true)
    }

    /// [`NetworkWorkload::build_with_model`] on the serial path.
    pub fn build_with_model_serial(
        network: Network,
        repr: Representation,
        model: ActivationModel,
        seed: u64,
    ) -> Self {
        Self::build_impl(network, repr, model, seed, false)
    }

    /// Shared generation core: allocate every layer tensor, flatten the
    /// network into per-row jobs, then run the jobs — on the rayon pool
    /// or in order. Each job's sampler stream depends only on the
    /// workload seed, the layer index and the row index, so both paths
    /// (and any thread count) produce bit-identical tensors.
    fn build_impl(
        network: Network,
        repr: Representation,
        model: ActivationModel,
        seed: u64,
        parallel: bool,
    ) -> Self {
        let mut layers: Vec<LayerWorkload> = layer_views(network, repr)
            .into_iter()
            .map(|v| v.with_neurons(Tensor3::zeros(v.spec.input)))
            .collect();
        let jobs: Vec<RowJob<'_>> = layers
            .iter_mut()
            .enumerate()
            .flat_map(|(idx, layer)| {
                let layer_seed = mix_seed(seed, idx as u64);
                let window = layer.window;
                let row_len = (layer.spec.input.x * layer.spec.input.i).max(1);
                layer.neurons.as_mut_slice().chunks_mut(row_len).enumerate().map(move |(y, row)| {
                    RowJob { window, seed: mix_seed(layer_seed, y as u64), row }
                })
            })
            .collect();
        let fill = |job: RowJob<'_>| {
            let mut sampler = Sampler::seeded(job.seed);
            for v in job.row.iter_mut() {
                *v = model.sample(job.window, repr, &mut sampler);
            }
        };
        if parallel && rayon::current_num_threads() > 1 {
            jobs.into_par_iter().for_each(fill);
        } else {
            jobs.into_iter().for_each(fill);
        }
        Self { network, repr, model, layers }
    }

    /// Total multiplications over all layers.
    pub fn total_multiplications(&self) -> u64 {
        self.layers.iter().map(|l| l.spec.multiplications()).sum()
    }

    /// Every layer's neuron-free view, in order — what the engines'
    /// network runners take.
    pub fn views(&self) -> Vec<LayerView<'_>> {
        self.layers.iter().map(LayerWorkload::view).collect()
    }
}

/// The precision window used for a layer of Table II precision `p` under
/// `repr`: `p` bits anchored at [`WINDOW_LSB`] for fixed point; the full
/// 8-bit window for the quantized representation.
pub fn layer_window(repr: Representation, p: u8) -> PrecisionWindow {
    match repr {
        Representation::Fixed16 => PrecisionWindow::with_width(p, WINDOW_LSB),
        Representation::Quant8 => PrecisionWindow::new(7, 0),
    }
}

/// The per-layer Stripes serial precision under `repr` (Table II clamped
/// to the container width).
pub fn stripes_precision(repr: Representation, p: u8) -> u8 {
    match repr {
        Representation::Fixed16 => p,
        Representation::Quant8 => p.min(8),
    }
}

/// Deterministic synapse bank for functional verification: small signed
/// values spanning positives, negatives and zeros.
pub fn generate_synapses(spec: &ConvLayerSpec, seed: u64) -> Vec<Tensor3<i16>> {
    let mut rng = StdRng::seed_from_u64(seed);
    spec.filters_from_fn(|_, _, _, _| {
        // Mix of magnitudes; ~10% zeros.
        if rng.random::<f64>() < 0.1 {
            0
        } else {
            let mag: i32 = rng.random_range(-256..=256);
            mag as i16
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ActivationModel {
        ActivationModel {
            zero_frac: 0.5,
            sigma: 0.1,
            suffix_density: 0.4,
            outlier_prob: 0.01,
            dense_prob: 0.05,
            heavy_share: 0.5,
        }
    }

    #[test]
    fn sample_respects_zero_fraction_roughly() {
        let m = toy_model();
        let w = PrecisionWindow::with_width(8, WINDOW_LSB);
        let mut s = Sampler::seeded(1);
        let zeros =
            (0..20_000).filter(|_| m.sample(w, Representation::Fixed16, &mut s) == 0).count();
        let frac = zeros as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.02, "zero fraction {frac}");
    }

    #[test]
    fn nonzero_fixed16_samples_have_window_bits() {
        let m = ActivationModel {
            outlier_prob: 0.0,
            suffix_density: 0.0,
            dense_prob: 0.0,
            ..toy_model()
        };
        let w = PrecisionWindow::with_width(9, WINDOW_LSB);
        let mut s = Sampler::seeded(2);
        for _ in 0..5_000 {
            let v = m.sample(w, Representation::Fixed16, &mut s);
            if v != 0 {
                assert_eq!(w.trim(v), v, "value {v:#018b} escapes window");
                assert!(v >= 1 << WINDOW_LSB);
            }
        }
    }

    #[test]
    fn quant8_samples_fit_in_8_bits() {
        let m = toy_model();
        let w = layer_window(Representation::Quant8, 9);
        let mut s = Sampler::seeded(3);
        for _ in 0..5_000 {
            let v = m.sample(w, Representation::Quant8, &mut s);
            assert!(v <= 255);
        }
    }

    #[test]
    fn larger_sigma_means_more_essential_bits() {
        let w = PrecisionWindow::with_width(9, WINDOW_LSB);
        let mean_bits = |sigma: f64| {
            let m = ActivationModel {
                zero_frac: 0.0,
                sigma,
                suffix_density: 0.0,
                outlier_prob: 0.0,
                dense_prob: 0.0,
                heavy_share: 0.0,
            };
            let mut s = Sampler::seeded(4);
            (0..20_000)
                .map(|_| m.sample(w, Representation::Fixed16, &mut s).count_ones() as f64)
                .sum::<f64>()
                / 20_000.0
        };
        assert!(mean_bits(0.02) < mean_bits(0.2));
        assert!(mean_bits(0.2) < mean_bits(0.9));
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let m = toy_model();
        let a = NetworkWorkload::build_with_model(Network::AlexNet, Representation::Fixed16, m, 7);
        let b = NetworkWorkload::build_with_model(Network::AlexNet, Representation::Fixed16, m, 7);
        assert_eq!(a.layers[2].neurons, b.layers[2].neurons);
        let c = NetworkWorkload::build_with_model(Network::AlexNet, Representation::Fixed16, m, 8);
        assert_ne!(a.layers[2].neurons, c.layers[2].neurons);
    }

    #[test]
    fn layers_use_table2_windows() {
        let m = toy_model();
        let w = NetworkWorkload::build_with_model(Network::AlexNet, Representation::Fixed16, m, 7);
        let widths: Vec<u8> = w.layers.iter().map(|l| l.window.width()).collect();
        assert_eq!(widths, vec![9, 8, 5, 5, 7]);
    }

    #[test]
    fn trimmed_neurons_live_in_window() {
        let m = toy_model();
        let w = NetworkWorkload::build_with_model(Network::AlexNet, Representation::Fixed16, m, 9);
        let layer = &w.layers[0];
        let trimmed = layer.trimmed_neurons();
        for &v in trimmed.as_slice().iter().take(10_000) {
            assert_eq!(layer.window.trim(v), v);
        }
    }

    #[test]
    fn stripes_precision_clamped_for_quant8() {
        assert_eq!(stripes_precision(Representation::Fixed16, 12), 12);
        assert_eq!(stripes_precision(Representation::Quant8, 12), 8);
        assert_eq!(stripes_precision(Representation::Quant8, 5), 5);
    }

    #[test]
    fn synapses_are_mixed_sign() {
        let spec = ConvLayerSpec::new("t", (8, 8, 16), (3, 3), 4, 1, 0).unwrap();
        let banks = generate_synapses(&spec, 11);
        let all: Vec<i16> = banks.iter().flat_map(|t| t.as_slice().iter().copied()).collect();
        assert!(all.iter().any(|&s| s > 0));
        assert!(all.iter().any(|&s| s < 0));
        assert!(all.contains(&0));
    }
}
