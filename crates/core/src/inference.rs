//! Multi-layer functional inference through the Pragmatic datapath.
//!
//! Chains convolution, rectify/requantize and pooling operations the way
//! the chip executes a network (§IV-B: outputs go through the activation
//! function into NM and come back as the next layer's inputs, trimmed per
//! §V-F), producing both the numerical outputs — computed through the
//! oneffset datapath and therefore covered by the functional-equivalence
//! guarantee — and the per-convolution cycle results of the configured
//! design point.

use std::error::Error;
use std::fmt;

use pra_fixed::PrecisionWindow;
use pra_sim::LayerResult;
use pra_tensor::conv::relu_requantize;
use pra_tensor::pool::{avg_pool, max_pool};
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::LayerView;

use crate::config::PraConfig;
use crate::functional::compute_layer;
use crate::schedule::LayerScheduler;
use crate::sim::simulate_layer_shared;

/// One operation of a network model.
#[derive(Debug, Clone)]
pub enum LayerOp {
    /// A convolutional layer executed on the accelerator.
    Conv {
        /// Layer geometry.
        spec: ConvLayerSpec,
        /// One synapse tensor per filter.
        synapses: Vec<Tensor3<i16>>,
        /// Precision window for §V-F trimming of the layer's *inputs*.
        window: PrecisionWindow,
        /// Arithmetic right shift applied when requantizing the raw sums
        /// back to 16-bit neurons (the activation path's scaling).
        requant_shift: u32,
    },
    /// Max pooling on the activation path.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling on the activation path.
    AvgPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
}

/// A network: an ordered list of operations.
#[derive(Debug, Clone, Default)]
pub struct NetworkModel {
    ops: Vec<LayerOp>,
}

impl NetworkModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a convolution.
    pub fn conv(
        &mut self,
        spec: ConvLayerSpec,
        synapses: Vec<Tensor3<i16>>,
        window: PrecisionWindow,
        requant_shift: u32,
    ) -> &mut Self {
        self.ops.push(LayerOp::Conv { spec, synapses, window, requant_shift });
        self
    }

    /// Appends a max-pool.
    pub fn max_pool(&mut self, k: usize, stride: usize) -> &mut Self {
        self.ops.push(LayerOp::MaxPool { k, stride });
        self
    }

    /// Appends an average-pool.
    pub fn avg_pool(&mut self, k: usize, stride: usize) -> &mut Self {
        self.ops.push(LayerOp::AvgPool { k, stride });
        self
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[LayerOp] {
        &self.ops
    }

    /// Runs the model on `input`: every convolution is computed through
    /// the Pragmatic datapath *and* cycle-simulated under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`InferenceError`] when an operation's expected input shape
    /// does not match the tensor flowing into it.
    pub fn run(
        &self,
        cfg: &PraConfig,
        input: Tensor3<u16>,
    ) -> Result<InferenceOutcome, InferenceError> {
        let mut acts = input;
        let mut conv_results = Vec::new();
        for (idx, op) in self.ops.iter().enumerate() {
            match op {
                LayerOp::Conv { spec, synapses, window, requant_shift } => {
                    if acts.dim() != spec.input {
                        return Err(InferenceError::ShapeMismatch {
                            op: idx,
                            layer: spec.name().to_string(),
                            expected: format!("{:?}", spec.input),
                            got: format!("{:?}", acts.dim()),
                        });
                    }
                    // The cycle model schedules the live activations —
                    // borrowed, not cloned: only the table reads them.
                    let view =
                        LayerView { spec, window: *window, stripes_precision: window.width() };
                    let sched = LayerScheduler::new(cfg, *window, &acts);
                    conv_results.push(simulate_layer_shared(cfg, view, &sched, None));
                    let raw = compute_layer(cfg, spec, &acts, synapses, *window);
                    acts = relu_requantize(&raw, *requant_shift);
                }
                LayerOp::MaxPool { k, stride } => {
                    let d = acts.dim();
                    if *k > d.x || *k > d.y {
                        return Err(InferenceError::ShapeMismatch {
                            op: idx,
                            layer: "max_pool".into(),
                            expected: format!("window {k} <= {}x{}", d.x, d.y),
                            got: format!("{d:?}"),
                        });
                    }
                    acts = max_pool(&acts, *k, *stride);
                }
                LayerOp::AvgPool { k, stride } => {
                    let d = acts.dim();
                    if *k > d.x || *k > d.y {
                        return Err(InferenceError::ShapeMismatch {
                            op: idx,
                            layer: "avg_pool".into(),
                            expected: format!("window {k} <= {}x{}", d.x, d.y),
                            got: format!("{d:?}"),
                        });
                    }
                    acts = avg_pool(&acts, *k, *stride);
                }
            }
        }
        Ok(InferenceOutcome { output: acts, conv_results })
    }
}

/// Output of [`NetworkModel::run`].
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// The final activation tensor.
    pub output: Tensor3<u16>,
    /// Cycle-simulation results for each convolution, in order.
    pub conv_results: Vec<LayerResult>,
}

impl InferenceOutcome {
    /// Total accelerator cycles across the convolutions.
    pub fn total_cycles(&self) -> u64 {
        self.conv_results.iter().map(|r| r.cycles).sum()
    }
}

/// Error running a network model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceError {
    /// An operation received a tensor of the wrong shape.
    ShapeMismatch {
        /// Index of the failing operation.
        op: usize,
        /// Name of the failing layer/op.
        layer: String,
        /// What the op expected.
        expected: String,
        /// What it received.
        got: String,
    },
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::ShapeMismatch { op, layer, expected, got } => {
                write!(f, "op {op} ({layer}): expected input {expected}, got {got}")
            }
        }
    }
}

impl Error for InferenceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_tensor::conv::convolve;
    use pra_workloads::generator::generate_synapses;
    use pra_workloads::Representation;

    fn toy_model() -> (NetworkModel, Tensor3<u16>) {
        let spec1 = ConvLayerSpec::new("c1", (12, 12, 8), (3, 3), 16, 1, 1).unwrap();
        let syn1 = generate_synapses(&spec1, 1);
        let spec2 = ConvLayerSpec::new("c2", (6, 6, 16), (3, 3), 8, 1, 1).unwrap();
        let syn2 = generate_synapses(&spec2, 2);
        let mut m = NetworkModel::new();
        m.conv(spec1.clone(), syn1, PrecisionWindow::full(), 6).max_pool(2, 2).conv(
            spec2,
            syn2,
            PrecisionWindow::full(),
            6,
        );
        let input = Tensor3::from_fn(spec1.input, |x, y, i| ((x * 7 + y * 5 + i * 3) % 200) as u16);
        (m, input)
    }

    fn cfg() -> PraConfig {
        PraConfig::two_stage(2, Representation::Fixed16).with_trim(false)
    }

    #[test]
    fn runs_and_produces_expected_shape() {
        let (m, input) = toy_model();
        let out = m.run(&cfg(), input).unwrap();
        assert_eq!(out.output.dim(), pra_tensor::Dim3::new(6, 6, 8));
        assert_eq!(out.conv_results.len(), 2);
        assert!(out.total_cycles() > 0);
    }

    #[test]
    fn first_conv_matches_reference() {
        let (m, input) = toy_model();
        let LayerOp::Conv { spec, synapses, .. } = &m.ops()[0] else {
            panic!("first op must be conv");
        };
        let reference = relu_requantize(&convolve(spec, &input, synapses), 6);
        let single = {
            let mut m1 = NetworkModel::new();
            m1.conv(spec.clone(), synapses.clone(), PrecisionWindow::full(), 6);
            m1.run(&cfg(), input).unwrap().output
        };
        assert_eq!(single, reference);
    }

    #[test]
    fn deterministic_across_runs() {
        let (m, input) = toy_model();
        let a = m.run(&cfg(), input.clone()).unwrap();
        let b = m.run(&cfg(), input).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.total_cycles(), b.total_cycles());
    }

    #[test]
    fn shape_mismatch_reported() {
        let (m, _) = toy_model();
        let wrong = Tensor3::<u16>::zeros((5, 5, 8));
        let err = m.run(&cfg(), wrong).unwrap_err();
        let InferenceError::ShapeMismatch { op, .. } = err;
        assert_eq!(op, 0);
    }

    #[test]
    fn pool_mismatch_reported() {
        let mut m = NetworkModel::new();
        m.max_pool(9, 2);
        let err = m.run(&cfg(), Tensor3::<u16>::zeros((4, 4, 2))).unwrap_err();
        assert!(err.to_string().contains("max_pool"));
    }

    #[test]
    fn trimming_changes_output_but_not_shape() {
        let (m, input) = toy_model();
        // Narrow window: trimming zeroes low bits of the inputs.
        let mut trimmed_model = NetworkModel::new();
        for op in m.ops() {
            if let LayerOp::Conv { spec, synapses, requant_shift, .. } = op {
                trimmed_model.conv(
                    spec.clone(),
                    synapses.clone(),
                    PrecisionWindow::new(9, 3),
                    *requant_shift,
                );
            } else if let LayerOp::MaxPool { k, stride } = op {
                trimmed_model.max_pool(*k, *stride);
            }
        }
        let cfg_trim = PraConfig::two_stage(2, Representation::Fixed16); // trim on
        let full = m.run(&cfg_trim, input.clone()).unwrap();
        let trimmed = trimmed_model.run(&cfg_trim, input).unwrap();
        assert_eq!(full.output.dim(), trimmed.output.dim());
        assert_ne!(full.output, trimmed.output);
        assert!(trimmed.total_cycles() <= full.total_cycles());
    }
}
