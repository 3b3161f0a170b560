//! Workload substrate for the Pragmatic (MICRO 2017) reproduction.
//!
//! The paper evaluates six ImageNet networks — AlexNet, NiN, GoogLeNet,
//! VGG-M, VGG-S and VGG-19 — on their convolutional layers (§VI-A). This
//! crate provides:
//!
//! * [`networks`] — the convolutional-layer geometry of all six networks.
//! * [`profiles`] — the per-layer neuron precisions of Table II and the
//!   essential-bit-content measurements of Table I (used as calibration
//!   targets and as the paper-side of every paper-vs-measured report).
//! * [`generator`] — seeded synthetic activation streams: rectified
//!   half-Gaussian magnitudes inside each layer's precision window, plus
//!   suffix-noise and prefix-outlier bits that software trimming (§V-F)
//!   removes.
//! * [`calibrate`] — fits the generator so the measured essential-bit
//!   content reproduces Table I (see DESIGN.md §2 for why this substitution
//!   preserves the paper's behaviour).
//! * [`stats`] — measures Table I from a generated workload.
//! * [`cache`] — the content-addressed on-disk store that makes repeat
//!   builds of the same `(network, repr, seed)` stream generation-free
//!   (DESIGN.md §9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod calibrate;
pub mod generator;
pub mod networks;
pub mod profiles;
pub mod stats;
pub mod traces;

pub use cache::CacheOutcome;
pub use generator::{
    layer_views, mix_seed, ActivationModel, DrawParts, LayerView, LayerWorkload, NetworkWorkload,
    Representation, Sampler,
};
pub use networks::Network;
