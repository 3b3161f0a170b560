//! Pragmatic (PRA) — the paper's contribution (§III, §V).
//!
//! Pragmatic processes only the essential (non-zero) bits of input neurons
//! by (1) converting neurons on-the-fly into explicit lists of powers of
//! two (*oneffsets*), (2) processing neurons bit-serially against
//! bit-parallel 16-bit synapses, (3) processing 16 windows (a pallet) per
//! tile concurrently so the worst case still matches DaDianNao, and
//! (4) rearranging shifts into two stages to shrink the datapath (§V-D).
//!
//! Module map:
//!
//! * [`config`] — [`PraConfig`]: first-stage shifter width `L`,
//!   synchronization policy, software trimming, representation, encoding,
//!   simulation fidelity.
//! * [`column`](mod@column) — the per-column oneffset scheduler: the greedy
//!   minimum-oneffset rule of Fig. 7 that decides, each cycle, which lanes
//!   consume an oneffset and which stall.
//! * [`pip`] — the Pragmatic Inner Product unit datapath (Fig. 6): shift,
//!   negate, reduce, second-stage shift; used by the functional model.
//! * [`tile`] — a 16×16 PIP tile under per-pallet (§V-A4) or per-column
//!   (§V-E) synchronization with synapse set registers (SSRs).
//! * [`schedule`] — layer-scoped scheduling: the dense per-brick
//!   `(cycles, terms)` table the simulator's hot path reads.
//! * [`artifact`] — the persisted encoded-artifact tier: serialization
//!   of schedule tables into the content-addressed store, keyed over
//!   the workload's identity and static geometry (never its neurons),
//!   shared across fidelities.
//! * [`shared`] — build-once artifacts shared across design points:
//!   one schedule table per ([`EncodingKey`], [`SchedulerConfig`])
//!   pair, one traffic count per layer (the sweep's cross-config
//!   reuse), resolved from the store before any workload is read.
//! * [`sim`] — layer- and network-level simulation producing
//!   [`pra_sim::RunResult`]s comparable with the baseline engines:
//!   [`run_shared`] runs a network's neuron-free layer views against
//!   one [`SharedEncodedNetwork`], [`simulate_layer_shared`] one layer against a
//!   scheduler, [`simulate_layer`] one layer unshared, and
//!   [`simulate_layer_raw`] is the per-fetch oracle.
//! * [`functional`] — bit-exact computation of layer outputs through the
//!   oneffset datapath, verified against the reference convolution.
//!
//! Because every tile receives the same broadcast neuron pallet and the
//! columns of every tile stay in lock-step with the corresponding columns
//! of all other tiles, the chip's cycle count equals one tile's cycle
//! count times the number of filter groups; the simulator therefore models
//! one tile exactly and scales (the same argument the paper uses in
//! §V-A3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod column;
pub mod config;
pub mod functional;
pub mod inference;
pub mod pip;
pub mod schedule;
pub mod shared;
pub mod sim;
pub mod tile;

pub use artifact::{ENCODED_KIND, ENCODER_VERSION};
pub use column::{ScanOrder, SchedulerConfig};
pub use config::{Encoding, EncodingKey, Fidelity, PraConfig, SyncPolicy};
pub use schedule::LayerScheduler;
pub use shared::{
    ArtifactPool, PipelinedBuild, PoolClaim, SharedEncodedNetwork, StoreOutcomes, TRAFFIC_KIND,
    TRAFFIC_VERSION,
};
pub use sim::{run_shared, simulate_layer, simulate_layer_raw, simulate_layer_shared};
