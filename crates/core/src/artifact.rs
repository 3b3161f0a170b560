//! The persisted encoded-artifact tier: serialization of the
//! [`LayerScheduler`] tables of a build (DESIGN.md §15).
//!
//! A layer's schedule table is a pure function of the workload's neuron
//! values and one `(EncodingKey, SchedulerConfig)` pair. This module
//! persists a build's tables in the content-addressed cache
//! (`pra_workloads::cache`) as a third artifact kind next to workload
//! streams and traffic tables, so a warm process pays a read instead of
//! a re-schedule:
//!
//! * **One entry per (workload, pair set)** — a single payload holds one
//!   table per layer per distinct pair, in the build's pair order.
//! * **Fidelity-free keys** — the key deliberately excludes
//!   [`crate::Fidelity`]: every build schedules every in-grid brick, and
//!   a `Sampled` run reads a subset of the bricks a `Full` run reads, so
//!   one entry serves both.
//! * **Seed-aware, neuron-free keys** — unlike traffic tables, schedules
//!   *do* depend on neuron values, so the key absorbs the workload's
//!   content address (which covers network descriptor, calibration
//!   inputs, generator version and seed) plus per-layer geometry and
//!   windows — never the neurons themselves, so a warm run resolves the
//!   entry before any workload exists.
//! * **Whole, fail-closed loads** — the payload decodes as one unit: any
//!   mismatch (foreign pair set, geometry drift, a short or long
//!   payload, an impossible table entry, [`ENCODER_VERSION`] drift,
//!   corruption caught by the container checksum) makes the load answer
//!   `None` and the caller rebuild every table, bit-identically. The
//!   decoder never panics on any input.
//!
//! The traffic tier's codec (`"tr"` entries, keyed in `crate::shared`)
//! lives here too, so both decoders of untrusted cache bytes sit under
//! the same no-panic lint scope.

use std::sync::Arc;

use pra_sim::AccessCounters;
use pra_tensor::Dim3;
use pra_workloads::cache::{CacheKey, KeyHasher};
use pra_workloads::{LayerView, Network, Representation};

use crate::column::{ScanOrder, SchedulerConfig};
use crate::config::{Encoding, EncodingKey};
use crate::schedule::LayerScheduler;
use crate::shared::SharedLayer;

/// Version of the persisted encoded-artifact payload. Bump whenever a
/// code change alters the serialized bytes (mask encoding, schedule
/// packing, payload layout): the version is embedded in every entry
/// and hashed into every key, so old entries become unreachable
/// instead of deserializing into wrong artifacts.
pub const ENCODER_VERSION: u32 = 2;

/// Cache entry kind for persisted schedule tables.
pub const ENCODED_KIND: &str = "en";

/// Compile-time fingerprint of the table build's sources (this module,
/// the table build, the scheduler itself, the fixed-point trim/CSD
/// kernels and the padded brick read the masks come from), mixed into
/// every encoded key: a change that forgets the [`ENCODER_VERSION`]
/// bump makes old entries unreachable locally, matching the workload
/// and traffic caches' fail-closed behavior.
fn encoder_source_fingerprint() -> u64 {
    static FP: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FP.get_or_init(|| {
        let sources: [&str; 6] = [
            include_str!("artifact.rs"),
            include_str!("schedule.rs"),
            include_str!("column.rs"),
            include_str!("../../fixed/src/precision.rs"),
            include_str!("../../fixed/src/csd.rs"),
            include_str!("../../tensor/src/tensor3.rs"),
        ];
        let mut h = 0u64;
        for s in sources {
            h = pra_workloads::cache::checksum64(s.as_bytes()) ^ h.rotate_left(9);
        }
        h
    })
}

fn encoding_tag(e: Encoding) -> u8 {
    match e {
        Encoding::Oneffset => 0,
        Encoding::Csd => 1,
    }
}

fn order_tag(o: ScanOrder) -> u8 {
    match o {
        ScanOrder::LsbFirst => 0,
        ScanOrder::MsbFirst => 1,
    }
}

/// Content-address of a stored build's encoded artifacts under `wanted`:
/// the workload's identity, `(network, repr, seed)` through
/// `workload_key` (which covers the network descriptor, profile and
/// calibration inputs, generator version and seed), plus every layer's
/// geometry, window and Stripes precision as `layers` describes them.
///
/// For a stored workload, neurons and activation model alike are
/// functions of `workload_key`'s inputs, so the key needs neither and a
/// warm run derives it before any workload exists: from
/// `pra_workloads::layer_views`, which equal a stored workload's own
/// views. Hashing the geometry keeps a hand-built test workload that
/// reuses a real network's name off the real network's entry.
pub(crate) fn encoded_key(
    network: Network,
    repr: Representation,
    seed: u64,
    layers: &[LayerView<'_>],
    wanted: &[(EncodingKey, SchedulerConfig)],
) -> CacheKey {
    let mut h = KeyHasher::new("pra-encoded-v1");
    h.u32(ENCODER_VERSION);
    h.u64(encoder_source_fingerprint());
    h.str(pra_workloads::cache::workload_key(network, repr, seed).hex());
    h.u64(layers.len() as u64);
    for layer in layers {
        h.conv_spec(layer.spec);
        h.u32(u32::from(layer.window.msb()));
        h.u32(u32::from(layer.window.lsb()));
        h.u32(u32::from(layer.stripes_precision));
    }
    h.u64(wanted.len() as u64);
    for &(key, cfg) in wanted {
        h.u32(u32::from(key.software_trim));
        h.u32(u32::from(encoding_tag(key.encoding)));
        h.u32(u32::from(cfg.l_bits));
        h.u32(u32::from(order_tag(cfg.order)));
        h.u32(u32::from(cfg.per_cycle));
    }
    h.finish()
}

/// The payload header: layer count, pair count, then each pair's trim,
/// encoding, `L`, scan order and per-cycle width.
fn header(layers: usize, wanted: &[(EncodingKey, SchedulerConfig)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(layers as u32).to_le_bytes());
    out.extend_from_slice(&(wanted.len() as u32).to_le_bytes());
    for &(key, cfg) in wanted {
        out.extend_from_slice(&[
            u8::from(key.software_trim),
            encoding_tag(key.encoding),
            cfg.l_bits,
            order_tag(cfg.order),
            cfg.per_cycle,
        ]);
    }
    out
}

/// A layer's geometry as the payload stores it: `x`, `y`, `i`.
fn dim_bytes(dim: Dim3) -> Vec<u8> {
    [dim.x, dim.y, dim.i].iter().flat_map(|&d| (d as u32).to_le_bytes()).collect()
}

/// Serializes a build's tables: the [`header`], then per layer its
/// geometry and one table per pair, in the build's order — which is
/// `wanted`'s. All integers are little-endian; the cache container adds
/// the integrity trailer.
pub(crate) fn encode_layers(
    layers: &[&SharedLayer],
    wanted: &[(EncodingKey, SchedulerConfig)],
) -> Vec<u8> {
    let mut out = header(layers.len(), wanted);
    for layer in layers {
        if let Some((_, _, first)) = layer.schedulers.first() {
            out.extend(dim_bytes(first.dim()));
        }
        for (_, _, sched) in &layer.schedulers {
            out.extend(sched.table().iter().flat_map(|e| e.to_le_bytes()));
        }
    }
    out
}

/// Inverse of [`encode_layers`] for a build of `wanted` over layers of
/// geometry `dims`: every layer decodes, or the payload is `None` — a
/// foreign header, a geometry mismatch, a short table, an impossible
/// entry or a trailing byte all fail closed, never panic.
pub(crate) fn decode_layers(
    payload: &[u8],
    wanted: &[(EncodingKey, SchedulerConfig)],
    dims: &[Dim3],
) -> Option<Vec<SharedLayer>> {
    let mut rest = payload.strip_prefix(header(dims.len(), wanted).as_slice())?;
    let mut layers = Vec::with_capacity(dims.len());
    for &dim in dims {
        rest = rest.strip_prefix(dim_bytes(dim).as_slice())?;
        let bytes = dim.x.checked_mul(dim.y)?.checked_mul(dim.bricks_deep())?.checked_mul(4)?;
        let mut schedulers = Vec::with_capacity(wanted.len());
        for &(key, cfg) in wanted {
            let (raw, tail) = rest.split_at_checked(bytes)?;
            rest = tail;
            let table = raw.as_chunks::<4>().0.iter().map(|&w| u32::from_le_bytes(w)).collect();
            schedulers.push((key, cfg, Arc::new(LayerScheduler::from_table(dim, table)?)));
        }
        layers.push(SharedLayer { schedulers });
    }
    rest.is_empty().then_some(layers)
}

/// Serializes a per-layer traffic table: layer count, then the seven
/// [`AccessCounters`] fields per layer, all `u64` little-endian.
pub(crate) fn encode_traffic(table: &[AccessCounters]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + table.len() * 56);
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for c in table {
        for v in [
            c.nm_brick_reads,
            c.nm_row_activations,
            c.nm_brick_writes,
            c.sb_set_reads,
            c.terms,
            c.idle_lane_cycles,
            c.stall_cycles,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Inverse of [`encode_traffic`]; `None` unless the payload holds
/// exactly `expected_layers` entries (a geometry change without a key
/// change would be a bug, but stale bytes must still fail closed).
pub(crate) fn decode_traffic(
    payload: &[u8],
    expected_layers: usize,
) -> Option<Vec<AccessCounters>> {
    let (count, body) = payload.split_first_chunk::<4>()?;
    let n = u32::from_le_bytes(*count) as usize;
    if n != expected_layers || Some(body.len()) != n.checked_mul(56) {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    let mut vals = body.as_chunks::<8>().0.iter().map(|&c| u64::from_le_bytes(c));
    for _ in 0..n {
        out.push(AccessCounters {
            nm_brick_reads: vals.next()?,
            nm_row_activations: vals.next()?,
            nm_brick_writes: vals.next()?,
            sb_set_reads: vals.next()?,
            terms: vals.next()?,
            idle_lane_cycles: vals.next()?,
            stall_cycles: vals.next()?,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_workloads::cache::ArtifactKind;

    #[test]
    fn encoded_kind_matches_store_tag() {
        assert_eq!(ENCODED_KIND, ArtifactKind::Encoded.tag());
        assert_eq!(crate::shared::TRAFFIC_KIND, ArtifactKind::Traffic.tag());
        assert_eq!(pra_workloads::cache::WORKLOAD_KIND, ArtifactKind::Workload.tag());
    }

    #[test]
    fn keys_separate_pair_sets_seeds_and_versions() {
        use crate::{PraConfig, SharedEncodedNetwork};
        use pra_workloads::cache::{ArtifactStore, CacheOutcome};
        use pra_workloads::{layer_views, NetworkWorkload};

        let toy = crate::shared::test_toy_workload();
        let key = |w: &NetworkWorkload, seed: u64, wanted: &[_]| {
            encoded_key(w.network, w.repr, seed, &w.views(), wanted)
        };
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let single = PraConfig::single_stage(Representation::Fixed16);
        let wanted = [(one.encoding_key(), one.scheduler())];
        let base = key(&toy, 7, &wanted);
        assert_eq!(base, key(&toy, 7, &wanted), "deterministic");
        assert_ne!(base, key(&toy, 8, &wanted), "seed separates");
        let wider =
            [(one.encoding_key(), one.scheduler()), (single.encoding_key(), single.scheduler())];
        assert_ne!(base, key(&toy, 7, &wider), "pair set separates");
        // Fidelity must NOT separate: it never reaches the key inputs.
        let mut fewer_layers = toy.clone();
        fewer_layers.layers.truncate(1);
        assert_ne!(base, key(&fewer_layers, 7, &wanted), "layer count separates");
        let mut reshaped = toy.clone();
        reshaped.layers[1].spec =
            pra_tensor::ConvLayerSpec::new("toy", (12, 6, 32), (3, 3), 32, 1, 0).unwrap();
        assert_ne!(base, key(&reshaped, 7, &wanted), "geometry separates");
        let mut rewindowed = toy.clone();
        rewindowed.layers[0].window = pra_fixed::PrecisionWindow::with_width(10, 2);
        assert_ne!(base, key(&rewindowed, 7, &wanted), "windows separate");
        let mut restriped = toy.clone();
        restriped.layers[0].stripes_precision = 10;
        assert_ne!(base, key(&restriped, 7, &wanted), "Stripes precision separates");
        // The activation model no longer separates: for a stored
        // workload it is a function of `workload_key`'s inputs.
        let mut remodeled = toy.clone();
        remodeled.model.sigma *= 2.0;
        assert_eq!(base, key(&remodeled, 7, &wanted), "the model is not a key input");

        // A stored AlexNet workload derives exactly the neuron-free
        // resolve's key; the hand-built toy, which reuses AlexNet's name
        // with its own geometry, never reads or publishes that entry.
        let seed = 7;
        let real = NetworkWorkload::build_with_model(
            Network::AlexNet,
            Representation::Fixed16,
            toy.model,
            seed,
        );
        let views = layer_views(Network::AlexNet, Representation::Fixed16);
        assert_eq!(real.views(), views, "a stored workload's views are the static ones");
        let resolved =
            encoded_key(Network::AlexNet, Representation::Fixed16, seed, &views, &wanted);
        assert_eq!(key(&real, seed, &wanted), resolved);
        assert_ne!(key(&toy, seed, &wanted), resolved, "the toy cannot alias the real entry");

        let dir = std::env::temp_dir().join(format!("pra-artifact-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(&dir).tier(pra_workloads::cache::ArtifactKind::Encoded);
        let entries = || store.cache_for(ArtifactKind::Encoded).unwrap().stats().entries;
        let configs = [one];
        let (_, out) = SharedEncodedNetwork::from_workload_stored(&configs, &toy, seed, &store);
        assert_eq!((out.encoded, entries()), (CacheOutcome::Miss, 1), "the toy publishes its own");
        let resolve = |sourced: &mut bool| {
            let build = SharedEncodedNetwork::resolve(
                &configs,
                Network::AlexNet,
                Representation::Fixed16,
                seed,
                &store,
                || {
                    *sourced = true;
                    real.clone()
                },
            );
            let outcome = build.encoded_outcome();
            drop(build.finish(&store));
            outcome
        };
        let mut sourced = false;
        assert_eq!(resolve(&mut sourced), CacheOutcome::Miss, "the toy's entry is not read");
        assert!(sourced, "a miss builds over the stored workload");
        assert_eq!(entries(), 2, "the real build publishes its own entry");
        let mut sourced = false;
        assert_eq!(resolve(&mut sourced), CacheOutcome::Hit, "the published entry resolves");
        assert!(!sourced, "a hit reads no workload");
        let (_, out) = SharedEncodedNetwork::from_workload_stored(&configs, &toy, seed, &store);
        assert_eq!((out.encoded, entries()), (CacheOutcome::Hit, 2), "the toy reads its own");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
