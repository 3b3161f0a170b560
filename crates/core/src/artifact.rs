//! The persisted encoded-artifact tier: serialization of
//! [`EncodedLayer`] mask buffers and warm [`LayerScheduler`] memo
//! tables (DESIGN.md §15).
//!
//! The encode phase — trimming and term-encoding every neuron, plus the
//! brick-schedule memo fills the simulator performs — is a pure
//! function of the workload's neuron values and the distinct
//! `(EncodingKey, SchedulerConfig)` pairs a run evaluates. This module
//! persists that work in the content-addressed cache
//! (`pra_workloads::cache`) as a second artifact kind next to workload
//! streams and traffic tables, so a warm process pays a deserialize
//! instead of a re-encode:
//!
//! * **One entry per (workload, pair set)** — a single payload covers
//!   every distinct pair, preserving the in-memory sharing invariant on
//!   load: pairs that agree on the [`EncodingKey`] share one mask
//!   buffer `Arc`, exactly as a fresh build would.
//! * **Fidelity-free keys** — the key deliberately excludes
//!   [`crate::Fidelity`]: a `Sampled` run visits a subset of the bricks
//!   a `Full` run visits, and memo values are pure functions of
//!   `(masks, SchedulerConfig)`, so one entry serves both. Memo slots
//!   never visited serialize as the lazy sentinel and stay lazy after a
//!   load.
//! * **Seed-aware keys** — unlike traffic tables, masks *do* depend on
//!   neuron values, so the key absorbs the workload's content address
//!   (which covers network descriptor, calibration inputs, generator
//!   version and seed) plus the workload's actual per-layer geometry
//!   and windows.
//! * **Fail-closed loads** — any mismatch (geometry drift, foreign pair
//!   set, short payload, [`ENCODER_VERSION`] drift, corruption caught
//!   by the container checksum) makes the load answer `None` and the
//!   caller re-encode, bit-identically.

use std::sync::Arc;

use pra_workloads::cache::{CacheKey, KeyHasher};
use pra_workloads::NetworkWorkload;

use crate::column::{ScanOrder, SchedulerConfig};
use crate::config::{Encoding, EncodingKey};
use crate::schedule::{EncodedLayer, LayerScheduler};
use crate::shared::SharedLayer;

/// Version of the persisted encoded-artifact payload. Bump whenever a
/// code change alters the serialized bytes (mask encoding, memo
/// packing, payload layout): the version is embedded in every entry
/// and hashed into every key, so old entries become unreachable
/// instead of deserializing into wrong artifacts.
pub const ENCODER_VERSION: u32 = 1;

/// Cache entry kind for persisted encoded layers + schedule memos.
pub const ENCODED_KIND: &str = "en";

/// Compile-time fingerprint of the encoding pipeline's sources (this
/// module, the encode/schedule pipeline, the scheduler itself and the
/// fixed-point trim/CSD kernels), mixed into every encoded key: an
/// encoding change that forgets the [`ENCODER_VERSION`] bump makes old
/// entries unreachable locally, matching the workload and traffic
/// caches' fail-closed behavior.
fn encoder_source_fingerprint() -> u64 {
    static FP: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FP.get_or_init(|| {
        let sources: [&str; 5] = [
            include_str!("artifact.rs"),
            include_str!("schedule.rs"),
            include_str!("column.rs"),
            include_str!("../../fixed/src/precision.rs"),
            include_str!("../../fixed/src/csd.rs"),
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

/// The distinct [`EncodingKey`]s of `wanted`, preserving
/// first-appearance order (the same order the shared build dedups in).
fn distinct_keys(wanted: &[(EncodingKey, SchedulerConfig)]) -> Vec<EncodingKey> {
    let mut keys: Vec<EncodingKey> = Vec::new();
    for &(key, _) in wanted {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

/// Content-address of a workload's encoded artifacts under `wanted`.
///
/// The workload's identity enters twice, belt and braces: through its
/// content address (`workload_key`, which covers the network
/// descriptor, profile/calibration inputs, generator version and
/// `seed`) and through the workload's *actual* per-layer geometry,
/// windows and activation-model parameters — so a hand-built test
/// workload that reuses a real network's name can never alias the real
/// network's entry.
pub(crate) fn encoded_key(
    workload: &NetworkWorkload,
    seed: u64,
    wanted: &[(EncodingKey, SchedulerConfig)],
) -> CacheKey {
    let mut h = KeyHasher::new("pra-encoded-v1");
    h.u32(ENCODER_VERSION);
    h.u64(encoder_source_fingerprint());
    h.str(pra_workloads::cache::workload_key(workload.network, workload.repr, seed).hex());
    for v in [
        workload.model.zero_frac,
        workload.model.sigma,
        workload.model.suffix_density,
        workload.model.outlier_prob,
        workload.model.dense_prob,
        workload.model.heavy_share,
    ] {
        h.f64(v);
    }
    h.u64(workload.layers.len() as u64);
    for layer in &workload.layers {
        h.conv_spec(&layer.spec);
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

/// Serializes every layer's shared artifacts: a pair-set descriptor,
/// then per layer the geometry, one mask buffer per distinct
/// [`EncodingKey`] and one memo snapshot per pair. All integers are
/// little-endian; the cache container adds the integrity trailer.
pub(crate) fn encode_layers(
    layers: &[SharedLayer],
    wanted: &[(EncodingKey, SchedulerConfig)],
) -> Vec<u8> {
    let keys = distinct_keys(wanted);
    let mut out = Vec::new();
    out.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    out.push(keys.len() as u8);
    for key in &keys {
        out.push(u8::from(key.software_trim));
        out.push(encoding_tag(key.encoding));
    }
    out.push(wanted.len() as u8);
    for &(key, cfg) in wanted {
        let key_index = keys.iter().position(|k| *k == key).unwrap_or(0) as u8;
        out.push(key_index);
        out.push(cfg.l_bits);
        out.push(order_tag(cfg.order));
        out.push(cfg.per_cycle);
    }
    for layer in layers {
        // Every pair of a layer shares one geometry; take it from the
        // first scheduler's mask buffer.
        let dim = layer.schedulers[0].2.encoded().dim();
        for d in [dim.x, dim.y, dim.i] {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for key in &keys {
            let encoded = layer
                .schedulers
                .iter()
                .find(|(k, _, _)| k == key)
                .map(|(_, _, s)| s.encoded())
                .expect("every distinct key has at least one scheduler");
            out.reserve(encoded.masks().len() * 4);
            for &m in encoded.masks() {
                out.extend_from_slice(&m.to_le_bytes());
            }
        }
        for &(key, cfg) in wanted {
            let sched = layer
                .schedulers
                .iter()
                .find(|(k, s, _)| *k == key && *s == cfg)
                .map(|(_, _, s)| s)
                .expect("every wanted pair has a scheduler");
            let memo = sched.memo_snapshot();
            out.reserve(memo.len() * 8);
            for m in memo {
                out.extend_from_slice(&m.to_le_bytes());
            }
        }
    }
    out
}

/// A streaming decoder over an owned payload: the header (pair-set
/// descriptor) is validated up front by [`LayerDecoder::new`], then
/// [`LayerDecoder::next_layer`] materializes one layer at a time — so
/// the build loop can hand layer *n* to a waiting simulation thread
/// while layer *n + 1* is still being parsed, exactly mirroring how a
/// cold build streams layers out of the encoder. Every read is
/// bounds-checked so stale or foreign bytes fail closed (`None`)
/// instead of panicking.
pub(crate) struct LayerDecoder {
    payload: Vec<u8>,
    pos: usize,
    keys: Vec<EncodingKey>,
    wanted: Vec<(EncodingKey, SchedulerConfig)>,
    pair_key_index: Vec<usize>,
    dims: Vec<pra_tensor::Dim3>,
    next: usize,
}

impl LayerDecoder {
    /// Validates the payload header against what the caller is about to
    /// build: the pair set must match `wanted` exactly (content and
    /// order) and the layer count must match `dims`. `None` on any
    /// mismatch — the caller re-encodes from the workload.
    pub(crate) fn new(
        payload: Vec<u8>,
        wanted: &[(EncodingKey, SchedulerConfig)],
        dims: &[pra_tensor::Dim3],
    ) -> Option<Self> {
        let mut d = LayerDecoder {
            payload,
            pos: 0,
            keys: distinct_keys(wanted),
            wanted: wanted.to_vec(),
            pair_key_index: Vec::with_capacity(wanted.len()),
            dims: dims.to_vec(),
            next: 0,
        };
        if d.u32()? as usize != d.dims.len() || d.u8()? as usize != d.keys.len() {
            return None;
        }
        for i in 0..d.keys.len() {
            let key = d.keys[i];
            if d.u8()? != u8::from(key.software_trim) || d.u8()? != encoding_tag(key.encoding) {
                return None;
            }
        }
        if d.u8()? as usize != d.wanted.len() {
            return None;
        }
        for i in 0..d.wanted.len() {
            let (key, cfg) = d.wanted[i];
            let key_index = d.u8()? as usize;
            if d.keys.get(key_index) != Some(&key)
                || d.u8()? != cfg.l_bits
                || d.u8()? != order_tag(cfg.order)
                || d.u8()? != cfg.per_cycle
            {
                return None;
            }
            d.pair_key_index.push(key_index);
        }
        Some(d)
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let head = self.payload.get(self.pos..end)?;
        self.pos = end;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Decodes the next layer in index order, validating its geometry
    /// against the expected dim. `None` when every layer has already
    /// been decoded, or on any payload mismatch (fail closed — the
    /// caller rebuilds that layer fresh, bit-identically).
    pub(crate) fn next_layer(&mut self) -> Option<SharedLayer> {
        let dim = *self.dims.get(self.next)?;
        self.next += 1;
        let (x, y, i) = (self.u32()? as usize, self.u32()? as usize, self.u32()? as usize);
        if x != dim.x || y != dim.y || i != dim.i {
            return None;
        }
        let bricks = dim.x.checked_mul(dim.y)?.checked_mul(dim.i.div_ceil(pra_tensor::BRICK))?;
        let mut encodings: Vec<Arc<EncodedLayer>> = Vec::with_capacity(self.keys.len());
        for _ in 0..self.keys.len() {
            let raw = self.take(bricks.checked_mul(pra_tensor::BRICK * 4)?)?;
            let masks: Vec<u32> =
                raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
            encodings.push(Arc::new(EncodedLayer::from_parts(dim, masks)?));
        }
        let mut schedulers = Vec::with_capacity(self.wanted.len());
        for p in 0..self.wanted.len() {
            let (key, cfg) = self.wanted[p];
            let raw = self.take(bricks.checked_mul(8)?)?;
            let memo: Vec<u64> =
                raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
            let encoded = Arc::clone(&encodings[self.pair_key_index[p]]);
            schedulers.push((
                key,
                cfg,
                Arc::new(LayerScheduler::with_encoded_memo(encoded, cfg, memo)?),
            ));
        }
        Some(SharedLayer { schedulers })
    }

    /// `true` once every expected layer decoded and no trailing bytes
    /// remain — only then does the build count the entry as a hit.
    pub(crate) fn fully_consumed(&self) -> bool {
        self.next == self.dims.len() && self.pos == self.payload.len()
    }
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
        let workload = crate::shared::test_toy_workload();
        let one = crate::PraConfig::two_stage(2, pra_workloads::Representation::Fixed16);
        let wanted = [(one.encoding_key(), one.scheduler())];
        let base = encoded_key(&workload, 7, &wanted);
        assert_eq!(base, encoded_key(&workload, 7, &wanted), "deterministic");
        assert_ne!(base, encoded_key(&workload, 8, &wanted), "seed separates");
        let single = crate::PraConfig::single_stage(pra_workloads::Representation::Fixed16);
        let wider =
            [(one.encoding_key(), one.scheduler()), (single.encoding_key(), single.scheduler())];
        assert_ne!(base, encoded_key(&workload, 7, &wider), "pair set separates");
        // Fidelity must NOT separate: it never reaches the key inputs.
        let mut fewer_layers = workload.clone();
        fewer_layers.layers.truncate(1);
        assert_ne!(base, encoded_key(&fewer_layers, 7, &wanted), "geometry separates");
    }
}
