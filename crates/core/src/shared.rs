//! Build-once simulation artifacts shared across design points.
//!
//! A sweep job evaluates one workload under several [`PraConfig`]s, and
//! most of what `simulate_layer` builds per run does not depend on the
//! whole design point:
//!
//! * the brick-schedule table ([`LayerScheduler`]) depends only on the
//!   layer's neurons, its precision window, the [`EncodingKey`] (trim +
//!   encoding) and the [`SchedulerConfig`] — synchronization policy,
//!   chip structure and fidelity never reach it, so e.g. `PRA-2b` and
//!   `PRA-2b-1R` share one table, and pairs that agree on the key share
//!   one encoding pass while it is built;
//! * the NM/SB traffic counters are identical across *all* engines by
//!   the paper's scheduling convention (§VI-A, [`shared_traffic`]) as
//!   long as chip, NM layout and representation agree.
//!
//! [`SharedEncodedNetwork`] materializes each distinct artifact exactly
//! once per layer and hands out shared handles;
//! [`crate::sim::run_shared`] consumes them in place of the per-run
//! construction. Results are cycle-for-cycle identical to the unshared
//! path — pinned by the equivalence grid in `tests/memo_sim.rs`.
//!
//! Two artifact kinds additionally persist across *processes* through
//! the tiered [`ArtifactStore`] (DESIGN.md §9, §15):
//!
//! * the NM/SB traffic table (`"tr"` entries) — geometry + chip view
//!   only, never neuron values, so one entry serves every seed;
//! * the schedule tables (`"en"` entries, `crate::artifact`) —
//!   neuron-value dependent, keyed over the workload's content address
//!   and static layer geometry (never the neurons), shared across
//!   fidelities.
//!
//! There is one build, and it runs on its callers' threads. It starts
//! by probing both tiers: the traffic table loads from `tr` or is
//! counted from geometry, and an `en` hit fills every layer's slot with
//! its decoded tables. On an `en` miss each slot stays empty until the
//! first caller of [`SharedEncodedNetwork::artifacts`] for that layer
//! schedules it from the workload, so a streamed run's first layer waits
//! for layer 0's tables only. [`PipelinedBuild::finish`] schedules what
//! no run reached and is the only place either tier is published.
//! [`SharedEncodedNetwork::resolve`] starts a stored build from
//! `(network, repr, seed)` alone and reads or generates the workload
//! only when the `en` entry misses. [`ArtifactPool`] sits above it as the
//! in-memory tier, so resolution runs pool → `en` → `wl` → generate.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use pra_engines::shared_traffic;
use pra_sim::{AccessCounters, ChipConfig, Dispatcher, NeuronMemory, NmLayout};
use pra_tensor::ConvLayerSpec;
use pra_workloads::cache::{ArtifactKind, ArtifactStore, CacheKey, CacheOutcome, KeyHasher};
use pra_workloads::{
    layer_views, LayerView, LayerWorkload, Network, NetworkWorkload, Representation,
};

use crate::artifact::{
    decode_layers, decode_traffic, encode_layers, encode_traffic, encoded_key, ENCODED_KIND,
    ENCODER_VERSION,
};
use crate::column::SchedulerConfig;
use crate::config::{EncodingKey, PraConfig};
use crate::schedule::LayerScheduler;

/// Version of the persisted traffic-table artifact. Bump whenever the
/// traffic-counting convention changes (`shared_traffic`, the
/// dispatcher's fetch model, [`AccessCounters`] fields or their
/// serialization order): the version is hashed into the cache key, so
/// old entries become unreachable instead of serving stale counts.
pub const TRAFFIC_VERSION: u32 = 1;

/// Cache entry kind for persisted per-layer traffic tables.
pub const TRAFFIC_KIND: &str = "tr";

/// One layer's shared artifacts: one schedule table per distinct
/// `(EncodingKey, SchedulerConfig)` pair the configuration set needs, in
/// [`wanted_pairs`] order.
pub(crate) struct SharedLayer {
    pub(crate) schedulers: Vec<(EncodingKey, SchedulerConfig, Arc<LayerScheduler>)>,
}

/// The chip view NM/SB traffic is counted under — counters are only
/// handed out to consumers that match it, so a chip/layout/
/// representation ablation can never silently borrow mismatched
/// numbers.
#[derive(Clone, Copy, PartialEq)]
struct TrafficView {
    chip: ChipConfig,
    nm_layout: NmLayout,
    repr: Representation,
}

impl TrafficView {
    fn of(cfg: &PraConfig) -> Self {
        TrafficView { chip: cfg.chip, nm_layout: cfg.nm_layout, repr: cfg.repr }
    }
}

/// The traffic view every configuration shares, `None` when they
/// disagree — the single definition behind both the build-time sharing
/// decision and the cached-table eligibility.
fn shared_view(configs: &[PraConfig]) -> Option<TrafficView> {
    let lead = TrafficView::of(&configs[0]);
    configs.iter().all(|c| TrafficView::of(c) == lead).then_some(lead)
}

/// Per-tier disk outcomes of one [`SharedEncodedNetwork::
/// from_workload_stored`] build, reported in bench.json and the serve
/// telemetry. `Disabled` covers both a disabled tier and (for traffic)
/// a configuration set that does not share one traffic view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcomes {
    /// Schedule tables (`"en"`).
    pub encoded: CacheOutcome,
    /// NM/SB traffic table (`"tr"`).
    pub traffic: CacheOutcome,
}

/// The distinct `(EncodingKey, SchedulerConfig)` pairs of `configs` in
/// first-appearance order, grouped by key so the build encodes each
/// key's masks once — the single definition shared by the build and the
/// encoded-artifact key/payload, so the persisted pair set can never
/// diverge from what a build constructs.
fn wanted_pairs(configs: &[PraConfig]) -> Vec<(EncodingKey, SchedulerConfig)> {
    let mut wanted: Vec<(EncodingKey, SchedulerConfig)> = Vec::new();
    for lead in configs {
        for cfg in configs.iter().filter(|c| c.encoding_key() == lead.encoding_key()) {
            let pair = (cfg.encoding_key(), cfg.scheduler());
            if !wanted.contains(&pair) {
                wanted.push(pair);
            }
        }
    }
    wanted
}

/// Encode-once, schedule-once artifacts for one workload under a set of
/// design points (see the module docs).
pub struct SharedEncodedNetwork {
    /// One slot per layer: filled from the `en` entry when the build
    /// starts, else by the first caller that reaches the layer.
    layers: Vec<OnceLock<SharedLayer>>,
    /// The workload an empty slot is scheduled from; `None` once every
    /// slot is filled, so a finished (pooled) network holds no neurons.
    source: Option<Arc<NetworkWorkload>>,
    /// The pairs every layer holds a table for, in [`wanted_pairs`] order.
    wanted: Vec<(EncodingKey, SchedulerConfig)>,
    /// Per-layer NM/SB traffic, counted under `view` (zeroed when the
    /// configurations disagree on one).
    traffic: Vec<AccessCounters>,
    /// The traffic view every built config shares; `None` when they
    /// disagree — consumers then count their own traffic.
    view: Option<TrafficView>,
    /// The representation of the workload the network was built over.
    repr: Representation,
}

impl SharedEncodedNetwork {
    /// [`SharedEncodedNetwork::from_workload_stored`] without a disk.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn from_workload(configs: &[PraConfig], workload: &NetworkWorkload) -> Self {
        Self::from_workload_stored(configs, workload, 0, &ArtifactStore::at_default().no_disk()).0
    }

    /// Builds the shared artifacts for `workload` under `configs`,
    /// resolved through the tiered artifact store: the build
    /// [`SharedEncodedNetwork::start_pipelined`] starts, with every
    /// layer scheduled up front, then the same [`PipelinedBuild::finish`].
    /// The encoded tier (`"en"`) reads the schedule tables off disk
    /// instead of scheduling; the traffic tier (`"tr"`) replaces the
    /// dispatch recount. `seed` is the workload's generator seed — it
    /// reaches the encoded key through the workload's content address,
    /// since schedules (unlike traffic) depend on neuron values. A stored
    /// workload derives the same key [`SharedEncodedNetwork::resolve`]
    /// derives without one.
    ///
    /// Either tier falls back bit-identically to a fresh build when
    /// disabled, missing, corrupt, truncated or version-drifted, and
    /// `finish` publishes what missed.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn from_workload_stored(
        configs: &[PraConfig],
        workload: &NetworkWorkload,
        seed: u64,
        store: &ArtifactStore,
    ) -> (Self, StoreOutcomes) {
        let ids = (workload.network, workload.repr);
        let build = PipelinedBuild::start(configs, ids, &workload.views(), seed, store, || None);
        let network = &build.network;
        for (slot, layer) in network.layers.iter().zip(&workload.layers) {
            slot.get_or_init(|| build_layer_artifacts(&network.wanted, layer));
        }
        let outcomes =
            StoreOutcomes { encoded: build.encoded_outcome, traffic: build.traffic_outcome };
        (build.finish(store), outcomes)
    }

    /// Starts the build of the shared artifacts for `workload` under
    /// `configs`, resolved through the store as
    /// [`SharedEncodedNetwork::resolve`] resolves it: both tiers are
    /// probed here, and on an `en` miss each layer is scheduled from
    /// `workload` by the first run that reaches it.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn start_pipelined(
        configs: &[PraConfig],
        workload: &Arc<NetworkWorkload>,
        seed: u64,
        store: &ArtifactStore,
    ) -> PipelinedBuild {
        let ids = (workload.network, workload.repr);
        PipelinedBuild::start(configs, ids, &workload.views(), seed, store, || {
            Some(Arc::clone(workload))
        })
    }

    /// Resolves the stored build of `(network, repr, seed)` under
    /// `configs` in the order a warm run reads least: the encoded tier
    /// first, keyed from [`layer_views`] — no workload exists yet — then,
    /// only when that entry misses, the workload from `source` (the `wl`
    /// tier or the generator), which the runs schedule their layers from
    /// as they reach them.
    ///
    /// On a hit the returned build is already complete: every table
    /// decoded off disk, traffic loaded from its tier or counted from
    /// geometry, `source` never called. Either way the caller simulates
    /// against [`PipelinedBuild::network`] over [`layer_views`] and
    /// `finish`es the build, which publishes whatever missed. `source`
    /// must yield the stored workload of `(network, repr, seed)`, whose
    /// views equal [`layer_views`].
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn resolve(
        configs: &[PraConfig],
        network: Network,
        repr: Representation,
        seed: u64,
        store: &ArtifactStore,
        source: impl FnOnce() -> NetworkWorkload,
    ) -> PipelinedBuild {
        let views = layer_views(network, repr);
        PipelinedBuild::start(configs, (network, repr), &views, seed, store, || {
            Some(Arc::new(source()))
        })
    }

    /// Number of layers the artifacts were built for.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The shared schedule table for `layer` under `cfg`, plus the layer's
    /// NM/SB traffic counters — `None` when `cfg`'s chip, NM layout or
    /// representation differs from the view they were counted under
    /// (the caller then computes its own). On a build that missed the
    /// `en` tier, the first call for a layer schedules that layer's
    /// tables from the workload on the caller's thread; concurrent
    /// callers for the same layer wait for it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg`'s representation is not the workload's, or if the
    /// network was not built for a configuration with `cfg`'s encoding
    /// key and scheduler parameters — sharing silently mismatched
    /// artifacts would corrupt results.
    pub fn artifacts(
        &self,
        layer: usize,
        cfg: &PraConfig,
    ) -> (Arc<LayerScheduler>, Option<AccessCounters>) {
        assert_eq!(cfg.repr, self.repr, "configuration representation must match the workload");
        let pair = (cfg.encoding_key(), cfg.scheduler());
        let sched = self
            .layer(layer)
            .schedulers
            .iter()
            .find(|(k, s, _)| (*k, *s) == pair)
            .map(|(_, _, sched)| Arc::clone(sched))
            .unwrap_or_else(|| {
                panic!("shared artifacts were not built for {} (layer {layer})", cfg.label())
            });
        (sched, (self.view == Some(TrafficView::of(cfg))).then_some(self.traffic[layer]))
    }

    /// Layer `idx`'s tables, scheduled from the workload if its slot is
    /// still empty.
    fn layer(&self, idx: usize) -> &SharedLayer {
        self.layers[idx].get_or_init(|| {
            let workload = self.source.as_ref().expect("an unbuilt layer has a workload");
            build_layer_artifacts(&self.wanted, &workload.layers[idx])
        })
    }

    /// All per-layer traffic counters — the slice other engines'
    /// `run_views` entry points accept — provided the caller's chip
    /// view matches the one the counters were counted under. `layout`
    /// is the NM layout the caller's dispatcher would use
    /// (`NmLayout::default()` for the baseline engines).
    pub fn traffic_view(
        &self,
        chip: &ChipConfig,
        layout: NmLayout,
        repr: Representation,
    ) -> Option<&[AccessCounters]> {
        (self.view == Some(TrafficView { chip: *chip, nm_layout: layout, repr }))
            .then_some(self.traffic.as_slice())
    }
}

/// Counts one layer's NM/SB traffic under the lead configuration's
/// chip view — the per-layer unit of the §VI-A shared-traffic
/// convention, a function of geometry alone.
fn count_traffic(lead: &PraConfig, spec: &ConvLayerSpec) -> AccessCounters {
    let nm = NeuronMemory::new(lead.nm_layout, lead.chip.nm_row_neurons(lead.repr.bits()));
    shared_traffic(&lead.chip, spec, &Dispatcher::new(nm))
}

/// Schedules one layer's tables, one per pair of `wanted`, in one pass
/// over its neurons.
fn build_layer_artifacts(
    wanted: &[(EncodingKey, SchedulerConfig)],
    layer: &LayerWorkload,
) -> SharedLayer {
    let tables = LayerScheduler::build(wanted, layer.window, &layer.neurons);
    let schedulers = wanted.iter().zip(tables).map(|(&(k, s), t)| (k, s, Arc::new(t))).collect();
    SharedLayer { schedulers }
}

/// A [`SharedEncodedNetwork`] build that has started but not finished:
/// the network, whose empty slots the runs fill as they reach them
/// (see [`SharedEncodedNetwork::artifacts`]), plus what
/// [`PipelinedBuild::finish`] publishes. Scheduling a layer is pure, so
/// which run fills a slot, and in what order, never changes a byte.
pub struct PipelinedBuild {
    network: SharedEncodedNetwork,
    /// The `en` key `finish` publishes the tables under (`None` when the
    /// tier is off or the entry decoded).
    encoded_miss: Option<CacheKey>,
    /// The `tr` key `finish` publishes a cold count under (`None` when
    /// uncacheable or the table loaded).
    traffic_miss: Option<CacheKey>,
    /// See [`PipelinedBuild::encoded_outcome`].
    encoded_outcome: CacheOutcome,
    /// See [`PipelinedBuild::traffic_outcome`].
    traffic_outcome: CacheOutcome,
}

impl PipelinedBuild {
    /// Starts a build of the network `views` describe — the stored
    /// `(network, repr)` at `seed` — under `configs`. It derives the
    /// encoded key (cheap — it hashes generation inputs and geometry,
    /// not tensors) and decodes the whole entry into every slot; on a
    /// miss the slots stay empty and the workload comes from `source`
    /// (`None` when the caller fills every slot itself). Traffic loads
    /// from its tier or is counted from geometry.
    fn start(
        configs: &[PraConfig],
        (network, repr): (Network, Representation),
        views: &[LayerView<'_>],
        seed: u64,
        store: &ArtifactStore,
        source: impl FnOnce() -> Option<Arc<NetworkWorkload>>,
    ) -> Self {
        assert!(!configs.is_empty(), "SharedEncodedNetwork needs at least one configuration");
        let wanted = wanted_pairs(configs);
        let (lead, view) = (configs[0], shared_view(configs));
        let encoded = store.cache_for(ArtifactKind::Encoded).map(|cache| {
            let key = encoded_key(network, repr, seed, views, &wanted);
            let dims: Vec<_> = views.iter().map(|v| v.spec.input).collect();
            let payload = cache.load(ENCODED_KIND, ENCODER_VERSION, &key);
            (key, payload.and_then(|payload| decode_layers(&payload, &wanted, &dims)))
        });
        let (layers, source, encoded_miss, encoded_outcome) = match encoded {
            Some((_, Some(decoded))) => {
                let layers = decoded.into_iter().map(OnceLock::from).collect();
                (layers, None, None, CacheOutcome::Hit)
            }
            missed => {
                let outcome =
                    if missed.is_some() { CacheOutcome::Miss } else { CacheOutcome::Disabled };
                let empty = views.iter().map(|_| OnceLock::new()).collect();
                (empty, source(), missed.map(|(key, _)| key), outcome)
            }
        };
        let traffic_cache = store.cache_for(ArtifactKind::Traffic).filter(|_| view.is_some());
        let (traffic_miss, preloaded, traffic_outcome) = match traffic_cache {
            None => (None, None, CacheOutcome::Disabled),
            Some(cache) => {
                let key = traffic_key(network.name(), views, &lead.chip, lead.nm_layout, lead.repr);
                match cache
                    .load(TRAFFIC_KIND, TRAFFIC_VERSION, &key)
                    .and_then(|payload| decode_traffic(&payload, views.len()))
                {
                    Some(table) => (None, Some(table), CacheOutcome::Hit),
                    None => (Some(key), None, CacheOutcome::Miss),
                }
            }
        };
        let traffic = match (preloaded, view) {
            (Some(table), _) => table,
            (None, Some(_)) => views.iter().map(|v| count_traffic(&lead, v.spec)).collect(),
            (None, None) => vec![AccessCounters::new(); views.len()],
        };
        PipelinedBuild {
            network: SharedEncodedNetwork { layers, source, wanted, traffic, view, repr },
            encoded_miss,
            traffic_miss,
            encoded_outcome,
            traffic_outcome,
        }
    }

    /// The network the runs simulate against while the build is open.
    pub fn network(&self) -> &SharedEncodedNetwork {
        &self.network
    }

    /// How many layers the build covers.
    pub fn layer_count(&self) -> usize {
        self.network.layer_count()
    }

    /// [`SharedEncodedNetwork::artifacts`] of [`PipelinedBuild::network`].
    ///
    /// # Panics
    ///
    /// As [`SharedEncodedNetwork::artifacts`].
    pub fn artifacts(
        &self,
        layer: usize,
        cfg: &PraConfig,
    ) -> (Arc<LayerScheduler>, Option<AccessCounters>) {
        self.network.artifacts(layer, cfg)
    }

    /// What the encoded store tier contributed, settled when the build
    /// started: `Hit` when every table decoded off disk, `Miss` when a
    /// tier-enabled build schedules them and `finish` will publish,
    /// `Disabled` when the tier is off.
    pub fn encoded_outcome(&self) -> CacheOutcome {
        self.encoded_outcome
    }

    /// What the traffic store tier contributed when the build started:
    /// `Hit` when the table loaded, `Miss` when `finish` will publish a
    /// cold count, `Disabled` when the tier is off or the configuration
    /// set does not share one traffic view.
    pub fn traffic_outcome(&self) -> CacheOutcome {
        self.traffic_outcome
    }

    /// Schedules every layer no run reached and returns the finished
    /// [`SharedEncodedNetwork`] — the only publish point of the build: a
    /// cold traffic count when the start missed one, and the schedule
    /// tables unless they decoded off disk. A miss creates the entry; a
    /// corrupt or truncated one is repaired. The tables are whole from
    /// the moment they are built, so neither when this runs nor which
    /// layers the runs touched first changes the bytes it publishes.
    ///
    /// # Panics
    ///
    /// Panics if scheduling a layer panics.
    pub fn finish(self, store: &ArtifactStore) -> SharedEncodedNetwork {
        let PipelinedBuild { mut network, encoded_miss, traffic_miss, .. } = self;
        let layers: Vec<&SharedLayer> =
            (0..network.layer_count()).map(|i| network.layer(i)).collect();
        // Best-effort, like every cache store.
        if let (Some(key), Some(cache)) = (traffic_miss, store.cache_for(ArtifactKind::Traffic)) {
            let _ =
                cache.store(TRAFFIC_KIND, TRAFFIC_VERSION, &key, &encode_traffic(&network.traffic));
        }
        if let (Some(key), Some(cache)) = (encoded_miss, store.cache_for(ArtifactKind::Encoded)) {
            let payload = encode_layers(&layers, &network.wanted);
            let _ = cache.store(ENCODED_KIND, ENCODER_VERSION, &key, &payload);
        }
        network.source = None;
        network
    }
}

/// A bounded, most-recently-used in-memory pool of build-once
/// artifacts, keyed by workload identity (network, representation,
/// seed) plus the exact design-point set — the *batch-to-batch* reuse
/// layer of the serving path (DESIGN.md §10), and the top tier of the
/// pool → `en` → `wl` → generate resolution order: a miss in
/// [`ArtifactPool::claim`] falls through to
/// [`SharedEncodedNetwork::resolve`], which consults the
/// [`ArtifactStore`]'s on-disk tiers (§9, §15) before any workload is
/// read or any encoding is paid for, and the finished build is pooled
/// by [`PoolClaim::insert`]. An entry holds the schedule tables and
/// traffic, never neurons — runs read the static layer descriptions —
/// and is handed out as one shared [`Arc`], so a hit costs a pointer
/// clone instead of a rebuild.
///
/// The pool is deliberately small (serving traffic concentrates on few
/// hot workloads; all six networks × both representations are 12
/// entries, so the serving path provisions 16) and drops
/// least-recently-used entries beyond capacity. Reuse never changes
/// results: the keyed artifacts are bit-identical by the generator's
/// determinism guarantee, and immutable once built.
pub struct ArtifactPool {
    capacity: usize,
    state: Mutex<PoolState>,
    /// Signalled whenever a [`PoolClaim`] is released.
    released: Condvar,
}

#[derive(Default)]
struct PoolState {
    entries: Vec<PoolEntry>,
    /// Keys a [`PoolClaim`] holder is building right now.
    claimed: Vec<PoolKey>,
}

#[derive(Clone, PartialEq)]
struct PoolKey {
    network: Network,
    repr: Representation,
    seed: u64,
    configs: Vec<PraConfig>,
}

struct PoolEntry {
    key: PoolKey,
    shared: Arc<SharedEncodedNetwork>,
}

impl PoolKey {
    fn new(configs: &[PraConfig], network: Network, repr: Representation, seed: u64) -> Self {
        PoolKey { network, repr, seed, configs: configs.to_vec() }
    }
}

impl PoolState {
    /// `key`'s artifacts, marking its entry most-recently-used.
    fn hit(&mut self, key: &PoolKey) -> Option<Arc<SharedEncodedNetwork>> {
        let idx = self.entries.iter().position(|e| e.key == *key)?;
        let entry = self.entries.remove(idx);
        let out = Arc::clone(&entry.shared);
        self.entries.insert(0, entry);
        Some(out)
    }
}

impl ArtifactPool {
    /// A pool holding at most `capacity` artifact sets.
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), state: Mutex::default(), released: Condvar::new() }
    }

    /// Locks the pool, recovering from poisoning. A worker that
    /// panicked while holding the lock cannot leave a half-mutated
    /// entry behind — entries are immutable `Arc` bundles and the list
    /// operations (`remove`/`insert`/`truncate`/`retain`) never unwind
    /// midway — so the pool keeps serving instead of cascading the
    /// panic into every later batch. Defense in depth for the case a
    /// panicking *build* published something suspect anyway is
    /// [`Self::evict`], which the serve supervisor calls for the dead
    /// worker's key.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pooled entries currently held.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when nothing is pooled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pooled artifacts for the key (marking the entry
    /// most-recently-used), or `None` without building or waiting.
    pub fn lookup(
        &self,
        configs: &[PraConfig],
        network: Network,
        repr: Representation,
        seed: u64,
    ) -> Option<Arc<SharedEncodedNetwork>> {
        self.lock().hit(&PoolKey::new(configs, network, repr, seed))
    }

    /// [`ArtifactPool::lookup`] for a caller that builds on a miss: the
    /// miss hands back the key's [`PoolClaim`], and a caller that
    /// misses while another holds the claim waits for its release (the
    /// claimant's insert, or its unwind) and looks again. Concurrent
    /// misses on one key therefore cost one build, and no worker of a
    /// process reads back an encoded entry another one just published.
    pub fn claim(
        &self,
        configs: &[PraConfig],
        network: Network,
        repr: Representation,
        seed: u64,
    ) -> Result<Arc<SharedEncodedNetwork>, PoolClaim<'_>> {
        let key = PoolKey::new(configs, network, repr, seed);
        let mut state = self.lock();
        loop {
            if let Some(hit) = state.hit(&key) {
                return Ok(hit);
            }
            if !state.claimed.contains(&key) {
                state.claimed.push(key.clone());
                return Err(PoolClaim { pool: self, key });
            }
            state = self.released.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pools a finished build as the most-recently-used entry, evicting
    /// beyond capacity. An entry with the same key is replaced, never
    /// duplicated: a duplicate would hold memory and push a live key
    /// out early.
    pub fn insert(
        &self,
        network: Network,
        repr: Representation,
        seed: u64,
        configs: &[PraConfig],
        shared: Arc<SharedEncodedNetwork>,
    ) {
        let key = PoolKey::new(configs, network, repr, seed);
        let mut state = self.lock();
        state.entries.retain(|e| e.key != key);
        state.entries.insert(0, PoolEntry { key, shared });
        state.entries.truncate(self.capacity);
    }

    /// Drops every pooled entry for `(network, repr, seed)`, whatever
    /// design-point set it was built under. The serve supervisor calls
    /// this after reclaiming a dead worker's batch: the pooled
    /// artifacts are immutable and *should* be sound, but a panic
    /// inside a build/simulate path costs one rebuild to rule out,
    /// while trusting a suspect entry could poison every later answer
    /// for that workload. Returns how many entries were dropped.
    pub fn evict(&self, network: Network, repr: Representation, seed: u64) -> usize {
        let mut state = self.lock();
        let before = state.entries.len();
        state
            .entries
            .retain(|e| !(e.key.network == network && e.key.repr == repr && e.key.seed == seed));
        before - state.entries.len()
    }
}

/// The right to build one [`ArtifactPool`] key, held from a
/// [`ArtifactPool::claim`] miss until [`PoolClaim::insert`] pools the
/// result — or until dropped unused, e.g. while its holder unwinds, so
/// a panicking build never strands the callers waiting on it.
pub struct PoolClaim<'a> {
    pool: &'a ArtifactPool,
    key: PoolKey,
}

impl PoolClaim<'_> {
    /// Pools the finished build under the claimed key, then releases
    /// the claim: every caller waiting on it finds the entry.
    pub fn insert(self, shared: Arc<SharedEncodedNetwork>) {
        let key = &self.key;
        self.pool.insert(key.network, key.repr, key.seed, &key.configs, shared);
    }
}

impl Drop for PoolClaim<'_> {
    fn drop(&mut self) {
        self.pool.lock().claimed.retain(|k| *k != self.key);
        self.pool.released.notify_all();
    }
}

/// Compile-time fingerprint of the traffic-counting pipeline's sources
/// (this module, the `tr` codec in `crate::artifact`, `shared_traffic`
/// in pra-engines, the dispatcher/NM
/// model and counters in pra-sim, the pallet geometry in pra-tensor),
/// mixed into every traffic key: a
/// counting change that forgets the [`TRAFFIC_VERSION`] bump makes old
/// entries unreachable locally, matching the workload cache's
/// fail-closed behavior (CI's actions/cache key hashes the same
/// sources).
fn traffic_source_fingerprint() -> u64 {
    static FP: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FP.get_or_init(|| {
        let sources: [&str; 6] = [
            include_str!("shared.rs"),
            include_str!("artifact.rs"),
            include_str!("../../engines/src/lib.rs"),
            include_str!("../../sim/src/dispatcher.rs"),
            include_str!("../../sim/src/neuron_memory.rs"),
            include_str!("../../tensor/src/brick.rs"),
        ];
        let mut h = 0u64;
        for s in sources {
            h = pra_workloads::cache::checksum64(s.as_bytes()) ^ h.rotate_left(9);
        }
        h
    })
}

/// Content-address of a network's shared traffic table: per-layer
/// geometry plus the full chip view. Traffic never depends on neuron
/// values or the workload seed, so one entry serves every seed and
/// every fidelity.
fn traffic_key(
    network_name: &str,
    layers: &[LayerView<'_>],
    chip: &ChipConfig,
    layout: NmLayout,
    repr: Representation,
) -> CacheKey {
    let mut h = KeyHasher::new("pra-traffic-v1");
    h.u32(TRAFFIC_VERSION);
    h.u64(traffic_source_fingerprint());
    h.str(network_name);
    h.u64(layers.len() as u64);
    for view in layers {
        h.conv_spec(view.spec);
    }
    for d in [
        chip.tiles,
        chip.filters_per_tile,
        chip.brick,
        chip.windows_per_pallet,
        chip.nm_bytes,
        chip.nm_row_bytes,
        chip.sb_bytes_per_tile,
    ] {
        h.u64(d as u64);
    }
    h.f64(chip.frequency_ghz);
    h.u32(match layout {
        NmLayout::PalletMajor => 0,
        NmLayout::RowMajor => 1,
    });
    h.u32(repr.bits());
    h.finish()
}

/// A two-layer toy workload for artifact tests (shared with
/// `crate::artifact`) — deterministic content, real geometry, no
/// generator run.
#[cfg(test)]
pub(crate) fn test_toy_workload() -> NetworkWorkload {
    use pra_fixed::PrecisionWindow;
    use pra_tensor::{ConvLayerSpec, Tensor3};
    let toy_layer = || {
        let spec = ConvLayerSpec::new("toy", (12, 6, 32), (3, 3), 32, 1, 1).unwrap();
        pra_workloads::LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 31 + y * 7 + i) % 777) as u16),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    };
    NetworkWorkload {
        network: Network::AlexNet,
        repr: Representation::Fixed16,
        model: pra_workloads::ActivationModel {
            zero_frac: 0.5,
            sigma: 0.1,
            suffix_density: 0.3,
            outlier_prob: 0.0,
            dense_prob: 0.05,
            heavy_share: 0.5,
        },
        layers: vec![toy_layer(), toy_layer()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Encoding;
    use pra_workloads::Representation;

    fn toy_workload() -> NetworkWorkload {
        test_toy_workload()
    }

    /// The toy workload cut to its first layer.
    fn one_layer() -> NetworkWorkload {
        let mut w = test_toy_workload();
        w.layers.truncate(1);
        w
    }

    /// A store over a fresh scratch directory (removed on drop misuse
    /// is fine: the names are per-test and per-process).
    fn scratch_store(tag: &str, kinds: &[ArtifactKind]) -> (std::path::PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!("pra-shared-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ArtifactStore::new(&dir);
        for &kind in kinds {
            store = store.tier(kind);
        }
        (dir, store)
    }

    fn memless() -> ArtifactStore {
        ArtifactStore::at_default().no_disk()
    }

    fn run_all(
        configs: &[PraConfig],
        workload: &NetworkWorkload,
        network: &SharedEncodedNetwork,
    ) -> Vec<pra_sim::RunResult> {
        let views = workload.views();
        configs.iter().map(|c| crate::run_shared(c, &views, network, |_, _| {})).collect()
    }

    /// Every layer's tables of a finished network.
    fn tables(network: &SharedEncodedNetwork) -> Vec<&SharedLayer> {
        network.layers.iter().map(|slot| slot.get().expect("a finished layer")).collect()
    }

    /// The encoded key a build of `workload` derives.
    fn key_of(
        workload: &NetworkWorkload,
        seed: u64,
        wanted: &[(EncodingKey, SchedulerConfig)],
    ) -> CacheKey {
        encoded_key(workload.network, workload.repr, seed, &workload.views(), wanted)
    }

    /// Pool → `en` → `wl` → generate, as the serve batch worker
    /// resolves a key: a pooled hit, else one resolve under the key's
    /// claim, finished and pooled. `true` in the last slot marks a hit.
    fn resolve(
        pool: &ArtifactPool,
        configs: &[PraConfig],
        net: Network,
        seed: u64,
        store: &ArtifactStore,
    ) -> (Arc<SharedEncodedNetwork>, bool) {
        let repr = Representation::Fixed16;
        match pool.claim(configs, net, repr, seed) {
            Ok(s) => (s, true),
            Err(claim) => {
                let source = || store.workload(net, repr, seed).0;
                let build = SharedEncodedNetwork::resolve(configs, net, repr, seed, store, source);
                let s = Arc::new(build.finish(store));
                claim.insert(Arc::clone(&s));
                (s, false)
            }
        }
    }

    #[test]
    fn equal_scheduler_configs_share_one_scheduler() {
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::per_column(1, Representation::Fixed16),
            PraConfig::single_stage(Representation::Fixed16),
        ];
        let shared = SharedEncodedNetwork::from_workload(&configs, &one_layer());
        // PRA-2b and PRA-2b-1R agree on (key, scheduler): same Arc.
        let a = shared.artifacts(0, &configs[0]).0;
        let b = shared.artifacts(0, &configs[1]).0;
        assert!(Arc::ptr_eq(&a, &b), "equal scheduler configs must share the table");
        // PRA-4b differs in L: its own table.
        let c = shared.artifacts(0, &configs[2]).0;
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn distinct_encodings_get_distinct_masks() {
        let csd = PraConfig {
            encoding: Encoding::Csd,
            ..PraConfig::two_stage(2, Representation::Fixed16)
        };
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let four = PraConfig::single_stage(Representation::Fixed16);
        let shared = SharedEncodedNetwork::from_workload(&[one, csd, four], &one_layer());
        let a = shared.artifacts(0, &one).0;
        let b = shared.artifacts(0, &csd).0;
        assert!(!Arc::ptr_eq(&a, &b));
        // The build lists pairs grouped by key, so each key's masks are
        // encoded once per brick.
        let pair = |c: PraConfig| (c.encoding_key(), c.scheduler());
        assert_eq!(wanted_pairs(&[one, csd, four, one]), [pair(one), pair(four), pair(csd)]);
    }

    #[test]
    fn traffic_shared_only_under_matching_chip_view() {
        let layer = one_layer();
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let shared = SharedEncodedNetwork::from_workload(&[one], &layer);
        assert!(shared.artifacts(0, &one).1.is_some());
        assert!(shared.traffic_view(&one.chip, one.nm_layout, one.repr).is_some());
        // A consumer whose chip view differs gets nothing — even though
        // its scheduler parameters match, it must count its own traffic.
        let row_major = PraConfig { nm_layout: NmLayout::RowMajor, ..one };
        let (_, traffic) = shared.artifacts(0, &row_major); // schedules DO match
        assert!(traffic.is_none(), "layout ablation must not reuse");
        assert!(shared.traffic_view(&one.chip, NmLayout::RowMajor, one.repr).is_none());
        // A Quant8 consumer's view differs too (its scheduler lookup
        // would panic on this Fixed16 build, so ask the view only).
        assert!(shared.traffic_view(&one.chip, one.nm_layout, Representation::Quant8).is_none());
        let quant = PraConfig::two_stage(2, Representation::Quant8);
        let mixed = SharedEncodedNetwork::from_workload(&[one, quant], &layer);
        assert!(
            mixed.artifacts(0, &one).1.is_none(),
            "mixed representations must not share traffic"
        );
    }

    #[test]
    fn traffic_round_trips_and_serves_warm_builds() {
        let table = vec![
            AccessCounters { nm_brick_reads: 3, terms: 9, ..Default::default() },
            AccessCounters { sb_set_reads: 7, stall_cycles: 1, ..Default::default() },
        ];
        let decoded = decode_traffic(&encode_traffic(&table), 2).expect("round trip");
        assert_eq!(decoded, table);
        assert!(decode_traffic(&encode_traffic(&table), 3).is_none(), "layer count checked");
        assert!(decode_traffic(&encode_traffic(&table)[..10], 2).is_none(), "truncation rejected");

        let (dir, store) = scratch_store("traffic", &[ArtifactKind::Traffic]);
        let workload = toy_workload();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let (cold, cold_out) =
            SharedEncodedNetwork::from_workload_stored(&configs, &workload, 0xA, &store);
        assert_eq!(cold_out.traffic, CacheOutcome::Miss, "first build must count traffic");
        assert_eq!(cold_out.encoded, CacheOutcome::Disabled, "encoded tier not enabled here");
        let (warm, warm_out) =
            SharedEncodedNetwork::from_workload_stored(&configs, &workload, 0xA, &store);
        assert_eq!(warm_out.traffic, CacheOutcome::Hit, "second build must load the table");
        let plain = SharedEncodedNetwork::from_workload(&configs, &workload);
        let chip = configs[0].chip;
        let (layout, repr) = (configs[0].nm_layout, configs[0].repr);
        assert_eq!(
            warm.traffic_view(&chip, layout, repr).expect("warm traffic"),
            plain.traffic_view(&chip, layout, repr).expect("plain traffic"),
            "cached traffic must be byte-identical to a fresh count"
        );
        assert_eq!(
            cold.traffic_view(&chip, layout, repr).unwrap(),
            warm.traffic_view(&chip, layout, repr).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_chip_views_skip_the_traffic_cache() {
        let (dir, store) = scratch_store("traffic-mixed", &[ArtifactKind::Traffic]);
        let workload = toy_workload();
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let row_major = PraConfig { nm_layout: NmLayout::RowMajor, ..one };
        let (built, out) =
            SharedEncodedNetwork::from_workload_stored(&[one, row_major], &workload, 0xA, &store);
        assert_eq!(
            out.traffic,
            CacheOutcome::Disabled,
            "disagreeing chip views have no shared table to cache"
        );
        assert!(built.artifacts(0, &one).1.is_none());
        assert!(!dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encoded_artifacts_round_trip_through_the_store() {
        let (dir, store) =
            scratch_store("encoded", &[ArtifactKind::Encoded, ArtifactKind::Traffic]);
        let workload = Arc::new(toy_workload());
        // Three design points, two distinct scheduler configs, one
        // encoding key — the real sweep's sharing shape.
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::single_stage(Representation::Fixed16),
            PraConfig::per_column(1, Representation::Fixed16),
        ];
        // Cold: the build misses, the sims schedule each layer as they
        // reach it, and `finish` publishes the tables.
        let cold = SharedEncodedNetwork::start_pipelined(&configs, &workload, 0xE, &store);
        let cold_results = run_all(&configs, &workload, cold.network());
        assert_eq!(cold.encoded_outcome(), CacheOutcome::Miss);
        let cold = cold.finish(&store);
        let (warm, warm_out) =
            SharedEncodedNetwork::from_workload_stored(&configs, &workload, 0xE, &store);
        assert_eq!(warm_out.encoded, CacheOutcome::Hit, "second build must load the entry");
        // The loaded artifacts reconstruct the sharing invariant …
        let a = warm.artifacts(0, &configs[0]).0;
        let b = warm.artifacts(0, &configs[2]).0;
        assert!(Arc::ptr_eq(&a, &b), "equal scheduler configs must share the table after a load");
        // … carry exactly the tables the cold build scheduled …
        for (idx, cfg) in
            (0..workload.layers.len()).flat_map(|i| configs.iter().map(move |c| (i, c)))
        {
            let (warm, cold) = (warm.artifacts(idx, cfg).0, cold.artifacts(idx, cfg).0);
            assert_eq!(warm.table(), cold.table(), "layer {idx} {}", cfg.label());
            assert_eq!(warm.dim(), cold.dim());
        }
        // … and produce bit-identical results.
        assert_eq!(
            run_all(&configs, &workload, &warm),
            cold_results,
            "warm artifacts must be invisible in the results"
        );
        // A different seed is a different entry (masks depend on values).
        let (_, other_seed) =
            SharedEncodedNetwork::from_workload_stored(&configs, &workload, 0xF, &store);
        assert_eq!(other_seed.encoded, CacheOutcome::Miss, "seed must separate encoded entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_build_loads_and_publishes_the_encoded_entry() {
        let (dir, store) =
            scratch_store("encoded-pipe", &[ArtifactKind::Encoded, ArtifactKind::Traffic]);
        let workload = Arc::new(toy_workload());
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::single_stage(Representation::Fixed16),
        ];
        let lead = configs[0];
        let key = key_of(&workload, 0xE, &wanted_pairs(&configs));
        let entry = |store: &ArtifactStore| {
            let cache = store.cache_for(ArtifactKind::Encoded).expect("tier enabled");
            cache.load(ENCODED_KIND, ENCODER_VERSION, &key)
        };
        // A build no run touched: `finish` schedules every layer and
        // publishes before any simulation ran.
        let pipe = SharedEncodedNetwork::start_pipelined(&configs, &workload, 0xE, &store);
        assert_eq!(pipe.encoded_outcome(), CacheOutcome::Miss);
        let cold = pipe.finish(&store);
        let published = entry(&store).expect("finish must have published");
        let (warm, out) =
            SharedEncodedNetwork::from_workload_stored(&configs, &workload, 0xE, &store);
        assert_eq!(out.encoded, CacheOutcome::Hit, "finish must have published");
        assert_eq!(out.traffic, CacheOutcome::Hit, "finish must have published traffic too");
        assert_eq!(
            run_all(&configs, &workload, &warm),
            run_all(&configs, &workload, &cold),
            "pipelined-published artifacts must be invisible in the results"
        );
        // And a warm pipelined start consumes the entry.
        let pipe = SharedEncodedNetwork::start_pipelined(&configs, &workload, 0xE, &store);
        let (sched, traffic) = pipe.artifacts(0, &lead);
        assert!(traffic.is_some());
        let reloaded = pipe.finish(&store);
        assert!(Arc::ptr_eq(&sched, &reloaded.artifacts(0, &lead).0));

        // First touch on builds that missed `en`: `artifacts(k, lead)`
        // schedules layer k and no other.
        let (miss_dir, miss_store) = scratch_store("encoded-pipe-touch", &[ArtifactKind::Encoded]);
        let start = || SharedEncodedNetwork::start_pipelined(&configs, &workload, 0xE, &miss_store);
        let filled = |pipe: &PipelinedBuild| -> Vec<bool> {
            pipe.network().layers.iter().map(|slot| slot.get().is_some()).collect()
        };
        let pipe = start();
        assert_eq!(filled(&pipe), [false, false], "a missed build schedules nothing up front");
        let _ = pipe.artifacts(0, &lead);
        assert_eq!(filled(&pipe), [true, false], "touching layer 0 schedules layer 0 alone");
        drop(pipe);
        let pipe = start();
        assert_eq!(
            pipe.encoded_outcome(),
            CacheOutcome::Miss,
            "an unfinished build publishes none"
        );
        let _ = pipe.artifacts(1, &lead);
        assert_eq!(filled(&pipe), [false, true], "touching layer 1 schedules layer 1 alone");
        // Layer 1 before layer 0 (scheduled by `finish`) gives the tables
        // `from_workload` builds, and the entry a build no run touched
        // published, byte for byte.
        let diskless = SharedEncodedNetwork::from_workload(&configs, &workload);
        let touched = pipe.finish(&miss_store);
        for (idx, cfg) in [1, 0].into_iter().flat_map(|i| configs.iter().map(move |c| (i, c))) {
            let (got, want) = (touched.artifacts(idx, cfg).0, diskless.artifacts(idx, cfg).0);
            assert_eq!(got.table(), want.table(), "layer {idx} {}", cfg.label());
        }
        assert!(touched.source.is_none(), "a finished network holds no workload");
        assert_eq!(entry(&miss_store), Some(published), "touch order must not reach the entry");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&miss_dir);
    }

    #[test]
    fn a_cut_entry_is_a_whole_miss_and_repairs() {
        let (dir, store) = scratch_store("cut", &[ArtifactKind::Encoded]);
        let workload = Arc::new(toy_workload());
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::single_stage(Representation::Fixed16),
        ];
        let seed = 0xC7;
        let diskless = SharedEncodedNetwork::from_workload(&configs, &workload);
        let expected = run_all(&configs, &workload, &diskless);

        // The whole payload cut 20 bytes into layer 1 and stored under
        // the real key: the container is valid (its checksum covers the
        // cut bytes), so only the payload decoder can notice.
        let wanted = wanted_pairs(&configs);
        let payload = encode_layers(&tables(&diskless), &wanted);
        let layer_one_starts = encode_layers(&tables(&diskless)[..1], &wanted).len();
        assert!(payload.len() > layer_one_starts + 20, "the toy layer is larger than the cut");
        let cache = store.cache_for(ArtifactKind::Encoded).expect("tier enabled");
        let key = key_of(&workload, seed, &wanted);
        cache
            .store(ENCODED_KIND, ENCODER_VERSION, &key, &payload[..layer_one_starts + 20])
            .expect("plant the cut entry");

        // Layer 0 is intact on disk, but the entry is one unit: a miss,
        // and every layer is scheduled fresh.
        let pipe = SharedEncodedNetwork::start_pipelined(&configs, &workload, seed, &store);
        assert_eq!(run_all(&configs, &workload, pipe.network()), expected);
        assert_eq!(pipe.encoded_outcome(), CacheOutcome::Miss, "a cut entry is not a hit");
        let _ = pipe.finish(&store);

        // `finish` republished a whole entry: the next start hits it.
        let pipe = SharedEncodedNetwork::start_pipelined(&configs, &workload, seed, &store);
        assert_eq!(run_all(&configs, &workload, pipe.network()), expected);
        assert_eq!(pipe.encoded_outcome(), CacheOutcome::Hit, "the repaired entry must load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Feeds `decode` seeded mutations of `payload` and returns how many
    /// ran: every truncation, then `random` draws of bit flips, splices,
    /// inflated `u32` fields (counts and dims, at the byte offsets in
    /// `fields`) and trailing bytes. A mutation that changes the length
    /// or inflates a field is structural and must decode to `None`; a
    /// same-length one need only not panic.
    fn fuzz_decoder<T>(
        name: &str,
        payload: &[u8],
        fields: &[usize],
        random: usize,
        decode: impl Fn(&[u8]) -> Option<T>,
    ) -> usize {
        use proptest::prelude::*;
        let mut rng = proptest::new_rng(name);
        let len = payload.len();
        let check = |bytes: &[u8], structural: bool, what: &str| {
            let decoded = decode(bytes);
            assert!(!structural || decoded.is_none(), "{name}: {what} must fail closed");
        };
        for cut in 0..len {
            check(&payload[..cut], true, "a truncation");
        }
        let draw = (0u8..4, 0..len, 0..=len, 0..=len, 0..=len, any::<u64>());
        for _ in 0..random {
            let (kind, at, a, b, c, bits) = draw.sample(&mut rng);
            let mut m = payload.to_vec();
            match kind {
                0 => {
                    m[at] ^= 1 << (bits % 8);
                    check(&m, false, "a bit flip");
                }
                1 => {
                    let (from, to) = (a.min(b), a.max(b));
                    let m = [&payload[..at], &payload[from..to], &payload[c.max(at)..]].concat();
                    check(&m, m.len() != len, "a splice");
                }
                2 => {
                    let f = fields[at % fields.len()];
                    let v = u32::from_le_bytes(m[f..f + 4].try_into().unwrap());
                    m[f..f + 4].copy_from_slice(&(v + 1 + (bits % 4096) as u32).to_le_bytes());
                    check(&m, true, "an inflated field");
                }
                _ => {
                    m.extend(bits.to_le_bytes().iter().cycle().take(1 + at % 64));
                    check(&m, true, "trailing bytes");
                }
            }
        }
        len + random
    }

    #[test]
    fn decoders_fail_closed_under_seeded_mutations() {
        let workload = toy_workload();
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::single_stage(Representation::Fixed16),
        ];
        let built = SharedEncodedNetwork::from_workload(&configs, &workload);
        let wanted = wanted_pairs(&configs);
        let dims: Vec<_> = workload.layers.iter().map(|l| l.neurons.dim()).collect();
        let payload = encode_layers(&tables(&built), &wanted);
        assert!(crate::artifact::decode_layers(&payload, &wanted, &dims).is_some());
        // Counts, then each layer's dims: after the 8-byte counts and 5
        // bytes per pair, a layer is 12 bytes of dims plus its tables.
        let header = 8 + 5 * wanted.len();
        let layer_len = (payload.len() - header) / dims.len();
        let mut fields = vec![0, 4];
        for l in 0..dims.len() {
            fields.extend([0, 4, 8].map(|d| header + l * layer_len + d));
        }
        let started = std::time::Instant::now();
        let en = fuzz_decoder("en", &payload, &fields, 10_000, |m| {
            crate::artifact::decode_layers(m, &wanted, &dims)
        });
        let table = encode_traffic(&built.traffic);
        let tr = fuzz_decoder("tr", &table, &[0], 10_000, |m| decode_traffic(m, dims.len()));
        println!("{en} en and {tr} tr mutations in {:?}", started.elapsed());
        assert!(en >= 10_000 && tr >= 10_000);
    }

    #[test]
    fn workload_trace_decoder_fails_closed_under_seeded_mutations() {
        use pra_workloads::traces::{read_trace, write_trace};
        let mut trace = Vec::new();
        write_trace(&mut trace, &toy_workload()).expect("an in-memory write");
        let decode = |m: &[u8]| read_trace(m).ok();
        assert!(decode(&trace).is_some());
        // The version, width and layer count, then each layer's name
        // length and dims (its name, "toy", is 3 bytes).
        let layer_len = (trace.len() - 16) / 2;
        let mut fields = vec![4, 8, 12];
        for at in [16, 16 + layer_len] {
            fields.extend([at, at + 7, at + 11, at + 15]);
        }
        let started = std::time::Instant::now();
        let wl = fuzz_decoder("wl", &trace, &fields, 10_000, decode);
        println!("{wl} wl mutations in {:?}", started.elapsed());
        assert!(wl >= 10_000);
    }

    #[test]
    fn planted_structural_mutations_fall_back_to_a_diskless_build() {
        let (dir, store) = scratch_store("planted", &[ArtifactKind::Encoded]);
        let workload = toy_workload();
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::per_column(1, Representation::Fixed16),
        ];
        let diskless = SharedEncodedNetwork::from_workload(&configs, &workload);
        let expected = run_all(&configs, &workload, &diskless);
        let wanted = wanted_pairs(&configs);
        let payload = encode_layers(&tables(&diskless), &wanted);
        let inflated = |at: usize| {
            let mut m = payload.clone();
            m[at] = m[at].wrapping_add(1);
            m
        };
        let header = 8 + 5 * wanted.len();
        let mut impossible = payload.clone();
        impossible[header + 12 + 3] = 0xFF; // layer 0's first entry: cycles ≥ 0xFF00
        let planted = [
            payload[..payload.len() / 2].to_vec(),
            [payload.as_slice(), &[0]].concat(),
            [&payload[..header], &payload[header + 4..]].concat(),
            inflated(0),
            inflated(4),
            inflated(header + 8),
            impossible,
        ];
        let cache = store.cache_for(ArtifactKind::Encoded).expect("tier enabled");
        let key = key_of(&workload, 0xD, &wanted);
        for (n, mutant) in planted.iter().enumerate() {
            cache.store(ENCODED_KIND, ENCODER_VERSION, &key, mutant).expect("plant the mutant");
            let (built, out) =
                SharedEncodedNetwork::from_workload_stored(&configs, &workload, 0xD, &store);
            assert_eq!(out.encoded, CacheOutcome::Miss, "mutant {n} must fail closed");
            assert_eq!(run_all(&configs, &workload, &built), expected, "mutant {n}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_pool_reuses_handles_across_batches() {
        let pool = ArtifactPool::new(2);
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let net = Network::AlexNet;
        let (s1, hit1) = resolve(&pool, &configs, net, 0xA, &store);
        assert!(!hit1, "first batch builds");
        let (s2, hit2) = resolve(&pool, &configs, net, 0xA, &store);
        assert!(hit2, "second batch reuses");
        assert!(Arc::ptr_eq(&s1, &s2), "the artifact handle is shared, not rebuilt");
        // A different seed is a different workload: no reuse.
        let (s3, hit3) = resolve(&pool, &configs, net, 0xB, &store);
        assert!(!hit3);
        assert!(!Arc::ptr_eq(&s1, &s3));
        // A different design-point set never borrows mismatched artifacts.
        let other = [PraConfig::single_stage(Representation::Fixed16)];
        assert!(pool.lookup(&other, net, Representation::Fixed16, 0xA).is_none());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xA).is_some());
    }

    #[test]
    fn artifact_pool_insert_replaces_an_entry_with_the_same_key() {
        let pool = ArtifactPool::new(4);
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let (net, repr) = (Network::AlexNet, Representation::Fixed16);
        let workload = Arc::new(one_layer());
        let build = || Arc::new(SharedEncodedNetwork::from_workload(&configs, &workload));
        // Two workers that both missed one key both insert.
        let (first, second) = (build(), build());
        pool.insert(net, repr, 7, &configs, first);
        pool.insert(net, repr, 7, &configs, Arc::clone(&second));
        assert_eq!(pool.len(), 1, "one key must hold one entry");
        let pooled = pool.lookup(&configs, net, repr, 7).expect("pooled");
        assert!(Arc::ptr_eq(&pooled, &second), "the newest insert wins");
        // Another design-point set under the same workload is another key.
        let other = [PraConfig::single_stage(Representation::Fixed16)];
        let built = Arc::new(SharedEncodedNetwork::from_workload(&other, &workload));
        pool.insert(net, repr, 7, &other, built);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn concurrent_misses_on_one_key_cost_one_build() {
        let pool = ArtifactPool::new(4);
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let (net, repr) = (Network::AlexNet, Representation::Fixed16);
        let workload = Arc::new(one_layer());
        let pause = std::time::Duration::from_millis(50);
        let Err(claim) = pool.claim(&configs, net, repr, 7) else {
            panic!("an empty pool must miss");
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| pool.claim(&configs, net, repr, 7).ok());
            std::thread::sleep(pause);
            assert!(!waiter.is_finished(), "a second miss must wait for the claimant");
            let built = Arc::new(SharedEncodedNetwork::from_workload(&configs, &workload));
            claim.insert(Arc::clone(&built));
            let got = waiter.join().unwrap().expect("the waiter must find the claimant's build");
            assert!(Arc::ptr_eq(&got, &built), "one build serves both misses");
        });
        // A claim dropped unused — its builder unwound — passes to the
        // next caller instead of stranding it.
        let Err(claim) = pool.claim(&configs, net, repr, 8) else {
            panic!("an unpooled key must miss");
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| pool.claim(&configs, net, repr, 8).is_err());
            std::thread::sleep(pause);
            drop(claim);
            assert!(waiter.join().unwrap(), "the waiter must get the released claim");
        });
    }

    #[test]
    fn artifact_pool_evicts_least_recently_used() {
        let pool = ArtifactPool::new(2);
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let net = Network::AlexNet;
        for seed in [1u64, 2, 3] {
            let (_, hit) = resolve(&pool, &configs, net, seed, &store);
            assert!(!hit);
        }
        assert_eq!(pool.len(), 2, "capacity binds");
        // Seed 1 was least recently used and fell out; 2 and 3 remain.
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 1).is_none());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 2).is_some());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 3).is_some());
        // The lookup refreshed seed 2: inserting a fourth entry now
        // evicts 3, not 2.
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 2).is_some());
        let (_, hit) = resolve(&pool, &configs, net, 4, &store);
        assert!(!hit);
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 2).is_some());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 3).is_none());
    }

    #[test]
    fn pooled_artifacts_produce_identical_results() {
        let pool = ArtifactPool::new(4);
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)
            .with_fidelity(crate::Fidelity::Sampled { max_pallets: 2 })];
        let net = Network::AlexNet;
        let (s, _) = resolve(&pool, &configs, net, 0xC, &store);
        let views = layer_views(net, Representation::Fixed16);
        let pooled = crate::run_shared(&configs[0], &views, &s, |_, _| {});
        let direct = NetworkWorkload::build(net, Representation::Fixed16, 0xC);
        let unshared: Vec<_> =
            direct.layers.iter().map(|l| crate::simulate_layer(&configs[0], l)).collect();
        assert_eq!(pooled.layers, unshared, "pool reuse must be invisible in the results");
    }

    #[test]
    fn artifact_pool_survives_a_poisoned_lock_and_evicts_on_demand() {
        let pool = Arc::new(ArtifactPool::new(4));
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let net = Network::AlexNet;
        let (_, hit) = resolve(&pool, &configs, net, 0xA, &store);
        assert!(!hit);
        // Poison the pool mutex the way a panicking worker would: die
        // while holding it mid-operation.
        let p2 = Arc::clone(&pool);
        let panicked = std::thread::spawn(move || {
            let _guard = p2.state.lock().unwrap();
            panic!("injected: worker died holding the pool lock");
        })
        .join();
        assert!(panicked.is_err(), "the poisoning thread must have panicked");
        assert!(pool.state.is_poisoned(), "the lock must actually be poisoned");
        // Every pool operation keeps working on the recovered state.
        assert_eq!(pool.len(), 1);
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xA).is_some());
        let (_, hit) = resolve(&pool, &configs, net, 0xA, &store);
        assert!(hit, "the surviving entry still serves hits after recovery");
        // Supervisor-style eviction drops the suspect workload's entry
        // (and only that one), forcing the next batch to rebuild.
        let _ = resolve(&pool, &configs, net, 0xB, &store);
        assert_eq!(pool.evict(net, Representation::Fixed16, 0xA), 1);
        assert_eq!(pool.evict(net, Representation::Fixed16, 0xA), 0, "evict is idempotent");
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xA).is_none());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xB).is_some());
        let (_, hit) = resolve(&pool, &configs, net, 0xA, &store);
        assert!(!hit, "an evicted entry rebuilds");
    }

    #[test]
    #[should_panic(expected = "not built for")]
    fn missing_configuration_panics() {
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let shared = SharedEncodedNetwork::from_workload(&[one], &one_layer());
        let _ = shared.artifacts(0, &PraConfig::single_stage(Representation::Fixed16));
    }
}
