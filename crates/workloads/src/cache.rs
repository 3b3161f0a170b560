//! Content-addressed on-disk cache for generated workloads and derived
//! artifacts.
//!
//! Every `pra sweep` used to regenerate the same `(network, repr, seed)`
//! activation streams from scratch — roughly half the residual wall-clock
//! of a full-fidelity sweep (`bench.json` phase timings). The evaluation
//! is fully deterministic, so those bytes are a pure function of their
//! inputs; this module memoizes them on disk:
//!
//! * **Content addressing** — an entry's file name is derived from a
//!   SHA-256 over everything the payload depends on: the network
//!   descriptor (per-layer geometry), the representation, the Table I/II
//!   profile data and calibration constants, the seed, and
//!   [`GENERATOR_VERSION`]. Changing any input changes the key, so stale
//!   entries are never *read* — they are simply unreachable (and can be
//!   swept by [`Cache::gc_stale`]).
//! * **Integrity** — every entry ends in a fast 64-bit checksum
//!   ([`checksum64`]) over its header and payload; a corrupt or
//!   truncated file fails verification, is removed best-effort, and the
//!   caller regenerates.
//! * **Crash/race safety** — writers assemble the entry in memory, write
//!   it to a unique temp file in the cache directory and `rename` it into
//!   place. Renames are atomic on one filesystem, so parallel sweep jobs
//!   racing on the same key each publish a complete, identical entry and
//!   readers never observe a partial write.
//! * **Deletion safety** — [`Cache::clear`] and [`Cache::gc_stale`] only
//!   ever remove regular files whose names match the cache naming scheme
//!   (`<kind>-<64 hex>.prac[.tmp…]`), checked via `symlink_metadata` so
//!   symlinks are never followed: a misconfigured `PRA_CACHE_DIR`
//!   pointing at a user directory cannot nuke foreign files.
//!
//! The default location is `<target>/pra-cache/`, overridable with the
//! `PRA_CACHE_DIR` environment variable; `PRA_NO_CACHE=1` (or
//! [`set_enabled`]`(false)`, which `pra sweep --no-cache` uses) disables
//! the cache process-wide. See DESIGN.md §9 for the full key-derivation
//! and invalidation rules.

use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::generator::{ActivationModel, NetworkWorkload, Representation, WINDOW_LSB};
use crate::networks::Network;
use crate::{calibrate, profiles, traces};

/// Version of the workload generator + calibration pipeline. Bump this
/// whenever a code change alters the *bytes* a generated workload
/// contains (sampler, calibration fit, trace format, …): the version is
/// hashed into every workload key, so a bump makes all previous entries
/// unreachable instead of silently serving stale streams.
pub const GENERATOR_VERSION: u32 = 1;

/// Entry kind for cached [`NetworkWorkload`] streams.
pub const WORKLOAD_KIND: &str = "wl";

/// On-disk container format version (header layout, checksum trailer).
const FORMAT_VERSION: u32 = 1;

/// Magic prefix of every cache entry file.
const ENTRY_MAGIC: &[u8; 4] = b"PRAC";

/// File extension of a published cache entry.
const ENTRY_EXT: &str = ".prac";

// ---------------------------------------------------------------------
// SHA-256 (self-contained: the workspace builds offline, with no
// registry crates beyond the shims, so the digest is implemented here).
// ---------------------------------------------------------------------

/// Incremental SHA-256, used for content addressing (via
/// [`KeyHasher`]); entry integrity trailers use [`checksum64`].
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if rest.is_empty() {
                // The partial buffer absorbed everything; falling
                // through would clobber it with an empty tail.
                return;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Manual length trailer (update would recount it).
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 =
                h.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Fast 64-bit integrity checksum: FNV-style multiply-rotate over
/// 8-byte lanes with a SplitMix64 avalanche finish. Content addressing
/// uses SHA-256 (over tiny key descriptors); the entry *trailer* only
/// has to catch corruption and truncation, and a multi-GB/s checksum
/// keeps warm cache loads disk-bound instead of hash-bound (measured:
/// the SHA-256 trailer alone held warm sweeps at ~350 MB/s).
pub fn checksum64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ (data.len() as u64);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ v).wrapping_mul(PRIME).rotate_left(27);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME).rotate_left(27);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Lower-case hex of a digest.
fn hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
    }
    s
}

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// A content-address: the SHA-256 (as 64 hex chars) of a canonical
/// serialization of everything the payload depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hex: String,
}

impl CacheKey {
    /// The 64-character hex form used in entry file names.
    pub fn hex(&self) -> &str {
        &self.hex
    }
}

/// Builds [`CacheKey`]s from typed fields with unambiguous framing:
/// every field is length- or width-delimited, so distinct field
/// sequences can never collide by concatenation.
pub struct KeyHasher(Sha256);

impl KeyHasher {
    /// Starts a key under a domain label (e.g. `"pra-workload-v1"`);
    /// distinct domains can never produce colliding keys.
    pub fn new(domain: &str) -> Self {
        let mut h = Self(Sha256::new());
        h.str(domain);
        h
    }

    /// Absorbs raw bytes, length-prefixed.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.update(&(b.len() as u64).to_le_bytes());
        self.0.update(b);
        self
    }

    /// Absorbs a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Absorbs a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.0.update(&v.to_le_bytes());
        self
    }

    /// Absorbs a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.update(&v.to_le_bytes());
        self
    }

    /// Absorbs an `f64` by bit pattern (exact, including sign of zero).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Absorbs a convolutional layer's full geometry — the one
    /// definition shared by every cache kind that keys on layer shape
    /// (workload streams here, traffic tables in `pra-core`), so the
    /// two can never drift apart field by field.
    pub fn conv_spec(&mut self, spec: &pra_tensor::ConvLayerSpec) -> &mut Self {
        self.str(spec.name());
        for d in [
            spec.input.x,
            spec.input.y,
            spec.input.i,
            spec.filter.x,
            spec.filter.y,
            spec.num_filters,
            spec.stride,
            spec.padding,
        ] {
            self.u64(d as u64);
        }
        self
    }

    /// Finishes the key.
    pub fn finish(self) -> CacheKey {
        CacheKey { hex: hex(&self.0.finalize()) }
    }
}

// ---------------------------------------------------------------------
// Enable/disable + telemetry
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether the cache is active: on by default, off when the process
/// called [`set_enabled`]`(false)` or the environment sets
/// `PRA_NO_CACHE` to anything but `0`/empty.
pub fn enabled() -> bool {
    static ENV_DISABLED: OnceLock<bool> = OnceLock::new();
    let env_off = *ENV_DISABLED.get_or_init(
        || matches!(std::env::var("PRA_NO_CACHE"), Ok(v) if !v.is_empty() && v != "0"),
    );
    // relaxed-ok: an isolated on/off flag; no other memory is published
    // through it, and callers tolerate a stale read by design.
    ENABLED.load(Ordering::Relaxed) && !env_off
}

/// Turns the cache on or off process-wide (`pra sweep --no-cache`).
pub fn set_enabled(on: bool) {
    // relaxed-ok: an isolated on/off flag; see `enabled`.
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Resolves the default cache directory: `PRA_CACHE_DIR` when set and
/// non-empty, else `<target>/pra-cache` (the workspace `target/` is
/// located via `CARGO_TARGET_DIR` or by walking up from the running
/// executable, so tests and binaries agree on one directory regardless
/// of their working directory).
pub fn default_dir() -> PathBuf {
    if let Ok(d) = std::env::var("PRA_CACHE_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d);
        }
    }
    if let Ok(d) = std::env::var("CARGO_TARGET_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d).join("pra-cache");
        }
    }
    if let Ok(exe) = std::env::current_exe() {
        for anc in exe.ancestors() {
            if anc.file_name().is_some_and(|n| n == "target") {
                return anc.join("pra-cache");
            }
        }
    }
    PathBuf::from("target").join("pra-cache")
}

/// A handle on one cache directory. Cheap to construct; all operations
/// are stateless over the directory contents.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

/// Summary of a [`Cache::clear`] / [`Cache::gc_stale`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClearReport {
    /// Entries (and temp files) removed.
    pub removed: usize,
    /// Bytes those entries occupied.
    pub freed_bytes: u64,
    /// Cache entries deliberately retained (current-generation entries
    /// during a stale-only GC).
    pub kept: usize,
    /// Directory entries left untouched because they are not the
    /// cache's to manage: names outside the naming scheme, non-regular
    /// files (symlinks are never followed, let alone removed), or
    /// entries whose removal failed.
    pub skipped: usize,
}

/// Per-kind entry statistics for [`Cache::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindStats {
    /// Entry kind (e.g. `"wl"`, `"tr"`).
    pub kind: String,
    /// Published entries of this kind.
    pub entries: usize,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Distinct embedded versions and how many entries carry each,
    /// ascending — lets `pra cache stats` flag stale generations.
    pub versions: Vec<(u32, usize)>,
}

/// What [`Cache::stats`] reports about a cache directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// The directory inspected.
    pub dir: PathBuf,
    /// Published entries across all kinds.
    pub entries: usize,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Leftover temp files (crashed or in-flight writers).
    pub temps: usize,
    /// Directory entries that do not belong to the cache.
    pub foreign: usize,
    /// Per-kind breakdown, sorted by kind.
    pub kinds: Vec<KindStats>,
}

/// `true` when `kind` is a legal entry kind: 1–16 lower-case ASCII
/// letters or digits (it appears verbatim in file names).
fn valid_kind(kind: &str) -> bool {
    (1..=16).contains(&kind.len())
        && kind.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
}

/// Parses a cache entry file name. Returns `(kind, is_temp)` when the
/// name matches the scheme `<kind>-<64 hex>.prac` (published) or
/// `<kind>-<64 hex>.prac.tmp<digits/dots>` (writer temp file); anything
/// else is foreign and must never be touched.
fn parse_entry_name(name: &str) -> Option<(&str, bool)> {
    let (kind, rest) = name.split_once('-')?;
    if !valid_kind(kind) {
        return None;
    }
    let hex_part = rest.get(..64)?;
    if !hex_part.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let suffix = &rest[64..];
    if suffix == ENTRY_EXT {
        return Some((kind, false));
    }
    let tmp = suffix.strip_prefix(ENTRY_EXT)?.strip_prefix(".tmp")?;
    (!tmp.is_empty() && tmp.bytes().all(|b| b.is_ascii_digit() || b == b'.'))
        .then_some((kind, true))
}

/// Entry header as parsed from disk (without the payload).
struct EntryHeader {
    version: u32,
    kind_len: usize,
    payload_len: u64,
}

/// Fixed-size prefix before the kind bytes: magic + format version +
/// entry version + kind length.
const HEADER_FIXED: usize = 4 + 4 + 4 + 1;

fn parse_header(bytes: &[u8]) -> Option<EntryHeader> {
    if bytes.len() < HEADER_FIXED || &bytes[..4] != ENTRY_MAGIC {
        return None;
    }
    let rd32 = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    if rd32(4) != FORMAT_VERSION {
        return None;
    }
    let version = rd32(8);
    let kind_len = bytes[12] as usize;
    if !(1..=16).contains(&kind_len) || bytes.len() < HEADER_FIXED + kind_len + 8 {
        return None;
    }
    let plo = HEADER_FIXED + kind_len;
    let payload_len = u64::from_le_bytes(bytes[plo..plo + 8].try_into().unwrap());
    Some(EntryHeader { version, kind_len, payload_len })
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Cache {
    /// A cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache at [`default_dir`].
    pub fn at_default() -> Self {
        Self::new(default_dir())
    }

    /// The directory this cache reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, kind: &str, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{kind}-{}{ENTRY_EXT}", key.hex()))
    }

    /// Publishes `payload` under `(kind, key)`, embedding `version` (the
    /// caller's artifact version, e.g. [`GENERATOR_VERSION`]) in the
    /// header and a [`checksum64`] in the trailer. Atomic: the entry
    /// is assembled in a temp file and renamed into place, so concurrent
    /// writers on one key are safe and readers never see partial data.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers treat storing as
    /// best-effort.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a legal kind (see the naming scheme).
    pub fn store(
        &self,
        kind: &str,
        version: u32,
        key: &CacheKey,
        payload: &[u8],
    ) -> io::Result<PathBuf> {
        assert!(valid_kind(kind), "invalid cache kind {kind:?}");
        fs::create_dir_all(&self.dir)?;
        let mut body = Vec::with_capacity(HEADER_FIXED + kind.len() + 8 + payload.len() + 8);
        body.extend_from_slice(ENTRY_MAGIC);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&version.to_le_bytes());
        body.push(kind.len() as u8);
        body.extend_from_slice(kind.as_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(payload);
        let digest = checksum64(&body);
        body.extend_from_slice(&digest.to_le_bytes());

        let final_path = self.entry_path(kind, key);
        let tmp_path = self.dir.join(format!(
            "{kind}-{}{ENTRY_EXT}.tmp{}.{}",
            key.hex(),
            std::process::id(),
            // relaxed-ok: the counter only needs to hand out distinct
            // temp-file suffixes within this process.
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp_path, &body)?;
        match fs::rename(&tmp_path, &final_path) {
            Ok(()) => Ok(final_path),
            Err(e) => {
                let _ = fs::remove_file(&tmp_path);
                Err(e)
            }
        }
    }

    /// Loads the payload stored under `(kind, key)`, verifying format,
    /// kind, embedded version and checksum. Any mismatch (corruption,
    /// truncation, version drift) removes the entry best-effort and
    /// returns `None` so the caller regenerates.
    pub fn load(&self, kind: &str, version: u32, key: &CacheKey) -> Option<Vec<u8>> {
        let path = self.entry_path(kind, key);
        let mut bytes = fs::read(&path).ok()?;
        // Chaos fault sites (DESIGN.md §12): mangle the entry exactly
        // as silent disk corruption or a torn write would, *after* the
        // read and *before* verification — the integrity trailer must
        // catch it and the regenerate-on-mismatch path below must heal
        // it. Compiled down to one atomic load when chaos is unarmed.
        if pra_chaos::armed() {
            let _ = pra_chaos::mangle(pra_chaos::Site::CacheCorrupt, &mut bytes);
            let _ = pra_chaos::mangle(pra_chaos::Site::CacheTruncate, &mut bytes);
        }
        match Self::verify(bytes, kind, version) {
            Some(payload) => Some(payload),
            None => {
                self.remove_entry(&path);
                None
            }
        }
    }

    /// Full entry verification; on success returns the payload in the
    /// entry's own allocation (trailer truncated, header drained) — no
    /// second tens-of-MB copy on the warm-load hot path.
    fn verify(mut bytes: Vec<u8>, kind: &str, version: u32) -> Option<Vec<u8>> {
        let h = parse_header(&bytes)?;
        if h.version != version {
            return None;
        }
        let kind_bytes = &bytes[HEADER_FIXED..HEADER_FIXED + h.kind_len];
        if kind_bytes != kind.as_bytes() {
            return None;
        }
        let payload_start = HEADER_FIXED + h.kind_len + 8;
        let payload_len = usize::try_from(h.payload_len).ok()?;
        let checksum_start = payload_start.checked_add(payload_len)?;
        if bytes.len() != checksum_start + 8 {
            return None;
        }
        let expect = u64::from_le_bytes(bytes[checksum_start..].try_into().ok()?);
        if checksum64(&bytes[..checksum_start]) != expect {
            return None;
        }
        bytes.truncate(checksum_start);
        bytes.drain(..payload_start);
        Some(bytes)
    }

    /// Removes a file we positively identified as a cache entry —
    /// refuses anything whose name is foreign or that is not a regular
    /// file (checked without following symlinks).
    fn remove_entry(&self, path: &Path) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { return };
        if parse_entry_name(name).is_none() {
            return;
        }
        match fs::symlink_metadata(path) {
            Ok(m) if m.is_file() => {
                let _ = fs::remove_file(path);
            }
            _ => {}
        }
    }

    /// Scans the directory and reports size/kind/version statistics.
    /// A missing directory reads as empty.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            dir: self.dir.clone(),
            entries: 0,
            bytes: 0,
            temps: 0,
            foreign: 0,
            kinds: Vec::new(),
        };
        let Ok(rd) = fs::read_dir(&self.dir) else { return stats };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                stats.foreign += 1;
                continue;
            };
            let Ok(meta) = fs::symlink_metadata(entry.path()) else { continue };
            match parse_entry_name(name) {
                Some((_, true)) if meta.is_file() => stats.temps += 1,
                Some((kind, false)) if meta.is_file() => {
                    stats.entries += 1;
                    stats.bytes += meta.len();
                    let version = read_entry_version(&entry.path());
                    let ks = match stats.kinds.iter_mut().find(|k| k.kind == kind) {
                        Some(ks) => ks,
                        None => {
                            stats.kinds.push(KindStats {
                                kind: kind.to_string(),
                                entries: 0,
                                bytes: 0,
                                versions: Vec::new(),
                            });
                            stats.kinds.last_mut().unwrap()
                        }
                    };
                    ks.entries += 1;
                    ks.bytes += meta.len();
                    if let Some(v) = version {
                        match ks.versions.iter_mut().find(|(ver, _)| *ver == v) {
                            Some((_, n)) => *n += 1,
                            None => ks.versions.push((v, 1)),
                        }
                    }
                }
                _ => stats.foreign += 1,
            }
        }
        stats.kinds.sort_by(|a, b| a.kind.cmp(&b.kind));
        for ks in &mut stats.kinds {
            ks.versions.sort_unstable();
        }
        stats
    }

    /// Removes every cache entry and temp file in the directory.
    /// Foreign files, directories and symlinks are counted as skipped
    /// and left untouched; the directory itself is kept.
    ///
    /// # Errors
    ///
    /// Propagates an error only from reading the directory; individual
    /// removals are best-effort.
    pub fn clear(&self) -> io::Result<ClearReport> {
        self.remove_matching(|_, _, _| true)
    }

    /// [`Cache::clear`] restricted to one entry kind (`pra cache clear
    /// --kind …`): entries and temps whose tag differs are counted as
    /// kept, everything else follows the usual safety rules.
    ///
    /// # Errors
    ///
    /// Propagates an error only from reading the directory.
    pub fn clear_kind(&self, kind: &str) -> io::Result<ClearReport> {
        self.remove_matching(|entry_kind, _, _| entry_kind == kind)
    }

    /// One-pass stale-generation GC: for every `(kind, current
    /// version)` pair in `current`, removes that kind's published
    /// entries whose embedded version differs, plus its abandoned temp
    /// files older than one hour (younger temps may belong to a live
    /// writer). Entries of unlisted kinds and current-version entries
    /// are counted as kept. Same safety rules as [`Cache::clear`].
    ///
    /// # Errors
    ///
    /// Propagates an error only from reading the directory.
    pub fn gc_stale(&self, current: &[(&str, u32)]) -> io::Result<ClearReport> {
        let now = std::time::SystemTime::now();
        self.remove_matching(|entry_kind, is_temp, path| {
            let Some(&(_, version)) = current.iter().find(|(k, _)| *k == entry_kind) else {
                return false;
            };
            if is_temp {
                let age = fs::symlink_metadata(path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|m| now.duration_since(m).ok());
                return age.is_some_and(|a| a.as_secs() > 3600);
            }
            read_entry_version(path) != Some(version)
        })
    }

    /// Shared guarded-deletion pass: `condemn(kind, is_temp, path)`
    /// decides which *scheme-matching regular files* go; retained
    /// entries count as kept, and everything that is not the cache's
    /// to manage is skipped by construction.
    fn remove_matching(
        &self,
        condemn: impl Fn(&str, bool, &Path) -> bool,
    ) -> io::Result<ClearReport> {
        let mut report = ClearReport::default();
        let rd = match fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let path = entry.path();
            let matched = name.to_str().and_then(parse_entry_name);
            let Some((kind, is_temp)) = matched else {
                report.skipped += 1;
                continue;
            };
            // symlink_metadata never follows links: a symlink that
            // happens to be named like an entry is skipped, not its
            // target removed.
            let Ok(meta) = fs::symlink_metadata(&path) else {
                report.skipped += 1;
                continue;
            };
            if !meta.is_file() {
                report.skipped += 1;
                continue;
            }
            if !condemn(kind, is_temp, &path) {
                report.kept += 1;
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                report.removed += 1;
                report.freed_bytes += meta.len();
            } else {
                report.skipped += 1;
            }
        }
        Ok(report)
    }
}

/// Reads just the embedded version of an entry file (for stats/GC).
fn read_entry_version(path: &Path) -> Option<u32> {
    let mut f = fs::File::open(path).ok()?;
    let mut head = [0u8; HEADER_FIXED + 16 + 8];
    let mut got = 0;
    while got < head.len() {
        match f.read(&mut head[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(_) => return None,
        }
    }
    parse_header(&head[..got]).map(|h| h.version)
}

// ---------------------------------------------------------------------
// Workload entries
// ---------------------------------------------------------------------

/// Outcome of a cache-aware workload build, reported per sweep job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The workload was loaded from the cache; generation was skipped.
    Hit,
    /// No valid entry existed; the workload was generated and stored.
    Miss,
    /// The cache was disabled (`--no-cache` / `PRA_NO_CACHE`).
    Disabled,
}

impl CacheOutcome {
    /// Stable label for reports: `"hit"`, `"miss"` or `"off"`.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Disabled => "off",
        }
    }
}

/// Compile-time fingerprint of the generation pipeline's own sources,
/// mixed into every workload key: even when a code change that alters
/// generated bytes forgets the [`GENERATOR_VERSION`] bump, entries
/// built by other source versions become unreachable *locally*, not
/// just in CI (whose actions/cache key hashes the same sources). The
/// price is over-invalidation on comment-only edits — a 3 s cold
/// sweep, chosen over silently serving stale streams.
fn source_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let sources: [&str; 6] = [
            include_str!("cache.rs"),
            include_str!("calibrate.rs"),
            include_str!("generator.rs"),
            include_str!("networks.rs"),
            include_str!("profiles.rs"),
            include_str!("traces.rs"),
        ];
        let mut h = 0u64;
        for s in sources {
            h = checksum64(s.as_bytes()) ^ h.rotate_left(9);
        }
        h
    })
}

/// The content-address of the calibrated workload for
/// `(network, repr, seed)` under the current [`GENERATOR_VERSION`].
pub fn workload_key(network: Network, repr: Representation, seed: u64) -> CacheKey {
    workload_key_for_version(network, repr, seed, GENERATOR_VERSION)
}

/// [`workload_key`] under an explicit generator version — exposed so
/// tests can pin the version-bump invalidation property.
pub fn workload_key_for_version(
    network: Network,
    repr: Representation,
    seed: u64,
    version: u32,
) -> CacheKey {
    let mut h = KeyHasher::new("pra-workload-v1");
    h.u32(version);
    h.u64(source_fingerprint());
    // Network descriptor: name plus full per-layer geometry, so an
    // edited layer table can never alias a previous network shape.
    h.str(network.name());
    let specs = network.conv_layers();
    h.u64(specs.len() as u64);
    for spec in &specs {
        h.conv_spec(spec);
    }
    // Profile/calibration inputs: Table II precisions, the Table I row
    // the model is fitted against, and every calibration constant. The
    // fitted ActivationModel is a deterministic function of these, so
    // hashing the inputs (rather than the fit) lets a warm hit skip
    // calibration entirely.
    let precs = profiles::precisions(network);
    h.u64(precs.len() as u64);
    for &p in precs {
        h.u32(p as u32);
    }
    let t1 = profiles::table1(network);
    for v in [t1.fp16_all, t1.fp16_nz, t1.q8_all, t1.q8_nz] {
        h.f64(v);
    }
    for v in [
        calibrate::SUFFIX_DENSITY,
        calibrate::OUTLIER_PROB,
        calibrate::DENSE_PROB,
        calibrate::HEAVY_SHARE,
        calibrate::DENSE_PROB_Q8,
        calibrate::HEAVY_SHARE_Q8,
    ] {
        h.f64(v);
    }
    h.u64(calibrate::CALIBRATION_SEED);
    h.u64(calibrate::CALIBRATION_SAMPLES as u64);
    h.u32(WINDOW_LSB as u32);
    h.u32(repr.bits());
    h.u64(seed);
    h.finish()
}

/// Serializes and publishes `workload` under `key`: the six activation-
/// model parameters followed by the `PRAT` trace (the `traces` module's
/// serialization), wrapped in the checksummed entry container.
///
/// # Errors
///
/// Propagates filesystem errors (callers store best-effort).
pub fn store_workload(
    cache: &Cache,
    key: &CacheKey,
    workload: &NetworkWorkload,
) -> io::Result<PathBuf> {
    let mut payload = Vec::with_capacity(
        48 + workload.layers.iter().map(|l| 64 + 2 * l.neurons.as_slice().len()).sum::<usize>(),
    );
    for v in [
        workload.model.zero_frac,
        workload.model.sigma,
        workload.model.suffix_density,
        workload.model.outlier_prob,
        workload.model.dense_prob,
        workload.model.heavy_share,
    ] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    traces::write_trace(&mut payload, workload)?;
    cache.store(WORKLOAD_KIND, GENERATOR_VERSION, key, &payload)
}

/// Loads the workload stored under `key`, rebuilding layer geometry and
/// precision windows from `network` (exactly as generation would) and
/// restoring the stored activation model. Returns `None` on any
/// mismatch — wrong representation, foreign geometry, short payload —
/// and the caller regenerates.
pub fn load_workload(
    cache: &Cache,
    key: &CacheKey,
    network: Network,
    repr: Representation,
) -> Option<NetworkWorkload> {
    let payload = cache.load(WORKLOAD_KIND, GENERATOR_VERSION, key)?;
    if payload.len() < 48 {
        return None;
    }
    let mut vals = [0f64; 6];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = f64::from_le_bytes(payload[8 * i..8 * i + 8].try_into().unwrap());
    }
    let mut workload = traces::workload_from_bytes(&payload[48..], network).ok()?;
    if workload.repr != repr {
        return None;
    }
    workload.model = ActivationModel {
        zero_frac: vals[0],
        sigma: vals[1],
        suffix_density: vals[2],
        outlier_prob: vals[3],
        dense_prob: vals[4],
        heavy_share: vals[5],
    };
    Some(workload)
}

// ---------------------------------------------------------------------
// The tiered artifact store
// ---------------------------------------------------------------------

/// The artifact kinds the tiered store can persist (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Generated workload streams ([`WORKLOAD_KIND`], `"wl"`).
    Workload,
    /// Per-layer NM/SB traffic tables (`"tr"`, owned by `pra-core`).
    Traffic,
    /// Per-brick schedule tables (`"en"`, owned by `pra-core`'s
    /// `artifact` module).
    Encoded,
}

impl ArtifactKind {
    /// Every kind, in stable display order.
    pub const ALL: [ArtifactKind; 3] =
        [ArtifactKind::Workload, ArtifactKind::Traffic, ArtifactKind::Encoded];

    /// The on-disk entry-name tag (`<tag>-<64 hex>.prac`).
    pub fn tag(self) -> &'static str {
        match self {
            ArtifactKind::Workload => WORKLOAD_KIND,
            ArtifactKind::Traffic => "tr",
            ArtifactKind::Encoded => "en",
        }
    }

    /// The human-facing name used by `pra cache --kind`.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Workload => "workload",
            ArtifactKind::Traffic => "traffic",
            ArtifactKind::Encoded => "encoded",
        }
    }

    /// Parses either the human name (`"workload"`) or the entry tag
    /// (`"wl"`).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s || k.tag() == s)
    }
}

/// One typed handle over the content-addressed artifact cache: which
/// directory (if any) backs it, and which [`ArtifactKind`] tiers may
/// read and write it. This is the single construction path every
/// cache-aware consumer (sweep, serve, router) goes through — the old
/// per-call `use_cache: bool` + `cache_dir: Option<PathBuf>` plumbing
/// and the `build`/`build_uncached` twin entry points collapse into
/// one value that is built once and passed along.
///
/// ```
/// use pra_workloads::cache::{ArtifactKind, ArtifactStore};
/// // Disk-backed, workload + encoded tiers only:
/// let store = ArtifactStore::new("/tmp/pra-cache")
///     .tier(ArtifactKind::Workload)
///     .tier(ArtifactKind::Encoded);
/// assert!(store.tier_enabled(ArtifactKind::Workload));
/// assert!(!store.tier_enabled(ArtifactKind::Traffic));
/// // The escape hatch: never touch disk at all.
/// let off = ArtifactStore::at_default().no_disk();
/// assert!(off.cache_for(ArtifactKind::Workload).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    cache: Option<Cache>,
    tiers: [bool; 3],
}

impl ArtifactStore {
    /// A store rooted at `dir` with **no** tiers enabled yet — chain
    /// [`ArtifactStore::tier`] to opt kinds in.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { cache: Some(Cache::new(dir)), tiers: [false; 3] }
    }

    /// The default store: rooted at [`default_dir`] with every tier
    /// enabled (what `pra sweep` / `pra serve` use unless told
    /// otherwise).
    pub fn at_default() -> Self {
        Self { cache: Some(Cache::at_default()), tiers: [true; 3] }
    }

    /// Enables one artifact tier.
    pub fn tier(mut self, kind: ArtifactKind) -> Self {
        self.tiers[kind as usize] = true;
        self
    }

    /// Drops the disk entirely: every probe misses and every publish is
    /// a no-op (`pra sweep --no-cache`, hermetic tests).
    pub fn no_disk(mut self) -> Self {
        self.cache = None;
        self
    }

    /// The backing directory, `None` for a [`ArtifactStore::no_disk`]
    /// store.
    pub fn dir(&self) -> Option<&Path> {
        self.cache.as_ref().map(Cache::dir)
    }

    /// Whether `kind`'s tier was enabled (regardless of disk presence).
    pub fn tier_enabled(&self, kind: ArtifactKind) -> bool {
        self.tiers[kind as usize]
    }

    /// The single probe point: the backing [`Cache`] for `kind`, or
    /// `None` when the store has no disk, the tier is off, or the cache
    /// is disabled process-wide ([`enabled`], `PRA_NO_CACHE`). Callers
    /// that get `None` generate; callers that get `Some` consult disk
    /// first and publish after a miss.
    pub fn cache_for(&self, kind: ArtifactKind) -> Option<&Cache> {
        (self.tiers[kind as usize] && enabled()).then_some(self.cache.as_ref()?)
    }

    /// Cache-aware workload build: consult the workload tier first,
    /// generate and publish on a miss. The returned workload is
    /// bit-identical either way (round-trip pinned by
    /// `tests/cache_roundtrip.rs`).
    pub fn workload(
        &self,
        network: Network,
        repr: Representation,
        seed: u64,
    ) -> (NetworkWorkload, CacheOutcome) {
        let Some(cache) = self.cache_for(ArtifactKind::Workload) else {
            return (NetworkWorkload::build(network, repr, seed), CacheOutcome::Disabled);
        };
        let key = workload_key(network, repr, seed);
        if let Some(w) = load_workload(cache, &key, network, repr) {
            return (w, CacheOutcome::Hit);
        }
        let w = NetworkWorkload::build(network, repr, seed);
        // Best-effort: a read-only cache directory must not fail a build.
        let _ = store_workload(cache, &key, &w);
        (w, CacheOutcome::Miss)
    }

    /// Copies every published entry of `src` into this store's
    /// directory — the shard warm-up path: a fresh shard inherits the
    /// donor's artifacts as a file copy instead of re-encoding. Only
    /// scheme-matching regular files are copied (temps, symlinks and
    /// foreign files are ignored, mirroring the deletion rules), each
    /// through the same atomic temp + rename publish as
    /// [`Cache::store`]. Returns how many entries were copied; a
    /// diskless source or destination copies nothing.
    ///
    /// # Errors
    ///
    /// Propagates directory-read and copy failures.
    pub fn seed_entries_from(&self, src: &ArtifactStore) -> io::Result<usize> {
        let (Some(dst), Some(src)) = (self.cache.as_ref(), src.cache.as_ref()) else {
            return Ok(0);
        };
        let rd = match fs::read_dir(src.dir()) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        fs::create_dir_all(dst.dir())?;
        let mut copied = 0;
        for entry in rd.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !matches!(parse_entry_name(name), Some((_, false))) {
                continue;
            }
            let from = entry.path();
            let Ok(meta) = fs::symlink_metadata(&from) else { continue };
            if !meta.is_file() {
                continue;
            }
            let to = dst.dir().join(name);
            if to == from {
                continue;
            }
            let tmp = dst.dir().join(format!(
                "{name}.tmp{}.{}",
                std::process::id(),
                // relaxed-ok: distinct temp-file suffixes only.
                TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
            ));
            fs::copy(&from, &tmp)?;
            match fs::rename(&tmp, &to) {
                Ok(()) => copied += 1,
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    return Err(e);
                }
            }
        }
        Ok(copied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-2 test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Exercise the multi-block and buffered paths: one million 'a's
        // fed in deliberately awkward 97-byte chunks.
        let mut h = Sha256::new();
        let chunk = [b'a'; 97];
        let mut remaining = 1_000_000usize;
        while remaining > 0 {
            let n = remaining.min(chunk.len());
            h.update(&chunk[..n]);
            remaining -= n;
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
        // Byte-at-a-time must agree with one-shot hashing.
        let mut h = Sha256::new();
        for b in b"abc" {
            h.update(&[*b]);
        }
        assert_eq!(h.finalize(), sha256(b"abc"));
    }

    #[test]
    fn checksum64_detects_flips_truncation_and_extension() {
        let data: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        let base = checksum64(&data);
        assert_eq!(base, checksum64(&data), "deterministic");
        for at in [0, 7, 8, 500, data.len() - 1] {
            let mut tampered = data.clone();
            tampered[at] ^= 0x10;
            assert_ne!(checksum64(&tampered), base, "flip at {at} must change the sum");
        }
        assert_ne!(checksum64(&data[..data.len() - 1]), base, "truncation changes the sum");
        let mut extended = data.clone();
        extended.push(0);
        // Length is mixed in, so zero-extension cannot collide either.
        assert_ne!(checksum64(&extended), base);
        assert_ne!(checksum64(b""), checksum64(&[0u8; 8]));
    }

    #[test]
    fn key_hasher_framing_prevents_concatenation_collisions() {
        let mut a = KeyHasher::new("t");
        a.str("ab").str("c");
        let mut b = KeyHasher::new("t");
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = KeyHasher::new("t1");
        c.str("x");
        let mut d = KeyHasher::new("t");
        d.str("1x");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn entry_name_scheme_is_strict() {
        let hex64 = "0".repeat(64);
        assert_eq!(parse_entry_name(&format!("wl-{hex64}.prac")), Some(("wl", false)));
        assert_eq!(parse_entry_name(&format!("wl-{hex64}.prac.tmp12.3")), Some(("wl", true)));
        for bad in [
            "notes.txt".to_string(),
            format!("wl-{hex64}.prac.bak"),
            format!("WL-{hex64}.prac"),
            format!("wl-{}.prac", "0".repeat(63)),
            format!("wl-{}.prac", "g".repeat(64)),
            format!("wl-{hex64}.prac.tmp"),
            format!("wl-{hex64}.prac.tmpx"),
            format!("-{hex64}.prac"),
        ] {
            assert_eq!(parse_entry_name(&bad), None, "{bad} must not match");
        }
    }

    #[test]
    fn workload_keys_separate_every_input() {
        let base = workload_key(Network::AlexNet, Representation::Fixed16, 7);
        assert_eq!(base.hex().len(), 64);
        assert_eq!(base, workload_key(Network::AlexNet, Representation::Fixed16, 7));
        assert_ne!(base, workload_key(Network::NiN, Representation::Fixed16, 7));
        assert_ne!(base, workload_key(Network::AlexNet, Representation::Quant8, 7));
        assert_ne!(base, workload_key(Network::AlexNet, Representation::Fixed16, 8));
        assert_ne!(
            base,
            workload_key_for_version(
                Network::AlexNet,
                Representation::Fixed16,
                7,
                GENERATOR_VERSION + 1
            )
        );
    }
}
