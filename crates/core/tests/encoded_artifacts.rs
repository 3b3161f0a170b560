//! The encoded-artifact store tier (DESIGN.md §15), end to end through
//! the public API and the one build (`start_pipelined` → `run_shared`
//! → `finish`, or `from_workload_stored` with every layer up front) —
//!
//!  1. cross-fidelity sharing: the encoded key deliberately excludes
//!     [`Fidelity`], so a Sampled consumer loads the entry a Full build
//!     published, simulates bit-identically to a fresh build, and
//!     leaves the entry untouched;
//!  2. fail-closed integrity: a corrupted or truncated entry is a miss,
//!     never a mangled deserialize; the rebuild regenerates results
//!     byte-identical to the clean run and `finish` repairs the entry
//!     byte for byte;
//!  3. racing writers: N threads missing on one key all publish, and
//!     exactly one valid entry exists afterwards (atomic temp+rename).
//!
//! The toy workload mirrors `shared.rs`'s unit-test fixture: built from
//! public types only, deterministic content, real geometry, no
//! generator run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pra_core::{run_shared, Fidelity, PraConfig, SharedEncodedNetwork};
use pra_fixed::PrecisionWindow;
use pra_sim::RunResult;
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::cache::{ArtifactKind, ArtifactStore, CacheOutcome};
use pra_workloads::{ActivationModel, LayerWorkload, Network, NetworkWorkload, Representation};

/// Generator seed fed to the encoded key; the toy workload is
/// hand-built, so any pinned value works — it only has to be the same
/// on both sides of a probe.
const SEED: u64 = 0xF1D0;

fn toy_workload() -> NetworkWorkload {
    let toy_layer = || {
        let spec = ConvLayerSpec::new("toy", (12, 6, 32), (3, 3), 32, 1, 1).unwrap();
        LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 31 + y * 7 + i) % 777) as u16),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    };
    NetworkWorkload {
        network: Network::AlexNet,
        repr: Representation::Fixed16,
        model: ActivationModel {
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

/// The sweep's standard config trio at one fidelity. Fidelity is the
/// only axis varied across tests: the encoded key must not see it.
fn configs(fidelity: Fidelity) -> [PraConfig; 3] {
    [
        PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity),
        PraConfig::single_stage(Representation::Fixed16).with_fidelity(fidelity),
        PraConfig::per_column(1, Representation::Fixed16).with_fidelity(fidelity),
    ]
}

/// A store over a fresh scratch directory with only the encoded tier
/// enabled (the workloads under test never touch the other tiers).
fn scratch_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir =
        std::env::temp_dir().join(format!("pra-encoded-artifacts-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = ArtifactStore::new(&dir).tier(ArtifactKind::Encoded);
    (dir, store)
}

/// Every file currently in `dir` (the scratch dirs hold nothing but
/// this test's entries, so listing doubles as a residue check).
fn dir_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("scratch dir exists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The single `en-*.prac` entry the scratch dir must hold.
fn sole_encoded_entry(dir: &Path) -> PathBuf {
    let names = dir_files(dir);
    let entries: Vec<&String> =
        names.iter().filter(|n| n.starts_with("en-") && n.ends_with(".prac")).collect();
    assert_eq!(entries.len(), 1, "expected exactly one encoded entry, dir holds {names:?}");
    dir.join(entries[0])
}

fn run_all(
    cfgs: &[PraConfig],
    workload: &NetworkWorkload,
    shared: &SharedEncodedNetwork,
) -> Vec<RunResult> {
    cfgs.iter().map(|c| run_shared(c, &workload.views(), shared, |_, _| {})).collect()
}

/// One build the way the sweep and the serve worker run it: start,
/// simulate every config against the open build (a miss schedules each
/// layer as the first run reaches it), then `finish`,
/// which publishes whatever the start missed. Returns the results and
/// the encoded tier's outcome.
fn build_and_run(
    cfgs: &[PraConfig],
    workload: &Arc<NetworkWorkload>,
    store: &ArtifactStore,
) -> (Vec<RunResult>, CacheOutcome) {
    let build = SharedEncodedNetwork::start_pipelined(cfgs, workload, SEED, store);
    let views = workload.views();
    let results = cfgs.iter().map(|c| run_shared(c, &views, build.network(), |_, _| {})).collect();
    let outcome = build.encoded_outcome();
    let _ = build.finish(store);
    (results, outcome)
}

#[test]
fn sampled_runs_are_bit_identical_off_a_full_built_entry() {
    let (dir, store) = scratch_store("xfid");
    let workload = Arc::new(toy_workload());

    // Cold Full-fidelity build: miss, simulate, publish in `finish`.
    let full = configs(Fidelity::Full);
    let (_, out) = build_and_run(&full, &workload, &store);
    assert_eq!(out, CacheOutcome::Miss, "fresh dir must miss");
    let entry = sole_encoded_entry(&dir);
    let published = fs::read(&entry).expect("read published entry");
    let stamp = fs::metadata(&entry).and_then(|m| m.modified()).expect("entry mtime");

    // A Sampled consumer hits the Full-built entry (fidelity is not in
    // the key: Sampled visits a subset of Full's bricks)…
    let sampled = configs(Fidelity::Sampled { max_pallets: 1 });
    let (warm_results, out) = build_and_run(&sampled, &workload, &store);
    assert_eq!(out, CacheOutcome::Hit, "fidelity must not enter the encoded key");

    // …and simulates bit-identically to a build that never saw disk.
    let fresh = SharedEncodedNetwork::from_workload(&sampled, &workload);
    assert_eq!(
        warm_results,
        run_all(&sampled, &workload, &fresh),
        "Sampled results must not depend on where the tables came from"
    );
    // The hit published nothing: the entry is the file the Full build
    // wrote, byte for byte.
    assert_eq!(fs::read(&entry).expect("re-read entry"), published, "a hit must not re-publish");
    assert_eq!(
        fs::metadata(&entry).and_then(|m| m.modified()).expect("entry mtime"),
        stamp,
        "a hit must leave the entry file untouched"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_truncated_entries_fall_back_bit_identically() {
    let (dir, store) = scratch_store("mangle");
    let workload = Arc::new(toy_workload());
    let cfgs = configs(Fidelity::Full);

    let (clean, _) = build_and_run(&cfgs, &workload, &store);
    let entry = sole_encoded_entry(&dir);
    let published = fs::read(&entry).expect("read published entry");

    // Flip one payload byte, or truncate to a third: the checksum
    // trailer must reject the entry, the build reports a miss, the
    // rebuild matches clean, and `finish` writes back the same bytes
    // the first publish wrote (the table build is deterministic).
    let mut flipped = published.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let truncated = published[..published.len() / 3].to_vec();
    for (what, mangled) in [("corrupt", &flipped), ("truncated", &truncated)] {
        fs::write(&entry, mangled).expect("plant mangled entry");
        let (rebuilt, out) = build_and_run(&cfgs, &workload, &store);
        assert_eq!(out, CacheOutcome::Miss, "a {what} entry must fail closed");
        assert_eq!(rebuilt, clean, "{what}: rebuild must be bit-identical");
        assert_eq!(
            fs::read(sole_encoded_entry(&dir)).expect("read repaired entry"),
            published,
            "{what}: the repaired entry must be byte-identical to the original"
        );
    }

    // The inline build fails closed the same way, and its `finish`
    // repairs the entry too — with the same bytes, although it publishes
    // before any simulation: the tables are whole once built.
    fs::write(&entry, &flipped).expect("plant corrupted entry");
    let (rebuilt, out) = SharedEncodedNetwork::from_workload_stored(&cfgs, &workload, SEED, &store);
    assert_eq!(out.encoded, CacheOutcome::Miss, "a corrupt entry must fail closed inline");
    assert_eq!(run_all(&cfgs, &workload, &rebuilt), clean, "rebuild must be bit-identical");
    assert_eq!(
        fs::read(sole_encoded_entry(&dir)).expect("read repaired entry"),
        published,
        "publishing before any simulation must write the same bytes"
    );
    let (_, out) = SharedEncodedNetwork::from_workload_stored(&cfgs, &workload, SEED, &store);
    assert_eq!(out.encoded, CacheOutcome::Hit, "the inline repair must load");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn racing_writers_publish_exactly_one_valid_entry() {
    let (dir, store) = scratch_store("race");
    let workload = Arc::new(toy_workload());
    let cfgs = configs(Fidelity::Full);

    // Every thread misses cold (nobody published yet when the last
    // probe ran, or some interleaving thereof — all legal), simulates,
    // and publishes. Writes are temp+rename on one content address, so
    // order cannot matter.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| build_and_run(&cfgs[..1], &workload, &store));
        }
    });

    // Exactly one entry, no temp residue…
    let entry = sole_encoded_entry(&dir);
    assert_eq!(
        dir_files(&dir),
        vec![entry.file_name().unwrap().to_string_lossy().into_owned()],
        "racing publications must leave no temp files behind"
    );
    // …and it is valid: a fresh probe hits and simulates identically to
    // a diskless build.
    let (warm, out) =
        SharedEncodedNetwork::from_workload_stored(&cfgs[..1], &workload, SEED, &store);
    assert_eq!(out.encoded, CacheOutcome::Hit, "the surviving entry must load");
    let fresh = SharedEncodedNetwork::from_workload(&cfgs[..1], &workload);
    assert_eq!(run_all(&cfgs[..1], &workload, &warm), run_all(&cfgs[..1], &workload, &fresh));
    let _ = fs::remove_dir_all(&dir);
}
