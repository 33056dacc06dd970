//! Segment-store robustness: a fault-injection matrix over the sharded
//! longitudinal store. Whatever is damaged — one segment file
//! (truncated, bit-flipped, wrong magic, wrong version, deleted) or the
//! manifest (garbled, stale, overlapping spans) — a windowed load must
//! return exactly what a fresh YAML build returns, rebuild *only* the
//! damaged segments, and leave every healthy segment file byte-for-byte
//! untouched. Damage is never repaired by rebuilding the whole history.
//! Corpus changes — a size-changing edit, deleted files — are likewise
//! never served stale.

use std::collections::BTreeMap;

use ovh_weather::dataset::{
    decode_manifest, encode_manifest, SegmentManifest, SegmentMeta, MANIFEST_FORMAT_VERSION,
    SEGMENT_FORMAT_VERSION,
};
use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};

const MAP: MapKind = MapKind::Europe;
const POLICY: SegmentPolicy = SegmentPolicy { capacity: 4 };

/// A small fault-injected single-map corpus plus its cache-less
/// baseline: 12 five-minute snapshots (some extraction-corrupted) and
/// one unparsable YAML file — 13 entries, so `capacity: 4` yields three
/// sealed segments plus a one-entry active tail.
fn corpus(tag: &str) -> (DatasetStore, LongitudinalStore, CorpusLoadStats) {
    let dir = std::env::temp_dir().join(format!(
        "ovh-weather-segment-robustness-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sim = Simulation::new(SimulationConfig::scaled(11, 0.1));
    let store = DatasetStore::open(&dir).expect("temp corpus");
    let from = Timestamp::from_ymd(2022, 3, 1);
    let to = from + Duration::from_hours(1);
    let mut inputs: Vec<BatchInput> = sim
        .corpus_between(MAP, from, to)
        .map(|f| BatchInput {
            timestamp: f.timestamp,
            svg: f.svg,
        })
        .collect();
    for (i, input) in inputs.iter_mut().enumerate() {
        if i % 3 == 0 {
            let fault = FaultKind::ALL[(i / 3) % FaultKind::ALL.len()];
            input.svg = corrupt(&input.svg, fault, i as u64);
        }
    }
    let (snapshots, stats, _) = extract_batch_with(
        &inputs,
        MAP,
        &ExtractConfig::default(),
        4,
        Scheduling::WorkStealing,
    );
    assert!(stats.processed > 0, "empty corpus");
    for s in &snapshots {
        store
            .write(
                MAP,
                FileKind::Yaml,
                s.timestamp,
                to_yaml_string(s).as_bytes(),
            )
            .expect("write yaml");
    }
    store
        .write(MAP, FileKind::Yaml, to, b"not: [valid yaml")
        .expect("write broken yaml");

    let (baseline, baseline_stats) = build_longitudinal(&store, MAP, 4).expect("baseline build");
    (store, baseline, baseline_stats)
}

/// Every segment-store file of the map, by name (`manifest` included),
/// for byte-level before/after comparison.
fn segment_files(store: &DatasetStore) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for name in store.list_segment_files(MAP).expect("list segments") {
        let bytes = store
            .read_segment_file(MAP, &name)
            .expect("read segment")
            .expect("segment listed but unreadable");
        files.insert(name, bytes);
    }
    if let Some(bytes) = store.read_manifest_bytes(MAP).expect("read manifest") {
        files.insert("manifest".to_owned(), bytes);
    }
    files
}

/// Runs a full-range windowed load and checks it reproduces the
/// baseline, field by field.
fn assert_recovers(
    store: &DatasetStore,
    baseline: &LongitudinalStore,
    baseline_stats: &CorpusLoadStats,
    what: &str,
) -> CacheStats {
    let (built, stats) =
        build_longitudinal_windowed_with(store, MAP, TimeRange::ALL, 4, CacheMode::Auto, POLICY)
            .unwrap_or_else(|e| panic!("{what}: load must not error: {e}"));
    assert_eq!(&built, baseline, "{what}: store differs from baseline");
    assert_eq!(
        stats.base(),
        *baseline_stats,
        "{what}: stats differ from baseline"
    );
    stats.cache
}

/// Plants one mutation, loads, and asserts the damage was (a) healed,
/// (b) healed by rebuilding exactly `expect_rebuilt` segments, and
/// (c) invisible to every other file: afterwards the segment directory
/// is byte-identical to its pristine state.
#[allow(clippy::too_many_arguments)]
fn assert_surgical_recovery(
    store: &DatasetStore,
    baseline: &LongitudinalStore,
    baseline_stats: &CorpusLoadStats,
    pristine: &BTreeMap<String, Vec<u8>>,
    what: &str,
    expect_corrupt: u64,
    expect_stale: u64,
    expect_rebuilt: u64,
) {
    let cache = assert_recovers(store, baseline, baseline_stats, what);
    assert_eq!(cache.corrupt, expect_corrupt, "{what}: corrupt counter");
    assert_eq!(cache.stale, expect_stale, "{what}: stale counter");
    assert_eq!(
        cache.segments_rebuilt, expect_rebuilt,
        "{what}: only damaged segments may be rebuilt"
    );
    assert_eq!(
        cache.segments_touched,
        pristine.len() as u64 - 1,
        "{what}: a full-range load touches every segment"
    );
    assert_eq!(cache.hits, 1, "{what}: the partition itself still matches");
    // Repair must never re-parse more than the damaged segments' YAML.
    assert!(
        cache.snapshots_appended <= expect_rebuilt * POLICY.capacity as u64,
        "{what}: repair re-parsed beyond the damaged segments \
         ({} snapshots for {} rebuilt segments)",
        cache.snapshots_appended,
        expect_rebuilt
    );
    // Deterministic re-encode: healing restores the exact bytes.
    assert_eq!(
        &segment_files(store),
        pristine,
        "{what}: recovery must restore the pristine segment directory"
    );

    // And the next load is perfectly clean.
    let cache = assert_recovers(store, baseline, baseline_stats, what);
    assert_eq!(cache.corrupt + cache.stale, 0, "{what}: damage lingered");
    assert_eq!(cache.segments_rebuilt, 0, "{what}: rebuilds lingered");
}

#[test]
fn every_segment_corruption_is_repaired_surgically() {
    let (store, baseline, baseline_stats) = corpus("files");

    // Populate and snapshot the pristine state.
    let cache = assert_recovers(&store, &baseline, &baseline_stats, "populate");
    assert_eq!(cache.misses, 1, "first build is a miss");
    let pristine = segment_files(&store);
    let manifest =
        decode_manifest(pristine.get("manifest").expect("manifest")).expect("valid manifest");
    let entry_count = store
        .entries_of(MAP, FileKind::Yaml)
        .expect("entries")
        .len();
    assert_eq!(
        manifest.segments.len(),
        entry_count.div_ceil(POLICY.capacity),
        "canonical partition: ceil(entries / capacity) segments"
    );
    assert!(
        manifest.segments.len() >= 3,
        "want several segments to damage, got {}",
        manifest.segments.len()
    );
    let cache = assert_recovers(&store, &baseline, &baseline_stats, "pristine");
    assert_eq!(cache.hits, 1, "pristine reload is a hit");
    assert_eq!(cache.segments_rebuilt, 0);

    // The per-segment corruption matrix, applied to *every* segment in
    // turn — sealed ones and the active tail alike.
    type Mutation = (&'static str, fn(&[u8]) -> Option<Vec<u8>>, u64, u64);
    let mutations: [Mutation; 6] = [
        ("empty file", |_| Some(Vec::new()), 1, 0),
        (
            "truncated mid-payload",
            |b| Some(b[..b.len() / 2].to_vec()),
            1,
            0,
        ),
        (
            "flipped payload bit",
            |b| {
                let mut b = b.to_vec();
                let last = b.len() - 1;
                b[last] ^= 0x01;
                Some(b)
            },
            1,
            0,
        ),
        (
            "bad magic",
            |b| {
                let mut b = b.to_vec();
                b[0] ^= 0xFF;
                Some(b)
            },
            1,
            0,
        ),
        (
            "unsupported version",
            |b| {
                let mut b = b.to_vec();
                b[8] = 99;
                Some(b)
            },
            0,
            1,
        ),
        ("missing file", |_| None, 1, 0),
    ];

    for meta in &manifest.segments {
        let original = pristine.get(&meta.name).expect("segment bytes");
        for (what, mutate, expect_corrupt, expect_stale) in mutations {
            let what = format!("{} on {}", what, meta.name);
            match mutate(original) {
                Some(bytes) => store
                    .write_segment_file(MAP, &meta.name, &bytes)
                    .expect("plant corruption"),
                None => store
                    .remove_segment_file(MAP, &meta.name)
                    .expect("plant removal"),
            }
            assert_surgical_recovery(
                &store,
                &baseline,
                &baseline_stats,
                &pristine,
                &what,
                expect_corrupt,
                expect_stale,
                1,
            );
        }
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn manifest_damage_recovers_from_headers_without_rebuilds() {
    let (store, baseline, baseline_stats) = corpus("manifest");

    assert_recovers(&store, &baseline, &baseline_stats, "populate");
    let pristine = segment_files(&store);
    let manifest_bytes = pristine.get("manifest").expect("manifest").clone();
    let manifest = decode_manifest(&manifest_bytes).expect("valid manifest");

    // Garbled, truncated, wrong-magic and plain-missing manifests are
    // *corruption*; an old format version is *staleness*. None of them
    // may trigger a single segment rebuild: the segment files are fine
    // and the manifest is recovered from their headers.
    let garbled = {
        let mut b = manifest_bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        b
    };
    let bad_magic = {
        let mut b = manifest_bytes.clone();
        b[0] ^= 0xFF;
        b
    };
    let stale = {
        let mut b = manifest_bytes.clone();
        b[8] = 99;
        b
    };
    let cases: [(&str, Option<Vec<u8>>, u64, u64); 5] = [
        ("garbled manifest", Some(garbled), 1, 0),
        (
            "truncated manifest",
            Some(manifest_bytes[..9].to_vec()),
            1,
            0,
        ),
        ("bad manifest magic", Some(bad_magic), 1, 0),
        ("stale manifest version", Some(stale), 0, 1),
        ("empty manifest file", Some(Vec::new()), 1, 0),
    ];
    for (what, bytes, expect_corrupt, expect_stale) in cases {
        if let Some(bytes) = bytes {
            store
                .write_manifest_bytes(MAP, &bytes)
                .expect("plant manifest damage");
        }
        assert_surgical_recovery(
            &store,
            &baseline,
            &baseline_stats,
            &pristine,
            what,
            expect_corrupt,
            expect_stale,
            0,
        );
    }

    // A manifest whose spans overlap is structurally well-formed (CRC
    // passes) but semantically invalid — the decoder must reject it and
    // the loader must fall back to header recovery, again rebuilding
    // nothing.
    let overlapping = SegmentManifest {
        segments: manifest
            .segments
            .iter()
            .map(|m| SegmentMeta {
                t_min: manifest.segments[0].t_min,
                ..m.clone()
            })
            .collect(),
    };
    assert!(
        decode_manifest(&encode_manifest(&overlapping)).is_err(),
        "overlapping spans must not decode"
    );
    store
        .write_manifest_bytes(MAP, &encode_manifest(&overlapping))
        .expect("plant overlapping manifest");
    assert_surgical_recovery(
        &store,
        &baseline,
        &baseline_stats,
        &pristine,
        "overlapping manifest spans",
        1,
        0,
        0,
    );

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn compound_damage_heals_in_one_pass() {
    let (store, baseline, baseline_stats) = corpus("compound");

    assert_recovers(&store, &baseline, &baseline_stats, "populate");
    let pristine = segment_files(&store);
    let manifest =
        decode_manifest(pristine.get("manifest").expect("manifest")).expect("valid manifest");

    // Damage two segments at once, in different ways.
    let first = &manifest.segments[0];
    let third = &manifest.segments[2];
    store
        .remove_segment_file(MAP, &first.name)
        .expect("remove first");
    let mut stale = pristine.get(&third.name).expect("third bytes").clone();
    stale[8] = 77;
    store
        .write_segment_file(MAP, &third.name, &stale)
        .expect("plant stale");

    let cache = assert_recovers(&store, &baseline, &baseline_stats, "compound");
    assert_eq!(cache.corrupt, 1, "one missing segment");
    assert_eq!(cache.stale, 1, "one stale segment");
    assert_eq!(cache.segments_rebuilt, 2, "exactly the two damaged ones");
    assert_eq!(segment_files(&store), pristine, "bytes fully restored");

    // `index`'s entry point performs the same healing.
    store
        .remove_segment_file(MAP, &first.name)
        .expect("remove again");
    let (reindexed, stats) = ovh_weather::dataset::segments::reindex_segments_with(
        &store,
        MAP,
        4,
        CacheMode::Auto,
        POLICY,
    )
    .expect("reindex");
    assert_eq!(reindexed, manifest, "reindex reports the same manifest");
    assert_eq!(stats.cache.segments_rebuilt, 1);
    assert_eq!(
        stats.cache.segments_touched,
        manifest.segments.len() as u64,
        "reindex validates every segment"
    );
    assert_eq!(segment_files(&store), pristine, "reindex restored bytes");

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn format_bump_counts_every_rewritten_segment() {
    let (store, baseline, baseline_stats) = corpus("format-bump");

    assert_recovers(&store, &baseline, &baseline_stats, "populate");
    let pristine = segment_files(&store);
    let manifest =
        decode_manifest(pristine.get("manifest").expect("manifest")).expect("valid manifest");

    // A tree written by the previous format: the version bytes (8..12)
    // of the manifest and of every segment name the version before.
    let previous = |bytes: &[u8], version: u32| {
        let mut bytes = bytes.to_vec();
        bytes[8..12].copy_from_slice(&(version - 1).to_le_bytes());
        bytes
    };
    for meta in &manifest.segments {
        let bytes = pristine.get(&meta.name).expect("segment bytes");
        store
            .write_segment_file(MAP, &meta.name, &previous(bytes, SEGMENT_FORMAT_VERSION))
            .expect("plant old segment");
    }
    let old_manifest = previous(
        pristine.get("manifest").expect("manifest"),
        MANIFEST_FORMAT_VERSION,
    );
    store
        .write_manifest_bytes(MAP, &old_manifest)
        .expect("plant old manifest");

    // No header of the old format is trusted, so every segment file is
    // rewritten from YAML in place, and each rewrite counts.
    let (reindexed, stats) = ovh_weather::dataset::segments::reindex_segments_with(
        &store,
        MAP,
        4,
        CacheMode::Auto,
        POLICY,
    )
    .expect("reindex");
    let segments = manifest.segments.len() as u64;
    assert_eq!(reindexed, manifest, "reindex reports the same manifest");
    assert_eq!(stats.cache.stale, 1, "the manifest is stale");
    assert_eq!(stats.cache.corrupt, 0);
    assert_eq!(stats.cache.segments_touched, segments);
    assert_eq!(
        stats.cache.segments_rebuilt, segments,
        "every segment file of the old format was rewritten"
    );
    assert_eq!(
        segment_files(&store),
        pristine,
        "rewritten bytes are pristine"
    );
    let cache = assert_recovers(&store, &baseline, &baseline_stats, "after format bump");
    assert_eq!(cache.hits, 1, "the next load hits");
    assert_eq!(cache.segments_rebuilt, 0);

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

/// Asserts the full-range load reproduces a fresh YAML build of the
/// corpus as it is now, then that the following load is a clean hit.
fn assert_tracks_corpus(store: &DatasetStore, what: &str) -> CacheStats {
    let (fresh, fresh_stats) = build_longitudinal(store, MAP, 4).expect("fresh build");
    let cache = assert_recovers(store, &fresh, &fresh_stats, what);
    let next = assert_recovers(store, &fresh, &fresh_stats, what);
    assert_eq!(next.hits, 1, "{what}: next load must be a hit");
    assert_eq!(
        next.segments_rebuilt, 0,
        "{what}: next load rebuilds nothing"
    );
    cache
}

#[test]
fn size_changing_edit_is_rebuilt_not_trusted() {
    let (store, baseline, baseline_stats) = corpus("edit");
    assert_recovers(&store, &baseline, &baseline_stats, "populate");

    // Append a YAML comment to the oldest file: the parsed value is
    // unchanged, but the size is not, so its segment must not be
    // trusted — an edit is not a hit.
    let entries = store.entries_of(MAP, FileKind::Yaml).expect("entries");
    let oldest = &entries[0];
    let path = store.path_of(oldest.map, oldest.kind, oldest.timestamp);
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    bytes.extend_from_slice(b"\n# touched\n");
    std::fs::write(&path, &bytes).expect("rewrite snapshot");

    let cache = assert_tracks_corpus(&store, "edited oldest file");
    assert_eq!(cache.hits, 0, "edited file: must not be a hit");
    assert_eq!(cache.corrupt + cache.stale, 0, "edited file: no damage");
    assert_eq!(
        cache.snapshots_appended, 1,
        "edited file: only the edited file is re-parsed"
    );
    let (edited, _) = build_longitudinal(&store, MAP, 4).expect("edited build");
    assert_eq!(edited, baseline, "a comment must not change the data");

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn deleted_files_are_rebuilt_not_trusted() {
    let (store, baseline, baseline_stats) = corpus("delete");
    assert_recovers(&store, &baseline, &baseline_stats, "populate");

    // Delete the oldest, a middle and the newest file in turn; every
    // load must reflect the shrunk corpus.
    for which in ["oldest", "middle", "newest"] {
        let what = format!("deleted {which} file");
        let entries = store.entries_of(MAP, FileKind::Yaml).expect("entries");
        let index = match which {
            "oldest" => 0,
            "middle" => entries.len() / 2,
            _ => entries.len() - 1,
        };
        let victim = &entries[index];
        std::fs::remove_file(store.path_of(victim.map, victim.kind, victim.timestamp))
            .expect("delete snapshot");

        let cache = assert_tracks_corpus(&store, &what);
        assert_eq!(cache.hits, 0, "{what}: must not be a hit");
        assert_eq!(cache.corrupt + cache.stale, 0, "{what}: no damage");
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}
