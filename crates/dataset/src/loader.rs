//! The shared corpus loader: YAML files on disk to snapshots or a
//! [`LongitudinalStore`], read and parsed in parallel.
//!
//! Before this module every consumer of a corpus — the CLI's analyses,
//! each example — walked the tree and parsed YAML with its own loop.
//! This is the one canonical path. Workers claim files from a shared
//! cursor (same work-stealing shape as the extraction batch runner) and
//! fold parsed snapshots into per-worker [`SnapshotSink`]s; the merge is
//! keyed on file order, so results are byte-identical for any thread
//! count. Files that fail to parse are counted and skipped, like the
//! paper's scripts leaving a handful of unprocessed files per map; I/O
//! errors abort the load.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

use wm_extract::{from_yaml_str, CacheStats, SnapshotSink};
use wm_model::{MapKind, Timestamp, TopologySnapshot};

use crate::codec::{self, CorpusFingerprint, FingerprintEntry};
use crate::longitudinal::{ColumnarBuilder, LongitudinalStore};
use crate::paths::{relative_path, FileKind};
use crate::store::{DatasetEntry, DatasetStore};

/// Counters of one corpus load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusLoadStats {
    /// YAML files read.
    pub files: usize,
    /// Files successfully parsed into snapshots.
    pub parsed: usize,
    /// Files rejected by the YAML schema parser (counted, skipped).
    pub failed: usize,
    /// Total bytes read.
    pub bytes: u64,
    /// Cache activity of this load (all zero on the plain, uncached
    /// paths). Deterministic like every other field.
    pub cache: CacheStats,
}

impl CorpusLoadStats {
    pub(crate) fn merge(&mut self, other: CorpusLoadStats) {
        self.files += other.files;
        self.parsed += other.parsed;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.cache.merge(&other.cache);
    }

    /// The counters of the parse work only, cache activity zeroed —
    /// what a fresh uncached build over the same corpus would report.
    #[must_use]
    pub fn base(&self) -> CorpusLoadStats {
        CorpusLoadStats {
            cache: CacheStats::default(),
            ..*self
        }
    }
}

/// How a load treats the on-disk segment store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Use the valid segments, rebuild only the changed ones.
    #[default]
    Auto,
    /// Ignore the segment store entirely: plain build, nothing read or
    /// written.
    Off,
    /// Rebuild every segment from YAML unconditionally.
    Rebuild,
}

impl CacheMode {
    /// Parses the CLI spelling (`auto` / `off` / `rebuild`).
    #[must_use]
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "auto" => Some(CacheMode::Auto),
            "off" => Some(CacheMode::Off),
            "rebuild" => Some(CacheMode::Rebuild),
            _ => None,
        }
    }
}

/// Loads every YAML snapshot of `map` straight into a
/// [`LongitudinalStore`] in one streaming pass — no intermediate
/// `Vec<TopologySnapshot>`.
pub fn build_longitudinal(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    let entries = store.entries_of(map, FileKind::Yaml)?;
    let (builders, stats, _) =
        load_fold_entries::<ColumnarBuilder>(store, map, &entries, threads, false)?;
    Ok((ColumnarBuilder::finish(builders), stats))
}

/// The corpus fingerprint from enumerated entries plus per-file hashes.
pub(crate) fn fingerprint_from(
    map: MapKind,
    entries: &[DatasetEntry],
    hashes: &[u64],
) -> CorpusFingerprint {
    CorpusFingerprint {
        entries: entries
            .iter()
            .zip(hashes)
            .map(|(entry, &hash)| FingerprintEntry {
                path: relative_path_string(map, entry.timestamp),
                size: entry.size,
                hash,
            })
            .collect(),
    }
}

/// The layout-relative path of one snapshot file as a `/`-joined string
/// (platform-independent, so fingerprints are portable).
pub(crate) fn relative_path_string(map: MapKind, timestamp: Timestamp) -> String {
    let path = relative_path(map, FileKind::Yaml, timestamp);
    let mut out = String::new();
    for component in path.iter() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&component.to_string_lossy());
    }
    out
}

/// Materialises `entries` as snapshots sorted by `(timestamp, entry
/// order)`, with the content hash of every entry, in entry order.
pub(crate) fn load_sorted(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
) -> io::Result<(Vec<TopologySnapshot>, CorpusLoadStats, Vec<u64>)> {
    let (sinks, stats, hashes) =
        load_fold_entries::<Vec<(usize, TopologySnapshot)>>(store, map, entries, threads, true)?;
    let mut results: Vec<(usize, TopologySnapshot)> = sinks.into_iter().flatten().collect();
    results.sort_by_key(|(index, snapshot)| (snapshot.timestamp, *index));
    Ok((
        results.into_iter().map(|(_, snapshot)| snapshot).collect(),
        stats,
        hashes,
    ))
}

/// The loader core: reads and parses the given YAML entries of `map`,
/// folding snapshots into one [`SnapshotSink`] per worker (returned in
/// worker order, never finish order). With `hash` set, also returns the
/// FNV-1a content hash of every entry, in entry order — the combined
/// parse-and-fingerprint pass that seals a segment, which avoids
/// reading each file twice.
pub(crate) fn load_fold_entries<S: SnapshotSink>(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
    hash: bool,
) -> io::Result<(Vec<S>, CorpusLoadStats, Vec<u64>)> {
    let threads = threads.max(1).min(entries.len().max(1));

    if threads == 1 {
        // Serial fast path, same code per file.
        let mut sink = S::default();
        let mut stats = CorpusLoadStats::default();
        let mut hashes = Vec::new();
        for (index, entry) in entries.iter().enumerate() {
            let h = read_one(
                store,
                map,
                entry.timestamp,
                index,
                &mut sink,
                &mut stats,
                hash,
            )?;
            if hash {
                hashes.push(h);
            }
        }
        return Ok((vec![sink], stats, hashes));
    }

    type WorkerOut<S> = (S, CorpusLoadStats, Vec<(usize, u64)>);
    let cursor = AtomicUsize::new(0);
    let (cursor, entries) = (&cursor, entries);
    let outcomes: Vec<io::Result<WorkerOut<S>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut sink = S::default();
                    let mut stats = CorpusLoadStats::default();
                    let mut hashes = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(entry) = entries.get(index) else {
                            break;
                        };
                        let h = read_one(
                            store,
                            map,
                            entry.timestamp,
                            index,
                            &mut sink,
                            &mut stats,
                            hash,
                        )?;
                        if hash {
                            hashes.push((index, h));
                        }
                    }
                    Ok((sink, stats, hashes))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("corpus loader worker panicked"))
            .collect()
    });

    let mut sinks = Vec::with_capacity(threads);
    let mut stats = CorpusLoadStats::default();
    let mut hashes = if hash {
        vec![0u64; entries.len()]
    } else {
        Vec::new()
    };
    for outcome in outcomes {
        let (sink, worker_stats, worker_hashes) = outcome?;
        sinks.push(sink);
        stats.merge(worker_stats);
        for (index, h) in worker_hashes {
            hashes[index] = h;
        }
    }
    Ok((sinks, stats, hashes))
}

#[allow(clippy::too_many_arguments)]
fn read_one<S: SnapshotSink>(
    store: &DatasetStore,
    map: MapKind,
    timestamp: Timestamp,
    index: usize,
    sink: &mut S,
    stats: &mut CorpusLoadStats,
    hash: bool,
) -> io::Result<u64> {
    let bytes = store.read(map, FileKind::Yaml, timestamp)?;
    stats.files += 1;
    stats.bytes += bytes.len() as u64;
    let h = if hash { codec::fnv1a(&bytes) } else { 0 };
    let text = String::from_utf8_lossy(&bytes);
    match from_yaml_str(&text) {
        Ok(snapshot) => {
            stats.parsed += 1;
            sink.accept(index, snapshot);
        }
        Err(_) => stats.failed += 1,
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_extract::to_yaml_string;
    use wm_model::{Duration, Link, LinkEnd, Load, Node};

    fn temp_store(tag: &str) -> DatasetStore {
        let dir = std::env::temp_dir().join(format!("wm-loader-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DatasetStore::open(dir).expect("temp store")
    }

    fn snapshot(t: Timestamp, load: u8) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, t);
        s.nodes = vec![Node::from_name("rbx-g1"), Node::from_name("fra-fr5")];
        s.links = vec![Link::new(
            LinkEnd::new(
                Node::from_name("rbx-g1"),
                Some("#1".into()),
                Load::new(load).unwrap(),
            ),
            LinkEnd::new(
                Node::from_name("fra-fr5"),
                Some("#1".into()),
                Load::new(100 - load).unwrap(),
            ),
        )];
        s
    }

    fn write_corpus(store: &DatasetStore, count: usize) -> Vec<TopologySnapshot> {
        let base = Timestamp::from_ymd(2021, 5, 1);
        (0..count)
            .map(|i| {
                let t = base + Duration::from_minutes(5 * i as i64);
                let snap = snapshot(t, (i % 100) as u8);
                store
                    .write(
                        MapKind::Europe,
                        FileKind::Yaml,
                        t,
                        to_yaml_string(&snap).as_bytes(),
                    )
                    .unwrap();
                snap
            })
            .collect()
    }

    #[test]
    fn loads_match_written_corpus_at_any_thread_count() {
        let store = temp_store("threads");
        let written = write_corpus(&store, 13);
        // One garbage file: counted as failed, skipped.
        let bad_t = Timestamp::from_ymd(2021, 5, 2);
        store
            .write(MapKind::Europe, FileKind::Yaml, bad_t, b"not: [yaml")
            .unwrap();

        let (serial, serial_stats) = build_longitudinal(&store, MapKind::Europe, 1).unwrap();
        assert_eq!(serial.snapshots().collect::<Vec<_>>(), written);
        assert_eq!(serial_stats.files, 14);
        assert_eq!(serial_stats.parsed, 13);
        assert_eq!(serial_stats.failed, 1);
        for threads in [2, 8] {
            let (parallel, stats) = build_longitudinal(&store, MapKind::Europe, threads).unwrap();
            assert_eq!(parallel, serial, "{threads} threads");
            assert_eq!(stats, serial_stats, "{threads} threads");
        }
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn empty_map_loads_empty() {
        let store = temp_store("empty");
        let (snaps, stats) = build_longitudinal(&store, MapKind::World, 4).unwrap();
        assert!(snaps.is_empty());
        assert_eq!(stats, CorpusLoadStats::default());
        std::fs::remove_dir_all(store.root()).unwrap();
    }
}
