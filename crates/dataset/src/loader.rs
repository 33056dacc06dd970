//! The shared corpus loader: YAML files on disk to snapshots or a
//! [`LongitudinalStore`], read and parsed in parallel.
//!
//! Before this module every consumer of a corpus — the CLI's analyses,
//! each example — walked the tree and parsed YAML with its own loop.
//! This is the one canonical path. Workers claim files through
//! [`claim_each`], the pool the extraction batch runner also uses, and
//! parse each file straight into a per-worker [`ColumnarBuilder`]
//! ([`ColumnarBuilder::add_yaml`]: no value tree, no snapshot); the
//! merge is keyed on file order, so results are byte-identical for any
//! thread count. Files that fail to parse are counted and skipped, like
//! the paper's scripts leaving a handful of unprocessed files per map;
//! I/O errors abort the load.

use std::io;

use wm_extract::{claim_each, CacheStats};
use wm_model::{MapKind, TimeRange};

use crate::codec::{self, CorpusFingerprint, FingerprintEntry};
use crate::longitudinal::{ColumnarBuilder, LongitudinalStore};
use crate::paths::{relative_path_string, FileKind};
use crate::store::{DatasetEntry, DatasetStore};

/// Counters of one corpus load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusLoadStats {
    /// YAML files read.
    pub files: usize,
    /// Files successfully parsed into snapshots.
    pub parsed: usize,
    /// Files rejected (counted, skipped): bytes that are not UTF-8, or
    /// text the YAML schema reader refuses. A file with one bad byte is
    /// refused whole, never read with a replacement character.
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
    build_fresh(store, map, TimeRange::ALL, threads)
}

/// The fresh build: the YAML files of `map` inside `range`, parsed into
/// one store with no segment read or written. It is
/// [`build_longitudinal`] and the `CacheMode::Off` load.
pub(crate) fn build_fresh(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    let mut entries = store.entries_of(map, FileKind::Yaml)?;
    entries.retain(|e| range.contains(e.timestamp));
    let (fresh, stats, _) = load_store(store, map, &entries, threads, false)?;
    Ok((fresh, stats))
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
                path: relative_path_string(map, FileKind::Yaml, entry.timestamp),
                size: entry.size,
                hash,
            })
            .collect(),
    }
}

/// The loader core: reads and parses the given YAML entries of `map`
/// into one [`ColumnarBuilder`] per worker, finished in worker order
/// (never finish order) into one store. With `hash` set, also returns
/// the [`codec::content_hash`] of every entry, in entry order — the
/// combined parse-and-fingerprint pass that seals a segment, which
/// avoids reading each file twice.
pub(crate) fn load_store(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
    hash: bool,
) -> io::Result<(LongitudinalStore, CorpusLoadStats, Vec<u64>)> {
    type Worker = (ColumnarBuilder, CorpusLoadStats, Vec<(usize, u64)>);
    let workers = claim_each(entries.len(), threads, Worker::default, |worker, index| {
        let (sink, stats, hashes) = worker;
        let Some(entry) = entries.get(index) else {
            return Ok(());
        };
        let bytes = store.read(map, FileKind::Yaml, entry.timestamp)?;
        stats.files += 1;
        stats.bytes += bytes.len() as u64;
        if hash {
            hashes.push((index, codec::content_hash(&bytes)));
        }
        let parsed =
            std::str::from_utf8(&bytes).is_ok_and(|text| sink.add_yaml(index, text).is_ok());
        if parsed {
            stats.parsed += 1;
        } else {
            stats.failed += 1;
        }
        Ok::<(), io::Error>(())
    })?;

    let mut sinks = Vec::with_capacity(workers.len());
    let mut stats = CorpusLoadStats::default();
    let mut hashes = if hash {
        vec![0u64; entries.len()]
    } else {
        Vec::new()
    };
    for (sink, worker_stats, worker_hashes) in workers {
        sinks.push(sink);
        stats.merge(worker_stats);
        for (index, h) in worker_hashes {
            if let Some(slot) = hashes.get_mut(index) {
                *slot = h;
            }
        }
    }
    Ok((ColumnarBuilder::finish(sinks), stats, hashes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_extract::to_yaml_string;
    use wm_model::{Duration, Link, LinkEnd, Load, Node, Timestamp, TopologySnapshot};

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
    fn non_utf8_files_fail() {
        let store = temp_store("utf8");
        let t = Timestamp::from_ymd(2021, 5, 1);
        let mut snap = snapshot(t, 7);
        snap.nodes[1] = Node::from_name("PEER");
        snap.links[0].b.node = Node::from_name("PEER");
        let mut bytes = to_yaml_string(&snap).into_bytes();
        let at = bytes.windows(4).position(|w| w == b"PEER").unwrap();
        bytes[at + 2] = 0xFF;
        store
            .write(MapKind::Europe, FileKind::Yaml, t, &bytes)
            .unwrap();
        let (loaded, stats) = build_longitudinal(&store, MapKind::Europe, 1).unwrap();
        assert_eq!((stats.files, stats.parsed, stats.failed), (1, 0, 1));
        assert!(loaded.is_empty());
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
