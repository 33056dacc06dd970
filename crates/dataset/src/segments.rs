//! The time-sharded segment store: manifest, windowed loads, compaction.
//!
//! It is the one persistent form of a map's history: a whole-history
//! load is the window [`TimeRange::ALL`]. A single monolithic image
//! would be re-persisted whole per append and decoded whole per query —
//! fine for hours, hopeless for the paper's two years. This module
//! shards the [`crate::codec`] image into [`crate::segment`] files
//! along the timestamp-sorted corpus: every chunk of
//! `SegmentPolicy::capacity` snapshot files becomes one *sealed*
//! segment, and the remainder (fewer than `capacity` files) is the
//! *active tail*. The partition is a pure function of the entry list,
//! so growing the corpus only ever rewrites the tail — and when the
//! tail fills up it simply becomes sealed under the same name, which
//! is the whole compaction story: merging is implicit in the canonical
//! partition, runs synchronously inside the load that notices it, and
//! converges on exactly the bytes a fresh build of the same corpus
//! would write (asserted by `tests/segment_equivalence.rs`).
//!
//! A manifest file maps `[t_min, t_max] → segment` so a windowed load
//! decodes only the segments its range intersects. Validation against
//! the corpus uses the [`crate::segment::identity_digest`] over
//! `(path, size)` pairs — no content reads — keeping append cost
//! independent of history length. The price is that a same-size
//! in-place edit of a YAML file goes unnoticed until `--cache=rebuild`
//! (DESIGN.md decision 14).
//!
//! Damage recovery is per segment: a missing, truncated, bit-flipped,
//! wrong-magic or wrong-version segment file is rebuilt from exactly
//! its own YAML slice at decode time; a damaged manifest is recovered
//! from the segment headers without re-encoding anything.

use std::collections::BTreeMap;
use std::io;

use wm_extract::CacheStats;
use wm_model::{MapKind, TimeRange, Timestamp, TopologySnapshot};

use crate::codec::{self, CacheError, CorpusFingerprint, FingerprintEntry};
use crate::loader::{self, CacheMode, CorpusLoadStats};
use crate::longitudinal::{ColumnarBuilder, LongitudinalStore};
use crate::paths::FileKind;
use crate::segment::{self, SegmentHeader};
use crate::store::{DatasetEntry, DatasetStore};

/// First bytes of every segment manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"OVHWMMF\n";

/// Bumped on any incompatible change to the manifest layout.
pub const MANIFEST_FORMAT_VERSION: u32 = 1;

/// Sizing policy of the segment store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPolicy {
    /// Snapshot files per sealed segment. The default, 288, is one day
    /// at the weathermaps' 5-minute cadence; values below 1 behave as 1.
    pub capacity: usize,
}

impl Default for SegmentPolicy {
    fn default() -> SegmentPolicy {
        SegmentPolicy { capacity: 288 }
    }
}

impl SegmentPolicy {
    fn chunk(self) -> usize {
        self.capacity.max(1)
    }
}

/// One manifest row: a segment file and the slice of history it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name under the map's `.segments/` directory.
    pub name: String,
    /// Timestamp of the oldest covered snapshot file (closed span).
    pub t_min: Timestamp,
    /// Timestamp of the newest covered snapshot file (closed span).
    pub t_max: Timestamp,
    /// Number of corpus files covered.
    pub entries: u64,
    /// Number of those files that parsed into snapshots.
    pub snapshots: u64,
    /// [`segment::identity_digest`] over the covered `(path, size)`s.
    pub meta_digest: u64,
}

/// The manifest: every segment of one map, oldest first, spans disjoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentManifest {
    /// Per-segment rows sorted by `t_min`; closed spans never overlap.
    pub segments: Vec<SegmentMeta>,
}

/// Canonical file name of the segment starting at `t_min`.
#[must_use]
pub fn segment_name(t_min: Timestamp) -> String {
    format!("seg-{:016x}.seg", t_min.unix() as u64)
}

/// Encodes a manifest (magic, version, CRC-protected body).
#[must_use]
pub fn encode_manifest(manifest: &SegmentManifest) -> Vec<u8> {
    let mut body = codec::Writer { buf: Vec::new() };
    body.u64(manifest.segments.len() as u64);
    for seg in &manifest.segments {
        body.str16(&seg.name);
        body.i64(seg.t_min.unix());
        body.i64(seg.t_max.unix());
        body.u64(seg.entries);
        body.u64(seg.snapshots);
        body.u64(seg.meta_digest);
    }
    let mut w = codec::Writer { buf: Vec::new() };
    w.bytes(&MANIFEST_MAGIC);
    w.u32(MANIFEST_FORMAT_VERSION);
    w.u32(codec::crc32(&body.buf));
    w.bytes(&body.buf);
    w.buf
}

/// Decodes and validates a manifest: spans ordered, disjoint, sane.
pub fn decode_manifest(bytes: &[u8]) -> Result<SegmentManifest, CacheError> {
    let mut r = codec::Reader::new(bytes);
    if r.take(8, "manifest magic")? != &MANIFEST_MAGIC[..] {
        return Err(CacheError::BadMagic);
    }
    let version = r.u32("manifest version")?;
    if version != MANIFEST_FORMAT_VERSION {
        return Err(CacheError::UnsupportedVersion(version));
    }
    let crc = r.u32("manifest crc")?;
    let body = r.take(bytes.len().saturating_sub(16), "manifest body")?;
    if codec::crc32(body) != crc {
        return Err(CacheError::ChecksumMismatch {
            section: "manifest".to_owned(),
        });
    }
    let mut b = codec::Reader::new(body);
    let count = b.checked_len("manifest segment count")?;
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        let name = b.str16("manifest segment name")?.to_owned();
        let t_min = Timestamp::from_unix(b.i64("manifest t_min")?);
        let t_max = Timestamp::from_unix(b.i64("manifest t_max")?);
        let entries = b.u64("manifest entry count")?;
        let snapshots = b.u64("manifest snapshot count")?;
        let meta_digest = b.u64("manifest digest")?;
        if name.is_empty() || entries == 0 {
            return Err(CacheError::Invalid("manifest row is degenerate"));
        }
        if t_max < t_min {
            return Err(CacheError::Invalid("manifest time span is inverted"));
        }
        if let Some(prev) = segments.last() {
            let prev: &SegmentMeta = prev;
            if t_min <= prev.t_max {
                return Err(CacheError::Invalid("manifest time ranges overlap"));
            }
        }
        segments.push(SegmentMeta {
            name,
            t_min,
            t_max,
            entries,
            snapshots,
            meta_digest,
        });
    }
    b.finished("manifest")?;
    Ok(SegmentManifest { segments })
}

/// Writes a manifest through the store's atomic path.
pub fn write_manifest(
    store: &DatasetStore,
    map: MapKind,
    manifest: &SegmentManifest,
) -> io::Result<()> {
    store.write_manifest_bytes(map, &encode_manifest(manifest))
}

/// Loads one map's history restricted to `range`, touching only the
/// segments the range intersects, with the default [`SegmentPolicy`].
///
/// The result is exactly what a fresh YAML build restricted to the
/// window produces — same store, same load counters — at any thread
/// count. `CacheMode::Off` bypasses the segment store entirely,
/// `Rebuild` re-derives every segment from YAML first.
pub fn build_longitudinal_windowed(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    build_longitudinal_windowed_with(store, map, range, threads, mode, SegmentPolicy::default())
}

/// [`build_longitudinal_windowed`] with an explicit sizing policy.
pub fn build_longitudinal_windowed_with(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    // An empty window holds nothing by definition: no disk is touched.
    if range.is_empty() {
        return Ok((empty_store(), CorpusLoadStats::default()));
    }

    if mode == CacheMode::Off {
        let filtered: Vec<DatasetEntry> = store
            .entries_of(map, FileKind::Yaml)?
            .into_iter()
            .filter(|e| range.contains(e.timestamp))
            .collect();
        let (builders, stats, _) =
            loader::load_fold_entries::<ColumnarBuilder>(store, map, &filtered, threads, false)?;
        return Ok((ColumnarBuilder::finish(builders), stats));
    }

    let mut cache = CacheStats::default();

    // Gap fast path: when an intact manifest proves the window falls
    // inside indexed history yet intersects no segment, the answer is
    // empty and only the manifest was read.
    if mode == CacheMode::Auto {
        if let Some(bytes) = store.read_manifest_bytes(map)? {
            if let Ok(manifest) = decode_manifest(&bytes) {
                if let Some(last) = manifest.segments.last() {
                    let touched = manifest
                        .segments
                        .iter()
                        .any(|m| range.intersects_closed(m.t_min, m.t_max));
                    if !touched && range.end <= last.t_max {
                        cache.hits += 1;
                        let stats = CorpusLoadStats {
                            cache,
                            ..CorpusLoadStats::default()
                        };
                        return Ok((empty_store(), stats));
                    }
                }
            }
        }
    }

    let entries = store.entries_of(map, FileKind::Yaml)?;
    let (manifest, spans) = ensure_segments(
        store,
        map,
        &entries,
        threads,
        policy,
        mode == CacheMode::Rebuild,
        &mut cache,
    )?;

    let mut builder = ColumnarBuilder::default();
    let mut index = 0usize;
    for (meta, span) in manifest.segments.iter().zip(&spans) {
        if !range.intersects_closed(meta.t_min, meta.t_max) {
            continue;
        }
        cache.segments_touched += 1;
        let chunk = entries.get(span.0..span.1).unwrap_or(&[]);
        let (snapshots, from_cache) =
            load_segment_snapshots(store, map, meta, chunk, threads, &mut cache)?;
        for snapshot in &snapshots {
            if range.contains(snapshot.timestamp) {
                builder.add_snapshot(index, snapshot);
                index += 1;
                if from_cache {
                    cache.snapshots_from_cache += 1;
                }
            }
        }
    }
    let merged = ColumnarBuilder::finish(vec![builder]);

    // Load counters derive from the windowed slice of the entry list,
    // exactly what the cache-less restricted build reports.
    let in_range = entries.iter().filter(|e| range.contains(e.timestamp));
    let mut stats = CorpusLoadStats::default();
    for entry in in_range {
        stats.files += 1;
        stats.bytes += entry.size;
    }
    stats.parsed = merged.len();
    stats.failed = stats.files - stats.parsed;
    stats.cache = cache;
    Ok((merged, stats))
}

/// Brings one map's segment store in line with the corpus and validates
/// every segment file, repairing damaged ones — the `index` entry
/// point. Returns the manifest and full-corpus load counters.
pub fn reindex_segments(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
    mode: CacheMode,
) -> io::Result<(SegmentManifest, CorpusLoadStats)> {
    reindex_segments_with(store, map, threads, mode, SegmentPolicy::default())
}

/// [`reindex_segments`] with an explicit sizing policy.
pub fn reindex_segments_with(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
) -> io::Result<(SegmentManifest, CorpusLoadStats)> {
    let entries = store.entries_of(map, FileKind::Yaml)?;
    let mut cache = CacheStats::default();
    let (manifest, spans) = ensure_segments(
        store,
        map,
        &entries,
        threads,
        policy,
        mode == CacheMode::Rebuild,
        &mut cache,
    )?;
    let mut parsed = 0usize;
    for (meta, span) in manifest.segments.iter().zip(&spans) {
        cache.segments_touched += 1;
        let chunk = entries.get(span.0..span.1).unwrap_or(&[]);
        let (snapshots, from_cache) =
            load_segment_snapshots(store, map, meta, chunk, threads, &mut cache)?;
        parsed += snapshots.len();
        if from_cache {
            cache.snapshots_from_cache += snapshots.len() as u64;
        }
    }
    let mut stats = CorpusLoadStats::default();
    for entry in &entries {
        stats.files += 1;
        stats.bytes += entry.size;
    }
    stats.parsed = parsed;
    stats.failed = stats.files - stats.parsed;
    stats.cache = cache;
    Ok((manifest, stats))
}

/// An empty store through the same builder path every load uses.
fn empty_store() -> LongitudinalStore {
    ColumnarBuilder::finish(vec![ColumnarBuilder::default()])
}

/// The manifest row the current corpus dictates for one entry chunk.
///
/// `snapshots` is unknown without parsing and stays 0; matching against
/// an existing manifest ignores it.
fn meta_of_chunk(map: MapKind, chunk: &[DatasetEntry]) -> Option<SegmentMeta> {
    let first = chunk.first()?;
    let last = chunk.last()?;
    Some(SegmentMeta {
        name: segment_name(first.timestamp),
        t_min: first.timestamp,
        t_max: last.timestamp,
        entries: chunk.len() as u64,
        snapshots: 0,
        meta_digest: chunk_identity(map, chunk),
    })
}

/// [`segment::identity_digest`] of one entry chunk.
fn chunk_identity(map: MapKind, chunk: &[DatasetEntry]) -> u64 {
    let paths: Vec<(String, u64)> = chunk
        .iter()
        .map(|e| (loader::relative_path_string(map, e.timestamp), e.size))
        .collect();
    segment::identity_digest(paths.iter().map(|(p, s)| (p.as_str(), *s)))
}

/// Whether a manifest row still matches the chunk the corpus dictates.
fn meta_matches(old: &SegmentMeta, expected: &SegmentMeta) -> bool {
    old.name == expected.name
        && old.t_min == expected.t_min
        && old.t_max == expected.t_max
        && old.entries == expected.entries
        && old.meta_digest == expected.meta_digest
}

/// Reconstructs a manifest from segment file headers — the recovery
/// path for a damaged manifest, which must not force any segment
/// rebuild when the segment files themselves are intact.
fn recover_manifest(store: &DatasetStore, map: MapKind) -> io::Result<SegmentManifest> {
    let mut metas: Vec<SegmentMeta> = Vec::new();
    for name in store.list_segment_files(map)? {
        let Some(bytes) = store.read_segment_file(map, &name)? else {
            continue;
        };
        let Ok(header) = segment::decode_segment_header(&bytes) else {
            continue;
        };
        if segment_name(header.t_min) != name {
            continue;
        }
        metas.push(SegmentMeta {
            name,
            t_min: header.t_min,
            t_max: header.t_max,
            entries: header.entries,
            snapshots: header.snapshots,
            meta_digest: header.meta_digest,
        });
    }
    metas.sort_by_key(|m| m.t_min);
    // Drop rows whose spans overlap a predecessor (stale leftovers).
    let mut segments: Vec<SegmentMeta> = Vec::new();
    for meta in metas {
        if segments.last().is_none_or(|prev| prev.t_max < meta.t_min) {
            segments.push(meta);
        }
    }
    Ok(SegmentManifest { segments })
}

/// What one rebuilt entry resolves to: a content hash plus the parsed
/// snapshot when the file parses (reused from an old segment or parsed
/// fresh from YAML).
type Resolved = (u64, Option<TopologySnapshot>);

/// Brings the partition in line with the corpus: keeps every sealed
/// segment the entry list still dictates, rebuilds the changed suffix
/// (reusing decoded old segments where `(path, size)` still matches so
/// a pure append never re-parses history), rewrites the manifest and
/// garbage-collects stray files. Returns the manifest and the entry
/// span of each segment.
#[allow(clippy::too_many_arguments)]
fn ensure_segments(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
    policy: SegmentPolicy,
    rebuild_all: bool,
    cache: &mut CacheStats,
) -> io::Result<(SegmentManifest, Vec<(usize, usize)>)> {
    let capacity = policy.chunk();

    // The old manifest, if usable; `intact` means the file itself was
    // present and decoded (a recovered manifest must be rewritten even
    // when nothing else changed).
    let mut intact = false;
    let old = if rebuild_all {
        SegmentManifest::default()
    } else {
        match store.read_manifest_bytes(map)? {
            None => SegmentManifest::default(),
            Some(bytes) => match decode_manifest(&bytes) {
                Ok(manifest) => {
                    intact = true;
                    manifest
                }
                Err(err) => {
                    eprintln!(
                        "warning: discarding segment manifest for {}: {err}; recovering from segment headers",
                        map.slug()
                    );
                    if matches!(err, CacheError::UnsupportedVersion(_)) {
                        cache.stale += 1;
                    } else {
                        cache.corrupt += 1;
                    }
                    recover_manifest(store, map)?
                }
            },
        }
    };

    // Longest prefix of chunks the old manifest still matches.
    let mut kept = 0usize;
    for (chunk, old_meta) in entries.chunks(capacity).zip(&old.segments) {
        match meta_of_chunk(map, chunk) {
            Some(expected) if meta_matches(old_meta, &expected) => kept += 1,
            _ => break,
        }
    }
    let chunk_count = entries.len().div_ceil(capacity);

    let structurally_clean = kept == chunk_count && old.segments.len() == chunk_count;
    let mut manifest = SegmentManifest {
        segments: old.segments.iter().take(kept).cloned().collect(),
    };

    let mut reused_any = false;
    if !structurally_clean {
        // Decode-reuse pool: old segments past the kept prefix whose
        // span still overlaps the rebuild region. For a pure append
        // that is exactly the old undersized tail.
        let rebuild_from = kept * capacity;
        let first_rebuilt = entries.get(rebuild_from).map(|e| e.timestamp);
        let mut pool: BTreeMap<String, (u64, Resolved)> = BTreeMap::new();
        if !rebuild_all {
            for meta in old.segments.iter().skip(kept) {
                if first_rebuilt.is_none_or(|t| meta.t_max < t) {
                    continue;
                }
                let Some(bytes) = store.read_segment_file(map, &meta.name)? else {
                    continue;
                };
                let Ok((_, seg_store, fingerprint, _)) = segment::decode_segment(&bytes) else {
                    continue;
                };
                let mut by_path: BTreeMap<String, TopologySnapshot> = seg_store
                    .snapshots()
                    .map(|s| (loader::relative_path_string(map, s.timestamp), s))
                    .collect();
                for entry in &fingerprint.entries {
                    let snapshot = by_path.remove(&entry.path);
                    pool.insert(entry.path.clone(), (entry.size, (entry.hash, snapshot)));
                }
            }
        }

        // Parse from YAML only what the pool cannot supply.
        let rebuild = entries.get(rebuild_from..).unwrap_or(&[]);
        let fresh: Vec<DatasetEntry> = rebuild
            .iter()
            .filter(|e| {
                let path = loader::relative_path_string(map, e.timestamp);
                pool.get(&path).is_none_or(|(size, _)| *size != e.size)
            })
            .cloned()
            .collect();
        let (snapshots, fresh_stats, hashes) = loader::load_sorted(store, map, &fresh, threads)?;
        cache.snapshots_appended += fresh_stats.parsed as u64;
        let mut fresh_snaps: BTreeMap<i64, TopologySnapshot> = snapshots
            .into_iter()
            .map(|s| (s.timestamp.unix(), s))
            .collect();
        let fresh_hashes: BTreeMap<i64, u64> = fresh
            .iter()
            .zip(&hashes)
            .map(|(e, &h)| (e.timestamp.unix(), h))
            .collect();

        let old_coverage = old.segments.last().map(|m| m.t_max);
        for chunk in entries.chunks(capacity).skip(kept) {
            let Some(mut meta) = meta_of_chunk(map, chunk) else {
                continue;
            };
            let mut chunk_snapshots: Vec<TopologySnapshot> = Vec::new();
            let mut fp = CorpusFingerprint::default();
            for entry in chunk {
                let path = loader::relative_path_string(map, entry.timestamp);
                let (hash, snapshot) = match pool.get(&path) {
                    Some((size, (hash, snapshot))) if *size == entry.size => {
                        reused_any = true;
                        (*hash, snapshot.clone())
                    }
                    _ => (
                        fresh_hashes
                            .get(&entry.timestamp.unix())
                            .copied()
                            .unwrap_or(0),
                        fresh_snaps.remove(&entry.timestamp.unix()),
                    ),
                };
                fp.entries.push(FingerprintEntry {
                    path,
                    size: entry.size,
                    hash,
                });
                if let Some(snapshot) = snapshot {
                    chunk_snapshots.push(snapshot);
                }
            }
            meta.snapshots = chunk_snapshots.len() as u64;
            let bytes = encode_chunk(&meta, chunk, &chunk_snapshots, &fp);
            store.write_segment_file(map, &meta.name, &bytes)?;
            if old_coverage.is_some_and(|end| meta.t_min <= end) {
                cache.segments_rebuilt += 1;
            }
            manifest.segments.push(meta);
        }
    }

    if structurally_clean && !rebuild_all {
        cache.hits += 1;
    } else if !rebuild_all && (kept > 0 || reused_any) {
        cache.appends += 1;
    } else {
        cache.misses += 1;
    }

    if !(structurally_clean && intact) {
        write_manifest(store, map, &manifest)?;
        // Stray files (an old tail under a superseded name, leftovers
        // of a shrunk corpus) would confuse manifest recovery: drop
        // everything the manifest no longer references.
        for name in store.list_segment_files(map)? {
            if !manifest.segments.iter().any(|m| m.name == name) {
                store.remove_segment_file(map, &name)?;
            }
        }
    }

    let mut spans = Vec::with_capacity(manifest.segments.len());
    let mut start = 0usize;
    for meta in &manifest.segments {
        let end = start + meta.entries as usize;
        spans.push((start, end));
        start = end;
    }
    Ok((manifest, spans))
}

/// Materialises one segment's snapshots: decodes the file when it is
/// intact and still the segment the manifest promised, otherwise
/// rebuilds exactly this chunk from YAML (counting the damage) and
/// repairs the file in place. Returns the snapshots and whether they
/// came from the segment file.
fn load_segment_snapshots(
    store: &DatasetStore,
    map: MapKind,
    meta: &SegmentMeta,
    chunk: &[DatasetEntry],
    threads: usize,
    cache: &mut CacheStats,
) -> io::Result<(Vec<TopologySnapshot>, bool)> {
    let decoded = match store.read_segment_file(map, &meta.name)? {
        None => {
            eprintln!(
                "warning: segment {} of {} is missing; rebuilding it from YAML",
                meta.name,
                map.slug()
            );
            cache.corrupt += 1;
            None
        }
        Some(bytes) => match segment::decode_segment(&bytes) {
            Ok((header, seg_store, _, _)) if header_matches(&header, meta) => Some(seg_store),
            Ok(_) => {
                eprintln!(
                    "warning: segment {} of {} does not match its manifest row; rebuilding it from YAML",
                    meta.name,
                    map.slug()
                );
                cache.corrupt += 1;
                None
            }
            Err(err) => {
                eprintln!(
                    "warning: discarding segment {} of {}: {err}; rebuilding it from YAML",
                    meta.name,
                    map.slug()
                );
                if matches!(err, CacheError::UnsupportedVersion(_)) {
                    cache.stale += 1;
                } else {
                    cache.corrupt += 1;
                }
                None
            }
        },
    };
    if let Some(seg_store) = decoded {
        return Ok((seg_store.snapshots().collect(), true));
    }

    // Repair: parse exactly this chunk, re-encode, write back. The
    // encoding is deterministic, so the repaired file is byte-identical
    // to the one originally written and the manifest needs no update.
    let (snapshots, chunk_stats, hashes) = loader::load_sorted(store, map, chunk, threads)?;
    cache.segments_rebuilt += 1;
    cache.snapshots_appended += chunk_stats.parsed as u64;
    let meta = SegmentMeta {
        snapshots: snapshots.len() as u64,
        ..meta.clone()
    };
    let fp = loader::fingerprint_from(map, chunk, &hashes);
    let bytes = encode_chunk(&meta, chunk, &snapshots, &fp);
    store.write_segment_file(map, &meta.name, &bytes)?;
    Ok((snapshots, false))
}

/// Whether a decoded header is the segment the manifest row promises.
fn header_matches(header: &SegmentHeader, meta: &SegmentMeta) -> bool {
    header.t_min == meta.t_min
        && header.t_max == meta.t_max
        && header.entries == meta.entries
        && header.meta_digest == meta.meta_digest
}

/// Encodes one chunk as a segment file. Load counters are derived from
/// the entry list (not from what this call happened to read), so both
/// the build and the repair path emit byte-identical files.
fn encode_chunk(
    meta: &SegmentMeta,
    chunk: &[DatasetEntry],
    snapshots: &[TopologySnapshot],
    fingerprint: &CorpusFingerprint,
) -> Vec<u8> {
    let mut builder = ColumnarBuilder::default();
    for (i, snapshot) in snapshots.iter().enumerate() {
        builder.add_snapshot(i, snapshot);
    }
    let seg_store = ColumnarBuilder::finish(vec![builder]);
    let mut stats = CorpusLoadStats {
        parsed: snapshots.len(),
        failed: chunk.len() - snapshots.len(),
        ..CorpusLoadStats::default()
    };
    for entry in chunk {
        stats.files += 1;
        stats.bytes += entry.size;
    }
    let header = SegmentHeader {
        t_min: meta.t_min,
        t_max: meta.t_max,
        entries: meta.entries,
        snapshots: meta.snapshots,
        meta_digest: meta.meta_digest,
    };
    segment::encode_segment(&header, &seg_store, fingerprint, &stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::Duration;

    #[test]
    fn manifest_round_trip_and_validation() {
        let t0 = Timestamp::from_ymd(2022, 2, 1);
        let meta = |offset: i64, len: i64| SegmentMeta {
            name: segment_name(t0 + Duration::from_minutes(offset)),
            t_min: t0 + Duration::from_minutes(offset),
            t_max: t0 + Duration::from_minutes(offset + len),
            entries: 4,
            snapshots: 3,
            meta_digest: 0xFEED + offset as u64,
        };
        let manifest = SegmentManifest {
            segments: vec![meta(0, 15), meta(20, 15), meta(40, 5)],
        };
        let bytes = encode_manifest(&manifest);
        assert_eq!(decode_manifest(&bytes).unwrap(), manifest);
        // Deterministic re-encode.
        assert_eq!(encode_manifest(&decode_manifest(&bytes).unwrap()), bytes);

        let empty = SegmentManifest::default();
        assert_eq!(decode_manifest(&encode_manifest(&empty)).unwrap(), empty);

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_manifest(&bad_magic),
            Err(CacheError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[8] = 9;
        assert!(matches!(
            decode_manifest(&bad_version),
            Err(CacheError::UnsupportedVersion(9))
        ));

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(decode_manifest(&flipped).is_err());
        for cut in [0, 7, 12, 16, bytes.len() - 1] {
            assert!(decode_manifest(&bytes[..cut]).is_err(), "cut {cut}");
        }

        // Overlapping spans are rejected even under a valid CRC.
        let overlapping = SegmentManifest {
            segments: vec![meta(0, 30), meta(20, 15)],
        };
        assert!(matches!(
            decode_manifest(&encode_manifest(&overlapping)),
            Err(CacheError::Invalid(_))
        ));
    }

    #[test]
    fn segment_names_sort_with_time() {
        let t0 = Timestamp::from_ymd(2022, 2, 1);
        let names: Vec<String> = (0..30)
            .map(|d| segment_name(t0 + Duration::from_days(d)))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.first().unwrap().starts_with("seg-"));
        assert!(names.first().unwrap().ends_with(".seg"));
    }
}
