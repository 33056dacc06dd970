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
//! `(path, size)` pairs: no YAML content is read, so an append parses
//! only its new files. It is not independent of history length: every
//! load lists every file of the map (a directory entry and a stat
//! each) and renders every listed path once for the digest of the
//! chunk it falls in, so that fixed cost grows with the corpus
//! (ROADMAP item 2). The price of skipping content is that a same-size
//! in-place edit of a YAML file goes unnoticed until `--cache=rebuild`
//! (DESIGN.md decision 14).
//!
//! Damage recovery is per segment: a missing, truncated, bit-flipped,
//! wrong-magic or wrong-version segment file is rebuilt from exactly
//! its own YAML slice at decode time; a damaged manifest is recovered
//! from the segment headers without re-encoding anything.
//!
//! Every cached load is one serve: one manifest read (which alone
//! answers a gap window inside indexed history), one listing, then one
//! visit per segment the window intersects with its in-window index
//! range. A windowed load concatenates the visits; `index`
//! ([`reindex_segments`]) serves [`TimeRange::ALL`] and keeps nothing.

use std::collections::BTreeMap;
use std::io;
use std::ops::Range;

use wm_extract::CacheStats;
use wm_model::{Duration, MapKind, TimeRange, Timestamp};

use crate::codec::{self, CacheError, CorpusFingerprint, FingerprintEntry};
use crate::loader::{self, CacheMode, CorpusLoadStats};
use crate::longitudinal::LongitudinalStore;
use crate::paths::{self, FileKind};
use crate::segment::{self, SegmentHeader};
use crate::store::{DatasetEntry, DatasetStore};

/// First bytes of every segment manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"OVHWMMF\n";

/// Bumped on any incompatible change to the manifest layout, or to the
/// [`segment::identity_digest`] its rows record (version 2: the digest
/// hashes paths with [`codec::content_hash`]). A manifest of another
/// version is stale and recovered from the segment headers.
pub const MANIFEST_FORMAT_VERSION: u32 = 2;

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
    codec::frame(&MANIFEST_MAGIC, MANIFEST_FORMAT_VERSION, &body.buf)
}

/// Decodes and validates a manifest: spans ordered, disjoint, sane, and
/// every row naming its segment file by the canonical
/// [`segment_name`] of its `t_min` (which every writer uses and header
/// recovery insists on), so a manifest can only ever point inside its
/// own `.segments/` directory.
pub fn decode_manifest(bytes: &[u8]) -> Result<SegmentManifest, CacheError> {
    let body = codec::unframe(bytes, &MANIFEST_MAGIC, MANIFEST_FORMAT_VERSION, "manifest")?;
    let mut b = codec::Reader::new(body);
    let count = b.checked_len("manifest segment count")?;
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        let found = b.str16("manifest segment name")?;
        let t_min = Timestamp::from_unix(b.i64("manifest t_min")?);
        let name = segment_name(t_min);
        if found != name {
            return Err(CacheError::Invalid("manifest row names a foreign file"));
        }
        let t_max = Timestamp::from_unix(b.i64("manifest t_max")?);
        let entries = b.u64("manifest entry count")?;
        let snapshots = b.u64("manifest snapshot count")?;
        let meta_digest = b.u64("manifest digest")?;
        if entries == 0 {
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
        return Ok((LongitudinalStore::concat(&[]), CorpusLoadStats::default()));
    }
    if mode == CacheMode::Off {
        return loader::build_fresh(store, map, range, threads);
    }
    let mut touched: Vec<(LongitudinalStore, Range<usize>)> = Vec::new();
    let (_, stats) = serve(
        store,
        map,
        range,
        threads,
        mode,
        policy,
        |seg_store, window| {
            touched.push((seg_store, window));
        },
    )?;
    let parts: Vec<(&LongitudinalStore, Range<usize>)> = touched
        .iter()
        .map(|(seg_store, window)| (seg_store, window.clone()))
        .collect();
    Ok((LongitudinalStore::concat(&parts), stats))
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

/// [`reindex_segments`] with an explicit sizing policy: a serve of the
/// whole history that keeps nothing it is handed.
pub fn reindex_segments_with(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
) -> io::Result<(SegmentManifest, CorpusLoadStats)> {
    serve(store, map, TimeRange::ALL, threads, mode, policy, |_, _| {})
}

/// The one serve path of the segment store. Reads the manifest once
/// (not at all under `Rebuild`): a window inside indexed history that
/// intersects no segment is answered from it alone. Otherwise lists the
/// map once, brings the segments in line with the corpus
/// ([`ensure_segments`]) and hands `visit` each segment the range
/// intersects — the store just written, or the decoded or repaired
/// file — with the index range of its in-window snapshots. Returns the
/// manifest and the window's load counters, exactly those of a fresh
/// build of the window.
fn serve(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
    mut visit: impl FnMut(LongitudinalStore, Range<usize>),
) -> io::Result<(SegmentManifest, CorpusLoadStats)> {
    let rebuild_all = mode == CacheMode::Rebuild;
    let old = if rebuild_all {
        None
    } else {
        store
            .read_manifest_bytes(map)?
            .map(|bytes| decode_manifest(&bytes))
    };
    if let Some(Ok(manifest)) = &old {
        let segments = &manifest.segments;
        let indexed = segments.last().is_some_and(|last| range.end <= last.t_max);
        let touched = segments
            .iter()
            .any(|m| range.intersects_closed(m.t_min, m.t_max));
        if indexed && !touched {
            let cache = CacheStats {
                hits: 1,
                ..CacheStats::default()
            };
            let stats = CorpusLoadStats {
                cache,
                ..CorpusLoadStats::default()
            };
            return Ok((manifest.clone(), stats));
        }
    }

    let mut cache = CacheStats::default();
    let entries = store.entries_of(map, FileKind::Yaml)?;
    let (manifest, built) = ensure_segments(
        store,
        map,
        &entries,
        threads,
        policy,
        old,
        rebuild_all,
        &mut cache,
    )?;
    let mut stats = CorpusLoadStats::default();
    let mut chunks = entries.as_slice();
    for (meta, built) in manifest.segments.iter().zip(built) {
        let (chunk, rest) = chunks.split_at(chunks.len().min(meta.entries as usize));
        chunks = rest;
        if !range.intersects_closed(meta.t_min, meta.t_max) {
            continue;
        }
        cache.segments_touched += 1;
        let (seg_store, reused) = match built {
            Some(built) => built,
            None => load_segment(store, map, meta, chunk, threads, &mut cache)?,
        };
        let times = seg_store.timestamps();
        let window =
            times.partition_point(|&t| t < range.start)..times.partition_point(|&t| t < range.end);
        for run in reused {
            let served = run.start.max(window.start)..run.end.min(window.end);
            cache.snapshots_from_cache += served.len() as u64;
        }
        stats.parsed += window.len();
        visit(seg_store, window);
    }

    // Load counters derive from the windowed slice of the entry list,
    // exactly what the cache-less restricted build reports.
    for entry in entries.iter().filter(|e| range.contains(e.timestamp)) {
        stats.files += 1;
        stats.bytes += entry.size;
    }
    stats.failed = stats.files - stats.parsed;
    stats.cache = cache;
    Ok((manifest, stats))
}

/// Whether a manifest row still matches the chunk the corpus dictates:
/// its span and entry count first, then its identity digest, which
/// renders every path of the chunk (into the reused `buf`).
fn meta_matches(map: MapKind, old: &SegmentMeta, chunk: &[DatasetEntry], buf: &mut String) -> bool {
    let (Some(first), Some(last)) = (chunk.first(), chunk.last()) else {
        return false;
    };
    old.t_min == first.timestamp
        && old.t_max == last.timestamp
        && old.entries == chunk.len() as u64
        && old.name == segment_name(first.timestamp)
        && old.meta_digest == chunk_identity(map, chunk, buf)
}

/// [`segment::identity_digest`] of one entry chunk, each path rendered
/// into `buf` in turn.
fn chunk_identity(map: MapKind, chunk: &[DatasetEntry], buf: &mut String) -> u64 {
    chunk.iter().fold(segment::IDENTITY_SEED, |h, entry| {
        buf.clear();
        paths::push_relative_path(buf, map, FileKind::Yaml, entry.timestamp);
        segment::identity_step(h, buf, entry.size)
    })
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
    // Drop rows whose spans overlap a kept predecessor (stale leftovers).
    metas.dedup_by(|meta, prev| meta.t_min <= prev.t_max);
    Ok(SegmentManifest { segments: metas })
}

/// A reusable old file: its size, its content hash and, when it parsed,
/// its snapshot as `(source store, index)`.
type PoolEntry = (u64, u64, Option<(usize, usize)>);

/// A segment store this load wrote or read, with the index runs of the
/// snapshots it took from decoded segment files rather than from YAML.
type Built = (LongitudinalStore, Vec<Range<usize>>);

/// Brings the partition in line with the corpus: keeps every sealed
/// segment the entry list still dictates, rebuilds the changed suffix
/// (reusing decoded old segments where `(path, size)` still matches so
/// a pure append never re-parses history), rewrites the manifest and
/// garbage-collects stray files. `old` is the manifest file as
/// [`serve`] read and decoded it (`None` when absent or ignored): a
/// damaged one is recovered from the segment headers. Returns the
/// manifest and, per segment, the [`Built`] store this call wrote for it.
///
/// Each listed path is rendered once: a kept chunk's into one reused
/// buffer for its digest, a rebuilt chunk's into its fingerprint, while
/// the reuse pool meets the listing on instants, not on path strings.
/// The one exception is a chunk whose span still matches its manifest
/// row but whose digest does not (a size-changing edit): its paths
/// render for the check and again for its rebuild.
#[allow(clippy::too_many_arguments)]
fn ensure_segments(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
    policy: SegmentPolicy,
    old: Option<Result<SegmentManifest, CacheError>>,
    rebuild_all: bool,
    cache: &mut CacheStats,
) -> io::Result<(SegmentManifest, Vec<Option<Built>>)> {
    let capacity = policy.chunk();

    // `intact` means the manifest file was present and decoded (a
    // recovered manifest must be rewritten even when nothing else
    // changed).
    let intact = matches!(old, Some(Ok(_)));
    let old = match old {
        None => SegmentManifest::default(),
        Some(Ok(manifest)) => manifest,
        Some(Err(err)) => {
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
    };

    // Longest prefix of chunks the old manifest still matches.
    let mut kept = 0usize;
    let mut buf = String::new();
    for (chunk, old_meta) in entries.chunks(capacity).zip(&old.segments) {
        if !meta_matches(map, old_meta, chunk, &mut buf) {
            break;
        }
        kept += 1;
    }
    let chunk_count = entries.len().div_ceil(capacity);

    let structurally_clean = kept == chunk_count && old.segments.len() == chunk_count;
    let mut manifest = SegmentManifest {
        segments: old.segments.iter().take(kept).cloned().collect(),
    };
    let mut built: Vec<Option<Built>> = manifest.segments.iter().map(|_| None).collect();

    // Segment files on disk before any write: rewriting one is a
    // rebuild, and those the new manifest does not name are garbage.
    let rewrite_manifest = !(structurally_clean && intact);
    let on_disk = if rewrite_manifest {
        store.list_segment_files(map)?
    } else {
        Vec::new()
    };

    let mut reused_any = false;
    if !structurally_clean {
        // Decode-reuse pool: old segments past the kept prefix whose
        // span still overlaps the rebuild region. For a pure append
        // that is exactly the old undersized tail.
        let rebuild_from = kept.saturating_mul(capacity);
        let first_rebuilt = entries.get(rebuild_from).map(|e| e.timestamp);
        let mut sources: Vec<LongitudinalStore> = Vec::new();
        let mut pool: BTreeMap<i64, PoolEntry> = BTreeMap::new();
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
                let source = sources.len();
                // A snapshot's file is the one its timestamp names; the
                // layout drops the seconds.
                let mut by_minute: BTreeMap<i64, usize> = seg_store
                    .timestamps()
                    .iter()
                    .enumerate()
                    .map(|(index, &t)| (t.align_down(Duration::from_minutes(1)).unix(), index))
                    .collect();
                for entry in &fingerprint.entries {
                    // Only a path the layout renders for this map can be
                    // a listed file; pool and listing meet on its instant.
                    let Some((file_map, FileKind::Yaml, t)) = paths::parse_path_str(&entry.path)
                    else {
                        continue;
                    };
                    if file_map != map {
                        continue;
                    }
                    let snapshot = by_minute.remove(&t.unix()).map(|index| (source, index));
                    pool.insert(t.unix(), (entry.size, entry.hash, snapshot));
                }
                sources.push(seg_store);
            }
        }

        // Parse from YAML only what the pool cannot supply, into one
        // more source store.
        let rebuild = entries.get(rebuild_from..).unwrap_or(&[]);
        let fresh: Vec<DatasetEntry> = rebuild
            .iter()
            .filter(|e| {
                pool.get(&e.timestamp.unix())
                    .is_none_or(|(size, _, _)| *size != e.size)
            })
            .cloned()
            .collect();
        let (fresh_store, fresh_stats, hashes) =
            loader::load_store(store, map, &fresh, threads, true)?;
        cache.snapshots_appended += fresh_stats.parsed as u64;
        let fresh_source = sources.len();
        let mut fresh_index: BTreeMap<i64, usize> = fresh_store
            .timestamps()
            .iter()
            .enumerate()
            .map(|(index, t)| (t.unix(), index))
            .collect();
        sources.push(fresh_store);
        let fresh_hashes: BTreeMap<i64, u64> = fresh
            .iter()
            .zip(&hashes)
            .map(|(e, &h)| (e.timestamp.unix(), h))
            .collect();

        // Each chunk is a concatenation of runs of consecutive source
        // snapshots, in entry order.
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        let mut fp = CorpusFingerprint::default();
        for chunk in entries.chunks(capacity).skip(kept) {
            let (Some(first), Some(last)) = (chunk.first(), chunk.last()) else {
                continue;
            };
            runs.clear();
            fp.entries.clear();
            for entry in chunk {
                let (hash, snapshot) = match pool.get(&entry.timestamp.unix()) {
                    Some(&(size, hash, snapshot)) if size == entry.size => {
                        reused_any = true;
                        (hash, snapshot)
                    }
                    _ => (
                        fresh_hashes
                            .get(&entry.timestamp.unix())
                            .copied()
                            .unwrap_or(0),
                        fresh_index
                            .remove(&entry.timestamp.unix())
                            .map(|index| (fresh_source, index)),
                    ),
                };
                fp.entries.push(FingerprintEntry {
                    path: paths::relative_path_string(map, FileKind::Yaml, entry.timestamp),
                    size: entry.size,
                    hash,
                });
                if let Some((source, index)) = snapshot {
                    match runs.last_mut() {
                        Some((last, run)) if *last == source && run.end == index => run.end += 1,
                        _ => runs.push((source, index..index.saturating_add(1))),
                    }
                }
            }
            // Index runs of the chunk store taken from decoded segments.
            let mut at = 0;
            let reused: Vec<Range<usize>> = runs
                .iter()
                .filter_map(|(source, run)| {
                    let span = at..at + run.len();
                    at = span.end;
                    (*source != fresh_source).then_some(span)
                })
                .collect();
            let parts: Vec<(&LongitudinalStore, Range<usize>)> = runs
                .iter()
                .filter_map(|(source, run)| Some((sources.get(*source)?, run.clone())))
                .collect();
            let chunk_store = LongitudinalStore::concat(&parts);
            let meta = SegmentMeta {
                name: segment_name(first.timestamp),
                t_min: first.timestamp,
                t_max: last.timestamp,
                entries: chunk.len() as u64,
                snapshots: chunk_store.len() as u64,
                meta_digest: segment::fingerprint_identity(&fp),
            };
            write_chunk(store, map, &meta, chunk, &chunk_store, &fp)?;
            if on_disk.binary_search(&meta.name).is_ok() {
                cache.segments_rebuilt += 1;
            }
            manifest.segments.push(meta);
            built.push(Some((chunk_store, reused)));
        }
    }

    if structurally_clean && !rebuild_all {
        cache.hits += 1;
    } else if !rebuild_all && (kept > 0 || reused_any) {
        cache.appends += 1;
    } else {
        cache.misses += 1;
    }

    if rewrite_manifest {
        store.write_manifest_bytes(map, &encode_manifest(&manifest))?;
        // Stray files (an old tail under a superseded name, leftovers
        // of a shrunk corpus) would confuse manifest recovery: drop
        // everything the manifest no longer references (every file this
        // call wrote is in it).
        for name in &on_disk {
            if !manifest.segments.iter().any(|m| &m.name == name) {
                store.remove_segment_file(map, name)?;
            }
        }
    }

    Ok((manifest, built))
}

/// One segment's store: the decoded file when it is intact and still
/// the segment the manifest promised, otherwise exactly this chunk
/// rebuilt from YAML (counting the damage), with the file repaired in
/// place. Returns the store and, when it came from the segment file, its
/// whole index range as the one reused run.
fn load_segment(
    store: &DatasetStore,
    map: MapKind,
    meta: &SegmentMeta,
    chunk: &[DatasetEntry],
    threads: usize,
    cache: &mut CacheStats,
) -> io::Result<Built> {
    let name = &meta.name;
    let slug = map.slug();
    let (damage, stale) = match store.read_segment_file(map, name)? {
        None => (format!("segment {name} of {slug} is missing"), false),
        Some(bytes) => match segment::decode_segment(&bytes) {
            Ok((header, seg_store, _, _)) if header_matches(&header, meta) => {
                let all = 0..seg_store.len();
                return Ok((seg_store, vec![all]));
            }
            Ok(_) => (
                format!("segment {name} of {slug} does not match its manifest row"),
                false,
            ),
            Err(err) => (
                format!("discarding segment {name} of {slug}: {err}"),
                matches!(err, CacheError::UnsupportedVersion(_)),
            ),
        },
    };
    eprintln!("warning: {damage}; rebuilding it from YAML");
    if stale {
        cache.stale += 1;
    } else {
        cache.corrupt += 1;
    }

    // Repair: parse exactly this chunk, re-encode, write back. The
    // encoding is deterministic, so the repaired file is byte-identical
    // to the one originally written and the manifest needs no update.
    let (seg_store, chunk_stats, hashes) = loader::load_store(store, map, chunk, threads, true)?;
    cache.segments_rebuilt += 1;
    cache.snapshots_appended += chunk_stats.parsed as u64;
    let fp = loader::fingerprint_from(map, chunk, &hashes);
    write_chunk(store, map, meta, chunk, &seg_store, &fp)?;
    Ok((seg_store, Vec::new()))
}

/// Whether a decoded header is the segment the manifest row promises.
fn header_matches(header: &SegmentHeader, meta: &SegmentMeta) -> bool {
    header.t_min == meta.t_min
        && header.t_max == meta.t_max
        && header.entries == meta.entries
        && header.meta_digest == meta.meta_digest
}

/// Encodes one chunk as a segment file and writes it. The snapshot
/// count and the load counters derive from the store and the entry
/// list (not from what this call happened to read), so both the build
/// and the repair path write byte-identical files.
fn write_chunk(
    store: &DatasetStore,
    map: MapKind,
    meta: &SegmentMeta,
    chunk: &[DatasetEntry],
    seg_store: &LongitudinalStore,
    fingerprint: &CorpusFingerprint,
) -> io::Result<()> {
    let mut stats = CorpusLoadStats {
        parsed: seg_store.len(),
        failed: chunk.len() - seg_store.len(),
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
        snapshots: seg_store.len() as u64,
        meta_digest: meta.meta_digest,
    };
    let bytes = segment::encode_segment(&header, seg_store, fingerprint, &stats);
    store.write_segment_file(map, &meta.name, &bytes)
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

    /// Snapshot `i` of a small Europe corpus, five minutes apart.
    fn write_snapshot(store: &DatasetStore, i: i64) -> Timestamp {
        use wm_model::{Link, LinkEnd, Load, Node, TopologySnapshot};
        let t = Timestamp::from_ymd(2021, 5, 1) + Duration::from_minutes(5 * i);
        let mut s = TopologySnapshot::new(MapKind::Europe, t);
        let end = |name: &str, load: u8| {
            LinkEnd::new(Node::from_name(name), None, Load::new(load).unwrap())
        };
        s.nodes = vec![Node::from_name("rbx-g1"), Node::from_name("fra-fr5")];
        s.links = vec![Link::new(end("rbx-g1", i as u8), end("fra-fr5", 50))];
        let yaml = wm_extract::to_yaml_string(&s);
        store
            .write(MapKind::Europe, FileKind::Yaml, t, yaml.as_bytes())
            .unwrap();
        t
    }

    /// Files 0..6 indexed at capacity 4 (a sealed segment and a
    /// two-file tail), then files 6..9 appended, file 7 unparsable.
    fn appended_corpus(tag: &str) -> (DatasetStore, Vec<Timestamp>) {
        let dir =
            std::env::temp_dir().join(format!("wm-segments-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DatasetStore::open(dir).unwrap();
        let mut times: Vec<Timestamp> = (0..6).map(|i| write_snapshot(&store, i)).collect();
        reindex_segments_with(&store, MapKind::Europe, 1, CacheMode::Auto, POLICY).unwrap();
        times.extend((6..9).map(|i| write_snapshot(&store, i)));
        store
            .write(MapKind::Europe, FileKind::Yaml, times[7], b"not: [yaml")
            .unwrap();
        (store, times)
    }

    const POLICY: SegmentPolicy = SegmentPolicy { capacity: 4 };

    /// After an append, every served snapshot is counted once: decoded
    /// from a segment file or reused from the decoded old tail
    /// (`snapshots_from_cache`), or parsed from YAML
    /// (`snapshots_appended`).
    #[test]
    fn cache_counters_cover_what_a_load_serves() {
        let load = |store: &DatasetStore, range: TimeRange| {
            build_longitudinal_windowed_with(
                store,
                MapKind::Europe,
                range,
                1,
                CacheMode::Auto,
                POLICY,
            )
            .unwrap()
        };

        let (store, _) = appended_corpus("whole");
        let (whole, stats) = load(&store, TimeRange::ALL);
        assert_eq!(whole.len(), 8);
        assert_eq!(stats.cache.snapshots_appended, 2);
        assert_eq!(
            stats.cache.snapshots_from_cache + stats.cache.snapshots_appended,
            whole.len() as u64
        );
        std::fs::remove_dir_all(store.root()).unwrap();

        // Windows over the rebuilt chunk (files 4..8) and the new tail:
        // only the two reused tail snapshots count as from the cache.
        for (from, to, served, from_cache) in [(4, 7, 3, 2), (5, 9, 3, 1), (6, 9, 2, 0)] {
            let (store, times) = appended_corpus("window");
            let end = times[to - 1] + Duration::from_minutes(1);
            let (part, stats) = load(&store, TimeRange::new(times[from], end));
            assert_eq!(part.len(), served, "files {from}..{to}");
            assert_eq!(
                stats.cache.snapshots_from_cache, from_cache,
                "files {from}..{to}"
            );
            std::fs::remove_dir_all(store.root()).unwrap();
        }
    }
}
