//! The binary codec for [`LongitudinalStore`].
//!
//! Parsing the YAML corpus dominates end-to-end load time, and the
//! paper's own workflow (§4–§5) analyses one frozen corpus many times:
//! parse once, reload in milliseconds. This image is the payload of
//! every [`crate::segment`] file and is never written on its own, so it
//! carries no magic or version of its own: the segment header does
//! ([`crate::segment::SEGMENT_FORMAT_VERSION`]), and any change to this
//! layout bumps that version. The magic, version and CRC-32 frame of
//! segment headers and manifests is one `frame`/`unframe` pair here.
//!
//! # Layout
//!
//! ```text
//! [ u32 section count ]
//! [ section table: per section { u32 tag, u64 offset, u64 len, u32 crc } ]
//! [ section payloads ... ]
//! ```
//!
//! All integers are little-endian and offsets count from the start of
//! the image. Each section's CRC-32 (IEEE) covers its payload bytes, so
//! a flipped bit anywhere is detected before any payload is
//! interpreted. Sections:
//!
//! | tag | contents |
//! |-----|----------|
//! | `FPRT` | corpus fingerprint: per-file relative path, size, [`content_hash`] |
//! | `STAT` | the [`CorpusLoadStats`] base counters of the original build |
//! | `NODE` | the sorted node symbol table |
//! | `LDEF` | the sorted link-identity table |
//! | `SNAP` | timestamps and map kinds |
//! | `ROWS` | the topology rows, each once: its snapshot count, node and link cell counts, then every row's node ids, link ids and orientation bits |
//! | `LOAD` | the per-direction load columns of every snapshot |
//!
//! A row's snapshot count is its run length, so the row table doubles
//! as the run-length index from snapshots to rows; the per-snapshot load
//! offsets are recomputed from it. The load and orientation columns are
//! stored as raw byte runs and deserialised with bulk slice copies;
//! `u32` columns are fixed-width little-endian runs decoded chunk-wise —
//! no per-token branching.
//!
//! Decoding never panics: every read is bounds-checked, every count and
//! length sum is checked against the section sizes, every id and load is
//! validated, and any violation (truncation, CRC mismatch, dangling id,
//! an empty run, two equal rows in a row) surfaces as [`CacheError`] so
//! the caller can fall back to a clean YAML rebuild.

use std::fmt;

use wm_model::{Load, MapKind, Node, NodeKind, Timestamp};

use crate::loader::CorpusLoadStats;
use crate::longitudinal::{LinkDef, LongitudinalStore, NodeId};

const TAG_FINGERPRINT: u32 = u32::from_le_bytes(*b"FPRT");
const TAG_STATS: u32 = u32::from_le_bytes(*b"STAT");
const TAG_NODES: u32 = u32::from_le_bytes(*b"NODE");
const TAG_DEFS: u32 = u32::from_le_bytes(*b"LDEF");
const TAG_SNAPSHOTS: u32 = u32::from_le_bytes(*b"SNAP");
const TAG_ROWS: u32 = u32::from_le_bytes(*b"ROWS");
const TAG_LOADS: u32 = u32::from_le_bytes(*b"LOAD");

/// Section tags, in file order.
const SECTION_TAGS: [u32; 7] = [
    TAG_FINGERPRINT,
    TAG_STATS,
    TAG_NODES,
    TAG_DEFS,
    TAG_SNAPSHOTS,
    TAG_ROWS,
    TAG_LOADS,
];

/// Bytes of one row-table entry: snapshot, node and link counts.
const ROW_ENTRY_BYTES: usize = 3 * 4;

/// Bytes of one section-table entry: tag, offset, length, CRC.
const TABLE_ENTRY_BYTES: usize = 4 + 8 + 8 + 4;

/// Where the first payload starts: after the section count and table.
const PAYLOAD_START: usize = 4 + SECTION_TAGS.len() * TABLE_ENTRY_BYTES;

/// Why a cache file was rejected.
///
/// Every variant means "this file is not a usable cache"; none is a
/// programming error, and the segment store reacts to all of them the
/// same way — warn and rebuild the affected segment from YAML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The file does not start with its kind's magic bytes.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion(u32),
    /// A read ran past the end of the file.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A section payload failed its CRC-32 check.
    ChecksumMismatch {
        /// The four-character section tag.
        section: String,
    },
    /// The section table is malformed (missing, duplicated or
    /// out-of-bounds sections).
    BadSectionTable(&'static str),
    /// A decoded value violates a structural invariant (dangling id,
    /// load above 100, non-monotonic offsets, ...).
    Invalid(&'static str),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::BadMagic => write!(f, "not a segment store file (bad magic)"),
            CacheError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CacheError::Truncated { context } => {
                write!(f, "cache file truncated while reading {context}")
            }
            CacheError::ChecksumMismatch { section } => {
                write!(f, "cache section {section:?} failed its CRC-32 check")
            }
            CacheError::BadSectionTable(why) => write!(f, "bad cache section table: {why}"),
            CacheError::Invalid(why) => write!(f, "invalid cache contents: {why}"),
        }
    }
}

impl std::error::Error for CacheError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slice-by-8, std-only.
// ---------------------------------------------------------------------------

/// The slice-by-8 tables: entry `n` of table `k` is the CRC register
/// after byte `n` followed by `k` zero bytes, that is `8 * (k + 1)`
/// steps of the bitwise algorithm. Table 0 is the classic byte table.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            // wm-lint: allow(index-unchecked): evaluated at compile time, where an out-of-range index is a build error, not a panic
            tables[k][n] = c;
            k += 1;
        }
        n += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// One table entry; a `u8` index never leaves the table's 256 entries.
#[inline(always)]
fn crc32_entry(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or_default()
}

/// CRC-32 (IEEE) of a byte slice.
///
/// Its values are part of the segment and manifest formats; the
/// algorithm is not. Eight bytes a step (slice-by-8), then the tail a
/// byte at a time: the same values as the byte-wise loop.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let [b0, b1, b2, b3, b4, b5, b6, b7] = <[u8; 8]>::try_from(word).unwrap_or_default();
        let [c0, c1, c2, c3] = c.to_le_bytes();
        c = crc32_entry(t7, b0 ^ c0)
            ^ crc32_entry(t6, b1 ^ c1)
            ^ crc32_entry(t5, b2 ^ c2)
            ^ crc32_entry(t4, b3 ^ c3)
            ^ crc32_entry(t3, b4)
            ^ crc32_entry(t2, b5)
            ^ crc32_entry(t1, b6)
            ^ crc32_entry(t0, b7);
    }
    for &b in words.remainder() {
        let [c0, ..] = c.to_le_bytes();
        c = crc32_entry(t0, b ^ c0) ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The 64-bit content hash of the fingerprint (every YAML file's
/// bytes) and of the segment identity digest (every path).
///
/// An FNV-style hash that takes eight bytes per step: each step XORs in
/// a little-endian `u64` word, multiplies by the FNV prime and rotates.
/// The tail is taken byte by byte, the length is folded in and a
/// splitmix64 finalizer mixes the result. Its values are part of the
/// segment format: a change to this function is a format bump.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = word.try_into().map_or(0, u64::from_le_bytes);
        h = (h ^ word).wrapping_mul(PRIME).rotate_left(31);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

// ---------------------------------------------------------------------------
// The file frame shared by segment headers and manifests.
// ---------------------------------------------------------------------------

/// Frames `body` as `[ 8-byte magic | u32 version | u32 CRC-32 of body |
/// body ]`, the layout of every segment header and manifest.
#[must_use]
pub(crate) fn frame(magic: &[u8; 8], version: u32, body: &[u8]) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.bytes(magic);
    w.u32(version);
    w.u32(crc32(body));
    w.bytes(body);
    w.buf
}

/// Checks a [`frame`] and returns its body, every byte after the
/// 16-byte prefix. `what` names the file in the error: a wrong magic,
/// an unsupported version, a short prefix or a CRC mismatch.
pub(crate) fn unframe<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    what: &'static str,
) -> Result<&'a [u8], CacheError> {
    let mut r = Reader::new(bytes);
    if r.take(8, what)? != &magic[..] {
        return Err(CacheError::BadMagic);
    }
    let found = r.u32(what)?;
    if found != version {
        return Err(CacheError::UnsupportedVersion(found));
    }
    let crc = r.u32(what)?;
    let body = bytes.get(16..).unwrap_or(&[]);
    if crc32(body) != crc {
        return Err(CacheError::ChecksumMismatch {
            section: what.to_owned(),
        });
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Corpus fingerprint.
// ---------------------------------------------------------------------------

/// One corpus file's identity inside a [`CorpusFingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintEntry {
    /// Relative path under the corpus root, `/`-separated.
    pub path: String,
    /// File size in bytes.
    pub size: u64,
    /// [`content_hash`] of the file contents.
    pub hash: u64,
}

/// The identity of one map's YAML corpus: every snapshot file's relative
/// path, length and content hash, in timestamp order.
///
/// Only layout-conforming snapshot files participate — segment files,
/// editor backups and other foreign files in the corpus tree
/// never influence the fingerprint (see [`crate::paths::parse_path`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorpusFingerprint {
    /// Per-file identities, sorted by snapshot timestamp.
    pub entries: Vec<FingerprintEntry>,
}

impl CorpusFingerprint {
    /// Number of fingerprinted files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no files were fingerprinted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    pub(crate) fn str16(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.bytes(s.as_bytes());
    }
    pub(crate) fn opt_str16(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str16(s);
            }
        }
    }
    /// A `u32` run without a length prefix (the reader knows it).
    pub(crate) fn u32s(&mut self, values: &[u32]) {
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn map_kind_code(map: MapKind) -> u8 {
    match map {
        MapKind::Europe => 0,
        MapKind::World => 1,
        MapKind::NorthAmerica => 2,
        MapKind::AsiaPacific => 3,
    }
}

fn map_kind_from_code(code: u8) -> Option<MapKind> {
    match code {
        0 => Some(MapKind::Europe),
        1 => Some(MapKind::World),
        2 => Some(MapKind::NorthAmerica),
        3 => Some(MapKind::AsiaPacific),
        _ => None,
    }
}

fn node_kind_code(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Router => 0,
        NodeKind::Peering => 1,
    }
}

fn node_kind_from_code(code: u8) -> Option<NodeKind> {
    match code {
        0 => Some(NodeKind::Router),
        1 => Some(NodeKind::Peering),
        _ => None,
    }
}

fn encode_node(w: &mut Writer, node: &Node) {
    w.u8(node_kind_code(node.kind));
    w.str16(node.name.as_str());
}

/// Serialises a store, its corpus fingerprint and the load counters of
/// the build that produced it into one cache image.
#[must_use]
pub fn encode_store(
    store: &LongitudinalStore,
    fingerprint: &CorpusFingerprint,
    stats: &CorpusLoadStats,
) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(SECTION_TAGS.len());

    let mut w = Writer { buf: Vec::new() };
    w.u64(fingerprint.entries.len() as u64);
    for entry in &fingerprint.entries {
        w.str16(&entry.path);
        w.u64(entry.size);
        w.u64(entry.hash);
    }
    sections.push((TAG_FINGERPRINT, std::mem::take(&mut w.buf)));

    w.u64(stats.files as u64);
    w.u64(stats.parsed as u64);
    w.u64(stats.failed as u64);
    w.u64(stats.bytes);
    sections.push((TAG_STATS, std::mem::take(&mut w.buf)));

    w.u32(store.nodes.len() as u32);
    for node in &store.nodes {
        encode_node(&mut w, node);
    }
    sections.push((TAG_NODES, std::mem::take(&mut w.buf)));

    w.u32(store.defs.len() as u32);
    for def in &store.defs {
        w.u32(def.a.index() as u32);
        w.u32(def.b.index() as u32);
        w.opt_str16(def.label_a.as_deref());
        w.opt_str16(def.label_b.as_deref());
    }
    sections.push((TAG_DEFS, std::mem::take(&mut w.buf)));

    w.u32(store.timestamps.len() as u32);
    for &t in &store.timestamps {
        w.i64(t.unix());
    }
    for &map in &store.maps {
        w.u8(map_kind_code(map));
    }
    sections.push((TAG_SNAPSHOTS, std::mem::take(&mut w.buf)));

    let rows = store.topology_rows();
    w.u32(rows as u32);
    for row in 0..rows {
        w.u32(store.run_of(row).len() as u32);
        w.u32(store.node_span(row).len() as u32);
        w.u32(store.link_span(row).len() as u32);
    }
    w.u32s(&store.node_cells);
    w.u32s(&store.link_cells);
    w.bytes(
        &store
            .flipped
            .iter()
            .map(|&f| u8::from(f))
            .collect::<Vec<u8>>(),
    );
    sections.push((TAG_ROWS, std::mem::take(&mut w.buf)));

    w.bytes(&store.load_a);
    w.bytes(&store.load_b);
    sections.push((TAG_LOADS, std::mem::take(&mut w.buf)));

    // Assemble: section count, table, payloads back to back. The sum
    // of in-memory lengths cannot reach `u64::MAX`, so saturation never
    // happens; it only keeps the encoder total.
    let payload_bytes: usize = sections.iter().map(|(_, payload)| payload.len()).sum();
    let mut out = Vec::with_capacity(PAYLOAD_START.saturating_add(payload_bytes));
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = PAYLOAD_START as u64;
    for (tag, payload) in &sections {
        let len = payload.len() as u64;
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        offset = offset.saturating_add(len);
    }
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a section payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CacheError> {
        let truncated = CacheError::Truncated { context };
        let end = self.pos.checked_add(n).ok_or(truncated.clone())?;
        let slice = self.buf.get(self.pos..end).ok_or(truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CacheError> {
        self.take(N, context)?
            .try_into()
            .map_err(|_| CacheError::Truncated { context })
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, CacheError> {
        self.array(context).map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, CacheError> {
        self.array(context).map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, CacheError> {
        self.array(context).map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, CacheError> {
        self.array(context).map(u64::from_le_bytes)
    }

    pub(crate) fn i64(&mut self, context: &'static str) -> Result<i64, CacheError> {
        Ok(self.u64(context)? as i64)
    }

    pub(crate) fn str16(&mut self, context: &'static str) -> Result<&'a str, CacheError> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        std::str::from_utf8(bytes).map_err(|_| CacheError::Invalid("non-UTF-8 string"))
    }

    pub(crate) fn opt_str16(
        &mut self,
        context: &'static str,
    ) -> Result<Option<&'a str>, CacheError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.str16(context)?)),
            _ => Err(CacheError::Invalid("bad optional-string marker")),
        }
    }

    /// Bulk-decodes a run of `n` `u32` words.
    pub(crate) fn u32s(&mut self, n: usize, context: &'static str) -> Result<Vec<u32>, CacheError> {
        let bytes = n.checked_mul(4).ok_or(CacheError::Truncated { context })?;
        Ok(u32_words(self.take(bytes, context)?))
    }

    /// Reads a `u64` count and sanity-bounds it against the bytes left,
    /// so a corrupt length cannot trigger a huge allocation.
    pub(crate) fn checked_len(&mut self, context: &'static str) -> Result<usize, CacheError> {
        let len = self.u64(context)?;
        let remaining = self.buf.get(self.pos..).map_or(0, <[u8]>::len);
        usize::try_from(len)
            .ok()
            .filter(|&len| len <= remaining)
            .ok_or(CacheError::Truncated { context })
    }

    pub(crate) fn finished(&self, context: &'static str) -> Result<(), CacheError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CacheError::Invalid(context))
        }
    }
}

/// Little-endian `u32` words of a byte run whose length is a multiple
/// of four, so `chunks_exact` leaves no remainder and every chunk
/// converts.
fn u32_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|word| word.try_into().map_or(0, u32::from_le_bytes))
        .collect()
}

fn decode_node(r: &mut Reader<'_>, context: &'static str) -> Result<Node, CacheError> {
    let kind =
        node_kind_from_code(r.u8(context)?).ok_or(CacheError::Invalid("unknown node kind"))?;
    let name = r.str16(context)?;
    Ok(Node {
        name: name.into(),
        kind,
    })
}

fn decode_fingerprint_entry(r: &mut Reader<'_>) -> Result<FingerprintEntry, CacheError> {
    Ok(FingerprintEntry {
        path: r.str16("a fingerprint path")?.into(),
        size: r.u64("a fingerprint size")?,
        hash: r.u64("a fingerprint hash")?,
    })
}

/// The section table entry of one section, resolved to its payload.
fn section<'a>(
    bytes: &'a [u8],
    table: &[(u32, u64, u64, u32)],
    tag: u32,
) -> Result<&'a [u8], CacheError> {
    let mut found = None;
    for entry in table {
        if entry.0 == tag {
            if found.is_some() {
                return Err(CacheError::BadSectionTable("duplicate section"));
            }
            found = Some(entry);
        }
    }
    let &(_, offset, len, crc) = found.ok_or(CacheError::BadSectionTable("missing section"))?;
    let start = usize::try_from(offset).map_err(|_| CacheError::BadSectionTable("huge offset"))?;
    let len = usize::try_from(len).map_err(|_| CacheError::BadSectionTable("huge length"))?;
    let truncated = CacheError::Truncated {
        context: "a section payload",
    };
    let end = start.checked_add(len).ok_or(truncated.clone())?;
    let payload = bytes.get(start..end).ok_or(truncated)?;
    if crc32(payload) != crc {
        let tag_bytes = tag.to_le_bytes();
        return Err(CacheError::ChecksumMismatch {
            section: String::from_utf8_lossy(&tag_bytes).into_owned(),
        });
    }
    Ok(payload)
}

/// Deserialises a cache image back into the store, the fingerprint it
/// was built from and the original build's load counters.
///
/// Any structural problem — truncation, a malformed section table, CRC
/// mismatch, dangling ids — returns a [`CacheError`]; this function
/// never panics on arbitrary input.
pub fn decode_store(
    bytes: &[u8],
) -> Result<(LongitudinalStore, CorpusFingerprint, CorpusLoadStats), CacheError> {
    // Section table.
    let mut header = Reader::new(bytes);
    let section_count = header.u32("the section count")?;
    if section_count as usize != SECTION_TAGS.len() {
        return Err(CacheError::BadSectionTable("wrong section count"));
    }
    let mut table = Vec::with_capacity(SECTION_TAGS.len());
    for _ in 0..section_count {
        let tag = header.u32("the section table")?;
        let offset = header.u64("the section table")?;
        let len = header.u64("the section table")?;
        let crc = header.u32("the section table")?;
        table.push((tag, offset, len, crc));
    }

    // Fingerprint.
    let mut r = Reader::new(section(bytes, &table, TAG_FINGERPRINT)?);
    let n = r.checked_len("the fingerprint")?;
    let mut fingerprint = CorpusFingerprint {
        entries: Vec::with_capacity(n),
    };
    for _ in 0..n {
        fingerprint.entries.push(decode_fingerprint_entry(&mut r)?);
    }
    r.finished("trailing bytes after the fingerprint")?;

    // Stats.
    let mut r = Reader::new(section(bytes, &table, TAG_STATS)?);
    let overflow = |_| CacheError::Invalid("stats counter overflow");
    let stats = CorpusLoadStats {
        files: usize::try_from(r.u64("the load stats")?).map_err(overflow)?,
        parsed: usize::try_from(r.u64("the load stats")?).map_err(overflow)?,
        failed: usize::try_from(r.u64("the load stats")?).map_err(overflow)?,
        bytes: r.u64("the load stats")?,
        ..CorpusLoadStats::default()
    };
    r.finished("trailing bytes after the load stats")?;

    // Node table.
    let mut r = Reader::new(section(bytes, &table, TAG_NODES)?);
    let n = r.u32("the node table")? as usize;
    let mut nodes = Vec::with_capacity(n.min(r.buf.len()));
    for _ in 0..n {
        nodes.push(decode_node(&mut r, "the node table")?);
    }
    r.finished("trailing bytes after the node table")?;

    // Link-identity table.
    let mut r = Reader::new(section(bytes, &table, TAG_DEFS)?);
    let n = r.u32("the link table")? as usize;
    let mut defs = Vec::with_capacity(n.min(r.buf.len()));
    for _ in 0..n {
        let a = r.u32("a link endpoint")?;
        let b = r.u32("a link endpoint")?;
        if a as usize >= nodes.len() || b as usize >= nodes.len() {
            return Err(CacheError::Invalid("link endpoint id out of range"));
        }
        defs.push(LinkDef {
            a: NodeId::from_raw(a),
            b: NodeId::from_raw(b),
            label_a: r.opt_str16("a link label")?.map(str::to_owned),
            label_b: r.opt_str16("a link label")?.map(str::to_owned),
        });
    }
    r.finished("trailing bytes after the link table")?;

    // Snapshot axis: timestamps and maps.
    let mut r = Reader::new(section(bytes, &table, TAG_SNAPSHOTS)?);
    let snaps = r.u32("the snapshot count")? as usize;
    let timestamp_bytes = r.take(
        snaps.checked_mul(8).ok_or(CacheError::Truncated {
            context: "the timestamps",
        })?,
        "the timestamps",
    )?;
    // `chunks_exact(8)` over a multiple of eight: every chunk converts.
    let timestamps: Vec<Timestamp> = timestamp_bytes
        .chunks_exact(8)
        .map(|c| Timestamp::from_unix(c.try_into().map_or(0, i64::from_le_bytes)))
        .collect();
    if !timestamps.is_sorted() {
        return Err(CacheError::Invalid("timestamps out of order"));
    }
    let map_bytes = r.take(snaps, "the map kinds")?;
    let maps = map_bytes
        .iter()
        .map(|&c| map_kind_from_code(c).ok_or(CacheError::Invalid("unknown map kind")))
        .collect::<Result<Vec<MapKind>, CacheError>>()?;
    r.finished("trailing bytes after the snapshot axis")?;

    // Topology rows: the row table, then every row's cells.
    let mut r = Reader::new(section(bytes, &table, TAG_ROWS)?);
    let rows = r.u32("the row count")? as usize;
    let table_bytes = rows
        .checked_mul(ROW_ENTRY_BYTES)
        .ok_or(CacheError::Truncated {
            context: "the row table",
        })?;
    let mut row_table = Reader::new(r.take(table_bytes, "the row table")?);
    let mut store = LongitudinalStore::with_tables(nodes, defs);
    store.timestamps = timestamps;
    store.maps = maps;
    let overflow = CacheError::Invalid("row counts overflow");
    let (mut node_total, mut link_total) = (0u32, 0u32);
    for _ in 0..rows {
        let run = row_table.u32("the row table")?;
        let row_nodes = row_table.u32("the row table")?;
        let row_links = row_table.u32("the row table")?;
        let covered = store.run_ends.last().copied().unwrap_or(0);
        // A run is never empty and never reaches past the snapshots
        // (which also bounds the load offsets built below).
        let run_end = covered.checked_add(run).ok_or(overflow.clone())?;
        if run == 0 || run_end as usize > snaps {
            return Err(CacheError::Invalid("bad row run length"));
        }
        node_total = node_total.checked_add(row_nodes).ok_or(overflow.clone())?;
        link_total = link_total.checked_add(row_links).ok_or(overflow.clone())?;
        store.node_offsets.push(node_total);
        store.link_offsets.push(link_total);
        store.run_ends.push(covered);
        let loads_before = store.load_offsets.last().copied().unwrap_or(0);
        let run_loads = row_links.checked_mul(run).ok_or(overflow.clone())?;
        if loads_before.checked_add(run_loads).is_none() {
            return Err(overflow);
        }
        store.extend_run(run as usize);
    }
    if store.run_ends.last().map_or(0, |&end| end as usize) != snaps {
        return Err(CacheError::Invalid("row runs do not cover the snapshots"));
    }
    store.node_cells = r.u32s(node_total as usize, "the node cells")?;
    store.link_cells = r.u32s(link_total as usize, "the link cells")?;
    let flipped_bytes = r.take(link_total as usize, "the orientation column")?;
    r.finished("trailing bytes after the rows")?;
    if flipped_bytes.iter().any(|&b| b > 1) {
        return Err(CacheError::Invalid("bad orientation bit"));
    }
    store.flipped = flipped_bytes.iter().map(|&b| b != 0).collect();
    if store
        .node_cells
        .iter()
        .any(|&id| id as usize >= store.nodes.len())
    {
        return Err(CacheError::Invalid("node cell id out of range"));
    }
    if store
        .link_cells
        .iter()
        .any(|&id| id as usize >= store.defs.len())
    {
        return Err(CacheError::Invalid("link cell id out of range"));
    }
    if store.has_repeated_row() {
        return Err(CacheError::Invalid("two consecutive rows are equal"));
    }

    // Loads: both directions of every snapshot, as the runs dictate.
    let mut r = Reader::new(section(bytes, &table, TAG_LOADS)?);
    let loads = store.load_offsets.last().map_or(0, |&o| o as usize);
    store.load_a = r.take(loads, "the load column")?.to_vec();
    store.load_b = r.take(loads, "the load column")?.to_vec();
    r.finished("trailing bytes after the loads")?;
    if store
        .load_a
        .iter()
        .chain(&store.load_b)
        .any(|&p| Load::new(p).is_none())
    {
        return Err(CacheError::Invalid("load above 100 %"));
    }
    Ok((store, fingerprint, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Duration, Link, LinkEnd, TopologySnapshot};

    fn load(p: u8) -> Load {
        Load::new(p).unwrap()
    }

    fn link(a: &str, la: u8, b: &str, lb: u8, label: Option<&str>) -> Link {
        Link::new(
            LinkEnd::new(Node::from_name(a), label.map(str::to_owned), load(la)),
            LinkEnd::new(Node::from_name(b), label.map(str::to_owned), load(lb)),
        )
    }

    fn sample_store() -> LongitudinalStore {
        let t0 = Timestamp::from_ymd(2021, 6, 1);
        let mut s0 = TopologySnapshot::new(MapKind::Europe, t0);
        s0.nodes = vec![
            Node::from_name("rbx-g1"),
            Node::from_name("fra-fr5"),
            Node::from_name("ARELION"),
        ];
        s0.links = vec![
            link("rbx-g1", 10, "fra-fr5", 20, Some("#1")),
            link("fra-fr5", 42, "ARELION", 9, None),
        ];
        let mut s1 = s0.clone();
        s1.timestamp = t0 + Duration::from_minutes(5);
        s1.nodes.push(Node::from_name("sbg-g2"));
        s1.links.push(link("sbg-g2", 7, "rbx-g1", 8, None));
        LongitudinalStore::from_snapshots([&s0, &s1])
    }

    fn sample_fingerprint() -> CorpusFingerprint {
        CorpusFingerprint {
            entries: vec![
                FingerprintEntry {
                    path: "europe/yaml/2021/06/01/0000.yaml".into(),
                    size: 120,
                    hash: 0xDEAD_BEEF,
                },
                FingerprintEntry {
                    path: "europe/yaml/2021/06/01/0005.yaml".into(),
                    size: 140,
                    hash: 0xFEED_FACE,
                },
            ],
        }
    }

    fn sample_stats() -> CorpusLoadStats {
        CorpusLoadStats {
            files: 3,
            parsed: 2,
            failed: 1,
            bytes: 260,
            ..CorpusLoadStats::default()
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let store = sample_store();
        let image = encode_store(&store, &sample_fingerprint(), &sample_stats());
        let (back, fingerprint, stats) = decode_store(&image).expect("decodes");
        assert_eq!(back, store);
        assert_eq!(fingerprint, sample_fingerprint());
        assert_eq!(stats, sample_stats());
        // Deterministic: re-encoding the decoded store is byte-identical.
        let image2 = encode_store(&back, &fingerprint, &stats);
        assert_eq!(image, image2);
    }

    #[test]
    fn empty_store_round_trips() {
        let store = LongitudinalStore::from_snapshots(std::iter::empty());
        let image = encode_store(&store, &CorpusFingerprint::default(), &sample_stats());
        let (back, fingerprint, _) = decode_store(&image).expect("decodes");
        assert_eq!(back, store);
        assert!(fingerprint.is_empty());
    }

    #[test]
    fn flipped_payload_bit_fails_its_crc() {
        let image = encode_store(&sample_store(), &sample_fingerprint(), &sample_stats());
        // Flip one bit in every payload byte position in turn — each must
        // be caught by a section CRC (the header/table region is walked
        // by the truncation test instead).
        let payload_start = image.len() - 64; // deep in the last sections
        for pos in payload_start..image.len() {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x01;
            match decode_store(&corrupt) {
                Err(CacheError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at {pos}: expected checksum mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let image = encode_store(&sample_store(), &sample_fingerprint(), &sample_stats());
        for len in 0..image.len() {
            assert!(
                decode_store(&image[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
    }

    /// The content hash's values are part of the segment format (FPRT
    /// bytes, identity digests): a change here is a format bump.
    #[test]
    fn content_hash_is_pinned() {
        for (input, want) in [
            (&b""[..], 0xF52A_15E9_A9B5_E89Bu64),
            (b"a", 0x8097_CA68_B9CC_797B),
            (b"12345678", 0xEC49_6852_4563_5FB9),
            (b"123456789", 0x28E3_9FCD_5C49_1552),
            (b"europe/yaml/2022/02/01/0000.yaml", 0x0748_6A24_D402_0057),
        ] {
            assert_eq!(
                content_hash(input),
                want,
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
        // Length and position matter, not just the multiset of words.
        assert_ne!(content_hash(b"\0"), content_hash(b""));
        assert_ne!(
            content_hash(b"abcdefgh12345678"),
            content_hash(b"12345678abcdefgh")
        );
    }

    #[test]
    fn a_store_of_one_topology_keeps_one_row() {
        // Both snapshots share nodes, links and orientations: one row,
        // two snapshots' loads.
        let t0 = Timestamp::from_ymd(2021, 6, 1);
        let mut s0 = TopologySnapshot::new(MapKind::Europe, t0);
        s0.nodes = vec![Node::from_name("rbx-g1"), Node::from_name("fra-fr5")];
        s0.links = vec![link("rbx-g1", 10, "fra-fr5", 20, Some("#1"))];
        let mut s1 = s0.clone();
        s1.timestamp = t0 + Duration::from_minutes(5);
        s1.links = vec![link("rbx-g1", 30, "fra-fr5", 40, Some("#1"))];
        let store = LongitudinalStore::from_snapshots([&s0, &s1]);
        assert_eq!(store.topology_rows(), 1);
        let image = encode_store(&store, &CorpusFingerprint::default(), &sample_stats());
        let (back, _, _) = decode_store(&image).expect("decodes");
        assert_eq!(back, store);
        assert_eq!(back.snapshot(1), s1);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-wise CRC-32 loop, one table read per byte: the
    /// reference the slice-by-8 loop must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|n| {
                (0..8).fold(n, |c, _| {
                    if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                })
            })
            .collect();
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` pseudo-random bytes (splitmix64) from `seed`.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_at_every_length_and_alignment() {
        let buf = random_bytes(0x5EED, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
        let big = random_bytes(0xC0FFEE, 1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn crc32_of_a_fixed_input_is_pinned() {
        // The value the byte-wise loop wrote for this input: segment and
        // manifest frames carry these values, so they may never change.
        let input: Vec<u8> = (0..4096usize).map(|i| (i * 7 + i / 256) as u8).collect();
        assert_eq!(crc32(&input), 0x462C_1E21);
        assert_eq!(crc32_bytewise(&input), 0x462C_1E21);
    }
}
