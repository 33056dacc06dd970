//! One time-window segment file of the longitudinal segment store.
//!
//! A segment is a self-contained slice of one map's history: a fixed
//! 56-byte header (magic, format version, CRC-protected time span and
//! counts) followed by a complete [`crate::codec`] image of the slice —
//! its own corpus-fingerprint section, section table and per-section
//! CRC-32s. The header's [`SEGMENT_FORMAT_VERSION`] is the one version
//! of the whole file, codec image included: a file of any other version
//! is rejected as stale and rebuilt, never migrated. Sealed segments
//! hold exactly `SegmentPolicy::capacity` snapshot files and never
//! change once written; the youngest segment is the *active tail* and
//! is rewritten in place as the corpus grows, so append cost is bounded
//! by the tail, not the history.
//!
//! The header duplicates just enough of the payload (span, counts, the
//! identity digest of the fingerprint slice) that a manifest can be
//! recovered from segment files alone without decoding any payload.
//!
//! Like the codec image, encoding is fully deterministic: the same
//! slice of history encodes to the same bytes whoever builds it, at any
//! thread count — which is what lets a damaged segment be repaired in
//! place without rewriting the manifest.

use wm_model::Timestamp;

use crate::codec::{self, CacheError, CorpusFingerprint};
use crate::loader::CorpusLoadStats;
use crate::longitudinal::LongitudinalStore;

/// First bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"OVHWMSG\n";

/// Bumped on any incompatible change to the segment layout or to the
/// codec image it wraps.
pub const SEGMENT_FORMAT_VERSION: u32 = 3;

/// Fixed size of the segment header preceding the payload image.
pub const SEGMENT_HEADER_LEN: usize = 56;

/// The CRC-protected header of one segment file.
///
/// `t_min`/`t_max` are the *closed* span of the snapshot-file
/// timestamps the segment covers (every segment holds at least one
/// file, so the span is always meaningful). `entries` counts corpus
/// files, `snapshots` the subset that parsed; `meta_digest` is the
/// [`identity_digest`] of the covered files, the value the manifest
/// uses to decide whether a segment still matches the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Timestamp of the oldest covered snapshot file.
    pub t_min: Timestamp,
    /// Timestamp of the newest covered snapshot file.
    pub t_max: Timestamp,
    /// Number of corpus files covered.
    pub entries: u64,
    /// Number of those files that parsed into snapshots.
    pub snapshots: u64,
    /// [`identity_digest`] over the covered `(path, size)` pairs.
    pub meta_digest: u64,
}

/// Order-sensitive digest over `(path, size)` pairs.
///
/// This is the cheap identity a windowed load can recompute from a
/// directory enumeration alone: no file contents are read, though every
/// listed file's path and size are. The full content hashes still live
/// in each segment's fingerprint section but are not checked on load,
/// so a same-size in-place edit goes unnoticed; that trade-off is
/// documented in DESIGN.md decision 14.
#[must_use]
pub fn identity_digest<'a, I>(parts: I) -> u64
where
    I: IntoIterator<Item = (&'a str, u64)>,
{
    parts.into_iter().fold(IDENTITY_SEED, |h, (path, size)| {
        identity_step(h, path, size)
    })
}

/// [`identity_digest`] of no pairs.
pub(crate) const IDENTITY_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// [`identity_digest`] folded over one more pair, for a caller that
/// renders each path into a reused buffer.
pub(crate) fn identity_step(h: u64, path: &str, size: u64) -> u64 {
    (h ^ codec::content_hash(path.as_bytes()) ^ size).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The identity digest of a fingerprint's `(path, size)` pairs.
#[must_use]
pub fn fingerprint_identity(fingerprint: &CorpusFingerprint) -> u64 {
    identity_digest(
        fingerprint
            .entries
            .iter()
            .map(|e| (e.path.as_str(), e.size)),
    )
}

/// Encodes one segment: header plus a full codec image of the slice.
#[must_use]
pub fn encode_segment(
    header: &SegmentHeader,
    store: &LongitudinalStore,
    fingerprint: &CorpusFingerprint,
    stats: &CorpusLoadStats,
) -> Vec<u8> {
    let mut body = codec::Writer { buf: Vec::new() };
    body.i64(header.t_min.unix());
    body.i64(header.t_max.unix());
    body.u64(header.entries);
    body.u64(header.snapshots);
    body.u64(header.meta_digest);
    let mut bytes = codec::frame(&SEGMENT_MAGIC, SEGMENT_FORMAT_VERSION, &body.buf);
    bytes.extend_from_slice(&codec::encode_store(store, fingerprint, stats));
    bytes
}

/// Decodes and validates a segment header without touching the payload.
pub fn decode_segment_header(bytes: &[u8]) -> Result<SegmentHeader, CacheError> {
    let framed = bytes.get(..SEGMENT_HEADER_LEN).unwrap_or(bytes);
    let body = codec::unframe(
        framed,
        &SEGMENT_MAGIC,
        SEGMENT_FORMAT_VERSION,
        "segment header",
    )?;
    let mut b = codec::Reader::new(body);
    let t_min = Timestamp::from_unix(b.i64("segment t_min")?);
    let t_max = Timestamp::from_unix(b.i64("segment t_max")?);
    let entries = b.u64("segment entry count")?;
    let snapshots = b.u64("segment snapshot count")?;
    let meta_digest = b.u64("segment digest")?;
    if t_max < t_min {
        return Err(CacheError::Invalid("segment time span is inverted"));
    }
    if snapshots > entries {
        return Err(CacheError::Invalid(
            "segment counts more snapshots than files",
        ));
    }
    Ok(SegmentHeader {
        t_min,
        t_max,
        entries,
        snapshots,
        meta_digest,
    })
}

/// Decodes a whole segment file, cross-checking payload against header.
pub fn decode_segment(
    bytes: &[u8],
) -> Result<
    (
        SegmentHeader,
        LongitudinalStore,
        CorpusFingerprint,
        CorpusLoadStats,
    ),
    CacheError,
> {
    let header = decode_segment_header(bytes)?;
    let payload = bytes.get(SEGMENT_HEADER_LEN..).unwrap_or(&[]);
    let (store, fingerprint, stats) = codec::decode_store(payload)?;
    if store.len() as u64 != header.snapshots {
        return Err(CacheError::Invalid("segment snapshot count mismatch"));
    }
    if fingerprint.len() as u64 != header.entries {
        return Err(CacheError::Invalid("segment entry count mismatch"));
    }
    if fingerprint_identity(&fingerprint) != header.meta_digest {
        return Err(CacheError::Invalid("segment identity digest mismatch"));
    }
    let timestamps = store.timestamps();
    if let (Some(&first), Some(&last)) = (timestamps.first(), timestamps.last()) {
        if first < header.t_min || last > header.t_max {
            return Err(CacheError::Invalid("segment snapshots outside header span"));
        }
    }
    Ok((header, store, fingerprint, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FingerprintEntry;
    use crate::longitudinal::ColumnarBuilder;
    use wm_model::{Duration, Link, LinkEnd, Load, MapKind, Node, TopologySnapshot};

    fn snapshot(t: Timestamp, load: u8) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, t);
        s.nodes = vec![Node::from_name("par-g1"), Node::from_name("rbx-g2")];
        s.links = vec![Link::new(
            LinkEnd::new(
                Node::from_name("par-g1"),
                Some("#1".to_owned()),
                Load::new(load).unwrap(),
            ),
            LinkEnd::new(
                Node::from_name("rbx-g2"),
                Some("#1".to_owned()),
                Load::new(load / 2).unwrap(),
            ),
        )];
        s
    }

    fn sample() -> (
        SegmentHeader,
        LongitudinalStore,
        CorpusFingerprint,
        CorpusLoadStats,
    ) {
        let t0 = Timestamp::from_ymd(2022, 2, 1);
        let snaps: Vec<TopologySnapshot> = (0..3)
            .map(|i| snapshot(t0 + Duration::from_minutes(5 * i), 40 + i as u8))
            .collect();
        let mut builder = ColumnarBuilder::default();
        for (i, s) in snaps.iter().enumerate() {
            builder.add_snapshot(i, s);
        }
        let store = ColumnarBuilder::finish(vec![builder]);
        let fingerprint = CorpusFingerprint {
            entries: (0u64..3)
                .map(|i| FingerprintEntry {
                    path: format!("europe/yaml/2022/02/01/00{:02}.yaml", 5 * i),
                    size: 100 + i,
                    hash: 7 * (i + 1),
                })
                .collect(),
        };
        let stats = CorpusLoadStats {
            files: 3,
            parsed: 3,
            bytes: 303,
            ..CorpusLoadStats::default()
        };
        let header = SegmentHeader {
            t_min: t0,
            t_max: t0 + Duration::from_minutes(10),
            entries: 3,
            snapshots: 3,
            meta_digest: fingerprint_identity(&fingerprint),
        };
        (header, store, fingerprint, stats)
    }

    #[test]
    fn segment_round_trip_is_exact() {
        let (header, store, fp, stats) = sample();
        let bytes = encode_segment(&header, &store, &fp, &stats);
        assert_eq!(decode_segment_header(&bytes).unwrap(), header);
        let (h2, s2, fp2, st2) = decode_segment(&bytes).unwrap();
        assert_eq!(h2, header);
        assert_eq!(s2, store);
        assert_eq!(fp2, fp);
        assert_eq!(st2, stats);
        // Deterministic: re-encoding the decoded slice is byte-identical.
        assert_eq!(encode_segment(&h2, &s2, &fp2, &st2), bytes);
    }

    #[test]
    fn damaged_segments_are_rejected() {
        let (header, store, fp, stats) = sample();
        let bytes = encode_segment(&header, &store, &fp, &stats);

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_segment(&bad_magic),
            Err(CacheError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[8] = 0xAB;
        assert!(matches!(
            decode_segment(&bad_version),
            Err(CacheError::UnsupportedVersion(0xAB))
        ));

        let mut flipped_header = bytes.clone();
        flipped_header[20] ^= 0x01;
        assert!(matches!(
            decode_segment(&flipped_header),
            Err(CacheError::ChecksumMismatch { .. })
        ));

        let mut flipped_payload = bytes.clone();
        let last = flipped_payload.len() - 1;
        flipped_payload[last] ^= 0x01;
        assert!(decode_segment(&flipped_payload).is_err());

        for cut in [0, 4, 20, SEGMENT_HEADER_LEN, bytes.len() - 1] {
            assert!(
                decode_segment(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }

        // A valid payload under a header whose digest disagrees.
        let mut lying = header;
        lying.meta_digest ^= 1;
        let relabelled = encode_segment(&lying, &store, &fp, &stats);
        assert!(matches!(
            decode_segment(&relabelled),
            Err(CacheError::Invalid(_))
        ));
    }

    #[test]
    fn every_truncation_and_byte_flip_is_rejected() {
        let (header, store, fp, stats) = sample();
        let bytes = encode_segment(&header, &store, &fp, &stats);
        // Decoding returns a `CacheError` and never panics. Every byte is
        // checked by the magic, the version, the header CRC, the section
        // table or a section CRC, so no flip decodes either.
        for len in 0..bytes.len() {
            assert!(
                decode_segment(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0xFF;
            assert!(
                decode_segment(&flipped).is_err(),
                "a flip at byte {pos} must not decode"
            );
        }
    }

    #[test]
    fn identity_digest_is_order_and_content_sensitive() {
        let a = identity_digest([("x", 1), ("y", 2)]);
        assert_eq!(a, identity_digest([("x", 1), ("y", 2)]));
        assert_ne!(a, identity_digest([("y", 2), ("x", 1)]));
        assert_ne!(a, identity_digest([("x", 2), ("y", 2)]));
        assert_ne!(a, identity_digest([("x", 1)]));
        let empty: [(&str, u64); 0] = [];
        assert_ne!(identity_digest(empty), 0);
    }
}
