//! On-disk corpus management for the OVH Weather dataset reproduction.
//!
//! The released dataset is a tree of files: the raw SVG snapshots as
//! collected every five minutes, and the processed YAML files next to
//! them. This crate provides the equivalent local store:
//!
//! * [`paths`] — the path layout
//!   (`<map>/<kind>/<YYYY>/<MM>/<DD>/<HHMM>.<ext>`) with a reversible
//!   timestamp codec, so a file's snapshot instant comes from its path;
//! * [`DatasetStore`] — writing, reading and enumerating snapshot files;
//! * [`CorpusStats`] — the per-map file-count/size aggregation reported in
//!   the paper's Table 2;
//! * [`longitudinal`] — the columnar longitudinal store: interned
//!   node/link symbol tables, per-link load time series and the topology
//!   event log, built in one deterministic streaming pass;
//! * [`loader`] — the shared parallel YAML corpus loader feeding either a
//!   snapshot vector or the columnar store;
//! * [`codec`] — the versioned, checksummed binary image of a built
//!   store, the payload every segment file wraps;
//! * [`query`] — the vectorized query engine: typed [`wm_model::Query`]
//!   plans compiled to per-column kernels (scan, top-k, windowed
//!   percentiles, site loads, heatmap bucketing) that run directly over
//!   the CSR load rows, deterministically at any thread count;
//! * [`segment`] / [`segments`] — the time-sharded segment store:
//!   sealed immutable window segments plus an active tail, a manifest
//!   mapping time spans to segment files, windowed loads
//!   ([`build_longitudinal_windowed`]) that decode only intersecting
//!   segments, and synchronous compaction ([`reindex_segments`]). It is
//!   the one persistent store: a whole-history load is the window
//!   [`wm_model::TimeRange::ALL`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod loader;
pub mod longitudinal;
pub mod paths;
pub mod query;
pub mod segment;
pub mod segments;
mod stats;
mod store;

pub use codec::{
    decode_store, encode_store, CacheError, CorpusFingerprint, FingerprintEntry, CACHE_MAGIC,
};
pub use loader::{build_longitudinal, CacheMode, CorpusLoadStats};
pub use longitudinal::{
    extract_longitudinal, ColumnarBuilder, LinkDef, LinkId, LinkSample, LongitudinalStore, NodeId,
    TopologyEvent,
};
pub use paths::{parse_path, relative_path, FileKind};
pub use query::{query_windowed, QueryEngine, QueryPlan, RowView};
pub use segment::{
    decode_segment, decode_segment_header, encode_segment, identity_digest, SegmentHeader,
    SEGMENT_FORMAT_VERSION, SEGMENT_MAGIC,
};
pub use segments::{
    build_longitudinal_windowed, build_longitudinal_windowed_with, decode_manifest,
    encode_manifest, reindex_segments, reindex_segments_with, segment_name, write_manifest,
    SegmentManifest, SegmentMeta, SegmentPolicy, MANIFEST_FORMAT_VERSION, MANIFEST_MAGIC,
};
pub use stats::{CellStats, CorpusStats};
pub use store::{DatasetEntry, DatasetStore};
