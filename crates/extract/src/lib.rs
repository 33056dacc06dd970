//! The extraction pipeline of the OVH Weather dataset paper.
//!
//! This crate is the reproduction's core contribution: it turns a flat,
//! unstructured weathermap SVG into a typed [`wm_model::TopologySnapshot`] exactly
//! as §4 of the paper describes.
//!
//! * [`mod@algorithm1`] — *SVG parsing to objects*: one pass over the flat
//!   element list, dispatching on class/tag to collect router boxes,
//!   arrow-polygon pairs with their two load percentages, and label
//!   boxes. Relationships are encoded purely by document order.
//! * [`mod@algorithm2`] — *object attribution*: for each link, the straight
//!   line through the two arrow bases; routers and labels intersecting
//!   it; closest-first attachment per end with single-use labels.
//! * Sanity checks — loads within `[0, 100]`, two arrows per link, label
//!   within a few pixels of its end, labels used once, links connecting
//!   two distinct routers, every router linked.
//! * [`snapshot_yaml`] — the YAML output schema and its lossless parser.
//! * [`mod@validate`] — a standalone snapshot validator for corpus audits
//!   (§6's "researchers could further validate the extracted data").
//! * [`pipeline`] — the per-file step every extraction driver runs,
//!   [`Extractor`], whose tallies reproduce Table 2's
//!   processed/unprocessed bookkeeping; an in-memory batch driver over
//!   it; and [`claim_each`], the worker pool the extract loop, the
//!   corpus loader and the query kernels share.
//! * [`metrics`] — per-stage wall-time histograms and throughput
//!   counters recorded lock-free by each worker's [`Extractor`].
//!
//! The extractor is deliberately *blind*: it consumes only SVG bytes and
//! shares no code with the simulator's renderer. Integration tests render
//! topologies with `wm-simulator` and verify the extraction recovers the
//! ground truth exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod algorithm2;
pub mod error;
pub mod metrics;
pub mod pipeline;
pub mod snapshot_yaml;
pub mod validate;

pub use algorithm1::{algorithm1, algorithm1_into, RawLabel, RawLink, RawObjects, RawRouter};
pub use algorithm2::{algorithm2, algorithm2_with, AttributionScratch, ExtractConfig};
pub use error::ExtractError;
pub use metrics::{
    BatchMetrics, BroadPhaseStats, CacheStats, Histogram, KernelStats, MetricsTotals, Stage,
};
pub use pipeline::{
    claim_each, default_threads, extract_batch_with, extract_svg, svg_text, BatchInput, BatchStats,
    Extractor, Scheduling,
};
pub use snapshot_yaml::{
    from_yaml_str, read_snapshot, to_yaml_string, EndRef, SchemaError, SnapshotVisitor, SCHEMA_ID,
};
pub use validate::{validate, Finding, Severity, ValidationReport};
