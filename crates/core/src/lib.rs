//! `ovh-weather` — a full reproduction of *Revealing the Evolution of a
//! Cloud Provider Through its Network Weather Map* (IMC '22).
//!
//! The paper releases two years of five-minute SVG snapshots of the OVH
//! network weathermap together with the scripts that turn those flat
//! images into typed topology files. This crate is the reproduction's
//! front door; the heavy lifting lives in focused sub-crates, all
//! re-exported here:
//!
//! * [`simulator`] — the data-source substitute: an OVH-shaped backbone,
//!   its scripted two-year evolution, a deterministic traffic model, and
//!   an SVG weathermap renderer with collection gaps and file corruption;
//! * [`extract`] — the paper's Algorithms 1 & 2 plus sanity checks,
//!   YAML output and a parallel batch pipeline;
//! * [`dataset`] — the on-disk corpus layout and Table 2 statistics;
//! * [`analysis`] — the evaluation-section analyses (Figures 2–6 and
//!   Table 1);
//! * [`model`], [`geometry`], [`svg`], [`xml`], [`yaml`] — the shared
//!   substrates.
//!
//! # Quickstart
//!
//! ```
//! use ovh_weather::prelude::*;
//!
//! // A deterministic world, scaled down for a fast doc test.
//! let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.05));
//!
//! // Write one hour of the Europe map's SVGs into a corpus directory
//! // and extract each to YAML beside it.
//! let store = DatasetStore::open(std::env::temp_dir().join("ovh-weather-doc"))?;
//! let from = Timestamp::from_ymd(2021, 3, 1);
//! let to = from + Duration::from_hours(1);
//! let outcome = pipeline.materialize_window(&store, MapKind::Europe, from, to)?;
//! assert!(outcome.stats.processed > 0);
//!
//! // Every YAML file reads back as a typed topology.
//! let first = store.entries_of(MapKind::Europe, FileKind::Yaml)?[0].timestamp;
//! let yaml = store.read(MapKind::Europe, FileKind::Yaml, first)?;
//! let snapshot = from_yaml_str(&String::from_utf8_lossy(&yaml)).expect("schema-valid YAML");
//! assert!(snapshot.router_count() > 0 && snapshot.internal_link_count() > 0);
//! std::fs::remove_dir_all(store.root())?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;

pub use pipeline::{extract_to_yaml, ExtractOutcome, Pipeline};

pub use wm_analysis as analysis;
pub use wm_dataset as dataset;
pub use wm_extract as extract;
pub use wm_geometry as geometry;
pub use wm_model as model;
pub use wm_simulator as simulator;
pub use wm_svg as svg;
pub use wm_xml as xml;
pub use wm_yaml as yaml;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::{extract_to_yaml, ExtractOutcome, Pipeline};
    pub use wm_analysis::{
        coverage_segments, detect_changes, detect_upgrade, evolution_series, group_imbalances,
        observe_group, table1, AnalysisSuite, CapacityRecord, DegreeAnalysis, Distribution,
        GapDistribution, HourlyLoads, ImbalanceCdf, LoadCdf, SuiteConfig, SuiteReport,
        WhiskerSummary,
    };
    pub use wm_dataset::{
        build_longitudinal, build_longitudinal_windowed, build_longitudinal_windowed_with,
        query_windowed, reindex_segments, CacheError, CacheMode, CorpusFingerprint,
        CorpusLoadStats, CorpusStats, DatasetStore, FileKind, LinkDef, LinkId, LongitudinalStore,
        NodeId, QueryEngine, QueryPlan, SegmentManifest, SegmentMeta, SegmentPolicy,
    };
    pub use wm_extract::{
        extract_batch_with, extract_svg, from_yaml_str, to_yaml_string, BatchInput, BatchMetrics,
        BatchStats, CacheStats, ExtractConfig, KernelStats, MetricsTotals, Scheduling, Stage,
    };
    pub use wm_model::{
        Duration, HeatmapCell, HeatmapGrid, HotLink, Link, LinkEnd, LinkFilter, LinkKind, Load,
        MapKind, Node, NodeKind, Query, QueryOp, QueryOutput, QueryResult, ScanStats, SiteLoad,
        TimeRange, Timestamp, TopologySnapshot, WindowStats,
    };
    pub use wm_simulator::{Simulation, SimulationConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_common_path() {
        let pipeline = Pipeline::new(SimulationConfig::scaled(1, 0.05));
        let t = Timestamp::from_ymd(2021, 1, 1);
        pipeline.verify_roundtrip(MapKind::Europe, t).unwrap();
    }
}
