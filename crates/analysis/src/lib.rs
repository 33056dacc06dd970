//! Analyses of the OVH Weather dataset — §5 of the paper as a library.
//!
//! Each module regenerates one of the paper's evaluation artifacts from
//! extracted [`wm_model::TopologySnapshot`]s:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`timeframe`] | Fig. 2 (coverage segments), Fig. 3 (gap distribution) |
//! | [`evolution`] | Fig. 4a (routers), Fig. 4b (internal/external links) |
//! | [`degree`] | Fig. 4c (router-degree CCDF) |
//! | [`loads`] | Fig. 5a (loads by hour of day), Fig. 5b (load CDFs) |
//! | [`imbalance`] | Fig. 5c (ECMP imbalance CDFs) |
//! | [`upgrades`] | Fig. 6 (link-upgrade forensics + PeeringDB correlation) |
//! | [`tables`] | Table 1 (network size summary) |
//! | [`sites`] | §5's future work: per-site growth from router names |
//! | [`maintenance`] | §6's future work: disabled-link (maintenance) windows |
//!
//! (Table 2's corpus bookkeeping lives in `wm-dataset`, next to the file
//! store it measures.) The building blocks — empirical distributions,
//! quantiles, CDF/CCDF — are in [`stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degree;
pub mod evolution;
pub mod imbalance;
pub mod loads;
pub mod maintenance;
pub mod sites;
pub mod stats;
pub mod suite;
pub mod tables;
pub mod timeframe;
pub mod upgrades;

pub use degree::DegreeAnalysis;
pub use evolution::{
    detect_changes, evolution_series, ChangeEvent, EvolutionPoint, EvolutionReport,
};
pub use imbalance::{group_imbalances, GroupImbalance, ImbalanceCdf};
pub use loads::{HourlyLoads, LoadCdf};
pub use maintenance::{
    disabled_fraction, maintenance_windows, LinkKey, MaintenanceReport, MaintenanceWindow,
};
pub use sites::{site_counts, site_growth, SiteCounts, SiteGrowth};
pub use stats::{Distribution, WhiskerSummary};
pub use suite::{AnalysisSuite, SuiteConfig, SuiteReport};
pub use tables::{table1, Table1, Table1Row};
pub use timeframe::{coverage_segments, CoverageSegment, GapDistribution, TimeframeReport};
pub use upgrades::{
    detect_upgrade, observe_group, CapacityRecord, UpgradeOutcome, UpgradeReport, UpgradeTarget,
};
