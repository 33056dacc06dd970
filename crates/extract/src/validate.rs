//! Standalone snapshot validation.
//!
//! §6 of the paper invites researchers to "further validate the extracted
//! data". The extraction pipeline already refuses structurally broken
//! SVGs; this module validates *snapshots* — whether fresh from
//! extraction or re-read from the released YAML corpus — against the
//! dataset's documented invariants, producing a structured report instead
//! of a hard failure so corpus-wide audits can tally problems.

use std::collections::BTreeMap;

use wm_model::{MapKind, NodeKind, TopologySnapshot};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly legitimate (e.g. an unusual label format).
    Warning,
    /// A violation of the dataset's invariants.
    Error,
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `self-loop`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// The outcome of validating one snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// All findings, errors first.
    pub findings: Vec<Finding>,
}

impl ValidationReport {
    /// `true` when no findings of any severity were produced.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when no [`Severity::Error`] finding was produced.
    #[must_use]
    pub fn is_acceptable(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Error)
    }

    /// The error findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Tally of findings per code — corpus audits sum these across files.
    #[must_use]
    pub fn tally(&self) -> BTreeMap<&'static str, usize> {
        let mut tally = BTreeMap::new();
        for finding in &self.findings {
            *tally.entry(finding.code).or_default() += 1;
        }
        tally
    }

    fn push(&mut self, severity: Severity, code: &'static str, message: String) {
        self.findings.push(Finding {
            severity,
            code,
            message,
        });
    }
}

/// Validates one snapshot against the dataset invariants.
#[must_use]
pub fn validate(snapshot: &TopologySnapshot) -> ValidationReport {
    let mut report = ValidationReport::default();

    // Duplicate node names.
    let mut names: Vec<&str> = snapshot.nodes.iter().map(|n| n.name.as_str()).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        if let [a, b] = pair {
            if a == b {
                report.push(
                    Severity::Error,
                    "duplicate-node",
                    format!("node {a:?} appears more than once"),
                );
            }
        }
    }

    // Node-name/kind convention.
    for node in &snapshot.nodes {
        if NodeKind::classify(&node.name) != node.kind {
            report.push(
                Severity::Warning,
                "kind-convention",
                format!(
                    "node {:?} is recorded as {} but its case suggests {}",
                    node.name,
                    node.kind,
                    NodeKind::classify(&node.name)
                ),
            );
        }
    }

    // Links: endpoints exist, no self loops, no peering-peering links,
    // labels look like `#n`.
    for (i, link) in snapshot.links.iter().enumerate() {
        for end in [&link.a, &link.b] {
            if snapshot.node(&end.node.name).is_none() {
                report.push(
                    Severity::Error,
                    "unknown-endpoint",
                    format!("link #{i} references unknown node {:?}", end.node.name),
                );
            }
            if let Some(label) = &end.label {
                let well_formed = label
                    .strip_prefix('#')
                    .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()));
                if !well_formed {
                    report.push(
                        Severity::Warning,
                        "odd-label",
                        format!("link #{i} has an unusual label {label:?}"),
                    );
                }
            }
        }
        if link.is_self_loop() {
            report.push(
                Severity::Error,
                "self-loop",
                format!("link #{i} connects {:?} to itself", link.a.node.name),
            );
        }
        if link.a.node.kind == NodeKind::Peering && link.b.node.kind == NodeKind::Peering {
            report.push(
                Severity::Error,
                "peering-peering",
                format!(
                    "link #{i} joins two peerings ({:?}, {:?})",
                    link.a.node.name, link.b.node.name
                ),
            );
        }
    }

    // Every node attached to at least one link (§4's completion check;
    // a warning here because corpus re-reads may legitimately trim links).
    for node in &snapshot.nodes {
        if snapshot.degree(&node.name) == 0 {
            report.push(
                Severity::Warning,
                "isolated-node",
                format!("node {:?} has no links", node.name),
            );
        }
    }

    // Map conventions: the World map has no peerings.
    if snapshot.map == MapKind::World && snapshot.peerings().count() > 0 {
        report.push(
            Severity::Warning,
            "world-peering",
            "the World map is documented as containing no peerings".to_owned(),
        );
    }

    report
        .findings
        .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(b.code)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, Node, Timestamp};

    fn clean_snapshot() -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(0));
        s.nodes.push(Node::router("rbx-g1"));
        s.nodes.push(Node::peering("AMS-IX"));
        s.links.push(Link::new(
            LinkEnd::new(
                Node::router("rbx-g1"),
                Some("#1".into()),
                Load::new(10).unwrap(),
            ),
            LinkEnd::new(
                Node::peering("AMS-IX"),
                Some("#1".into()),
                Load::new(5).unwrap(),
            ),
        ));
        s
    }

    #[test]
    fn clean_snapshot_passes() {
        let report = validate(&clean_snapshot());
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.is_acceptable());
    }

    #[test]
    fn duplicate_nodes_flagged() {
        let mut s = clean_snapshot();
        s.nodes.push(Node::router("rbx-g1"));
        let report = validate(&s);
        assert!(!report.is_acceptable());
        assert_eq!(report.tally()["duplicate-node"], 1);
    }

    #[test]
    fn unknown_endpoint_flagged() {
        let mut s = clean_snapshot();
        s.links.push(Link::new(
            LinkEnd::new(Node::router("ghost-r1"), None, Load::ZERO),
            LinkEnd::new(Node::router("rbx-g1"), None, Load::ZERO),
        ));
        let report = validate(&s);
        assert!(report.errors().any(|f| f.code == "unknown-endpoint"));
    }

    #[test]
    fn self_loop_flagged() {
        let mut s = clean_snapshot();
        s.links.push(Link::new(
            LinkEnd::new(Node::router("rbx-g1"), None, Load::ZERO),
            LinkEnd::new(Node::router("rbx-g1"), None, Load::ZERO),
        ));
        assert!(validate(&s).errors().any(|f| f.code == "self-loop"));
    }

    #[test]
    fn peering_peering_flagged() {
        let mut s = clean_snapshot();
        s.nodes.push(Node::peering("DE-CIX"));
        s.links.push(Link::new(
            LinkEnd::new(Node::peering("AMS-IX"), None, Load::ZERO),
            LinkEnd::new(Node::peering("DE-CIX"), None, Load::ZERO),
        ));
        assert!(validate(&s).errors().any(|f| f.code == "peering-peering"));
    }

    #[test]
    fn isolated_node_is_a_warning_only() {
        let mut s = clean_snapshot();
        s.nodes.push(Node::router("gra-g1"));
        let report = validate(&s);
        assert!(report.is_acceptable());
        assert!(report.findings.iter().any(|f| f.code == "isolated-node"));
    }

    #[test]
    fn odd_labels_warned() {
        let mut s = clean_snapshot();
        s.links[0].a.label = Some("link-1".into());
        let report = validate(&s);
        assert!(report.is_acceptable());
        assert!(report.findings.iter().any(|f| f.code == "odd-label"));
        // "#12" is fine; "#" and "#x" are not.
        s.links[0].a.label = Some("#12".into());
        assert!(validate(&s).findings.iter().all(|f| f.code != "odd-label"));
    }

    #[test]
    fn kind_convention_mismatch_warned() {
        let mut s = clean_snapshot();
        s.nodes.push(Node {
            name: "UPPER-NAME".into(),
            kind: NodeKind::Router,
        });
        let report = validate(&s);
        assert!(report.findings.iter().any(|f| f.code == "kind-convention"));
    }

    #[test]
    fn world_map_with_peerings_warned() {
        let mut s = clean_snapshot();
        s.map = MapKind::World;
        let report = validate(&s);
        assert!(report.findings.iter().any(|f| f.code == "world-peering"));
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut s = clean_snapshot();
        s.nodes.push(Node::router("gra-g1")); // warning
        s.links.push(Link::new(
            LinkEnd::new(Node::router("rbx-g1"), None, Load::ZERO),
            LinkEnd::new(Node::router("rbx-g1"), None, Load::ZERO),
        )); // error
        let report = validate(&s);
        assert_eq!(report.findings[0].severity, Severity::Error);
    }
}
