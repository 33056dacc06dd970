//! Bidirectional weathermap links.

use std::fmt;

use crate::{Load, Node, NodeKind};

/// Whether a link is internal to the OVH backbone or crosses into a
/// peering (§5 of the paper discriminates the two throughout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkKind {
    /// Both endpoints are OVH routers.
    Internal,
    /// One endpoint is a physical peering.
    External,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkKind::Internal => "internal",
            LinkKind::External => "external",
        })
    }
}

/// One end of a bidirectional link.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkEnd {
    /// The node this end connects to.
    pub node: Node,
    /// The `#n` label attributed to this end, when present.
    ///
    /// Labels are not unique across parallel links (the paper observes
    /// non-unique VODAFONE labels), so they carry no identity semantics.
    pub label: Option<String>,
    /// Load of the arrow *leaving* this end towards the other end.
    pub egress_load: Load,
}

impl LinkEnd {
    /// Creates a link end.
    #[must_use]
    pub fn new(node: Node, label: Option<String>, egress_load: Load) -> LinkEnd {
        LinkEnd {
            node,
            label,
            egress_load,
        }
    }
}

/// A bidirectional link between two nodes, with one load per direction.
///
/// On the weathermap a link is drawn as two meeting arrows; each arrow
/// reports the load in its direction. `a` and `b` have no intrinsic
/// order — use [`Link::canonicalized`] before comparing snapshots.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    /// First end.
    pub a: LinkEnd,
    /// Second end.
    pub b: LinkEnd,
}

impl Link {
    /// Creates a link between two ends.
    #[must_use]
    pub fn new(a: LinkEnd, b: LinkEnd) -> Link {
        Link { a, b }
    }

    /// Internal when both ends are OVH routers, external otherwise.
    #[must_use]
    pub fn kind(&self) -> LinkKind {
        if self.a.node.kind == NodeKind::Router && self.b.node.kind == NodeKind::Router {
            LinkKind::Internal
        } else {
            LinkKind::External
        }
    }

    /// `true` when either direction carries zero load (the weathermap
    /// convention for a disabled link is a `0 %` level).
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.a.egress_load.is_disabled() && self.b.egress_load.is_disabled()
    }

    /// The unordered endpoint-name pair, lexicographically sorted — the
    /// grouping key for parallel links.
    #[must_use]
    pub fn endpoint_key(&self) -> (&str, &str) {
        let (x, y) = (self.a.node.name.as_str(), self.b.node.name.as_str());
        if x <= y {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// Returns `true` when both ends attach to the same node — forbidden
    /// by the extraction sanity checks ("a link is not connected to two
    /// (distinct) routers").
    #[must_use]
    pub fn is_self_loop(&self) -> bool {
        self.a.node.name == self.b.node.name
    }

    /// The end attached to `node`, if any.
    #[must_use]
    pub fn end_at(&self, node: &str) -> Option<&LinkEnd> {
        if self.a.node.name == node {
            Some(&self.a)
        } else if self.b.node.name == node {
            Some(&self.b)
        } else {
            None
        }
    }

    /// The load leaving `from` on this link, if `from` is an endpoint.
    #[must_use]
    pub fn egress_load_from(&self, from: &str) -> Option<Load> {
        self.end_at(from).map(|e| e.egress_load)
    }

    /// Returns the link with ends ordered so that `a.node.name <=
    /// b.node.name`, giving snapshots a canonical form for comparison.
    #[must_use]
    pub fn canonicalized(self) -> Link {
        if self.a.node.name <= self.b.node.name {
            self
        } else {
            Link {
                a: self.b,
                b: self.a,
            }
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) <-> {} ({})",
            self.a.node, self.a.egress_load, self.b.node, self.b.egress_load
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(a: &str, la: u8, b: &str, lb: u8) -> Link {
        Link::new(
            LinkEnd::new(
                Node::from_name(a),
                Some("#1".into()),
                Load::new(la).unwrap(),
            ),
            LinkEnd::new(
                Node::from_name(b),
                Some("#1".into()),
                Load::new(lb).unwrap(),
            ),
        )
    }

    #[test]
    fn kind_classification() {
        assert_eq!(link("fra-fr5", 10, "rbx-g1", 20).kind(), LinkKind::Internal);
        assert_eq!(link("fra-fr5", 42, "ARELION", 9).kind(), LinkKind::External);
        assert_eq!(link("AMS-IX", 1, "fra-fr5", 2).kind(), LinkKind::External);
    }

    #[test]
    fn disabled_links() {
        assert!(link("a-1", 0, "b-1", 0).is_disabled());
        assert!(!link("a-1", 0, "b-1", 5).is_disabled());
    }

    #[test]
    fn endpoint_key_is_order_free() {
        let l1 = link("fra-fr5", 1, "rbx-g1", 2);
        let l2 = link("rbx-g1", 9, "fra-fr5", 8);
        assert_eq!(l1.endpoint_key(), l2.endpoint_key());
    }

    #[test]
    fn self_loops_detected() {
        assert!(link("a-1", 1, "a-1", 2).is_self_loop());
        assert!(!link("a-1", 1, "b-1", 2).is_self_loop());
    }

    #[test]
    fn directional_loads() {
        let l = link("fra-fr5", 42, "ARELION", 9);
        assert_eq!(l.egress_load_from("fra-fr5").unwrap().percent(), 42);
        assert_eq!(l.egress_load_from("ARELION").unwrap().percent(), 9);
        assert!(l.egress_load_from("nowhere").is_none());
    }

    #[test]
    fn canonical_order() {
        let l = link("zzz-1", 1, "aaa-1", 2).canonicalized();
        assert_eq!(l.a.node.name, "aaa-1");
        let l2 = link("aaa-1", 2, "zzz-1", 1).canonicalized();
        assert_eq!(l, l2);
    }

    #[test]
    fn display_mentions_both_ends() {
        let s = link("fra-fr5", 42, "ARELION", 9).to_string();
        assert!(s.contains("fra-fr5") && s.contains("ARELION"));
        assert!(s.contains("42 %") && s.contains("9 %"));
    }
}
