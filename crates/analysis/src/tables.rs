//! Table 1 — the network-size summary.

use std::collections::BTreeSet;

use wm_model::{MapKind, TopologySnapshot};

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// The map.
    pub map: MapKind,
    /// OVH routers on the map.
    pub routers: usize,
    /// Internal links.
    pub internal_links: usize,
    /// External links.
    pub external_links: usize,
}

/// The assembled Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// Per-map rows, in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Total routers, de-duplicated by name across maps (the paper's
    /// "total takes into account routers appearing simultaneously in
    /// several maps").
    pub total_routers: usize,
    /// Total internal links (plain sum).
    pub total_internal: usize,
    /// Total external links (plain sum).
    pub total_external: usize,
}

/// Builds Table 1 from one snapshot per map (same capture date).
#[must_use]
pub fn table1(snapshots: &[TopologySnapshot]) -> Table1 {
    let mut rows = Vec::new();
    let mut router_names: BTreeSet<&str> = BTreeSet::new();
    let mut total_internal = 0;
    let mut total_external = 0;
    for map in MapKind::ALL {
        let Some(snapshot) = snapshots.iter().find(|s| s.map == map) else {
            continue;
        };
        rows.push(Table1Row {
            map,
            routers: snapshot.router_count(),
            internal_links: snapshot.internal_link_count(),
            external_links: snapshot.external_link_count(),
        });
        total_internal += snapshot.internal_link_count();
        total_external += snapshot.external_link_count();
        for router in snapshot.routers() {
            router_names.insert(router.name.as_str());
        }
    }
    Table1 {
        rows,
        total_routers: router_names.len(),
        total_internal,
        total_external,
    }
}

impl Table1 {
    /// Renders the paper's table layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<15} {:>12} {:>15} {:>15}\n",
            "Network Map", "OVH routers", "Internal links", "External links"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<15} {:>12} {:>15} {:>15}\n",
                row.map.display_name(),
                row.routers,
                row.internal_links,
                row.external_links
            ));
        }
        out.push_str(&format!(
            "{:<15} {:>12} {:>15} {:>15}\n",
            "Total", self.total_routers, self.total_internal, self.total_external
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, Node, Timestamp};

    fn snapshot(
        map: MapKind,
        routers: &[&str],
        internal: usize,
        external: usize,
    ) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(map, Timestamp::from_unix(0));
        for r in routers {
            s.nodes.push(Node::router(*r));
        }
        s.nodes.push(Node::peering("PEER"));
        let link = |a: Node, b: Node| {
            Link::new(
                LinkEnd::new(a, None, Load::ZERO),
                LinkEnd::new(b, None, Load::ZERO),
            )
        };
        for i in 0..internal {
            s.links.push(link(
                Node::router(routers[i % routers.len()]),
                Node::router(routers[(i + 1) % routers.len()]),
            ));
        }
        for _ in 0..external {
            s.links
                .push(link(Node::router(routers[0]), Node::peering("PEER")));
        }
        s
    }

    #[test]
    fn rows_and_totals() {
        let snaps = vec![
            snapshot(MapKind::Europe, &["eu-1", "eu-2", "shared-1"], 4, 2),
            snapshot(MapKind::World, &["shared-1", "shared-2"], 3, 0),
            snapshot(MapKind::NorthAmerica, &["na-1", "shared-2"], 2, 1),
        ];
        let table = table1(&snaps);
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.rows[0].map, MapKind::Europe);
        assert_eq!(table.rows[0].routers, 3);
        // 3 + 2 + 2 router entries but shared-1/shared-2 dedup → 5 unique.
        assert_eq!(table.total_routers, 5);
        assert_eq!(table.total_internal, 9);
        assert_eq!(table.total_external, 3);
    }

    #[test]
    fn missing_maps_are_skipped() {
        let snaps = vec![snapshot(MapKind::Europe, &["eu-1"], 1, 1)];
        let table = table1(&snaps);
        assert_eq!(table.rows.len(), 1);
    }

    #[test]
    fn render_includes_all_rows_and_total() {
        let snaps = vec![
            snapshot(MapKind::Europe, &["eu-1"], 1, 1),
            snapshot(MapKind::AsiaPacific, &["ap-1"], 1, 1),
        ];
        let rendered = table1(&snaps).render();
        assert!(rendered.contains("Europe"));
        assert!(rendered.contains("Asia Pacific"));
        assert!(rendered.contains("Total"));
        assert_eq!(rendered.lines().count(), 4);
    }
}
