//! The columnar longitudinal store: two years of snapshots as time
//! series, not as isolated files.
//!
//! The paper's §5 treats the corpus longitudinally — evolution curves,
//! load distributions, upgrade forensics all scan every snapshot of a
//! map. Materialising a `Vec<TopologySnapshot>` per analysis re-parses
//! and re-allocates the same names and labels hundreds of thousands of
//! times. This module stores one map's history once, in columns:
//!
//! * **Symbol tables** — every distinct [`Node`] and every distinct
//!   canonical link identity get stable ids ([`NodeId`], [`LinkId`])
//!   assigned by *rank* in the sorted table, so ids depend only on the
//!   corpus content, never on discovery or thread order.
//! * **Columns** — per snapshot, the node-id list and the link rows
//!   (link id, per-direction loads, original orientation) in original
//!   snapshot order, laid out in flat arrays with offset tables.
//!   [`LongitudinalStore::snapshot`] reconstructs the original
//!   [`TopologySnapshot`] *exactly*, so every existing analysis runs
//!   unchanged on top of the store.
//! * **Per-link series** — an inverted index from [`LinkId`] to its
//!   rows, sorted by snapshot, giving [`LongitudinalStore::link_series`]
//!   without scanning the whole corpus.
//! * **Event log** — the structural [`wm_model::diff`] between each
//!   consecutive snapshot pair, computed once at build time instead of
//!   recomputed inside each analysis.
//!
//! The store is built by folding snapshots into per-worker
//! [`ColumnarBuilder`]s (a [`SnapshotSink`]) and merging them at join.
//! The merge sorts the symbol tables and orders rows by `(timestamp,
//! input index)`, so the result is byte-identical for any worker count
//! and either scheduling policy — the same contract as the extraction
//! batch runner.

use std::collections::{BTreeMap, BTreeSet};

use wm_extract::{
    extract_batch_sink, BatchInput, BatchMetrics, BatchStats, ExtractConfig, Scheduling,
    SnapshotSink,
};
use wm_model::{
    Link, LinkEnd, LinkKind, Load, MapKind, Node, NodeKind, SnapshotDiff, Timestamp,
    TopologySnapshot,
};

/// Stable identifier of a distinct node within one store.
///
/// Ids are the node's rank in the sorted node table: `NodeId(0)` is the
/// lexicographically smallest `(name, kind)` seen anywhere in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The id as an index into [`LongitudinalStore::nodes`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from its raw rank (cache deserialisation).
    pub(crate) fn from_raw(raw: u32) -> NodeId {
        NodeId(raw)
    }
}

/// Stable identifier of a distinct link identity within one store.
///
/// Ids are the identity's rank in the sorted [`LinkDef`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// The id as an index into [`LongitudinalStore::link_defs`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from its raw rank (query-engine internals).
    pub(crate) fn from_raw(raw: u32) -> LinkId {
        LinkId(raw)
    }
}

/// The canonical identity of one drawn link across snapshots: the
/// endpoint pair ordered by `(name, kind, label)` plus the `#n` labels.
///
/// This mirrors the maintenance analysis' `LinkKey` convention: parallel
/// links are distinguished by label, and links whose labels collide (the
/// paper observes non-unique VODAFONE labels) share one identity — their
/// rows coexist per snapshot and their series interleave.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkDef {
    /// Canonically first endpoint.
    pub a: NodeId,
    /// Canonically second endpoint.
    pub b: NodeId,
    /// Label at the first endpoint, when drawn.
    pub label_a: Option<String>,
    /// Label at the second endpoint, when drawn.
    pub label_b: Option<String>,
}

/// One observation of a link in one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSample {
    /// Index of the snapshot (into [`LongitudinalStore::timestamps`]).
    pub snapshot: usize,
    /// The snapshot instant.
    pub timestamp: Timestamp,
    /// Egress load of the canonical first endpoint.
    pub load_a: Load,
    /// Egress load of the canonical second endpoint.
    pub load_b: Load,
}

impl LinkSample {
    /// `true` when the link read `0 %` in both directions — the
    /// weathermap's signature of a disabled link.
    #[must_use]
    pub fn disabled(&self) -> bool {
        self.load_a.is_disabled() && self.load_b.is_disabled()
    }
}

/// One entry of the topology event log: the structural change between
/// two consecutive snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyEvent {
    /// The older snapshot of the pair.
    pub previous: Timestamp,
    /// The newer snapshot — when the change was first observed.
    pub at: Timestamp,
    /// What changed (non-empty by construction).
    pub diff: SnapshotDiff,
}

/// A per-snapshot row still carrying builder-local ids.
#[derive(Debug, Clone, Copy)]
struct LocalRow {
    def: u32,
    load_a: u8,
    load_b: u8,
    /// `true` when the original link listed the canonical second
    /// endpoint first; preserved so reconstruction is exact.
    flipped: bool,
}

/// A snapshot accepted by a builder, awaiting the merge.
#[derive(Debug, Clone)]
struct PendingSnapshot {
    index: usize,
    map: MapKind,
    timestamp: Timestamp,
    nodes: Vec<u32>,
    rows: Vec<LocalRow>,
}

/// Builder-local link identity (node ids are builder-local too).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct LocalDef {
    a: u32,
    b: u32,
    label_a: Option<String>,
    label_b: Option<String>,
}

/// Per-worker accumulator that folds snapshots into columns.
///
/// Each worker interns nodes and link identities against its own local
/// tables (first-seen order); [`ColumnarBuilder::finish`] merges any
/// number of builders into one [`LongitudinalStore`], re-ranking all ids
/// against the global sorted tables. Because ranking depends only on the
/// set of values seen, the merged store is identical however the inputs
/// were split across builders.
#[derive(Debug, Default)]
pub struct ColumnarBuilder {
    nodes: Vec<Node>,
    node_ids: BTreeMap<Node, u32>,
    defs: Vec<LocalDef>,
    def_ids: BTreeMap<LocalDef, u32>,
    snaps: Vec<PendingSnapshot>,
}

/// A stored load byte as a [`Load`]. Stored bytes come from
/// `Load::percent()` and are valid by construction; a missing or
/// out-of-range byte maps to `0 %` rather than panicking.
fn load_of(byte: Option<&u8>) -> Load {
    byte.and_then(|&b| Load::new(b)).unwrap_or(Load::ZERO)
}

/// The half-open cell range of snapshot `index` in a CSR offset table.
/// Out-of-range indices yield an empty range; inverted offsets (which a
/// well-formed table never holds) clamp to empty instead of panicking.
fn offset_span(offsets: &[u32], index: usize) -> std::ops::Range<usize> {
    let start = offsets.get(index).map_or(0, |&o| o as usize);
    let end = offsets.get(index + 1).map_or(start, |&o| o as usize);
    start..end.max(start)
}

/// The new rank of an old id in a dense rank map. Rank maps are built
/// over the very ids they are applied to, so the lookup cannot miss; a
/// miss (impossible by construction) maps to rank 0 instead of
/// panicking.
fn rank_of(map: &[u32], id: usize) -> u32 {
    map.get(id).copied().unwrap_or(0)
}

/// The total order on link ends that fixes each link's canonical
/// orientation, independent of how the link was drawn.
fn end_key(end: &LinkEnd) -> (&str, NodeKind, Option<&str>) {
    (end.node.name.as_str(), end.node.kind, end.label.as_deref())
}

impl ColumnarBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ColumnarBuilder {
        ColumnarBuilder::default()
    }

    fn intern_node(&mut self, node: &Node) -> u32 {
        if let Some(&id) = self.node_ids.get(node) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node.clone());
        self.node_ids.insert(node.clone(), id);
        id
    }

    fn intern_def(&mut self, def: LocalDef) -> u32 {
        if let Some(&id) = self.def_ids.get(&def) {
            return id;
        }
        let id = self.defs.len() as u32;
        self.defs.push(def.clone());
        self.def_ids.insert(def, id);
        id
    }

    /// Folds one snapshot (input position `index`) into the columns.
    pub fn add_snapshot(&mut self, index: usize, snapshot: &TopologySnapshot) {
        let nodes = snapshot
            .nodes
            .iter()
            .map(|node| self.intern_node(node))
            .collect();
        let rows = snapshot
            .links
            .iter()
            .map(|link| {
                let flipped = end_key(&link.b) < end_key(&link.a);
                let (first, second) = if flipped {
                    (&link.b, &link.a)
                } else {
                    (&link.a, &link.b)
                };
                let def = LocalDef {
                    a: self.intern_node(&first.node),
                    b: self.intern_node(&second.node),
                    label_a: first.label.clone(),
                    label_b: second.label.clone(),
                };
                LocalRow {
                    def: self.intern_def(def),
                    load_a: first.egress_load.percent(),
                    load_b: second.egress_load.percent(),
                    flipped,
                }
            })
            .collect();
        self.snaps.push(PendingSnapshot {
            index,
            map: snapshot.map,
            timestamp: snapshot.timestamp,
            nodes,
            rows,
        });
    }

    /// Merges per-worker builders into the final store.
    ///
    /// Ids become ranks in the globally sorted symbol tables and
    /// snapshots are ordered by `(timestamp, input index)`, so the
    /// result does not depend on how snapshots were distributed over
    /// builders.
    #[must_use]
    pub fn finish(builders: Vec<ColumnarBuilder>) -> LongitudinalStore {
        // Global node table: sorted distinct nodes; id = rank.
        let mut node_set: BTreeSet<Node> = BTreeSet::new();
        for builder in &builders {
            node_set.extend(builder.nodes.iter().cloned());
        }
        let nodes: Vec<Node> = node_set.into_iter().collect();
        let node_rank: BTreeMap<Node, u32> = nodes
            .iter()
            .enumerate()
            .map(|(rank, node)| (node.clone(), rank as u32))
            .collect();
        let node_maps: Vec<Vec<u32>> = builders
            .iter()
            .map(|builder| {
                builder
                    .nodes
                    .iter()
                    .map(|node| node_rank.get(node).copied().unwrap_or(0))
                    .collect()
            })
            .collect();

        // Global link-identity table, same construction.
        let globalize = |def: &LocalDef, node_map: &[u32]| LinkDef {
            a: NodeId(rank_of(node_map, def.a as usize)),
            b: NodeId(rank_of(node_map, def.b as usize)),
            label_a: def.label_a.clone(),
            label_b: def.label_b.clone(),
        };
        let mut def_set: BTreeSet<LinkDef> = BTreeSet::new();
        for (builder, node_map) in builders.iter().zip(&node_maps) {
            def_set.extend(builder.defs.iter().map(|def| globalize(def, node_map)));
        }
        let defs: Vec<LinkDef> = def_set.into_iter().collect();
        let def_rank: BTreeMap<LinkDef, u32> = defs
            .iter()
            .enumerate()
            .map(|(rank, def)| (def.clone(), rank as u32))
            .collect();
        let def_maps: Vec<Vec<u32>> = builders
            .iter()
            .zip(&node_maps)
            .map(|(builder, node_map)| {
                builder
                    .defs
                    .iter()
                    .map(|def| {
                        def_rank
                            .get(&globalize(def, node_map))
                            .copied()
                            .unwrap_or(0)
                    })
                    .collect()
            })
            .collect();

        // Re-rank every pending snapshot, then order by (timestamp,
        // input index) — identical to the batch runner's output order.
        let mut snaps: Vec<PendingSnapshot> = Vec::new();
        for ((mut builder, node_map), def_map) in
            builders.into_iter().zip(&node_maps).zip(&def_maps)
        {
            for snap in &mut builder.snaps {
                for node in &mut snap.nodes {
                    *node = rank_of(node_map, *node as usize);
                }
                for row in &mut snap.rows {
                    row.def = rank_of(def_map, row.def as usize);
                }
            }
            snaps.append(&mut builder.snaps);
        }
        snaps.sort_by_key(|snap| (snap.timestamp, snap.index));

        // Flatten into columns.
        let mut store = LongitudinalStore {
            nodes,
            defs,
            timestamps: Vec::with_capacity(snaps.len()),
            maps: Vec::with_capacity(snaps.len()),
            node_offsets: vec![0],
            node_cells: Vec::new(),
            link_offsets: vec![0],
            link_cells: Vec::new(),
            load_a: Vec::new(),
            load_b: Vec::new(),
            flipped: Vec::new(),
            series_offsets: Vec::new(),
            series_rows: Vec::new(),
            events: Vec::new(),
        };
        for snap in &snaps {
            store.timestamps.push(snap.timestamp);
            store.maps.push(snap.map);
            store.node_cells.extend_from_slice(&snap.nodes);
            store.node_offsets.push(store.node_cells.len() as u32);
            for row in &snap.rows {
                store.link_cells.push(row.def);
                store.load_a.push(row.load_a);
                store.load_b.push(row.load_b);
                store.flipped.push(row.flipped);
            }
            store.link_offsets.push(store.link_cells.len() as u32);
        }

        store.rebuild_series_index();

        // Topology event log: one structural diff per consecutive pair.
        if !store.timestamps.is_empty() {
            let mut previous = store.snapshot(0);
            for i in 1..store.timestamps.len() {
                let current = store.snapshot(i);
                let diff = wm_model::diff(&previous, &current);
                if !diff.is_empty() {
                    store.events.push(TopologyEvent {
                        previous: previous.timestamp,
                        at: current.timestamp,
                        diff,
                    });
                }
                previous = current;
            }
        }
        store
    }
}

impl SnapshotSink for ColumnarBuilder {
    fn accept(&mut self, index: usize, snapshot: TopologySnapshot) {
        self.add_snapshot(index, &snapshot);
    }
}

/// One map's snapshot history in columnar form. See the module docs.
///
/// Fields are `pub(crate)` so the binary cache codec ([`crate::codec`])
/// can serialise and reconstruct the columns directly; outside this crate
/// the store is opaque behind its accessor methods.
#[derive(Debug, Clone, PartialEq)]
pub struct LongitudinalStore {
    pub(crate) nodes: Vec<Node>,
    pub(crate) defs: Vec<LinkDef>,
    pub(crate) timestamps: Vec<Timestamp>,
    pub(crate) maps: Vec<MapKind>,
    pub(crate) node_offsets: Vec<u32>,
    pub(crate) node_cells: Vec<u32>,
    pub(crate) link_offsets: Vec<u32>,
    pub(crate) link_cells: Vec<u32>,
    pub(crate) load_a: Vec<u8>,
    pub(crate) load_b: Vec<u8>,
    pub(crate) flipped: Vec<bool>,
    pub(crate) series_offsets: Vec<u32>,
    pub(crate) series_rows: Vec<u32>,
    pub(crate) events: Vec<TopologyEvent>,
}

impl LongitudinalStore {
    /// Builds a store from an in-memory snapshot sequence (serial
    /// convenience over [`ColumnarBuilder`]).
    #[must_use]
    pub fn from_snapshots<'a, I>(snapshots: I) -> LongitudinalStore
    where
        I: IntoIterator<Item = &'a TopologySnapshot>,
    {
        let mut builder = ColumnarBuilder::new();
        for (index, snapshot) in snapshots.into_iter().enumerate() {
            builder.add_snapshot(index, snapshot);
        }
        ColumnarBuilder::finish(vec![builder])
    }

    /// Number of snapshots stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// `true` when the store holds no snapshots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Snapshot instants, sorted ascending.
    #[must_use]
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// The map of snapshot `index`; the default map for an index out of
    /// range (snapshot indices come from `0..len()`).
    #[must_use]
    pub fn map_of(&self, index: usize) -> MapKind {
        self.maps.get(index).copied().unwrap_or_default()
    }

    /// The sorted table of distinct nodes; a node's position is its
    /// [`NodeId`].
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node behind an id, or `None` for an id this store never
    /// issued.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// The sorted table of distinct link identities; a definition's
    /// position is its [`LinkId`].
    #[must_use]
    pub fn link_defs(&self) -> &[LinkDef] {
        &self.defs
    }

    /// The link identity behind an id, or `None` for an id this store
    /// never issued.
    #[must_use]
    pub fn link_def(&self, id: LinkId) -> Option<&LinkDef> {
        self.defs.get(id.index())
    }

    /// All link ids, in rank order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.defs.len() as u32).map(LinkId)
    }

    /// Internal when both endpoints are OVH routers, external otherwise
    /// (an unknown id is external: it names no router pair).
    #[must_use]
    pub fn link_kind(&self, id: LinkId) -> LinkKind {
        let Some(def) = self.link_def(id) else {
            return LinkKind::External;
        };
        let (Some(a), Some(b)) = (self.node(def.a), self.node(def.b)) else {
            return LinkKind::External;
        };
        if a.is_router() && b.is_router() {
            LinkKind::Internal
        } else {
            LinkKind::External
        }
    }

    /// Total number of link observations (rows) across all snapshots.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.link_cells.len()
    }

    /// Reconstructs snapshot `index` exactly as it was stored: node and
    /// link order, end orientation, labels and loads all match the
    /// original [`TopologySnapshot`]. An index out of range yields an
    /// empty snapshot (snapshot indices come from `0..len()`).
    #[must_use]
    pub fn snapshot(&self, index: usize) -> TopologySnapshot {
        let (Some(&map), Some(&timestamp)) = (self.maps.get(index), self.timestamps.get(index))
        else {
            return TopologySnapshot::new(MapKind::default(), Timestamp::default());
        };
        let mut snapshot = TopologySnapshot::new(map, timestamp);
        let nodes = offset_span(&self.node_offsets, index);
        snapshot.nodes = self
            .node_cells
            .get(nodes)
            .unwrap_or(&[])
            .iter()
            .filter_map(|&id| self.nodes.get(id as usize).cloned())
            .collect();
        snapshot.links = offset_span(&self.link_offsets, index)
            .filter_map(|row| {
                let def = self.defs.get(*self.link_cells.get(row)? as usize)?;
                let first = LinkEnd::new(
                    self.nodes.get(def.a.index())?.clone(),
                    def.label_a.clone(),
                    load_of(self.load_a.get(row)),
                );
                let second = LinkEnd::new(
                    self.nodes.get(def.b.index())?.clone(),
                    def.label_b.clone(),
                    load_of(self.load_b.get(row)),
                );
                Some(if self.flipped.get(row).copied().unwrap_or(false) {
                    Link::new(second, first)
                } else {
                    Link::new(first, second)
                })
            })
            .collect();
        snapshot
    }

    /// Iterates over all snapshots in timestamp order, reconstructing
    /// each one on the fly.
    pub fn snapshots(&self) -> impl Iterator<Item = TopologySnapshot> + '_ {
        (0..self.len()).map(|index| self.snapshot(index))
    }

    /// Iterates the load time series of one link, sorted by snapshot,
    /// without materialising a vector.
    ///
    /// Links sharing a canonical identity (label collisions) contribute
    /// one sample each per snapshot they appear in. An unknown id yields
    /// an empty iterator.
    pub fn link_samples(&self, id: LinkId) -> impl Iterator<Item = LinkSample> + '_ {
        let span = offset_span(&self.series_offsets, id.index());
        self.series_rows
            .get(span)
            .unwrap_or(&[])
            .iter()
            .map(|&row| {
                let row = row as usize;
                // The snapshot owning `row`: offsets are non-decreasing
                // (duplicates where a snapshot has no links), so count
                // how many snapshot starts are at or before the row.
                let snapshot = self
                    .link_offsets
                    .partition_point(|&offset| offset as usize <= row)
                    .saturating_sub(1);
                LinkSample {
                    snapshot,
                    timestamp: self.timestamps.get(snapshot).copied().unwrap_or_default(),
                    load_a: load_of(self.load_a.get(row)),
                    load_b: load_of(self.load_b.get(row)),
                }
            })
    }

    /// The load time series of one link as an owned vector; delegates to
    /// [`LongitudinalStore::link_samples`].
    #[must_use]
    pub fn link_series(&self, id: LinkId) -> Vec<LinkSample> {
        self.link_samples(id).collect()
    }

    /// The topology event log: the non-empty structural diffs between
    /// consecutive snapshots, computed once at build time.
    #[must_use]
    pub fn events(&self) -> &[TopologyEvent] {
        &self.events
    }

    /// Rebuilds the inverted link-series index from the link columns by
    /// counting sort (rows are visited in snapshot order, so each link's
    /// slice stays sorted). Deterministic: depends only on the columns.
    pub(crate) fn rebuild_series_index(&mut self) {
        let mut offsets = vec![0u32; self.defs.len() + 1];
        for &def in &self.link_cells {
            if let Some(slot) = offsets.get_mut(def as usize + 1) {
                *slot += 1;
            }
        }
        let mut sum = 0u32;
        for slot in &mut offsets {
            sum += *slot;
            *slot = sum;
        }
        let mut cursors = offsets.clone();
        let mut series_rows = vec![0u32; self.link_cells.len()];
        for (row, &def) in self.link_cells.iter().enumerate() {
            let Some(cursor) = cursors.get_mut(def as usize) else {
                continue;
            };
            if let Some(slot) = series_rows.get_mut(*cursor as usize) {
                *slot = row as u32;
            }
            *cursor += 1;
        }
        self.series_offsets = offsets;
        self.series_rows = series_rows;
    }

    /// Approximate resident size of the columns and tables, in bytes
    /// (cell payloads only; allocator overhead and the event log's
    /// string contents are estimated, not measured).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes
            .iter()
            .map(|n| n.name.len() + size_of::<Node>())
            .sum::<usize>()
            + self
                .defs
                .iter()
                .map(|d| {
                    size_of::<LinkDef>()
                        + d.label_a.as_deref().map_or(0, str::len)
                        + d.label_b.as_deref().map_or(0, str::len)
                })
                .sum::<usize>()
            + self.timestamps.len() * size_of::<Timestamp>()
            + self.maps.len() * size_of::<MapKind>()
            + (self.node_offsets.len() + self.node_cells.len()) * size_of::<u32>()
            + (self.link_offsets.len() + self.link_cells.len()) * size_of::<u32>()
            + self.load_a.len()
            + self.load_b.len()
            + self.flipped.len()
            + (self.series_offsets.len() + self.series_rows.len()) * size_of::<u32>()
            + self.events.len() * size_of::<TopologyEvent>()
    }
}

/// Extracts a batch of SVG files straight into a [`LongitudinalStore`]
/// in one streaming pass — snapshots flow from the extraction workers
/// into per-worker [`ColumnarBuilder`]s without ever materialising a
/// `Vec<TopologySnapshot>`.
///
/// Determinism: inherits the batch runner's contract, so the store (and
/// the stats' counters) are byte-identical for any `threads` value and
/// either scheduling policy.
#[must_use]
pub fn extract_longitudinal(
    inputs: &[BatchInput],
    map: MapKind,
    config: &ExtractConfig,
    threads: usize,
    scheduling: Scheduling,
) -> (LongitudinalStore, BatchStats, BatchMetrics) {
    let (builders, stats, metrics) =
        extract_batch_sink::<ColumnarBuilder>(inputs, map, config, threads, scheduling);
    (ColumnarBuilder::finish(builders), stats, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::Duration;

    fn load(p: u8) -> Load {
        Load::new(p).unwrap()
    }

    fn link(a: &str, la: u8, b: &str, lb: u8, label: Option<&str>) -> Link {
        Link::new(
            LinkEnd::new(Node::from_name(a), label.map(str::to_owned), load(la)),
            LinkEnd::new(Node::from_name(b), label.map(str::to_owned), load(lb)),
        )
    }

    /// A three-snapshot series with parallel links, a flipped end order,
    /// a peering, a disabled stretch and a topology change.
    fn series() -> Vec<TopologySnapshot> {
        let t0 = Timestamp::from_ymd(2021, 6, 1);
        let mut s0 = TopologySnapshot::new(MapKind::Europe, t0);
        s0.nodes = vec![
            Node::from_name("rbx-g1"),
            Node::from_name("fra-fr5"),
            Node::from_name("ARELION"),
        ];
        s0.links = vec![
            link("rbx-g1", 10, "fra-fr5", 20, Some("#1")),
            // Ends listed in reverse name order: must survive round-trip.
            link("rbx-g1", 12, "fra-fr5", 22, Some("#2")),
            link("fra-fr5", 42, "ARELION", 9, None),
        ];

        let mut s1 = s0.clone();
        s1.timestamp = t0 + Duration::from_minutes(5);
        s1.links[0] = link("rbx-g1", 0, "fra-fr5", 0, Some("#1"));

        let mut s2 = s1.clone();
        s2.timestamp = t0 + Duration::from_minutes(10);
        s2.links[0] = link("rbx-g1", 11, "fra-fr5", 21, Some("#1"));
        s2.nodes.push(Node::from_name("sbg-g2"));
        s2.links.push(link("sbg-g2", 7, "rbx-g1", 8, None));
        vec![s0, s1, s2]
    }

    #[test]
    fn ids_are_sorted_ranks() {
        let snaps = series();
        let store = LongitudinalStore::from_snapshots(&snaps);
        let names: Vec<&str> = store.nodes().iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["ARELION", "fra-fr5", "rbx-g1", "sbg-g2"]);
        assert!(store.link_defs().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(store.link_defs().len(), 4);
        assert_eq!(store.observations(), 10);
    }

    #[test]
    fn snapshot_reconstruction_is_exact() {
        let snaps = series();
        let store = LongitudinalStore::from_snapshots(&snaps);
        assert_eq!(store.len(), snaps.len());
        for (i, original) in snaps.iter().enumerate() {
            assert_eq!(&store.snapshot(i), original, "snapshot {i} round trip");
        }
        let collected: Vec<TopologySnapshot> = store.snapshots().collect();
        assert_eq!(collected, snaps);
    }

    #[test]
    fn merge_is_split_invariant() {
        let snaps = series();
        let whole = LongitudinalStore::from_snapshots(&snaps);

        // Same snapshots, split across workers in scrambled claim order.
        let mut b0 = ColumnarBuilder::new();
        let mut b1 = ColumnarBuilder::new();
        b1.add_snapshot(2, &snaps[2]);
        b0.add_snapshot(1, &snaps[1]);
        b1.add_snapshot(0, &snaps[0]);
        let split = ColumnarBuilder::finish(vec![b0, b1]);
        assert_eq!(whole, split);
    }

    #[test]
    fn link_series_is_sorted_and_complete() {
        let snaps = series();
        let store = LongitudinalStore::from_snapshots(&snaps);
        let total: usize = store
            .link_ids()
            .map(|id| store.link_samples(id).count())
            .sum();
        assert_eq!(total, store.observations());
        for id in store.link_ids() {
            let samples: Vec<LinkSample> = store.link_samples(id).collect();
            assert_eq!(samples, store.link_series(id), "owned API delegates");
            assert!(samples.windows(2).all(|w| w[0].snapshot < w[1].snapshot));
            for sample in &samples {
                assert_eq!(sample.timestamp, store.timestamps()[sample.snapshot]);
            }
        }
        // The #1 parallel link was disabled in snapshot 1 only.
        let disabled: Vec<LinkId> = store
            .link_ids()
            .filter(|&id| store.link_samples(id).any(|s| s.disabled()))
            .collect();
        assert_eq!(disabled.len(), 1);
        let samples = store.link_series(disabled[0]);
        assert_eq!(samples.len(), 3);
        assert!(!samples[0].disabled() && samples[1].disabled() && !samples[2].disabled());
    }

    #[test]
    fn event_log_matches_pairwise_diff() {
        let snaps = series();
        let store = LongitudinalStore::from_snapshots(&snaps);
        // s0 -> s1 changes only loads; s1 -> s2 adds a node and a group.
        assert_eq!(store.events().len(), 1);
        let event = &store.events()[0];
        assert_eq!(event.previous, snaps[1].timestamp);
        assert_eq!(event.at, snaps[2].timestamp);
        assert_eq!(event.diff, wm_model::diff(&snaps[1], &snaps[2]));
        assert_eq!(event.diff.added_nodes, vec![Node::from_name("sbg-g2")]);
        assert_eq!(event.diff.link_delta(), 1);
    }

    #[test]
    fn empty_store() {
        let store = LongitudinalStore::from_snapshots(std::iter::empty());
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert!(store.events().is_empty());
        assert_eq!(store.observations(), 0);
        assert!(store.approx_bytes() > 0); // offset sentinels
    }
}
