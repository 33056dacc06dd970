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
//!
//! Nothing derived is stored beside the columns. The §5 suite and the
//! query kernels read counts, loads and final states from the columns
//! (or from reconstructed snapshots), and a structural diff between two
//! snapshots is [`wm_model::diff`] of their reconstructions.
//!
//! The store is built by folding snapshot files into per-worker
//! [`ColumnarBuilder`]s — straight from YAML text
//! ([`ColumnarBuilder::add_yaml`]), or from in-memory snapshots
//! ([`ColumnarBuilder::add_snapshot`]) — and merging them at join.
//! The merge sorts the symbol tables and orders rows by `(timestamp,
//! input index)`, so the result is byte-identical for any worker count
//! — the same contract as the extraction batch runner. Finished stores
//! merge the same way: [`LongitudinalStore::concat`] joins slices of
//! time-ordered stores (decoded segments) without rebuilding a
//! snapshot.

use std::collections::BTreeMap;
use std::ops::Range;

use wm_extract::{read_snapshot, EndRef, SchemaError, SnapshotVisitor};
use wm_model::{
    Link, LinkEnd, Load, MapKind, Node, NodeKind, NodeName, Timestamp, TopologySnapshot,
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

/// A snapshot accepted by a builder, awaiting the merge. Its cells are
/// ranges of the builder's flat `node_cells` and `rows`.
#[derive(Debug, Clone)]
struct PendingSnapshot {
    index: usize,
    map: MapKind,
    timestamp: Timestamp,
    nodes: Range<usize>,
    rows: Range<usize>,
}

/// The local id slot of an absent entry (no node of that kind, no
/// label).
const NO_ID: u32 = u32::MAX;

/// A builder-local link identity: `(a, b, label_a, label_b)` as local
/// ids, labels [`NO_ID`] when absent.
type DefKey = [u32; 4];

/// Per-worker accumulator that folds snapshots into columns.
///
/// Each worker interns nodes, labels and link identities against its
/// own local tables (first-seen order; a local [`LinkDef`] names
/// builder-local node ids); [`ColumnarBuilder::finish`] merges any
/// number of builders into one [`LongitudinalStore`], re-ranking all
/// ids against the global sorted tables. Because ranking depends only
/// on the set of values seen, the merged store is identical however the
/// inputs were split across builders.
///
/// Snapshots arrive as YAML text ([`ColumnarBuilder::add_yaml`], the
/// loader's path) or as [`TopologySnapshot`]s
/// ([`ColumnarBuilder::add_snapshot`]); both go through the one
/// interning core, which looks every name and label up by borrowed key.
#[derive(Debug, Default)]
pub struct ColumnarBuilder {
    /// Local node id → node.
    nodes: Vec<Node>,
    /// Node name → local id per [`NodeKind`] (`NO_ID` when unseen).
    node_ids: BTreeMap<NodeName, [u32; 2]>,
    /// Label text → local label id.
    label_ids: BTreeMap<String, u32>,
    /// Local link identities, in local id order.
    defs: Vec<LinkDef>,
    def_ids: BTreeMap<DefKey, u32>,
    snaps: Vec<PendingSnapshot>,
    /// Node-id cells of every pending snapshot, back to back.
    node_cells: Vec<u32>,
    /// Link rows of every pending snapshot, back to back.
    rows: Vec<LocalRow>,
    /// Local ids of the listed nodes of the snapshot being added, in
    /// list order (scratch, reused across snapshots).
    listed: Vec<u32>,
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
fn offset_span(offsets: &[u32], index: usize) -> Range<usize> {
    offsets_between(offsets, index..index + 1)
}

/// The half-open cell range of the snapshots `range` in a CSR offset
/// table, clamped like [`offset_span`].
fn offsets_between(offsets: &[u32], range: Range<usize>) -> Range<usize> {
    let start = offsets.get(range.start).map_or(0, |&o| o as usize);
    let end = offsets.get(range.end).map_or(start, |&o| o as usize);
    start..end.max(start)
}

/// The new rank of an old id in a dense rank map. Rank maps are built
/// over the very ids they are applied to, so the lookup cannot miss; a
/// miss (impossible by construction) maps to rank 0 instead of
/// panicking.
fn rank_of(map: &[u32], id: usize) -> u32 {
    map.get(id).copied().unwrap_or(0)
}

/// The sorted union of several symbol tables, plus one dense rank map
/// per input: `maps[k][id]` is the union rank of input `k`'s entry `id`.
///
/// `tables[k][id]` is `None` for an entry input `k` does not use; such
/// an entry stays out of the union and its id maps to rank 0 (it is
/// never looked up). Ranks depend only on the set of used values, never
/// on how they were split across inputs — the one merge rule behind
/// [`ColumnarBuilder::finish`] and [`LongitudinalStore::concat`].
fn rank_union<T: Ord + Clone>(tables: &[Vec<Option<&T>>]) -> (Vec<T>, Vec<Vec<u32>>) {
    let mut union: Vec<&T> = tables.iter().flatten().flatten().copied().collect();
    // Inputs that are themselves sorted tables arrive as sorted runs,
    // which the stable sort merges in linear passes.
    union.sort();
    union.dedup();
    let maps = tables
        .iter()
        .map(|table| {
            table
                .iter()
                .map(|value| {
                    value
                        .and_then(|v| union.binary_search(&v).ok())
                        .map_or(0, |rank| rank as u32)
                })
                .collect()
        })
        .collect();
    (union.into_iter().cloned().collect(), maps)
}

/// The total order on link ends that fixes each link's canonical
/// orientation, independent of how the link was drawn.
fn end_key<'e>(end: &EndRef<'e>) -> (&'e str, NodeKind, Option<&'e str>) {
    (end.name, end.kind, end.label)
}

/// A [`TopologySnapshot`] link end as the interning core reads it.
fn end_ref(end: &LinkEnd) -> EndRef<'_> {
    EndRef {
        name: end.node.name.as_str(),
        kind: end.node.kind,
        listed: None,
        label: end.label.as_deref(),
        load: end.egress_load,
    }
}

impl LinkDef {
    /// The same identity with both endpoints renumbered through `map`.
    fn remapped(&self, map: &[u32]) -> LinkDef {
        LinkDef {
            a: NodeId(rank_of(map, self.a.index())),
            b: NodeId(rank_of(map, self.b.index())),
            label_a: self.label_a.clone(),
            label_b: self.label_b.clone(),
        }
    }
}

impl ColumnarBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ColumnarBuilder {
        ColumnarBuilder::default()
    }

    /// Folds one snapshot file (input position `index`), given as YAML
    /// text, straight into the columns — no value tree, no
    /// [`TopologySnapshot`]. A file the schema reader rejects leaves the
    /// builder exactly as it was: the reader hands a file over only
    /// once all of it has validated, and the snapshot is committed only
    /// then.
    pub fn add_yaml(&mut self, index: usize, text: &str) -> Result<(), SchemaError> {
        let mut file = FileVisitor::new(self);
        read_snapshot(text, &mut file)?;
        file.commit(index);
        Ok(())
    }

    /// Folds one snapshot (input position `index`) into the columns.
    pub fn add_snapshot(&mut self, index: usize, snapshot: &TopologySnapshot) {
        let mut file = FileVisitor::new(self);
        file.header(snapshot.map, snapshot.timestamp);
        for node in &snapshot.nodes {
            file.node(&node.name, node.kind);
        }
        for link in &snapshot.links {
            file.link(&end_ref(&link.a), &end_ref(&link.b));
        }
        file.commit(index);
    }

    /// The local id of node `(name, kind)`, interning it if new.
    fn intern_node(&mut self, name: &str, kind: NodeKind) -> u32 {
        let slot = kind as usize;
        let next = self.nodes.len() as u32;
        let node = match self.node_ids.get_mut(name) {
            Some(ids) => {
                let Some(id) = ids.get_mut(slot) else {
                    return 0; // two kinds, two slots: cannot miss
                };
                if *id != NO_ID {
                    return *id;
                }
                *id = next;
                // The name is known under the other kind: share its text.
                let other = ids.iter().copied().find(|&id| id != NO_ID);
                let shared = other.and_then(|id| self.nodes.get(id as usize));
                Node {
                    name: shared.map_or_else(|| name.into(), |node| node.name.clone()),
                    kind,
                }
            }
            None => {
                let mut ids = [NO_ID; 2];
                if let Some(id) = ids.get_mut(slot) {
                    *id = next;
                }
                let node = Node {
                    name: name.into(),
                    kind,
                };
                self.node_ids.insert(node.name.clone(), ids);
                node
            }
        };
        self.nodes.push(node);
        next
    }

    /// The local id of a label, interning it if new.
    fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = self.label_ids.len() as u32;
        self.label_ids.insert(label.to_owned(), id);
        id
    }

    /// The local id of a link end's node: the listed node it resolved to,
    /// or `(name, kind)` interned.
    fn end_node(&mut self, end: &EndRef<'_>) -> u32 {
        match end.listed.and_then(|i| self.listed.get(i)) {
            Some(&id) => id,
            None => self.intern_node(end.name, end.kind),
        }
    }

    /// Appends one link row, interning its identity.
    fn push_link(&mut self, a: &EndRef<'_>, b: &EndRef<'_>) {
        let flipped = end_key(b) < end_key(a);
        let (first, second) = if flipped { (b, a) } else { (a, b) };
        let key = [
            self.end_node(first),
            self.end_node(second),
            first.label.map_or(NO_ID, |label| self.intern_label(label)),
            second.label.map_or(NO_ID, |label| self.intern_label(label)),
        ];
        let def = match self.def_ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.defs.len() as u32;
                let [a, b, _, _] = key;
                self.defs.push(LinkDef {
                    a: NodeId(a),
                    b: NodeId(b),
                    label_a: first.label.map(str::to_owned),
                    label_b: second.label.map(str::to_owned),
                });
                self.def_ids.insert(key, id);
                id
            }
        };
        self.rows.push(LocalRow {
            def,
            load_a: first.load.percent(),
            load_b: second.load.percent(),
            flipped,
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
        let node_tables: Vec<Vec<Option<&Node>>> = builders
            .iter()
            .map(|builder| builder.nodes.iter().map(Some).collect())
            .collect();
        let (nodes, node_maps) = rank_union(&node_tables);
        let global_defs: Vec<Vec<LinkDef>> = builders
            .iter()
            .zip(&node_maps)
            .map(|(builder, node_map)| builder.defs.iter().map(|d| d.remapped(node_map)).collect())
            .collect();
        let def_tables: Vec<Vec<Option<&LinkDef>>> = global_defs
            .iter()
            .map(|defs| defs.iter().map(Some).collect())
            .collect();
        let (defs, def_maps) = rank_union(&def_tables);

        // Order every pending snapshot by (timestamp, input index) —
        // identical to the batch runner's output order — then flatten
        // into columns, re-ranking ids on the way.
        let mut order: Vec<(Timestamp, usize, usize, usize)> = builders
            .iter()
            .enumerate()
            .flat_map(|(k, builder)| {
                builder
                    .snaps
                    .iter()
                    .enumerate()
                    .map(move |(j, snap)| (snap.timestamp, snap.index, k, j))
            })
            .collect();
        order.sort_unstable();
        let mut store = LongitudinalStore::with_tables(nodes, defs);
        store
            .node_cells
            .reserve(builders.iter().map(|b| b.node_cells.len()).sum());
        let row_count: usize = builders.iter().map(|b| b.rows.len()).sum();
        store.link_cells.reserve(row_count);
        for (_, _, k, j) in order {
            let (Some(builder), Some(node_map), Some(def_map)) =
                (builders.get(k), node_maps.get(k), def_maps.get(k))
            else {
                continue;
            };
            let Some(snap) = builder.snaps.get(j) else {
                continue;
            };
            store.timestamps.push(snap.timestamp);
            store.maps.push(snap.map);
            let node_row = builder.node_cells.get(snap.nodes.clone()).unwrap_or(&[]);
            store
                .node_cells
                .extend(node_row.iter().map(|&id| rank_of(node_map, id as usize)));
            store.node_offsets.push(store.node_cells.len() as u32);
            for row in builder.rows.get(snap.rows.clone()).unwrap_or(&[]) {
                store.link_cells.push(rank_of(def_map, row.def as usize));
                store.load_a.push(row.load_a);
                store.load_b.push(row.load_b);
                store.flipped.push(row.flipped);
            }
            store.link_offsets.push(store.link_cells.len() as u32);
        }
        store
    }
}

/// One snapshot being folded into a [`ColumnarBuilder`]: the
/// [`SnapshotVisitor`] the schema reader feeds, and the path
/// [`ColumnarBuilder::add_snapshot`] drives by hand. Cells go straight
/// into the builder's flat columns; [`FileVisitor::commit`] records the
/// snapshot that owns them.
struct FileVisitor<'b> {
    builder: &'b mut ColumnarBuilder,
    header: Option<(MapKind, Timestamp)>,
    nodes_from: usize,
    rows_from: usize,
}

impl<'b> FileVisitor<'b> {
    fn new(builder: &'b mut ColumnarBuilder) -> FileVisitor<'b> {
        builder.listed.clear();
        FileVisitor {
            nodes_from: builder.node_cells.len(),
            rows_from: builder.rows.len(),
            header: None,
            builder,
        }
    }

    /// Records the snapshot whose cells were appended since
    /// [`FileVisitor::new`] (nothing, when no header arrived).
    fn commit(self, index: usize) {
        let Some((map, timestamp)) = self.header else {
            return;
        };
        let builder = self.builder;
        builder.snaps.push(PendingSnapshot {
            index,
            map,
            timestamp,
            nodes: self.nodes_from..builder.node_cells.len(),
            rows: self.rows_from..builder.rows.len(),
        });
    }
}

impl SnapshotVisitor for FileVisitor<'_> {
    fn header(&mut self, map: MapKind, timestamp: Timestamp) {
        self.header = Some((map, timestamp));
    }

    fn node(&mut self, name: &str, kind: NodeKind) {
        let id = self.builder.intern_node(name, kind);
        self.builder.listed.push(id);
        self.builder.node_cells.push(id);
    }

    fn link(&mut self, a: &EndRef<'_>, b: &EndRef<'_>) {
        self.builder.push_link(a, b);
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

    /// A store with the given symbol tables and no snapshots.
    fn with_tables(nodes: Vec<Node>, defs: Vec<LinkDef>) -> LongitudinalStore {
        LongitudinalStore {
            nodes,
            defs,
            timestamps: Vec::new(),
            maps: Vec::new(),
            node_offsets: vec![0],
            node_cells: Vec::new(),
            link_offsets: vec![0],
            link_cells: Vec::new(),
            load_a: Vec::new(),
            load_b: Vec::new(),
            flipped: Vec::new(),
        }
    }

    /// The snapshots `range` (indices, half-open, clamped to `0..len()`)
    /// as a store of their own: exactly
    /// [`LongitudinalStore::from_snapshots`] of the reconstructed
    /// snapshots, without reconstructing any. The symbol tables keep
    /// only the entries the slice uses.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> LongitudinalStore {
        LongitudinalStore::concat(&[(self, range)])
    }

    /// Concatenates slices of time-ordered stores (each part a store and
    /// a half-open snapshot index range, clamped like
    /// [`LongitudinalStore::slice`]); every snapshot of a part must be no
    /// older than those of the parts before it.
    ///
    /// The result equals [`LongitudinalStore::from_snapshots`] of the
    /// concatenated snapshots and encodes to the same bytes. Symbol
    /// tables merge through the sorted union and rank remap that
    /// [`ColumnarBuilder::finish`] uses, and each part's rows are copied
    /// with their ids remapped.
    #[must_use]
    pub fn concat(parts: &[(&LongitudinalStore, Range<usize>)]) -> LongitudinalStore {
        let parts: Vec<(&LongitudinalStore, Range<usize>)> = parts
            .iter()
            .map(|(store, range)| {
                let end = range.end.min(store.len());
                (*store, range.start.min(end)..end)
            })
            .filter(|(_, range)| !range.is_empty())
            .collect();

        let used: Vec<(Vec<bool>, Vec<bool>)> = parts
            .iter()
            .map(|(store, range)| store.used_symbols(range.clone()))
            .collect();
        let node_tables: Vec<Vec<Option<&Node>>> = parts
            .iter()
            .zip(&used)
            .map(|((store, _), (node_used, _))| {
                store
                    .nodes
                    .iter()
                    .zip(node_used)
                    .map(|(node, &used)| used.then_some(node))
                    .collect()
            })
            .collect();
        let (nodes, node_maps) = rank_union(&node_tables);
        let global_defs: Vec<Vec<Option<LinkDef>>> = parts
            .iter()
            .zip(&used)
            .zip(&node_maps)
            .map(|(((store, _), (_, def_used)), node_map)| {
                store
                    .defs
                    .iter()
                    .zip(def_used)
                    .map(|(def, &used)| used.then(|| def.remapped(node_map)))
                    .collect()
            })
            .collect();
        let def_tables: Vec<Vec<Option<&LinkDef>>> = global_defs
            .iter()
            .map(|defs| defs.iter().map(Option::as_ref).collect())
            .collect();
        let (defs, def_maps) = rank_union(&def_tables);

        // Columns: each part's rows, ids remapped.
        let mut merged = LongitudinalStore::with_tables(nodes, defs);
        for (((store, range), node_map), def_map) in parts.iter().zip(&node_maps).zip(&def_maps) {
            merged
                .timestamps
                .extend_from_slice(store.timestamps.get(range.clone()).unwrap_or(&[]));
            merged
                .maps
                .extend_from_slice(store.maps.get(range.clone()).unwrap_or(&[]));
            for index in range.clone() {
                let nodes = offset_span(&store.node_offsets, index);
                let node_row = store.node_cells.get(nodes).unwrap_or(&[]);
                merged
                    .node_cells
                    .extend(node_row.iter().map(|&id| rank_of(node_map, id as usize)));
                merged.node_offsets.push(merged.node_cells.len() as u32);
                let rows = offset_span(&store.link_offsets, index);
                let link_row = store.link_cells.get(rows.clone()).unwrap_or(&[]);
                merged
                    .link_cells
                    .extend(link_row.iter().map(|&def| rank_of(def_map, def as usize)));
                merged.link_offsets.push(merged.link_cells.len() as u32);
                merged
                    .load_a
                    .extend_from_slice(store.load_a.get(rows.clone()).unwrap_or(&[]));
                merged
                    .load_b
                    .extend_from_slice(store.load_b.get(rows.clone()).unwrap_or(&[]));
                merged
                    .flipped
                    .extend_from_slice(store.flipped.get(rows).unwrap_or(&[]));
            }
        }
        merged
    }

    /// Which symbol-table entries the snapshots `range` use, as
    /// `(nodes, link identities)` masks: a node is used when a row lists
    /// it or a used link ends at it, a link identity when a row holds it.
    fn used_symbols(&self, range: Range<usize>) -> (Vec<bool>, Vec<bool>) {
        let mut node_used = vec![false; self.nodes.len()];
        let mut def_used = vec![false; self.defs.len()];
        let node_cells = self
            .node_cells
            .get(offsets_between(&self.node_offsets, range.clone()))
            .unwrap_or(&[]);
        for &id in node_cells {
            if let Some(used) = node_used.get_mut(id as usize) {
                *used = true;
            }
        }
        let link_cells = self
            .link_cells
            .get(offsets_between(&self.link_offsets, range))
            .unwrap_or(&[]);
        for &def in link_cells {
            if let Some(used) = def_used.get_mut(def as usize) {
                *used = true;
            }
        }
        for (def, _) in self.defs.iter().zip(&def_used).filter(|(_, &used)| used) {
            for end in [def.a, def.b] {
                if let Some(used) = node_used.get_mut(end.index()) {
                    *used = true;
                }
            }
        }
        (node_used, def_used)
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

    /// Approximate resident size of the columns and tables, in bytes
    /// (cell payloads and symbol text; allocator overhead is not
    /// counted).
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
    }
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
    fn empty_store() {
        let store = LongitudinalStore::from_snapshots(std::iter::empty());
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert_eq!(store.observations(), 0);
        assert!(store.approx_bytes() > 0); // offset sentinels
    }
}
