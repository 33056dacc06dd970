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
//! * **Topology rows** — a snapshot's node-id list and its link cells
//!   (link id and original orientation), in original snapshot order,
//!   stored once per run of consecutive snapshots that share them. The
//!   backbone changes by discrete events while loads change every five
//!   minutes, so two years of a map hold a handful of rows.
//! * **Load columns** — per snapshot, only the per-direction loads of
//!   its row's link cells, in flat arrays.
//!
//! [`LongitudinalStore::snapshot`] reconstructs the original
//! [`TopologySnapshot`] *exactly*, so every existing analysis runs
//! unchanged on top of the store.
//!
//! Nothing derived is persisted beside the columns (the per-snapshot
//! load offsets are recomputed from the runs on decode). The §5 suite
//! and the query kernels resolve per-cell facts once per row and scan
//! only the loads of each snapshot in the row's run; a final state is a
//! row. Reconstruction serves tests and diffs: a structural diff
//! between two snapshots is [`wm_model::diff`] of their reconstructions.
//!
//! The store is built by folding snapshot files into per-worker
//! [`ColumnarBuilder`]s — straight from YAML text
//! ([`ColumnarBuilder::add_yaml`]), or from in-memory snapshots
//! ([`ColumnarBuilder::add_snapshot`]) — and merging them at join.
//! The merge sorts the symbol tables and orders snapshots by
//! `(timestamp, input index)`, so the result is byte-identical for any worker count
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

/// One link cell of a builder-local topology row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LocalCell {
    def: u32,
    /// `true` when the original link listed the canonical second
    /// endpoint first; preserved so reconstruction is exact.
    flipped: bool,
}

/// A snapshot accepted by a builder, awaiting the merge. Its topology
/// row is a range of the builder's `node_cells` and `cells`, shared with
/// the snapshot added just before it when the two rows are equal; its
/// loads start at `loads` in the builder's load columns, one pair per
/// link cell.
#[derive(Debug, Clone)]
struct PendingSnapshot {
    index: usize,
    map: MapKind,
    timestamp: Timestamp,
    nodes: Range<usize>,
    cells: Range<usize>,
    loads: usize,
}

/// What a value token of a base file feeds, should a repeat change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The `timestamp` value.
    Timestamp,
    /// A load: the position of its link cell in the row, and whether
    /// it goes to the canonical second end's column.
    Load { cell: usize, second: bool },
}

/// What a builder keeps of the last file it fully read and accepted. A
/// file equal to it byte for byte outside its timestamp and load value
/// tokens, each new token a value the full read accepts for its field,
/// reads exactly as that file with those values changed (DESIGN
/// decision 20), so [`ColumnarBuilder::add_yaml`] reads only the
/// values and commits the base's topology row again.
#[derive(Debug)]
struct Base {
    /// The file's text.
    text: String,
    /// The value tokens a repeat may change, in text order: each one's
    /// byte span in `text` and what it feeds. A token not in its
    /// field's canonical spelling is not listed, so a repeat must carry
    /// it unchanged.
    spans: Vec<(Range<usize>, Slot)>,
    /// The snapshot the file committed: its map, its row and where its
    /// loads start.
    snap: PendingSnapshot,
}

impl Base {
    /// Reads `text` as a repeat of the base file: it must equal the
    /// base outside the listed tokens, and each of its tokens there
    /// must be one the full read accepts (see [`load_token`], and a
    /// timestamp of the base token's length that
    /// [`Timestamp::parse_iso8601`] accepts). The loads are written
    /// into `load_a`/`load_b`, the new snapshot's canonical columns
    /// (pre-filled with the base's). Returns the timestamp, or `None`
    /// when `text` is no repeat; the columns then hold partial values.
    fn repeat(&self, text: &[u8], load_a: &mut [u8], load_b: &mut [u8]) -> Option<Timestamp> {
        let base = self.text.as_bytes();
        let mut timestamp = self.snap.timestamp;
        // Positions in the base and in the new text.
        let (mut from, mut at) = (0, 0);
        for (span, slot) in &self.spans {
            let gap = base.get(from..span.start)?;
            let rest = text.get(at..)?;
            let rest = rest.strip_prefix(gap)?;
            let len = match *slot {
                Slot::Timestamp => {
                    let token = rest.get(..span.len())?;
                    let token = std::str::from_utf8(token).ok()?;
                    timestamp = Timestamp::parse_iso8601(token).ok()?;
                    token.len()
                }
                Slot::Load { cell, second } => {
                    let (load, len) = load_token(rest)?;
                    let column = if second { &mut *load_b } else { &mut *load_a };
                    *column.get_mut(cell)? = load;
                    len
                }
            };
            at += gap.len() + len;
            from = span.end;
        }
        (text.get(at..)? == base.get(from..)?).then_some(timestamp)
    }
}

/// The load token at the start of `bytes` as `(percent, length)`, when
/// it is spelled as the snapshot writer spells a load: `0`, or one to
/// three ASCII digits with no leading zero, at most `100`, and not
/// followed by a further digit. The full read types such a token as the
/// same integer and accepts it as a load.
fn load_token(bytes: &[u8]) -> Option<(u8, usize)> {
    let len = bytes
        .iter()
        .take(4)
        .take_while(|b| b.is_ascii_digit())
        .count();
    let token = bytes.get(..len)?;
    if len > 3 || !matches!(token, [_] | [b'1'..=b'9', ..]) {
        return None;
    }
    let value = token
        .iter()
        .fold(0u32, |value, &digit| value * 10 + u32::from(digit - b'0'));
    let load = u8::try_from(value).ok().filter(|&load| load <= 100)?;
    Some((load, len))
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
/// A snapshot whose topology row equals that of the snapshot the same
/// builder took just before keeps no row of its own, so a worker holds
/// one copy of a topology that persists across its files.
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
    /// Node-id cells of the pending topology rows, back to back.
    node_cells: Vec<u32>,
    /// Link cells of the pending topology rows, back to back.
    cells: Vec<LocalCell>,
    /// Canonical first-end loads of every pending snapshot, one per link
    /// cell of its row.
    load_a: Vec<u8>,
    /// Canonical second-end loads, aligned with `load_a`.
    load_b: Vec<u8>,
    /// Local ids of the listed nodes of the snapshot being added, in
    /// list order (scratch, reused across snapshots).
    listed: Vec<u32>,
    /// The last file [`ColumnarBuilder::add_yaml`] fully read and
    /// accepted, for the repeat read; `None` before the first and after
    /// [`ColumnarBuilder::add_snapshot`].
    base: Option<Base>,
    /// The value spans of the file being read (scratch; they become
    /// the base's when the file is accepted).
    spans: Vec<(Range<usize>, Slot)>,
}

/// A stored load byte as a [`Load`]. Stored bytes come from
/// `Load::percent()` and are valid by construction; a missing or
/// out-of-range byte maps to `0 %` rather than panicking.
fn load_of(byte: Option<&u8>) -> Load {
    byte.and_then(|&b| Load::new(b)).unwrap_or(Load::ZERO)
}

/// The half-open cell range of entry `index` in a CSR offset table.
/// Out-of-range indices yield an empty range; inverted offsets (which a
/// well-formed table never holds) clamp to empty instead of panicking.
fn offset_span(offsets: &[u32], index: usize) -> Range<usize> {
    offsets_between(offsets, index..index.saturating_add(1))
}

/// The half-open cell range of the entries `range` in a CSR offset
/// table, clamped like [`offset_span`].
pub(crate) fn offsets_between(offsets: &[u32], range: Range<usize>) -> Range<usize> {
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
    ///
    /// A file that repeats the last file this builder read and accepted
    /// outside its timestamp and load values is read as those values
    /// alone ([`Base::repeat`]), with the result the full read would
    /// give; every other file takes the full read and, when accepted,
    /// becomes the base.
    pub fn add_yaml(&mut self, index: usize, text: &str) -> Result<(), SchemaError> {
        if self.add_repeat(index, text) {
            return Ok(());
        }
        let mut file = FileVisitor::new(self);
        read_snapshot(text, &mut file)?;
        file.commit(index);
        self.set_base(text);
        Ok(())
    }

    /// Commits `text` as a repeat of the base, if it is one.
    fn add_repeat(&mut self, index: usize, text: &str) -> bool {
        let Some(base) = &self.base else {
            return false;
        };
        // The new snapshot's loads start as a copy of the base's.
        let from = self.load_a.len();
        let loads = base.snap.loads..base.snap.loads.saturating_add(base.snap.cells.len());
        if loads.end > from {
            return false; // the base's loads are always committed
        }
        self.load_a.extend_from_within(loads.clone());
        self.load_b.extend_from_within(loads);
        let timestamp = base.repeat(
            text.as_bytes(),
            self.load_a.get_mut(from..).unwrap_or_default(),
            self.load_b.get_mut(from..).unwrap_or_default(),
        );
        let Some(timestamp) = timestamp else {
            self.load_a.truncate(from);
            self.load_b.truncate(from);
            return false;
        };
        self.snaps.push(PendingSnapshot {
            index,
            timestamp,
            loads: from,
            ..base.snap.clone()
        });
        true
    }

    /// Makes `text`, just committed by the full read, the base: its
    /// value spans (collected by [`FileVisitor::value_spans`]) in their
    /// canonical spelling, and the snapshot it committed.
    fn set_base(&mut self, text: &str) {
        let Some(snap) = self.snaps.last().cloned() else {
            return;
        };
        let mut spans = std::mem::take(&mut self.spans);
        spans.retain(|(span, slot)| {
            let token = text.get(span.clone()).unwrap_or_default();
            match slot {
                Slot::Timestamp => Timestamp::parse_iso8601(token).is_ok(),
                Slot::Load { .. } => {
                    load_token(token.as_bytes()).is_some_and(|(_, len)| len == token.len())
                }
            }
        });
        // Distinct scalar tokens never overlap; if two did,
        // `Base::repeat` would find no gap between them and refuse.
        spans.sort_unstable_by_key(|(span, _)| span.start);
        self.base = Some(Base {
            text: text.to_owned(),
            spans,
            snap,
        });
    }

    /// Folds one snapshot (input position `index`) into the columns.
    pub fn add_snapshot(&mut self, index: usize, snapshot: &TopologySnapshot) {
        self.base = None;
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

    /// Appends one link cell and its loads, interning its identity.
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
        self.cells.push(LocalCell { def, flipped });
        self.load_a.push(first.load.percent());
        self.load_b.push(second.load.percent());
    }

    /// Merges per-worker builders into the final store.
    ///
    /// Ids become ranks in the globally sorted symbol tables and
    /// snapshots are ordered by `(timestamp, input index)`, so the
    /// result does not depend on how snapshots were distributed over
    /// builders. Topology rows follow the store's one row rule (see
    /// [`LongitudinalStore`]) in that final order.
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
        let load_count: usize = builders.iter().map(|b| b.load_a.len()).sum();
        store.load_a.reserve(load_count);
        store.load_b.reserve(load_count);
        // The builder and local row of the snapshot placed last: a
        // snapshot sharing it is the same row without a comparison.
        let mut previous: Option<(usize, Range<usize>, Range<usize>)> = None;
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
            let same_row = previous.as_ref().is_some_and(|(pk, nodes, cells)| {
                *pk == k && *nodes == snap.nodes && *cells == snap.cells
            });
            if same_row {
                store.extend_run(1);
            } else {
                let node_row = builder.node_cells.get(snap.nodes.clone()).unwrap_or(&[]);
                store
                    .node_cells
                    .extend(node_row.iter().map(|&id| rank_of(node_map, id as usize)));
                let cells = builder.cells.get(snap.cells.clone()).unwrap_or(&[]);
                store
                    .link_cells
                    .extend(cells.iter().map(|cell| rank_of(def_map, cell.def as usize)));
                store.flipped.extend(cells.iter().map(|cell| cell.flipped));
                store.close_row(1);
                previous = Some((k, snap.nodes.clone(), snap.cells.clone()));
            }
            let loads = snap.loads..snap.loads.saturating_add(snap.cells.len());
            store
                .load_a
                .extend_from_slice(builder.load_a.get(loads.clone()).unwrap_or(&[]));
            store
                .load_b
                .extend_from_slice(builder.load_b.get(loads).unwrap_or(&[]));
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
    cells_from: usize,
    loads_from: usize,
}

impl<'b> FileVisitor<'b> {
    fn new(builder: &'b mut ColumnarBuilder) -> FileVisitor<'b> {
        builder.listed.clear();
        FileVisitor {
            nodes_from: builder.node_cells.len(),
            cells_from: builder.cells.len(),
            loads_from: builder.load_a.len(),
            header: None,
            builder,
        }
    }

    /// Records the snapshot whose cells were appended since
    /// [`FileVisitor::new`] (nothing, when no header arrived). A topology
    /// row equal to the previous snapshot's is dropped again and the
    /// snapshot shares that row.
    fn commit(self, index: usize) {
        let builder = self.builder;
        let Some((map, timestamp)) = self.header else {
            builder.node_cells.truncate(self.nodes_from);
            builder.cells.truncate(self.cells_from);
            builder.load_a.truncate(self.loads_from);
            builder.load_b.truncate(self.loads_from);
            return;
        };
        let mut nodes = self.nodes_from..builder.node_cells.len();
        let mut cells = self.cells_from..builder.cells.len();
        if let Some(prev) = builder.snaps.last() {
            let same = builder.node_cells.get(prev.nodes.clone())
                == builder.node_cells.get(nodes.clone())
                && builder.cells.get(prev.cells.clone()) == builder.cells.get(cells.clone());
            if same {
                nodes = prev.nodes.clone();
                cells = prev.cells.clone();
                builder.node_cells.truncate(self.nodes_from);
                builder.cells.truncate(self.cells_from);
            }
        }
        builder.snaps.push(PendingSnapshot {
            index,
            map,
            timestamp,
            nodes,
            cells,
            loads: self.loads_from,
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

    fn value_spans(&mut self, timestamp: &Range<usize>, loads: &[[Range<usize>; 2]]) {
        let builder = &mut *self.builder;
        builder.spans.clear();
        builder.spans.reserve(1 + 2 * loads.len());
        builder.spans.push((timestamp.clone(), Slot::Timestamp));
        // Link `cell` of the file is cell `cell` of the row just pushed;
        // a flipped cell stores its `a` load in the second column.
        let cells = builder.cells.get(self.cells_from..).unwrap_or_default();
        for (cell, ([a, b], local)) in loads.iter().zip(cells).enumerate() {
            for (span, second) in [(a, local.flipped), (b, !local.flipped)] {
                builder
                    .spans
                    .push((span.clone(), Slot::Load { cell, second }));
            }
        }
    }
}

/// One map's snapshot history in columnar form. See the module docs.
///
/// The topology of a snapshot — its node ids, its link ids and their
/// orientation bits, in original order — is its *row*. Rows are stored
/// once per run of consecutive snapshots that share them; a snapshot
/// holds only its timestamp, map and per-direction loads. The one row
/// rule, which every constructor follows: a new row opens exactly where
/// a snapshot's row differs from the previous snapshot's, in the final
/// `(timestamp, input index)` order (so `A→B→A` is three rows). The
/// columns are therefore a pure function of the snapshot sequence.
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
    /// Per row, one past the last snapshot of its run: strictly
    /// increasing, the last equal to `len()`.
    pub(crate) run_ends: Vec<u32>,
    /// Per-row offsets into `node_cells` (one more entry than rows).
    pub(crate) node_offsets: Vec<u32>,
    pub(crate) node_cells: Vec<u32>,
    /// Per-row offsets into `link_cells` and `flipped`.
    pub(crate) link_offsets: Vec<u32>,
    pub(crate) link_cells: Vec<u32>,
    pub(crate) flipped: Vec<bool>,
    /// Per-snapshot offsets into the load columns (one more entry than
    /// snapshots): each snapshot holds one load pair per link cell of
    /// its row. Derived from the runs; never serialised.
    pub(crate) load_offsets: Vec<u32>,
    pub(crate) load_a: Vec<u8>,
    pub(crate) load_b: Vec<u8>,
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
    pub(crate) fn with_tables(nodes: Vec<Node>, defs: Vec<LinkDef>) -> LongitudinalStore {
        LongitudinalStore {
            nodes,
            defs,
            timestamps: Vec::new(),
            maps: Vec::new(),
            run_ends: Vec::new(),
            node_offsets: vec![0],
            node_cells: Vec::new(),
            link_offsets: vec![0],
            link_cells: Vec::new(),
            flipped: Vec::new(),
            load_offsets: vec![0],
            load_a: Vec::new(),
            load_b: Vec::new(),
        }
    }

    /// Closes the row whose cells were appended past the last row's end
    /// as the topology of the next `count` snapshots: a row equal to the
    /// last one is dropped again and extends its run instead, the one
    /// row rule. The caller appends the snapshots' timestamps, maps and
    /// loads.
    pub(crate) fn close_row(&mut self, count: usize) {
        let rows = self.run_ends.len();
        let nodes_from = self.node_offsets.last().map_or(0, |&o| o as usize);
        let links_from = self.link_offsets.last().map_or(0, |&o| o as usize);
        let same = rows > 0
            && self.row(rows.saturating_sub(1))
                == self.cells_of(
                    nodes_from..self.node_cells.len(),
                    links_from..self.link_cells.len(),
                );
        if same {
            self.node_cells.truncate(nodes_from);
            self.link_cells.truncate(links_from);
            self.flipped.truncate(links_from);
        } else {
            self.node_offsets.push(self.node_cells.len() as u32);
            self.link_offsets.push(self.link_cells.len() as u32);
            // The new run starts where the last one ends, empty until
            // extended below.
            let start = self.run_ends.last().copied().unwrap_or(0);
            self.run_ends.push(start);
        }
        self.extend_run(count);
    }

    /// Extends the last row's run by `count` snapshots.
    pub(crate) fn extend_run(&mut self, count: usize) {
        let width = self.link_span(self.run_ends.len().saturating_sub(1)).len() as u32;
        if let Some(end) = self.run_ends.last_mut() {
            *end = end.saturating_add(count as u32);
        }
        let mut at = self.load_offsets.last().copied().unwrap_or(0);
        for _ in 0..count {
            at = at.saturating_add(width);
            self.load_offsets.push(at);
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
    /// [`ColumnarBuilder::finish`] uses; each part's rows are copied
    /// once per run, ids remapped and runs trimmed to the part's range,
    /// and equal rows meeting at a part boundary merge into one run.
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

        // Columns: each part's rows once per run, ids remapped; loads
        // are one contiguous copy per part.
        let mut merged = LongitudinalStore::with_tables(nodes, defs);
        for (((store, range), node_map), def_map) in parts.iter().zip(&node_maps).zip(&def_maps) {
            merged
                .timestamps
                .extend_from_slice(store.timestamps.get(range.clone()).unwrap_or(&[]));
            merged
                .maps
                .extend_from_slice(store.maps.get(range.clone()).unwrap_or(&[]));
            for (row, run) in store.row_runs(range.clone()) {
                let node_row = store.node_cells.get(store.node_span(row)).unwrap_or(&[]);
                merged
                    .node_cells
                    .extend(node_row.iter().map(|&id| rank_of(node_map, id as usize)));
                let links = store.link_span(row);
                let link_row = store.link_cells.get(links.clone()).unwrap_or(&[]);
                merged
                    .link_cells
                    .extend(link_row.iter().map(|&def| rank_of(def_map, def as usize)));
                merged
                    .flipped
                    .extend_from_slice(store.flipped.get(links).unwrap_or(&[]));
                merged.close_row(run.len());
            }
            let loads = offsets_between(&store.load_offsets, range.clone());
            merged
                .load_a
                .extend_from_slice(store.load_a.get(loads.clone()).unwrap_or(&[]));
            merged
                .load_b
                .extend_from_slice(store.load_b.get(loads).unwrap_or(&[]));
        }
        merged
    }

    /// Which symbol-table entries the snapshots `range` use, as
    /// `(nodes, link identities)` masks: a node is used when a row of
    /// the range lists it or a used link ends at it, a link identity
    /// when a row of the range holds it.
    fn used_symbols(&self, range: Range<usize>) -> (Vec<bool>, Vec<bool>) {
        let mut node_used = vec![false; self.nodes.len()];
        let mut def_used = vec![false; self.defs.len()];
        for (row, _) in self.row_runs(range) {
            let node_cells = self.node_cells.get(self.node_span(row)).unwrap_or(&[]);
            for &id in node_cells {
                if let Some(used) = node_used.get_mut(id as usize) {
                    *used = true;
                }
            }
            let link_cells = self.link_cells.get(self.link_span(row)).unwrap_or(&[]);
            for &def in link_cells {
                if let Some(used) = def_used.get_mut(def as usize) {
                    *used = true;
                }
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

    /// Total number of link observations (load pairs) across all
    /// snapshots.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.load_a.len()
    }

    /// Number of topology rows: runs of consecutive snapshots that share
    /// their nodes, links and orientations.
    #[must_use]
    pub fn topology_rows(&self) -> usize {
        self.run_ends.len()
    }

    /// The snapshot index range of row `row`'s run (empty for a row out
    /// of range).
    pub(crate) fn run_of(&self, row: usize) -> Range<usize> {
        let start = row
            .checked_sub(1)
            .and_then(|prev| self.run_ends.get(prev))
            .map_or(0, |&e| e as usize);
        let end = self.run_ends.get(row).map_or(start, |&e| e as usize);
        start..end.max(start)
    }

    /// The row of snapshot `index` (`topology_rows()` for an index out
    /// of range).
    pub(crate) fn row_at(&self, index: usize) -> usize {
        self.run_ends.partition_point(|&end| end as usize <= index)
    }

    /// Every topology row whose run intersects the snapshots `range`,
    /// as `(row, run)` with the run clipped to the range, in snapshot
    /// order.
    pub fn row_runs(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let first = self.row_at(range.start);
        (first..self.run_ends.len())
            .map(move |row| {
                let run = self.run_of(row);
                (row, run.start.max(range.start)..run.end.min(range.end))
            })
            .take_while(|(_, run)| !run.is_empty())
    }

    /// The node cells, link cells and orientation bits of the given
    /// spans.
    fn cells_of(&self, nodes: Range<usize>, links: Range<usize>) -> (&[u32], &[u32], &[bool]) {
        (
            self.node_cells.get(nodes).unwrap_or(&[]),
            self.link_cells.get(links.clone()).unwrap_or(&[]),
            self.flipped.get(links).unwrap_or(&[]),
        )
    }

    /// The node cells, link cells and orientation bits of row `row`.
    fn row(&self, row: usize) -> (&[u32], &[u32], &[bool]) {
        self.cells_of(self.node_span(row), self.link_span(row))
    }

    /// Whether two consecutive rows are equal, which the row rule never
    /// produces (a decoder's canonical-form check).
    pub(crate) fn has_repeated_row(&self) -> bool {
        (1..self.topology_rows()).any(|row| self.row(row.saturating_sub(1)) == self.row(row))
    }

    /// The `node_cells` range of row `row`.
    pub(crate) fn node_span(&self, row: usize) -> Range<usize> {
        offset_span(&self.node_offsets, row)
    }

    /// The `link_cells`/`flipped` range of row `row`.
    pub(crate) fn link_span(&self, row: usize) -> Range<usize> {
        offset_span(&self.link_offsets, row)
    }

    /// Iterates a topology row's node ids in original snapshot order.
    pub fn row_node_ids(&self, row: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.node_cells
            .get(self.node_span(row))
            .unwrap_or(&[])
            .iter()
            .map(|&id| NodeId(id))
    }

    /// The canonical first-end and second-end loads of snapshot `index`,
    /// aligned with the link cells of its row (empty for an index out of
    /// range).
    #[must_use]
    pub fn loads(&self, index: usize) -> (&[u8], &[u8]) {
        let span = offset_span(&self.load_offsets, index);
        (
            self.load_a.get(span.clone()).unwrap_or(&[]),
            self.load_b.get(span).unwrap_or(&[]),
        )
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
        let row = self.row_at(index);
        snapshot.nodes = self
            .node_cells
            .get(self.node_span(row))
            .unwrap_or(&[])
            .iter()
            .filter_map(|&id| self.nodes.get(id as usize).cloned())
            .collect();
        let links = self.link_span(row);
        let (load_a, load_b) = self.loads(index);
        let cells = self.link_cells.get(links.clone()).unwrap_or(&[]);
        let flips = self.flipped.get(links).unwrap_or(&[]);
        snapshot.links = cells
            .iter()
            .zip(flips)
            .enumerate()
            .filter_map(|(cell, (&def, &flipped))| {
                let def = self.defs.get(def as usize)?;
                let first = LinkEnd::new(
                    self.nodes.get(def.a.index())?.clone(),
                    def.label_a.clone(),
                    load_of(load_a.get(cell)),
                );
                let second = LinkEnd::new(
                    self.nodes.get(def.b.index())?.clone(),
                    def.label_b.clone(),
                    load_of(load_b.get(cell)),
                );
                Some(if flipped {
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
            + (self.run_ends.len() + self.load_offsets.len()) * size_of::<u32>()
            + (self.node_offsets.len() + self.node_cells.len()) * size_of::<u32>()
            + (self.link_offsets.len() + self.link_cells.len()) * size_of::<u32>()
            + self.flipped.len()
            + self.load_a.len()
            + self.load_b.len()
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

    /// The builder's topology state: interned nodes and link identities,
    /// and the row cells held.
    fn topology_state(builder: &ColumnarBuilder) -> [usize; 4] {
        [
            builder.nodes.len(),
            builder.defs.len(),
            builder.node_cells.len(),
            builder.cells.len(),
        ]
    }

    fn base_text(builder: &ColumnarBuilder) -> Option<&str> {
        builder.base.as_ref().map(|base| base.text.as_str())
    }

    #[test]
    fn a_near_repeat_adds_no_topology_and_keeps_the_base() {
        let [s0, s1, s2] = series().try_into().unwrap();
        let texts = [&s0, &s1, &s2].map(wm_extract::to_yaml_string);
        let mut builder = ColumnarBuilder::new();
        builder.add_yaml(0, &texts[0]).unwrap();
        assert_eq!(base_text(&builder), Some(texts[0].as_str()));
        let after_first = topology_state(&builder);

        // `s1` changes one flipped link's loads and the timestamp: it is
        // read as values, on the base's row.
        builder.add_yaml(1, &texts[1]).unwrap();
        assert_eq!(topology_state(&builder), after_first);
        assert_eq!(base_text(&builder), Some(texts[0].as_str()));
        assert_eq!(builder.snaps[1].cells, builder.snaps[0].cells);

        // A repeat of `s1` whose load the full read refuses is refused,
        // and leaves the builder and its base as they were.
        let refused = texts[1].replacen("a_load: 0", "a_load: 101", 1);
        assert!(builder.add_yaml(9, &refused).is_err());
        assert_eq!(builder.snaps.len(), 2);
        assert_eq!(builder.load_a.len(), 2 * s0.links.len());
        assert_eq!(base_text(&builder), Some(texts[0].as_str()));

        // `s2` adds a node and a link: the full read takes it, and the
        // accepted file becomes the base.
        builder.add_yaml(2, &texts[2]).unwrap();
        assert_ne!(topology_state(&builder), after_first);
        assert_eq!(base_text(&builder), Some(texts[2].as_str()));

        // The values of a repeat land on their canonical ends.
        let mut s3 = s2.clone();
        s3.timestamp = s2.timestamp + Duration::from_minutes(5);
        for (i, link) in s3.links.iter_mut().enumerate() {
            link.a.egress_load = load(100 - i as u8);
            link.b.egress_load = load(i as u8);
        }
        let after_third = topology_state(&builder);
        builder
            .add_yaml(3, &wm_extract::to_yaml_string(&s3))
            .unwrap();
        assert_eq!(topology_state(&builder), after_third);
        let store = ColumnarBuilder::finish(vec![builder]);
        assert_eq!(store, LongitudinalStore::from_snapshots(&[s0, s1, s2, s3]));
    }

    #[test]
    fn an_accepted_edit_replaces_the_base() {
        let [s0, _, _] = series().try_into().unwrap();
        let text = wm_extract::to_yaml_string(&s0);
        // A trailing comment after a load is outside every value token:
        // not a repeat, but a file the full read accepts.
        let edited = text.replacen("a_load: 42", "a_load: 42 # note", 1);
        let mut builder = ColumnarBuilder::new();
        builder.add_yaml(0, &text).unwrap();
        builder.add_yaml(1, &edited).unwrap();
        assert_eq!(base_text(&builder), Some(edited.as_str()));
        // `add_snapshot` drops the base.
        builder.add_snapshot(2, &s0);
        assert_eq!(base_text(&builder), None);
    }

    /// Snapshots `0..n` of a fixed topology at 5-minute steps, with the
    /// load of the first link set to `load(i)`.
    fn steady(n: usize, topology: &TopologySnapshot) -> Vec<TopologySnapshot> {
        (0..n)
            .map(|i| {
                let mut s = topology.clone();
                s.timestamp = topology.timestamp + Duration::from_minutes(5 * i as i64);
                s.links[0].a.egress_load = load((7 * i % 101) as u8);
                s
            })
            .collect()
    }

    #[test]
    fn rows_open_only_where_the_topology_changes() {
        let [a, _, b] = series().try_into().unwrap();
        // A→A→B→B→A: the return to A is a row of its own.
        let mut snaps = steady(2, &a);
        let mut later = b.clone();
        later.timestamp = a.timestamp + Duration::from_minutes(10);
        snaps.extend(steady(2, &later));
        let mut back = a.clone();
        back.timestamp = a.timestamp + Duration::from_minutes(20);
        snaps.push(back);
        let store = LongitudinalStore::from_snapshots(&snaps);
        assert_eq!(store.topology_rows(), 3);
        let runs: Vec<Range<usize>> = store.row_runs(0..5).map(|(_, run)| run).collect();
        assert_eq!(runs, vec![0..2, 2..4, 4..5]);
        assert_eq!(store.snapshots().collect::<Vec<_>>(), snaps);

        // Windows trim runs; slices of one run concatenate back into it.
        let window = store.slice(1..3);
        assert_eq!(window.topology_rows(), 2);
        assert_eq!(window, LongitudinalStore::from_snapshots(&snaps[1..3]));
        let joined = LongitudinalStore::concat(&[(&store, 0..1), (&store, 1..2)]);
        assert_eq!(joined.topology_rows(), 1);
        assert_eq!(joined, LongitudinalStore::from_snapshots(&snaps[..2]));
    }

    #[test]
    fn approx_bytes_stores_a_steady_topology_once() {
        let [a, _, _] = series().try_into().unwrap();
        let one = LongitudinalStore::from_snapshots(&steady(1, &a)).approx_bytes();
        let many = LongitudinalStore::from_snapshots(&steady(101, &a)).approx_bytes();
        // Each further snapshot adds its loads, timestamp, map and load
        // offset, never its topology.
        let per_snapshot = 2 * a.links.len()
            + std::mem::size_of::<Timestamp>()
            + std::mem::size_of::<MapKind>()
            + std::mem::size_of::<u32>();
        assert_eq!(many - one, 100 * per_snapshot);
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
