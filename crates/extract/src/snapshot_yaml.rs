//! The YAML snapshot schema.
//!
//! The paper's processing scripts output one YAML file per snapshot; the
//! released dataset ships 541 819 of them. This module defines this
//! reproduction's equivalent schema and its (lossless) mapping to
//! [`TopologySnapshot`]:
//!
//! ```yaml
//! schema: ovh-weather/1
//! map: europe
//! timestamp: 2020-07-15T10:05:00Z
//! nodes:
//!   - name: rbx-g1-nc1
//!     kind: router
//! links:
//!   - a: rbx-g1-nc1
//!     a_label: "#1"
//!     a_load: 42
//!     b: ARELION
//!     b_label: "#1"
//!     b_load: 9
//! ```
//!
//! Neither direction builds a `wm_yaml::Value` tree. Writing
//! ([`to_yaml_string`]) prints the fixed layout above straight into one
//! string, quoting with `wm-yaml`'s one scalar rule; a property test
//! pins it byte for byte to the tree emitter's output. Reading
//! ([`read_snapshot`]) walks the borrowed `wm-yaml` event stream, validates the whole file and only then hands its header,
//! nodes and link ends, and where its timestamp and load values sit in
//! the text, to a [`SnapshotVisitor`]. [`from_yaml_str`] is
//! the visitor that assembles a [`TopologySnapshot`]; the columnar
//! builder in `wm-dataset` is the other, and interns straight from the
//! borrowed names.

use std::borrow::Cow;
use std::ops::Range;

use wm_model::{Link, LinkEnd, Load, MapKind, Node, NodeKind, Timestamp, TopologySnapshot};
use wm_yaml::{push_str_scalar, Event, Handler, Scalar};

/// The schema identifier embedded in every file.
pub const SCHEMA_ID: &str = "ovh-weather/1";

/// A schema violation found while reading a YAML snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(String);

impl SchemaError {
    fn new(message: impl Into<String>) -> SchemaError {
        SchemaError(message.into())
    }

    /// The problem description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

/// Serialises a snapshot to YAML text.
///
/// Prints the fixed schema straight into one string, in the layout
/// `wm_yaml::to_string` gives the equivalent value tree (block
/// sequences, compact `- key:` items, `[]` for an empty list, absent
/// labels omitted), with every string written by
/// [`wm_yaml::push_str_scalar`].
#[must_use]
pub fn to_yaml_string(snapshot: &TopologySnapshot) -> String {
    let mut out =
        String::with_capacity(96 + 40 * snapshot.nodes.len() + 120 * snapshot.links.len());
    push_field(&mut out, "schema: ", SCHEMA_ID);
    push_field(&mut out, "map: ", snapshot.map.slug());
    push_field(&mut out, "timestamp: ", &snapshot.timestamp.to_iso8601());
    if snapshot.nodes.is_empty() {
        out.push_str("nodes: []\n");
    } else {
        out.push_str("nodes:\n");
        for node in &snapshot.nodes {
            push_field(&mut out, "  - name: ", &node.name);
            push_field(&mut out, "    kind: ", node.kind.slug());
        }
    }
    if snapshot.links.is_empty() {
        out.push_str("links: []\n");
    } else {
        out.push_str("links:\n");
        for link in &snapshot.links {
            push_end(
                &mut out,
                ["  - a: ", "    a_label: ", "    a_load: "],
                &link.a,
            );
            push_end(
                &mut out,
                ["    b: ", "    b_label: ", "    b_load: "],
                &link.b,
            );
        }
    }
    out
}

/// Appends one `key: value` line (`key` carries its indent and `: `).
fn push_field(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    push_str_scalar(out, value);
    out.push('\n');
}

/// Appends one link end's name, label (when present) and load lines.
fn push_end(out: &mut String, [name, label, load]: [&str; 3], end: &LinkEnd) {
    push_field(out, name, &end.node.name);
    if let Some(text) = &end.label {
        push_field(out, label, text);
    }
    out.push_str(load);
    push_percent(out, end.egress_load.percent());
    out.push('\n');
}

/// Appends a load percentage (`0..=100`, or any `u8`) in decimal.
fn push_percent(out: &mut String, value: u8) {
    let digits = [value / 100, value / 10 % 10, value % 10];
    let skip = if value >= 100 {
        0
    } else if value >= 10 {
        1
    } else {
        2
    };
    for digit in digits.iter().skip(skip) {
        out.push(char::from(b'0' + digit));
    }
}

/// Receives one snapshot file from [`read_snapshot`], in file order:
/// the header, every listed node, then every link.
///
/// A visitor sees a file only after the whole file has validated, so a
/// rejected file never reaches it.
pub trait SnapshotVisitor {
    /// The file's map and capture instant; called first.
    fn header(&mut self, map: MapKind, timestamp: Timestamp);
    /// One listed node (the `n`-th call is node `n`).
    fn node(&mut self, name: &str, kind: NodeKind);
    /// One link, its ends as written (`a`, then `b`).
    fn link(&mut self, a: &EndRef<'_>, b: &EndRef<'_>);
    /// Where the values that change from snapshot to snapshot sit in
    /// the file text, as the YAML grammar delimited their tokens: the
    /// byte span of the `timestamp` value and, per link in link order,
    /// those of its `a_load` and `b_load` values. Called once, after
    /// the last link; the default ignores it.
    fn value_spans(&mut self, timestamp: &Range<usize>, loads: &[[Range<usize>; 2]]) {
        let _ = (timestamp, loads);
    }
    /// Whether the reader records the spans [`Self::value_spans`]
    /// receives. A visitor that ignores them sets this to `false`, and
    /// the reader neither records them nor calls `value_spans`.
    const VALUE_SPANS: bool = true;
}

/// One link end as read from a snapshot file, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndRef<'a> {
    /// The end's node name.
    pub name: &'a str,
    /// The end's node kind: that of the first listed node with this
    /// name, else [`Node::from_name`]'s classification.
    pub kind: NodeKind,
    /// The position of the first listed node with this name, if any.
    pub listed: Option<usize>,
    /// The `#n` label, when the file gives it as a string.
    pub label: Option<&'a str>,
    /// The egress load.
    pub load: Load,
}

/// Reads one snapshot file straight from the YAML event stream and
/// hands it to `visitor` — no value tree, no [`TopologySnapshot`].
///
/// The file must be valid YAML (a syntax error is reported first, like
/// a parse into a tree would) and follow the schema in the module
/// docs. Keys may come in any order and unknown keys are ignored; a
/// label that is absent, `null` or not a string reads as no label;
/// loads must be integers in `0..=100`. When several checks fail, the
/// one reported is the first in this order: `schema`, `map`,
/// `timestamp`, `nodes` (then each node in turn: name, kind), `links`
/// (then each link in turn: `a`, `a_load`, `b`, `b_load`). The visitor
/// is called only once all of them passed.
pub fn read_snapshot<V: SnapshotVisitor>(text: &str, visitor: &mut V) -> Result<(), SchemaError> {
    let mut reader = Reader {
        spans: V::VALUE_SPANS,
        ..Reader::default()
    };
    wm_yaml::parse_events(text, &mut reader).map_err(|e| SchemaError::new(e.to_string()))?;
    let (map, timestamp) = reader.validate()?;

    visitor.header(map, timestamp);
    for node in &reader.nodes {
        visitor.node(&node.name, node.kind);
    }
    // Node positions sorted by name; the sort is stable, so among equal
    // names the first listed comes first.
    let nodes = &reader.nodes;
    let mut by_name: Vec<usize> = (0..nodes.len()).collect();
    by_name.sort_by(|&x, &y| name_at(nodes, x).cmp(name_at(nodes, y)));
    let resolve = |name: &str| -> (NodeKind, Option<usize>) {
        let at = by_name.partition_point(|&i| name_at(nodes, i) < name);
        match by_name.get(at).copied() {
            Some(i) if name_at(nodes, i) == name => {
                (nodes.get(i).map_or(NodeKind::Router, |n| n.kind), Some(i))
            }
            _ => (NodeKind::classify(name), None),
        }
    };
    // Parallel links repeat both ends: remember the last resolution of
    // each side.
    let (mut last_a, mut last_b) = (None, None);
    for [a, b] in &reader.links {
        let (a_kind, a_listed) = memoized(&mut last_a, &a.name, resolve);
        let (b_kind, b_listed) = memoized(&mut last_b, &b.name, resolve);
        visitor.link(&a.as_ref(a_kind, a_listed), &b.as_ref(b_kind, b_listed));
    }
    if V::VALUE_SPANS {
        visitor.value_spans(&reader.timestamp_span, &reader.load_spans);
    }
    Ok(())
}

/// `resolve(name)`, answered from `last` when `name` repeats.
fn memoized<'n>(
    last: &mut Option<(&'n str, (NodeKind, Option<usize>))>,
    name: &'n str,
    resolve: impl Fn(&str) -> (NodeKind, Option<usize>),
) -> (NodeKind, Option<usize>) {
    match *last {
        Some((seen, resolved)) if seen == name => resolved,
        _ => {
            let resolved = resolve(name);
            *last = Some((name, resolved));
            resolved
        }
    }
}

/// Parses a snapshot from YAML text.
pub fn from_yaml_str(text: &str) -> Result<TopologySnapshot, SchemaError> {
    let mut assembler = Assembler(TopologySnapshot::new(
        MapKind::Europe,
        Timestamp::from_unix(0),
    ));
    read_snapshot(text, &mut assembler)?;
    Ok(assembler.0)
}

/// The [`SnapshotVisitor`] behind [`from_yaml_str`].
struct Assembler(TopologySnapshot);

impl SnapshotVisitor for Assembler {
    const VALUE_SPANS: bool = false;

    fn header(&mut self, map: MapKind, timestamp: Timestamp) {
        self.0.map = map;
        self.0.timestamp = timestamp;
    }

    fn node(&mut self, name: &str, kind: NodeKind) {
        self.0.nodes.push(Node {
            name: name.into(),
            kind,
        });
    }

    fn link(&mut self, a: &EndRef<'_>, b: &EndRef<'_>) {
        let end = |end: &EndRef<'_>| {
            let node = end
                .listed
                .and_then(|i| self.0.nodes.get(i).cloned())
                .unwrap_or_else(|| Node {
                    name: end.name.into(),
                    kind: end.kind,
                });
            LinkEnd::new(node, end.label.map(str::to_owned), end.load)
        };
        let link = Link::new(end(a), end(b));
        self.0.links.push(link);
    }
}

fn name_at<'n>(nodes: &'n [NodeRecord<'_>], i: usize) -> &'n str {
    nodes.get(i).map_or("", |n| n.name.as_ref())
}

/// A validated node of the file being read.
#[derive(Debug)]
struct NodeRecord<'a> {
    name: Cow<'a, str>,
    kind: NodeKind,
}

/// A validated link end of the file being read.
#[derive(Debug)]
struct EndRecord<'a> {
    name: Cow<'a, str>,
    label: Option<Cow<'a, str>>,
    load: Load,
}

impl EndRecord<'_> {
    fn as_ref(&self, kind: NodeKind, listed: Option<usize>) -> EndRef<'_> {
        EndRef {
            name: &self.name,
            kind,
            listed,
            label: self.label.as_deref(),
            load: self.load,
        }
    }
}

/// The root key whose value is being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Section {
    #[default]
    Other,
    Schema,
    Map,
    Timestamp,
    Nodes,
    Links,
}

/// The item key whose value is being read (`end` 0 is `a`, 1 is `b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Field {
    #[default]
    Other,
    Name,
    Kind,
    End(usize),
    Label(usize),
    Load(usize),
}

/// The string-valued fields of one sequence item, as far as read.
#[derive(Debug, Default)]
struct ItemFields<'a> {
    /// Node `name` / `kind`.
    name: Option<Cow<'a, str>>,
    kind: Option<Cow<'a, str>>,
    /// Link `a`/`b`, `a_label`/`b_label` and `a_load`/`b_load`.
    ends: [Option<Cow<'a, str>>; 2],
    labels: [Option<Cow<'a, str>>; 2],
    loads: [Option<i64>; 2],
    /// The byte spans of the load values read into `loads`.
    load_spans: [Range<usize>; 2],
}

/// The schema walk over the event stream: tracks where in the document
/// each event falls, keeps the fields the schema reads, and records the
/// first failure of each section without stopping (a later YAML error
/// must still win, as it would for a parse into a tree).
///
/// Depth 1 is the root mapping, depth 2 the `nodes`/`links` sequences,
/// depth 3 their items; deeper blocks are only counted.
#[derive(Debug)]
struct Reader<'a> {
    /// Depth of the innermost open block (0 before the root opens).
    depth: usize,
    /// Whether the next event is a value rather than an entry or an end.
    pending: bool,
    /// The open depth-1 block is a mapping (the root must be one).
    root_map: bool,
    section: Section,
    /// The open depth-2 block is the `nodes` or `links` sequence
    /// (`Other` for anything else).
    list: Section,
    /// The open depth-3 block is a mapping.
    item_map: bool,
    field: Field,
    item: ItemFields<'a>,
    schema: Option<Cow<'a, str>>,
    map: Option<Cow<'a, str>>,
    timestamp: Option<Cow<'a, str>>,
    /// Whether to record the value spans below.
    spans: bool,
    /// The byte span of the `timestamp` value.
    timestamp_span: Range<usize>,
    /// The byte span of the scalar being handled (set by
    /// [`Handler::scalar`], which every scalar with source text takes).
    span: Range<usize>,
    nodes_seq: bool,
    links_seq: bool,
    nodes: Vec<NodeRecord<'a>>,
    /// Each link's ends, `a` then `b`.
    links: Vec<[EndRecord<'a>; 2]>,
    /// Each link's load value spans, aligned with `links`.
    load_spans: Vec<[Range<usize>; 2]>,
    node_error: Option<SchemaError>,
    link_error: Option<SchemaError>,
}

impl Default for Reader<'_> {
    fn default() -> Self {
        Reader {
            depth: 0,
            pending: true,
            root_map: false,
            section: Section::Other,
            list: Section::Other,
            item_map: false,
            field: Field::Other,
            item: ItemFields::default(),
            schema: None,
            map: None,
            timestamp: None,
            spans: false,
            timestamp_span: 0..0,
            span: 0..0,
            nodes_seq: false,
            links_seq: false,
            nodes: Vec::new(),
            links: Vec::new(),
            load_spans: Vec::new(),
            node_error: None,
            link_error: None,
        }
    }
}

impl<'a> Handler<'a> for Reader<'a> {
    fn scalar(&mut self, line: usize, span: Range<usize>, scalar: Scalar<'a>) {
        if self.spans {
            self.span = span;
        }
        self.event(line, Event::Scalar(scalar));
    }

    fn event(&mut self, _line: usize, event: Event<'a>) {
        match event {
            Event::Key(key) => {
                self.entry(true);
                match self.depth {
                    1 => {
                        self.section = match key.as_ref() {
                            "schema" => Section::Schema,
                            "map" => Section::Map,
                            "timestamp" => Section::Timestamp,
                            "nodes" => Section::Nodes,
                            "links" => Section::Links,
                            _ => Section::Other,
                        }
                    }
                    3 => self.field = field_of(self.list, &key),
                    _ => {}
                }
            }
            Event::Item => {
                self.entry(false);
                if self.depth == 1 {
                    self.section = Section::Other;
                } else if self.depth == 2 && self.list != Section::Other {
                    self.item = ItemFields::default();
                }
            }
            Event::Scalar(scalar) => {
                match self.depth {
                    1 => self.section_scalar(scalar),
                    2 => self.finish_item(),
                    3 if self.item_map => self.field_scalar(scalar),
                    _ => {}
                }
                self.pending = false;
            }
            Event::End => {
                if self.depth == 3 {
                    self.finish_item();
                }
                self.depth = self.depth.saturating_sub(1);
                self.pending = false;
            }
        }
    }
}

impl<'a> Reader<'a> {
    /// A key or an item: the first entry of a block opens it one level
    /// deeper; either way a value is now pending.
    fn entry(&mut self, mapping: bool) {
        if self.pending {
            self.depth += 1;
            match self.depth {
                1 => self.root_map = mapping,
                2 => {
                    self.list = Section::Other;
                    if self.root_map && !mapping {
                        match self.section {
                            Section::Nodes => {
                                self.nodes_seq = true;
                                self.list = Section::Nodes;
                            }
                            Section::Links => {
                                self.links_seq = true;
                                self.list = Section::Links;
                            }
                            _ => {}
                        }
                    }
                }
                3 => {
                    self.item_map = mapping;
                    self.field = Field::Other;
                }
                _ => {}
            }
        }
        self.pending = true;
    }

    /// A scalar value of a root key.
    fn section_scalar(&mut self, scalar: Scalar<'a>) {
        if !self.root_map {
            return;
        }
        match (self.section, scalar) {
            (Section::Schema, Scalar::Str(s)) => self.schema = Some(s),
            (Section::Map, Scalar::Str(s)) => self.map = Some(s),
            (Section::Timestamp, Scalar::Str(s)) => {
                self.timestamp = Some(s);
                self.timestamp_span = self.span.clone();
            }
            (Section::Nodes, Scalar::EmptySeq) => self.nodes_seq = true,
            (Section::Links, Scalar::EmptySeq) => self.links_seq = true,
            _ => {}
        }
    }

    /// A scalar value of an item key.
    fn field_scalar(&mut self, scalar: Scalar<'a>) {
        let item = &mut self.item;
        match (self.field, scalar) {
            (Field::Name, Scalar::Str(s)) => item.name = Some(s),
            (Field::Kind, Scalar::Str(s)) => item.kind = Some(s),
            (Field::End(e), Scalar::Str(s)) => set(&mut item.ends, e, s),
            (Field::Label(e), Scalar::Str(s)) => set(&mut item.labels, e, s),
            (Field::Load(e), Scalar::Int(load)) => {
                set(&mut item.loads, e, load);
                if let Some(span) = item.load_spans.get_mut(e) {
                    *span = self.span.clone();
                }
            }
            _ => {}
        }
    }

    /// The current `nodes` or `links` item is complete: check it, keep
    /// it, or record the first failure of its section.
    fn finish_item(&mut self) {
        let item = &mut self.item;
        match self.list {
            Section::Nodes if self.node_error.is_none() => match node_of(item) {
                Ok(node) => self.nodes.push(node),
                Err(err) => self.node_error = Some(err),
            },
            Section::Links if self.link_error.is_none() => match ends_of(item) {
                Ok(ends) => {
                    self.links.push(ends);
                    if self.spans {
                        self.load_spans.push(item.load_spans.clone());
                    }
                }
                Err(err) => self.link_error = Some(err),
            },
            _ => {}
        }
        *item = ItemFields::default();
    }

    /// The whole document has parsed: apply the checks in schema order.
    fn validate(&self) -> Result<(MapKind, Timestamp), SchemaError> {
        let schema = self
            .schema
            .as_deref()
            .ok_or_else(|| SchemaError::new("missing schema field"))?;
        if schema != SCHEMA_ID {
            return Err(SchemaError::new(format!("unsupported schema {schema:?}")));
        }
        let map: MapKind = self
            .map
            .as_deref()
            .ok_or_else(|| SchemaError::new("missing map field"))?
            .parse()
            .map_err(SchemaError::new)?;
        let timestamp = Timestamp::parse_iso8601(
            self.timestamp
                .as_deref()
                .ok_or_else(|| SchemaError::new("missing timestamp field"))?,
        )
        .map_err(SchemaError::new)?;
        if !self.nodes_seq {
            return Err(SchemaError::new("missing nodes sequence"));
        }
        if let Some(err) = &self.node_error {
            return Err(err.clone());
        }
        if !self.links_seq {
            return Err(SchemaError::new("missing links sequence"));
        }
        if let Some(err) = &self.link_error {
            return Err(err.clone());
        }
        Ok((map, timestamp))
    }
}

/// Stores `value` in slot `at` of a two-slot field.
fn set<T>(slots: &mut [Option<T>; 2], at: usize, value: T) {
    if let Some(slot) = slots.get_mut(at) {
        *slot = Some(value);
    }
}

/// The item field a key names within `list`.
fn field_of(list: Section, key: &str) -> Field {
    match (list, key) {
        (Section::Nodes, "name") => Field::Name,
        (Section::Nodes, "kind") => Field::Kind,
        (Section::Links, "a") => Field::End(0),
        (Section::Links, "b") => Field::End(1),
        (Section::Links, "a_label") => Field::Label(0),
        (Section::Links, "b_label") => Field::Label(1),
        (Section::Links, "a_load") => Field::Load(0),
        (Section::Links, "b_load") => Field::Load(1),
        _ => Field::Other,
    }
}

/// A `nodes` item, checked (its fields are taken).
fn node_of<'a>(item: &mut ItemFields<'a>) -> Result<NodeRecord<'a>, SchemaError> {
    let name = item
        .name
        .take()
        .ok_or_else(|| SchemaError::new("node without a name"))?;
    let kind: NodeKind = item
        .kind
        .as_deref()
        .ok_or_else(|| SchemaError::new("node without a kind"))?
        .parse()
        .map_err(SchemaError::new)?;
    Ok(NodeRecord { name, kind })
}

/// A `links` item's two ends, checked, `a` fully before `b` (its fields
/// are taken).
fn ends_of<'a>(item: &mut ItemFields<'a>) -> Result<[EndRecord<'a>; 2], SchemaError> {
    let [a, b] = &mut item.ends;
    let [a_label, b_label] = &mut item.labels;
    let [a_load, b_load] = item.loads;
    Ok([
        end_of(a.take(), a_label.take(), a_load, ("a", "a_load"))?,
        end_of(b.take(), b_label.take(), b_load, ("b", "b_load"))?,
    ])
}

/// One link end, checked: its name, then its load.
fn end_of<'a>(
    name: Option<Cow<'a, str>>,
    label: Option<Cow<'a, str>>,
    load: Option<i64>,
    (name_key, load_key): (&str, &str),
) -> Result<EndRecord<'a>, SchemaError> {
    let name = name.ok_or_else(|| SchemaError::new(format!("link without {name_key:?}")))?;
    let load_value = load.ok_or_else(|| SchemaError::new(format!("link without {load_key:?}")))?;
    let load = u8::try_from(load_value)
        .ok()
        .and_then(Load::new)
        .ok_or_else(|| SchemaError::new(format!("load out of range: {load_value}")))?;
    Ok(EndRecord { name, label, load })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TopologySnapshot {
        let mut s = TopologySnapshot::new(
            MapKind::Europe,
            Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 0),
        );
        s.nodes = vec![Node::from_name("rbx-g1-nc1"), Node::from_name("AMS-IX")];
        s.links = vec![Link::new(
            LinkEnd::new(
                Node::from_name("rbx-g1-nc1"),
                Some("#1".into()),
                Load::new(42).unwrap(),
            ),
            LinkEnd::new(
                Node::from_name("AMS-IX"),
                Some("#1".into()),
                Load::new(9).unwrap(),
            ),
        )];
        s
    }

    #[test]
    fn round_trip_is_lossless() {
        let snapshot = sample();
        let text = to_yaml_string(&snapshot);
        let back = from_yaml_str(&text).unwrap();
        assert_eq!(snapshot, back);
    }

    #[test]
    fn yaml_text_is_human_shaped() {
        let text = to_yaml_string(&sample());
        assert!(text.starts_with("schema: ovh-weather/1\n"), "{text}");
        assert!(text.contains("map: europe"));
        assert!(
            text.contains("timestamp: \"2021-03-05T10:05:00Z\"")
                || text.contains("timestamp: 2021-03-05T10:05:00Z"),
            "{text}"
        );
        assert!(text.contains("a_load: 42"));
        assert!(text.contains("\"#1\""));
    }

    #[test]
    fn labels_are_optional() {
        let mut snapshot = sample();
        snapshot.links[0].a.label = None;
        let back = from_yaml_str(&to_yaml_string(&snapshot)).unwrap();
        assert_eq!(back.links[0].a.label, None);
        assert_eq!(back.links[0].b.label.as_deref(), Some("#1"));
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let text = to_yaml_string(&sample()).replace(SCHEMA_ID, "ovh-weather/999");
        let err = from_yaml_str(&text).unwrap_err();
        assert!(err.message().contains("unsupported schema"));
    }

    #[test]
    fn missing_fields_are_rejected() {
        for field in ["schema: ", "map: ", "timestamp: ", "a_load: "] {
            let text = to_yaml_string(&sample());
            let broken: String = text
                .lines()
                .filter(|l| !l.trim_start().starts_with(field.trim_end()))
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(
                from_yaml_str(&broken).is_err(),
                "dropping {field:?} should fail"
            );
        }
    }

    #[test]
    fn out_of_range_load_is_rejected() {
        let text = to_yaml_string(&sample()).replace("a_load: 42", "a_load: 142");
        assert!(from_yaml_str(&text).is_err());
    }

    #[test]
    fn value_spans_come_from_the_schema_fields_only() {
        /// The text of the reported timestamp and load spans.
        struct Spans<'t>(&'t str, Vec<&'t str>);
        impl SnapshotVisitor for Spans<'_> {
            fn header(&mut self, _map: MapKind, _timestamp: Timestamp) {}
            fn node(&mut self, _name: &str, _kind: NodeKind) {}
            fn link(&mut self, _a: &EndRef<'_>, _b: &EndRef<'_>) {}
            fn value_spans(&mut self, timestamp: &Range<usize>, loads: &[[Range<usize>; 2]]) {
                let text = self.0;
                let at = |span: &Range<usize>| text.get(span.clone()).unwrap_or("<none>");
                self.1.push(at(timestamp));
                self.1.extend(loads.iter().flatten().map(at));
            }
        }
        // Keys out of order, a trailing comment, and a decoy `a_load`
        // nested under an unknown key of a link.
        let text = "links:\n  - b_load: 7  # c\n    a: r-a\n    note:\n      a_load: 99\n    \
                    b: PEER\n    a_load: 042\nschema: ovh-weather/1\nnodes: []\n\
                    timestamp: \"2022-02-01T00:05:00Z\"\nmap: europe\n";
        let mut spans = Spans(text, Vec::new());
        read_snapshot(text, &mut spans).unwrap();
        assert_eq!(spans.1, ["\"2022-02-01T00:05:00Z\"", "042", "7"]);
    }

    #[test]
    fn node_kinds_survive_round_trip() {
        let back = from_yaml_str(&to_yaml_string(&sample())).unwrap();
        assert_eq!(back.nodes[0].kind, NodeKind::Router);
        assert_eq!(back.nodes[1].kind, NodeKind::Peering);
        assert_eq!(back.links[0].b.node.kind, NodeKind::Peering);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snapshot = TopologySnapshot::new(MapKind::World, Timestamp::from_unix(0));
        let back = from_yaml_str(&to_yaml_string(&snapshot)).unwrap();
        assert_eq!(snapshot, back);
    }
}
