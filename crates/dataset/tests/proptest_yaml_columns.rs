//! YAML goes straight into columns: `ColumnarBuilder::add_yaml` reads a
//! snapshot file through the borrowed schema reader, with no value tree
//! and no `TopologySnapshot`. This pins it to the naive path it
//! replaced — `wm_yaml::parse` into a value tree, the schema walk below
//! (a copy of the tree-based reader), then `add_snapshot` — on files
//! reshaped every way the grammar allows: any key order (links before
//! nodes, timestamp last), unknown and duplicate keys, comments, blank
//! lines, CRLF, a leading `---`, quoted scalars with escapes, empty
//! sequences, odd labels, bad loads, names listed twice under two
//! kinds and link ends naming no listed node.
//!
//! Per file the two paths must agree on accepting or rejecting (with
//! the same message), and the finished stores must be equal and encode
//! to the same segment bytes, also when the files are spread over two
//! builders.

use proptest::collection::vec;
use proptest::prelude::*;
use wm_dataset::{
    encode_segment, ColumnarBuilder, CorpusFingerprint, CorpusLoadStats, LongitudinalStore,
    SegmentHeader,
};
use wm_model::{Duration, Timestamp};

/// The tree-based schema walk, as it stood before the borrowed reader.
mod reference {
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, NodeKind, Timestamp, TopologySnapshot};
    use wm_yaml::Value;

    const SCHEMA_ID: &str = "ovh-weather/1";

    pub fn from_yaml_str(text: &str) -> Result<TopologySnapshot, String> {
        let value = wm_yaml::parse(text).map_err(|e| e.to_string())?;
        snapshot_from_yaml(&value)
    }

    fn snapshot_from_yaml(value: &Value) -> Result<TopologySnapshot, String> {
        let schema = value
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing schema field".to_owned())?;
        if schema != SCHEMA_ID {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let map: MapKind = value
            .get("map")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing map field".to_owned())?
            .parse()?;
        let timestamp = Timestamp::parse_iso8601(
            value
                .get("timestamp")
                .and_then(Value::as_str)
                .ok_or_else(|| "missing timestamp field".to_owned())?,
        )?;

        let mut snapshot = TopologySnapshot::new(map, timestamp);
        let nodes = value
            .get("nodes")
            .and_then(Value::as_seq)
            .ok_or_else(|| "missing nodes sequence".to_owned())?;
        for node in nodes {
            let name = node
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| "node without a name".to_owned())?;
            let kind: NodeKind = node
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| "node without a kind".to_owned())?
                .parse()?;
            snapshot.nodes.push(Node {
                name: name.into(),
                kind,
            });
        }

        let links = value
            .get("links")
            .and_then(Value::as_seq)
            .ok_or_else(|| "missing links sequence".to_owned())?;
        for link in links {
            let end =
                |name_key: &str, label_key: &str, load_key: &str| -> Result<LinkEnd, String> {
                    let name = link
                        .get(name_key)
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("link without {name_key:?}"))?;
                    let node = snapshot
                        .node(name)
                        .cloned()
                        .unwrap_or_else(|| Node::from_name(name));
                    let label = link
                        .get(label_key)
                        .and_then(Value::as_str)
                        .map(str::to_owned);
                    let load_value = link
                        .get(load_key)
                        .and_then(Value::as_i64)
                        .ok_or_else(|| format!("link without {load_key:?}"))?;
                    let load = u8::try_from(load_value)
                        .ok()
                        .and_then(Load::new)
                        .ok_or_else(|| format!("load out of range: {load_value}"))?;
                    Ok(LinkEnd::new(node, label, load))
                };
            snapshot.links.push(Link::new(
                end("a", "a_label", "a_load")?,
                end("b", "b_label", "b_load")?,
            ));
        }
        Ok(snapshot)
    }
}

/// A splitmix64 stream: one generated seed drives every shape choice
/// of one file.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `true` with probability `1 / n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'p>(&mut self, options: &[&'p str]) -> &'p str {
        options[self.below(options.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Listed node names: plain, with a space, and two that need escapes
/// when quoted. Upper-case names classify as peerings, the rest as
/// routers.
const NAMES: [&str; 8] = [
    "r-a",
    "r-b",
    "fra-fr5",
    "PEER",
    "AMS-IX",
    "two words",
    "we\"ird",
    "back\\slash",
];

/// Link-end names: the listed pool plus names no file lists.
const END_NAMES: [&str; 10] = [
    "r-a",
    "r-b",
    "fra-fr5",
    "PEER",
    "AMS-IX",
    "two words",
    "we\"ird",
    "back\\slash",
    "r-zz",
    "UNLISTED",
];

/// `name` as a YAML scalar: plain when the grammar allows it and the
/// dice say so, else double-quoted with escapes.
fn scalar(dice: &mut Dice, text: &str) -> String {
    let plain_ok = !text.contains('"') && !text.starts_with('#');
    if plain_ok && dice.one_in(2) {
        text.to_owned()
    } else {
        format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

/// A value for a label key, or `None` to leave the key out.
fn label_value(dice: &mut Dice) -> Option<String> {
    match dice.below(10) {
        0 => None,
        1 => Some("null".to_owned()),
        2 => Some("~".to_owned()),
        3 => Some("7".to_owned()),
        4 => Some("true".to_owned()),
        // `#` after a space starts a comment: the value is null.
        5 => Some("#3".to_owned()),
        6 => Some("\"#\\\"q\"".to_owned()),
        _ => Some(format!("\"#{}\"", 1 + dice.below(3))),
    }
}

/// A value for a load key: mostly a valid percent, sometimes one the
/// schema rejects.
fn load_value(dice: &mut Dice) -> String {
    match dice.below(40) {
        0 => "42.0".to_owned(),
        1 => "101".to_owned(),
        2 => "-1".to_owned(),
        3 => "\"42\"".to_owned(),
        _ => dice.below(101).to_string(),
    }
}

/// One block item `(key, value)` lines, rendered at item indentation
/// two, in the compact (`- k: v`) or the lone-dash form.
fn item(dice: &mut Dice, mut pairs: Vec<(String, String)>, out: &mut Vec<String>) {
    dice.shuffle(&mut pairs);
    if dice.one_in(6) {
        pairs.push(("note".to_owned(), "extra".to_owned()));
    }
    if dice.one_in(30) {
        if let Some(first) = pairs.first().cloned() {
            pairs.push(first); // duplicate key
        }
    }
    if pairs.is_empty() {
        out.push("  -".to_owned());
        return;
    }
    let lone_dash = dice.one_in(5);
    if lone_dash {
        out.push("  -".to_owned());
    }
    for (i, (key, value)) in pairs.iter().enumerate() {
        let lead = if i == 0 && !lone_dash { "  - " } else { "    " };
        out.push(format!("{lead}{key}: {value}"));
    }
}

/// Renders one generated snapshot file.
fn file(seed: u64) -> String {
    let mut dice = Dice(seed);
    let base = Timestamp::from_ymd(2022, 2, 1);
    let timestamp = base + Duration::from_minutes(5 * dice.below(6) as i64);

    let mut nodes: Vec<String> = Vec::new();
    for _ in 0..dice.below(6) {
        let name = NAMES[dice.below(NAMES.len())];
        let mut pairs = vec![
            ("name".to_owned(), scalar(&mut dice, name)),
            (
                "kind".to_owned(),
                if dice.one_in(40) {
                    "switch".to_owned()
                } else {
                    dice.pick(&["router", "peering"]).to_owned()
                },
            ),
        ];
        if dice.one_in(40) {
            pairs.remove(dice.below(2));
        }
        item(&mut dice, pairs, &mut nodes);
    }
    let mut links: Vec<String> = Vec::new();
    for _ in 0..dice.below(7) {
        let mut pairs = Vec::new();
        for end in ["a", "b"] {
            let name = END_NAMES[dice.below(END_NAMES.len())];
            pairs.push((end.to_owned(), scalar(&mut dice, name)));
            if let Some(label) = label_value(&mut dice) {
                pairs.push((format!("{end}_label"), label));
            }
            pairs.push((format!("{end}_load"), load_value(&mut dice)));
        }
        if dice.one_in(40) {
            pairs.remove(dice.below(pairs.len()));
        }
        item(&mut dice, pairs, &mut links);
    }

    // Root entries, each a block of lines, in a shuffled order.
    let iso = timestamp.to_iso8601();
    let mut root: Vec<Vec<String>> = vec![
        vec![format!(
            "schema: {}",
            if dice.one_in(40) {
                "ovh-weather/2"
            } else {
                "ovh-weather/1"
            }
        )],
        vec![format!(
            "map: {}",
            if dice.one_in(40) {
                "mars".to_owned()
            } else {
                scalar(&mut dice, "europe")
            }
        )],
        vec![format!("timestamp: {}", scalar(&mut dice, &iso))],
    ];
    for (key, items) in [("nodes", nodes), ("links", links)] {
        if items.is_empty() {
            root.push(vec![if dice.one_in(20) {
                format!("{key}:")
            } else {
                format!("{key}: []")
            }]);
        } else {
            let mut block = vec![format!("{key}:")];
            block.extend(items);
            root.push(block);
        }
    }
    if dice.one_in(3) {
        root.push(vec!["generator: sim".to_owned()]);
    }
    if dice.one_in(4) {
        root.push(vec![
            "extra:".to_owned(),
            "  name: nested".to_owned(),
            "  list:".to_owned(),
            "    - 1".to_owned(),
            "    - a: b".to_owned(),
        ]);
    }
    if dice.one_in(12) {
        let key = dice.pick(&["schema", "nodes", "timestamp"]);
        root.push(vec![format!("{key}: []")]); // duplicate root key
    }
    if dice.one_in(60) {
        let dropped = dice.pick(&["schema:", "map:", "nodes"]);
        root.retain(|block| !block[0].starts_with(dropped));
    }
    dice.shuffle(&mut root);

    let mut lines: Vec<String> = Vec::new();
    if dice.one_in(4) {
        lines.push("---".to_owned());
    }
    for line in root.into_iter().flatten() {
        if dice.one_in(10) {
            lines.push("# a full-line comment".to_owned());
        }
        if dice.one_in(12) {
            lines.push(String::new());
        }
        if dice.one_in(10) && !line.ends_with(':') && !line.trim_end().ends_with('-') {
            lines.push(format!("{line}  # trailing"));
        } else {
            lines.push(line);
        }
    }
    let newline = if dice.one_in(4) { "\r\n" } else { "\n" };
    let mut text = lines.join(newline);
    text.push_str(newline);
    text
}

/// Every file through both paths: one builder per the `split` mask,
/// against one reference builder fed the reference snapshots.
fn check(files: &[String], split: u64) -> Result<(), TestCaseError> {
    let mut reference = ColumnarBuilder::new();
    let mut one = ColumnarBuilder::new();
    let mut two = [ColumnarBuilder::new(), ColumnarBuilder::new()];
    for (index, text) in files.iter().enumerate() {
        let expected = reference::from_yaml_str(text);
        let got = one.add_yaml(index, text);
        let half = &mut two[((split >> (index % 64)) & 1) as usize];
        let got_split = half.add_yaml(index, text);
        match (&expected, &got) {
            (Ok(snapshot), Ok(())) => reference.add_snapshot(index, snapshot),
            (Err(want), Err(err)) => prop_assert_eq!(err.message(), want.as_str(), "{}", text),
            _ => {
                return Err(TestCaseError::fail(format!(
                    "accept/reject differs on:\n{text}\nreference: {expected:?}\nborrowed: {got:?}"
                )))
            }
        }
        prop_assert_eq!(got.is_ok(), got_split.is_ok());
    }
    let want = ColumnarBuilder::finish(vec![reference]);
    let got = ColumnarBuilder::finish(vec![one]);
    let [first, second] = two;
    let got_split = ColumnarBuilder::finish(vec![first, second]);
    prop_assert_eq!(&got, &want);
    prop_assert_eq!(&got_split, &want);
    prop_assert_eq!(
        segment_bytes(&got, files.len()),
        segment_bytes(&want, files.len())
    );
    Ok(())
}

/// The store as a sealed segment file.
fn segment_bytes(store: &LongitudinalStore, entries: usize) -> Vec<u8> {
    let times = store.timestamps();
    let header = SegmentHeader {
        t_min: times.first().copied().unwrap_or(Timestamp::from_unix(0)),
        t_max: times.last().copied().unwrap_or(Timestamp::from_unix(0)),
        entries: entries as u64,
        snapshots: store.len() as u64,
        meta_digest: 0,
    };
    encode_segment(
        &header,
        store,
        &CorpusFingerprint::default(),
        &CorpusLoadStats::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn yaml_columns_equal_the_tree_reference(
        seeds in vec(any::<u64>(), 1..7),
        split in any::<u64>(),
    ) {
        let files: Vec<String> = seeds.iter().map(|&seed| file(seed)).collect();
        check(&files, split)?;
    }
}

/// The generator reaches the shapes the property is about, so a green
/// run means something: accepted and rejected files, links listed before
/// nodes, CRLF, duplicate keys, unknown keys.
#[test]
fn generated_files_cover_the_shapes() {
    let (mut accepted, mut rejected) = (0, 0);
    let (mut links_first, mut crlf, mut duplicate, mut unlisted) = (0, 0, 0, 0);
    for seed in 0..2000u64 {
        let text = file(seed);
        match reference::from_yaml_str(&text) {
            Ok(snapshot) => {
                accepted += 1;
                let listed = |name: &str| snapshot.nodes.iter().any(|n| n.name == name);
                if snapshot.links.iter().any(|l| !listed(&l.a.node.name)) {
                    unlisted += 1;
                }
            }
            Err(err) => {
                rejected += 1;
                if err.contains("duplicate") {
                    duplicate += 1;
                }
            }
        }
        if text.find("links:") < text.find("nodes:") {
            links_first += 1;
        }
        if text.contains("\r\n") {
            crlf += 1;
        }
    }
    for (what, count) in [
        ("accepted", accepted),
        ("rejected", rejected),
        ("links before nodes", links_first),
        ("CRLF", crlf),
        ("duplicate keys", duplicate),
        ("unlisted link ends", unlisted),
    ] {
        assert!(count >= 100, "{what}: only {count} of 2000");
    }
}

/// A rejected file between two accepted ones leaves no trace: the node
/// and the label only it carries appear nowhere in the store, which
/// equals the store of the two accepted files alone.
#[test]
fn rejected_file_leaves_the_builder_as_it_was() {
    let good = |minute: u8, load: u8| {
        format!(
            "schema: ovh-weather/1\nmap: europe\ntimestamp: 2022-02-01T00:{minute:02}:00Z\n\
             nodes:\n  - name: r-a\n    kind: router\n  - name: PEER\n    kind: peering\n\
             links:\n  - a: r-a\n    a_label: \"#1\"\n    a_load: {load}\n    b: PEER\n    b_load: 3\n"
        )
    };
    let bad = "schema: ovh-weather/1\nmap: europe\ntimestamp: 2022-02-01T00:05:00Z\n\
               nodes:\n  - name: r-a\n    kind: router\n  - name: ONLY-HERE\n    kind: peering\n\
               links:\n  - a: ONLY-HERE\n    a_label: \"#only\"\n    a_load: 5\n    b: r-a\n    b_load: 5\n\
               \x20 - a: r-a\n    a_load: 42.0\n    b: PEER\n    b_load: 1\n";
    let files = [good(0, 10), bad.to_owned(), good(10, 20)];
    check(&files, 0b010).unwrap();

    let mut builder = ColumnarBuilder::new();
    let outcomes: Vec<bool> = files
        .iter()
        .enumerate()
        .map(|(i, text)| builder.add_yaml(i, text).is_ok())
        .collect();
    assert_eq!(outcomes, [true, false, true]);
    let store = ColumnarBuilder::finish(vec![builder]);
    assert_eq!(store.len(), 2);
    assert!(store.nodes().iter().all(|n| n.name != "ONLY-HERE"));
    assert!(store
        .link_defs()
        .iter()
        .all(|d| d.label_a.as_deref() != Some("#only") && d.label_b.as_deref() != Some("#only")));
    let mut alone = ColumnarBuilder::new();
    alone.add_yaml(0, &files[0]).unwrap();
    alone.add_yaml(2, &files[2]).unwrap();
    assert_eq!(store, ColumnarBuilder::finish(vec![alone]));
}

/// A link end takes the kind of the *first* listed node with its name,
/// and an end naming no listed node is classified by its name.
#[test]
fn link_ends_take_the_kind_of_the_first_listed_node() {
    let text = "schema: ovh-weather/1\nmap: europe\ntimestamp: 2022-02-01T00:00:00Z\n\
                links:\n  - a: dual\n    a_load: 1\n    b: lower\n    b_load: 2\n\
                nodes:\n  - name: dual\n    kind: peering\n  - name: dual\n    kind: router\n";
    check(&[text.to_owned()], 0).unwrap();
    let mut builder = ColumnarBuilder::new();
    builder.add_yaml(0, text).unwrap();
    let store = ColumnarBuilder::finish(vec![builder]);
    let snapshot = store.snapshot(0);
    assert_eq!(snapshot.links[0].a.node.kind, wm_model::NodeKind::Peering);
    assert_eq!(snapshot.links[0].b.node.kind, wm_model::NodeKind::Router);
    assert_eq!(snapshot.nodes.len(), 2);
}

/// The edits a near-repeat copy may carry. Each one changes the file
/// outside its timestamp and load values, or puts a value there that
/// the snapshot writer never spells, so the copy is no repeat and takes
/// the full read, which accepts or refuses it.
const EDITS: [&str; 9] = [
    "flip", "insert", "delete", "load", "rename", "comment", "crlf", "signed", "tail",
];

/// Applies `f` to every line of `text` (line ends kept) and joins the
/// results.
fn map_lines(text: &str, f: impl FnMut(&str) -> String) -> String {
    text.split_inclusive('\n').map(f).collect()
}

/// The byte range of a load value on `line`, when it is an
/// `a_load`/`b_load` line with a digit value (decoys and a quoted
/// `a_load` key included).
fn load_digits(line: &str) -> Option<std::ops::Range<usize>> {
    let body = line.trim_start_matches(' ');
    let body = body.strip_prefix("- ").unwrap_or(body);
    let value = body
        .strip_prefix("a_load: ")
        .or_else(|| body.strip_prefix("b_load: "))
        .or_else(|| body.strip_prefix("\"a_load\": "))?;
    let start = line.len() - value.len();
    let len = value.bytes().take_while(u8::is_ascii_digit).count();
    (len > 0).then_some(start..start + len)
}

/// The byte range of the ISO timestamp on a root `timestamp:` line.
fn timestamp_digits(line: &str) -> Option<std::ops::Range<usize>> {
    let value = line.strip_prefix("timestamp: ")?;
    let value = value.strip_prefix('"').unwrap_or(value);
    let start = line.len() - value.len();
    value
        .get(..20)
        .filter(|iso| Timestamp::parse_iso8601(iso).is_ok())
        .map(|_| start..start + 20)
}

/// `text` with every load value re-drawn and the timestamp moved.
fn redraw(dice: &mut Dice, text: &str) -> String {
    let minutes = 5 * dice.below(288) as i64;
    let iso = (Timestamp::from_ymd(2022, 2, 1) + Duration::from_minutes(minutes)).to_iso8601();
    map_lines(text, |line| {
        let mut line = line.to_owned();
        if let Some(digits) = load_digits(&line) {
            line.replace_range(digits, &dice.below(101).to_string());
        } else if let Some(digits) = timestamp_digits(&line) {
            line.replace_range(digits, &iso);
        }
        line
    })
}

/// `text` with `change` applied to one of the lines `wanted` selects,
/// picked by `rank` among them (modulo their count).
fn change_line(
    text: &str,
    rank: usize,
    wanted: impl Fn(&str) -> bool,
    change: impl FnOnce(&mut String),
) -> String {
    let count = text.split_inclusive('\n').filter(|l| wanted(l)).count();
    let mut left = rank % count.max(1);
    let mut change = Some(change);
    map_lines(text, |line| {
        let mut line = line.to_owned();
        if wanted(&line) {
            if left == 0 {
                if let Some(change) = change.take() {
                    change(&mut line);
                }
            }
            left = left.wrapping_sub(1);
        }
        line
    })
}

/// `text` with one edit of kind `edit` (see [`EDITS`]).
fn edit(dice: &mut Dice, text: &str, edit: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let junk = b"7 :#\"-x\n";
    let byte = junk[dice.below(junk.len())];
    let at = dice.below(bytes.len() + 1);
    let rank = dice.below(64);
    let is_load = |line: &str| load_digits(line).is_some();
    match edit {
        "flip" if at < bytes.len() => bytes[at] = byte,
        "insert" => bytes.insert(at, byte),
        "delete" if at < bytes.len() => {
            bytes.remove(at);
        }
        "tail" => {
            let at = bytes.len() - 1 - dice.below(bytes.len().min(40));
            bytes[at] = byte;
        }
        "crlf" if text.contains("\r\n") => return text.replace("\r\n", "\n"),
        "crlf" => return text.replace('\n', "\r\n"),
        "signed" => {
            let signed = dice.pick(&["2022-02-+1T+0:+5:+0Z", "-022-02-01T00:05:00Z"]);
            let is_timestamp = |line: &str| timestamp_digits(line).is_some();
            return change_line(text, 0, is_timestamp, |line| {
                let digits = timestamp_digits(line).unwrap();
                line.replace_range(digits, signed);
            });
        }
        "load" => {
            let value = dice.pick(&["101", "+42", "042", "4 2"]);
            return change_line(text, rank, is_load, |line| {
                line.replace_range(load_digits(line).unwrap(), value);
            });
        }
        "comment" => {
            return change_line(text, rank, is_load, |line| {
                line.insert_str(load_digits(line).unwrap().end, " # c");
            });
        }
        "rename" => {
            let value = dice.pick(&["r-zz", "\"#9\"", "PEER"]);
            let is_end = |line: &str| {
                let body = line.trim_start_matches(['-', ' ']);
                ["a: ", "b: ", "a_label: ", "b_label: "]
                    .iter()
                    .any(|key| body.starts_with(key))
            };
            return change_line(text, rank, is_end, |line| {
                let colon = line.find(": ").map_or(0, |at| at + 2);
                let end = line.trim_end().len().max(colon);
                line.replace_range(colon..end, value);
            });
        }
        _ => {}
    }
    String::from_utf8(bytes).unwrap_or_else(|_| text.to_owned())
}

/// A near-repeat sequence: an accepted generated file (from `seed` or
/// the next seed that gives one), sometimes with a decoy `a_load` key
/// nested under an unknown root key and a link's `a_load` key quoted,
/// then `copies`
/// copies, each of the file before it with every load re-drawn and a
/// new timestamp, one in three also with one edit.
fn near_repeats(seed: u64, copies: usize) -> Vec<String> {
    let mut dice = Dice(seed);
    let mut first = (seed..seed + 1000)
        .map(file)
        .find(|text| reference::from_yaml_str(text).is_ok())
        .unwrap_or_default();
    if dice.one_in(2) {
        let newline = if first.contains("\r\n") { "\r\n" } else { "\n" };
        let decoy = format!("decoy:{newline}  a_load: 7{newline}");
        let at = if first.starts_with("---") {
            first.find('\n').map_or(first.len(), |at| at + 1)
        } else {
            0
        };
        first.insert_str(at, &decoy);
        // A quoted key is the same key to the reader, but not to a text
        // search for `a_load: `, which then finds the decoy instead and
        // as many loads as the file has.
        if dice.one_in(2) {
            if let Some(last) = first.rfind("a_load: ") {
                first.replace_range(last..last + 8, "\"a_load\": ");
            }
        }
    }
    let mut files = vec![first];
    for _ in 0..copies {
        let previous = files.last().cloned().unwrap_or_default();
        let mut copy = redraw(&mut dice, &previous);
        if dice.one_in(3) {
            let kind = EDITS[dice.below(EDITS.len())];
            copy = edit(&mut dice, &copy, kind);
        }
        files.push(copy);
    }
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn near_repeats_equal_the_tree_reference(
        seed in any::<u64>(),
        copies in 1usize..9,
        split in any::<u64>(),
    ) {
        check(&near_repeats(seed, copies), split)?;
    }
}

/// The near-repeat generator reaches what the property is about: plain
/// repeats the reference accepts, copies it refuses, decoys, and every
/// edit kind changing the file.
#[test]
fn near_repeats_cover_the_shapes() {
    let (mut repeats, mut refused, mut decoys) = (0, 0, 0);
    for seed in 0..400u64 {
        let files = near_repeats(seed, 4);
        decoys += usize::from(files[0].contains("decoy:"));
        for copy in &files[1..] {
            match reference::from_yaml_str(copy) {
                Ok(_) => repeats += 1,
                Err(_) => refused += 1,
            }
        }
    }
    for (what, count) in [
        ("accepted copies", repeats),
        ("refused copies", refused),
        ("decoys", decoys),
    ] {
        assert!(count >= 100, "{what}: only {count}");
    }
    let mut dice = Dice(7);
    let text = file(
        (0..)
            .find(|&s| reference::from_yaml_str(&file(s)).is_ok())
            .unwrap(),
    );
    for kind in EDITS {
        let changed = (0..20).any(|_| edit(&mut dice, &text, kind) != text);
        assert!(changed, "edit {kind:?} never changes the file");
    }
}
