//! The direct snapshot writer prints exactly what the generic tree
//! emitter prints for the same snapshot: `to_yaml_string` is pinned byte
//! for byte to `wm_yaml::to_string` over the value tree below, which is
//! kept here as the reference and nowhere in the library.

use proptest::prelude::*;
use wm_extract::to_yaml_string;
use wm_model::{Link, LinkEnd, Load, MapKind, Node, NodeKind, Timestamp, TopologySnapshot};
use wm_yaml::Value;

/// The snapshot schema as a `wm_yaml` value tree (the layout the
/// direct writer must reproduce).
fn snapshot_to_yaml(snapshot: &TopologySnapshot) -> Value {
    let nodes = snapshot
        .nodes
        .iter()
        .map(|n| {
            Value::map(vec![
                ("name", Value::from(n.name.as_str())),
                ("kind", Value::from(n.kind.slug())),
            ])
        })
        .collect();
    let links = snapshot
        .links
        .iter()
        .map(|l| {
            let mut pairs: Vec<(&str, Value)> = vec![("a", Value::from(l.a.node.name.as_str()))];
            if let Some(label) = &l.a.label {
                pairs.push(("a_label", Value::from(label.as_str())));
            }
            pairs.push(("a_load", Value::from(u32::from(l.a.egress_load.percent()))));
            pairs.push(("b", Value::from(l.b.node.name.as_str())));
            if let Some(label) = &l.b.label {
                pairs.push(("b_label", Value::from(label.as_str())));
            }
            pairs.push(("b_load", Value::from(u32::from(l.b.egress_load.percent()))));
            Value::map(pairs)
        })
        .collect();
    Value::map(vec![
        ("schema", Value::from(wm_extract::SCHEMA_ID)),
        ("map", Value::from(snapshot.map.slug())),
        ("timestamp", Value::from(snapshot.timestamp.to_iso8601())),
        ("nodes", Value::Seq(nodes)),
        ("links", Value::Seq(links)),
    ])
}

/// Names as weathermaps write them, names that need quoting, and
/// arbitrary printable text.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[a-z]{2,4}-[a-z0-9]{1,4}-[a-z0-9]{1,4}")
            .expect("valid regex"),
        proptest::string::string_regex("[A-Z][A-Z0-9-]{1,12}").expect("valid regex"),
        prop::sample::select(
            [
                "-leading-dash",
                "say \"hi\"",
                "42",
                "-7",
                "3.25",
                "1e3",
                "inf",
                "NaN",
                "true",
                "null",
                "~",
                "#5",
                "a: b",
                "trailing:",
                " padded ",
                "x #comment",
                "back\\slash",
                "",
                "[list]",
                "ARELION",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>(),
        ),
        proptest::string::string_regex("[ -~é]{0,12}").expect("valid regex"),
    ]
}

fn label() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        (1u32..64).prop_map(|n| Some(format!("#{n}"))),
        name().prop_map(Some),
    ]
}

fn end() -> impl Strategy<Value = LinkEnd> {
    (name(), label(), 0u8..=100).prop_map(|(name, label, load)| {
        LinkEnd::new(
            Node::from_name(name),
            label,
            Load::new(load).expect("in range"),
        )
    })
}

fn snapshot() -> impl Strategy<Value = TopologySnapshot> {
    (
        prop::sample::select(MapKind::ALL.to_vec()),
        0i64..2_000_000_000,
        prop::collection::vec(
            (
                name(),
                prop::sample::select(vec![NodeKind::Router, NodeKind::Peering]),
            ),
            0..6,
        ),
        prop::collection::vec((end(), end()), 0..6),
    )
        .prop_map(|(map, unix, nodes, links)| {
            let mut snapshot = TopologySnapshot::new(map, Timestamp::from_unix(unix));
            snapshot.nodes = nodes
                .into_iter()
                .map(|(name, kind)| Node {
                    name: name.into(),
                    kind,
                })
                .collect();
            snapshot.links = links.into_iter().map(|(a, b)| Link::new(a, b)).collect();
            snapshot
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn direct_writer_matches_the_tree_emitter(snapshot in snapshot()) {
        let expected = wm_yaml::to_string(&snapshot_to_yaml(&snapshot));
        prop_assert_eq!(to_yaml_string(&snapshot), expected);
    }
}

#[test]
fn edge_cases_match_the_tree_emitter() {
    let t = Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 0);
    let mut cases = vec![TopologySnapshot::new(MapKind::World, t)];
    let mut nodes_only = TopologySnapshot::new(MapKind::Europe, t);
    nodes_only.nodes = vec![Node::from_name("-dash"), Node::from_name("12")];
    cases.push(nodes_only);
    let mut links_only = TopologySnapshot::new(MapKind::AsiaPacific, t);
    let load = |p| Load::new(p).expect("in range");
    links_only.links = vec![
        Link::new(
            LinkEnd::new(Node::from_name("rbx-g1-nc1"), None, load(0)),
            LinkEnd::new(Node::from_name("a\"b"), Some("#1".into()), load(100)),
        ),
        Link::new(
            LinkEnd::new(Node::from_name("1.5"), Some("#12".into()), load(9)),
            LinkEnd::new(Node::from_name("AMS-IX"), None, load(42)),
        ),
    ];
    cases.push(links_only);
    for snapshot in &cases {
        assert_eq!(
            to_yaml_string(snapshot),
            wm_yaml::to_string(&snapshot_to_yaml(snapshot))
        );
    }
}
