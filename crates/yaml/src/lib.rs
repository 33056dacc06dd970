//! A minimal YAML 1.1-ish emitter and parser.
//!
//! The paper's processing scripts output one YAML file per weathermap
//! snapshot. No YAML crate is available in this project's offline
//! dependency set, so this crate implements exactly the subset the
//! snapshot schema uses:
//!
//! * block mappings and block sequences, indentation-scoped,
//! * compact mappings inside sequence items (`- key: value`),
//! * plain scalars typed as null / bool / integer / float / string,
//! * double-quoted strings with `\\`, `\"`, `\n`, `\t` escapes,
//! * `#` comments and blank lines.
//!
//! Deliberately out of scope: anchors/aliases, multi-document streams,
//! flow collections (`[a, b]`, `{a: b}`), block scalars (`|`, `>`), and
//! tags. Snapshot files never use them.
//!
//! Parsing is one borrowed event stream ([`parse_events`], a
//! [`Handler`] per consumer). [`parse`] assembles the ordered,
//! dynamically-typed [`Value`] from it; the typed snapshot schema in
//! `wm-extract` reads the same stream without building a tree. Writing
//! has one quoting rule, [`push_str_scalar`]: [`to_string`] prints a
//! `Value` tree with it, and the snapshot schema's direct writer prints
//! its fixed layout with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod error;
mod parse;
mod value;

pub use emit::{push_str_scalar, to_string};
pub use error::{Error, Result};
pub use parse::{parse, parse_events, Event, Handler, Scalar};
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_smoke() {
        let doc = Value::map(vec![
            ("map", Value::from("europe")),
            ("count", Value::from(3i64)),
            (
                "routers",
                Value::Seq(vec![
                    Value::map(vec![
                        ("name", Value::from("fra-fr5-pb6-nc5")),
                        ("kind", Value::from("router")),
                    ]),
                    Value::map(vec![
                        ("name", Value::from("ARELION")),
                        ("kind", Value::from("peering")),
                    ]),
                ]),
            ),
        ]);
        let text = to_string(&doc);
        let back = parse(&text).unwrap();
        assert_eq!(doc, back);
    }
}
