//! Property-based round-trip: any value tree the emitter can produce must
//! parse back identically.

use proptest::prelude::*;
use wm_yaml::{parse, to_string, Value};

/// Scalar strings: printable unicode without control characters (the
//  emitter escapes `\n`/`\t`/`\r` but block YAML cannot carry other
/// control characters, matching the snapshot schema's content).
fn scalar_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~àéîöç#:\\-\"'\\\\]{0,24}").expect("valid regex")
}

/// Mapping keys: non-empty, like the schema's fixed field names plus some
/// adversarial shapes (quotes, colons, hashes).
fn key_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z_][a-zA-Z0-9_:#\" -]{0,15}").expect("valid regex")
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks equality by definition.
        (-1e12f64..1e12).prop_map(Value::Float),
        scalar_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Seq),
            prop::collection::vec((key_string(), inner), 0..5).prop_map(|pairs| {
                // Deduplicate keys: mappings reject duplicates by design.
                let mut seen = std::collections::BTreeSet::new();
                let pairs: Vec<(String, Value)> = pairs
                    .into_iter()
                    .filter(|(k, _)| seen.insert(k.clone()))
                    .collect();
                Value::Map(pairs)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emit_parse_round_trip(value in value_strategy()) {
        let text = to_string(&value);
        let parsed = parse(&text)
            .unwrap_or_else(|e| panic!("emitted YAML failed to parse: {e}\n---\n{text}"));
        prop_assert_eq!(&parsed, &value, "text was:\n{}", text);
    }

    #[test]
    fn floats_survive(f in -1e12f64..1e12) {
        let text = to_string(&Value::Float(f));
        let parsed = parse(&text).expect("float parses");
        match parsed {
            Value::Float(back) => prop_assert!((back - f).abs() <= f.abs() * 1e-12),
            other => prop_assert!(false, "expected float, got {:?}", other),
        }
    }

    #[test]
    fn arbitrary_strings_stay_strings(s in scalar_string()) {
        let text = to_string(&Value::Str(s.clone()));
        let parsed = parse(&text).expect("string parses");
        prop_assert_eq!(parsed, Value::Str(s));
    }
}

#[test]
fn quote_in_a_plain_key_does_not_open_a_span() {
    // Left plain, the key's `"` opens a quoted span for the parser's
    // comment search, the value's closing quote opens another, and
    // ` #y"` reads as a comment: "unterminated double-quoted scalar".
    let value = Value::Map(vec![("ab\"c".into(), Value::Str("x #y".into()))]);
    let text = to_string(&value);
    let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    assert_eq!(parsed, value, "text was:\n{text}");
}
