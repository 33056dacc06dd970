//! Serialising [`Value`] trees to YAML text.

use crate::Value;

/// Serialises a value as a YAML document (no `---` marker, trailing
/// newline included for non-empty documents).
#[must_use]
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    emit_block(value, 0, &mut out);
    out
}

/// Appends `s` as a YAML string scalar: plain when a parser reads the
/// plain form back as this same string, double-quoted with escapes
/// otherwise. This is the one quoting rule: the tree emitter writes
/// every key and string value with it, and so does any writer that
/// prints a fixed schema directly.
pub fn push_str_scalar(out: &mut String, s: &str) {
    if needs_quoting(s) {
        quote(s, out);
    } else {
        out.push_str(s);
    }
}

/// Whether `value` is written as an indented block: a non-empty
/// sequence or mapping.
fn is_block(value: &Value) -> bool {
    match value {
        Value::Seq(items) => !items.is_empty(),
        Value::Map(pairs) => !pairs.is_empty(),
        _ => false,
    }
}

/// Emits `value` as a block construct at `indent` levels.
fn emit_block(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Seq(items) if !items.is_empty() => {
            for item in items {
                push_indent(indent, out);
                out.push_str("- ");
                emit_sequence_item(item, indent, out);
            }
        }
        Value::Map(pairs) if !pairs.is_empty() => {
            for (key, val) in pairs {
                push_indent(indent, out);
                push_str_scalar(out, key);
                out.push(':');
                emit_mapping_value(val, indent, out);
            }
        }
        inline => {
            push_indent(indent, out);
            emit_inline(inline, out);
            out.push('\n');
        }
    }
}

/// Emits the value side of `key:`, choosing inline or nested-block form.
fn emit_mapping_value(value: &Value, indent: usize, out: &mut String) {
    if is_block(value) {
        out.push('\n');
        emit_block(value, indent + 1, out);
    } else {
        out.push(' ');
        emit_inline(value, out);
        out.push('\n');
    }
}

/// Emits one `- ` sequence item. Mappings are emitted compactly, with the
/// first pair on the dash line.
fn emit_sequence_item(item: &Value, indent: usize, out: &mut String) {
    match item {
        Value::Map(pairs) if !pairs.is_empty() => {
            for (i, (key, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    push_indent(indent + 1, out);
                }
                push_str_scalar(out, key);
                out.push(':');
                emit_mapping_value(val, indent + 1, out);
            }
        }
        Value::Seq(items) if !items.is_empty() => {
            // A sequence directly inside a sequence: put items on new lines.
            out.push('\n');
            emit_block(item, indent + 1, out);
        }
        inline => {
            emit_inline(inline, out);
            out.push('\n');
        }
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Emits a value that fits on one line: a scalar in its plain or quoted
/// form, or a collection as its empty flow marker (`[]`, `{}`) — callers
/// write non-empty collections as blocks first.
fn emit_inline(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_nan() {
                out.push_str(".nan");
            } else if f.is_infinite() {
                out.push_str(if *f > 0.0 { ".inf" } else { "-.inf" });
            } else if f.fract() == 0.0 && f.abs() < 1e15 {
                // Keep the float-ness visible so parsing round-trips types.
                out.push_str(&format!("{}.0", *f as i64));
            } else {
                out.push_str(&format!("{f}"));
            }
        }
        Value::Str(s) => push_str_scalar(out, s),
        Value::Seq(_) => out.push_str("[]"),
        Value::Map(_) => out.push_str("{}"),
    }
}

/// Whether a plain scalar rendering of `s` would be ambiguous.
fn needs_quoting(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    // Values that would parse as a different type must be quoted.
    if matches!(
        s,
        "null" | "~" | "true" | "false" | "yes" | "no" | "on" | "off"
    ) || s.parse::<i64>().is_ok()
        || s.parse::<f64>().is_ok()
    {
        return true;
    }
    // Leading/trailing whitespace would be stripped by a parser.
    if s.trim() != s {
        return true;
    }
    // Characters with structural meaning anywhere relevant. The parser
    // reads every `"` on a line as opening or closing a quoted span when
    // it looks for a comment, so a plain scalar must not hold one.
    if s.starts_with([
        '-', '?', '[', ']', '{', '}', '&', '*', '!', '|', '>', '\'', '%', '@',
    ]) || s.contains(": ")
        || s.ends_with(':')
        || s.contains(" #")
        || s.contains('\n')
        || s.contains('"')
    {
        return true;
    }
    // '#'-prefixed link labels ("#1") must be quoted or they read as comments.
    s.starts_with('#')
}

/// Appends `s` double-quoted, with escapes.
fn quote(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn scalars() {
        assert_eq!(to_string(&Value::Null), "null\n");
        assert_eq!(to_string(&Value::Bool(true)), "true\n");
        assert_eq!(to_string(&Value::Int(-42)), "-42\n");
        assert_eq!(to_string(&Value::Float(2.5)), "2.5\n");
        assert_eq!(to_string(&Value::Float(3.0)), "3.0\n");
        assert_eq!(to_string(&Value::from("plain")), "plain\n");
    }

    #[test]
    fn strings_that_look_like_other_types_are_quoted() {
        assert_eq!(to_string(&Value::from("42")), "\"42\"\n");
        assert_eq!(to_string(&Value::from("true")), "\"true\"\n");
        assert_eq!(to_string(&Value::from("null")), "\"null\"\n");
        assert_eq!(to_string(&Value::from("3.14")), "\"3.14\"\n");
    }

    #[test]
    fn link_labels_are_quoted() {
        assert_eq!(to_string(&Value::from("#1")), "\"#1\"\n");
    }

    #[test]
    fn flat_mapping() {
        let v = Value::map(vec![("a", Value::from(1i64)), ("b", Value::from("x"))]);
        assert_eq!(to_string(&v), "a: 1\nb: x\n");
    }

    #[test]
    fn nested_mapping_indents() {
        let v = Value::map(vec![(
            "outer",
            Value::map(vec![("inner", Value::from(1i64))]),
        )]);
        assert_eq!(to_string(&v), "outer:\n  inner: 1\n");
    }

    #[test]
    fn sequence_of_scalars() {
        let v = Value::Seq(vec![Value::from(1i64), Value::from(2i64)]);
        assert_eq!(to_string(&v), "- 1\n- 2\n");
    }

    #[test]
    fn sequence_of_mappings_is_compact() {
        let v = Value::Seq(vec![Value::map(vec![
            ("name", Value::from("r1")),
            ("links", Value::from(3i64)),
        ])]);
        assert_eq!(to_string(&v), "- name: r1\n  links: 3\n");
    }

    #[test]
    fn empty_collections_use_flow_markers() {
        let v = Value::map(vec![
            ("seq", Value::Seq(vec![])),
            ("map", Value::Map(vec![])),
        ]);
        assert_eq!(to_string(&v), "seq: []\nmap: {}\n");
    }

    #[test]
    fn special_floats() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), ".nan\n");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), ".inf\n");
        assert_eq!(to_string(&Value::Float(f64::NEG_INFINITY)), "-.inf\n");
    }

    #[test]
    fn quoting_escapes() {
        assert_eq!(
            to_string(&Value::from("a\"b\\c\nd")),
            "\"a\\\"b\\\\c\\nd\"\n"
        );
    }

    #[test]
    fn empty_string_is_quoted() {
        assert_eq!(to_string(&Value::from("")), "\"\"\n");
    }
}
