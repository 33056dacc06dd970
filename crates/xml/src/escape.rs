//! Entity escaping and unescaping.

use crate::{Error, ErrorKind, Result};
use std::borrow::Cow;

/// Escapes character data for use as element text.
///
/// `<`, `>` and `&` are replaced by entities; quotes are left alone, which
/// keeps load-percentage labels such as `42 %` byte-identical.
#[must_use]
pub fn escape_text(raw: &str) -> String {
    escape(raw, false)
}

/// Escapes character data for use inside a double-quoted attribute value.
#[must_use]
pub fn escape_attribute(raw: &str) -> String {
    escape(raw, true)
}

fn escape(raw: &str, quotes: bool) -> String {
    // Fast path: nothing to escape.
    if !raw
        .bytes()
        .any(|b| matches!(b, b'<' | b'>' | b'&') || (quotes && matches!(b, b'"' | b'\'')))
    {
        return raw.to_owned();
    }
    let mut out = String::with_capacity(raw.len() + 8);
    for c in raw.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if quotes => out.push_str("&quot;"),
            '\'' if quotes => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Decodes the five predefined entities and numeric character references.
///
/// `offset` is the byte position of `raw` within the overall document and
/// is used to report error positions in the document's coordinate space.
///
/// Borrows the input unchanged when it contains no entity — the common
/// case for weathermap SVGs — so the hot parsing path allocates nothing.
pub fn unescape(raw: &str, offset: usize) -> Result<Cow<'_, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    unescape_into(raw, offset, &mut out)?;
    Ok(Cow::Owned(out))
}

/// [`unescape`] appending the decoded text to `out`, so a caller with a
/// reused buffer decodes without allocating. On error `out` may hold
/// the text decoded before the bad entity.
pub(crate) fn unescape_into(raw: &str, offset: usize, out: &mut String) -> Result<()> {
    let mut rest = raw;
    let mut at = offset;
    while let Some((before, after)) = rest.split_once('&') {
        out.push_str(before);
        let amp = at + before.len();
        let (entity, tail) = after.split_once(';').ok_or_else(|| {
            Error::new(
                ErrorKind::UnexpectedEof {
                    context: "an entity reference",
                },
                amp,
            )
        })?;
        let decoded = decode_entity(entity).ok_or_else(|| {
            Error::new(
                ErrorKind::InvalidEntity {
                    entity: entity.to_owned(),
                },
                amp,
            )
        })?;
        out.push(decoded);
        at = amp + 1 + entity.len() + 1;
        rest = tail;
    }
    out.push_str(rest);
    Ok(())
}

fn decode_entity(entity: &str) -> Option<char> {
    match entity {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let digits = entity.strip_prefix('#')?;
            let code = if let Some(hex) = digits.strip_prefix('x').or(digits.strip_prefix('X')) {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                digits.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_passes_clean_strings_through() {
        assert_eq!(escape_text("fra-fr5-pb6-nc5"), "fra-fr5-pb6-nc5");
        assert_eq!(escape_text("42 %"), "42 %");
    }

    #[test]
    fn escape_text_handles_markup_characters() {
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
        // Text escaping leaves quotes alone.
        assert_eq!(escape_text(r#"say "hi""#), r#"say "hi""#);
    }

    #[test]
    fn escape_attribute_also_escapes_quotes() {
        assert_eq!(escape_attribute(r#"a"b'c"#), "a&quot;b&apos;c");
    }

    #[test]
    fn unescape_predefined_entities() {
        assert_eq!(
            unescape("a &lt; b &amp; c &gt; d", 0).unwrap(),
            "a < b & c > d"
        );
        assert_eq!(unescape("&quot;x&apos;", 0).unwrap(), "\"x'");
    }

    #[test]
    fn unescape_numeric_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;", 0).unwrap(), "ABc");
        assert_eq!(unescape("&#233;", 0).unwrap(), "é");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let err = unescape("x&nbsp;y", 10).unwrap_err();
        assert_eq!(err.offset(), 11);
        assert!(matches!(err.kind(), ErrorKind::InvalidEntity { entity } if entity == "nbsp"));
    }

    #[test]
    fn unescape_rejects_unterminated_entity() {
        let err = unescape("x&ampy", 0).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn unescape_rejects_out_of_range_scalar() {
        assert!(unescape("&#x110000;", 0).is_err());
        assert!(unescape("&#xD800;", 0).is_err()); // surrogate
    }

    #[test]
    fn round_trip_escape_unescape() {
        let samples = [
            "",
            "plain",
            "a<b>&c\"d'",
            "#1",
            "100 %",
            "déjà-vu & cliché <tags>",
        ];
        for s in samples {
            assert_eq!(
                unescape(&escape_text(s), 0).unwrap(),
                s,
                "text round trip of {s:?}"
            );
            assert_eq!(
                unescape(&escape_attribute(s), 0).unwrap(),
                s,
                "attribute round trip of {s:?}"
            );
        }
    }
}
