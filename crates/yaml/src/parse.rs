//! Parsing YAML text: one borrowed event stream and its consumers.
//!
//! [`parse_events`] walks the input line by line and hands a
//! [`Handler`] a stream of [`Event`]s — a mapping key, a sequence item,
//! a scalar, the end of a block — each with a 1-based line number.
//! What an event carries borrows from the input; only a quoted key or
//! scalar whose escapes must be decoded is copied. [`parse`] is the
//! consumer that assembles a [`Value`] tree; the snapshot schema reader
//! in `wm-extract` is another, so every consumer shares one grammar.
//!
//! The stream is well nested. A value is either one [`Event::Scalar`]
//! or a block: a run of entries closed by [`Event::End`], where every
//! entry is a [`Event::Key`] (mapping) or an [`Event::Item`]
//! (sequence) followed by exactly one value. A block is never empty;
//! its first entry opens it. The flow forms `[]` and `{}` arrive as
//! [`Scalar::EmptySeq`] and [`Scalar::EmptyMap`]. A document is exactly
//! one value (an empty document is a [`Scalar::Null`]).
//!
//! The hot paths are byte-level: line splitting and comment detection
//! use a SWAR `memchr`-style scan (eight bytes per step, `std`-only),
//! lines are read lazily and borrowed, `key: value` splitting returns
//! borrowed slices, and plain scalars dispatch on their first byte into
//! a manual integer parse that skips the generic `from_str` route.
//! Every fast path is behaviour-equivalent to the straightforward code
//! it replaces — pinned by the unit tests here and the property tests
//! in `tests/proptest_fastpath.rs`.

use std::borrow::Cow;
use std::ops::Range;

use crate::{Error, Result, Value};

/// The deepest block nesting accepted. Parsing recurses once per
/// level, so an input nested without bound (a line of ten thousand
/// `- `) would otherwise exhaust the stack; the snapshot schema needs
/// three levels.
const MAX_DEPTH: usize = 512;

/// Finds the first occurrence of `needle`, scanning eight bytes per
/// step (SWAR over `u64`, the classic zero-byte trick).
///
/// `(x - 0x01…01) & !x & 0x80…80` has a high bit set for every zero
/// byte of `x = chunk ^ broadcast(needle)`; false positives can only
/// appear *above* the first true match, so taking the least significant
/// set bit is exact. `from_le_bytes` maps `haystack[i]` to the low
/// byte, so `trailing_zeros / 8` is the in-chunk offset on every
/// platform.
#[inline]
pub(crate) fn memchr_byte(needle: u8, haystack: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let broadcast = u64::from_ne_bytes([needle; 8]);
    let mut i = 0;
    while let Some(window) = haystack.get(i..i + 8) {
        let Ok(bytes) = <[u8; 8]>::try_from(window) else {
            break; // `window` is exactly 8 bytes; kept panic-free anyway
        };
        let chunk = u64::from_le_bytes(bytes);
        let x = chunk ^ broadcast;
        let found = x.wrapping_sub(ONES) & !x & HIGHS;
        if found != 0 {
            return Some(i + (found.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    haystack
        .get(i..)?
        .iter()
        .position(|&b| b == needle)
        .map(|p| i + p)
}

/// A typed scalar, borrowed from the input unless escapes were decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null` / `~` / an absent value.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string, plain or quoted.
    Str(Cow<'a, str>),
    /// The flow form `[]`.
    EmptySeq,
    /// The flow form `{}`.
    EmptyMap,
}

impl Scalar<'_> {
    /// The scalar as an owned [`Value`].
    #[must_use]
    pub fn into_value(self) -> Value {
        match self {
            Scalar::Null => Value::Null,
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Str(s) => Value::Str(s.into_owned()),
            Scalar::EmptySeq => Value::Seq(Vec::new()),
            Scalar::EmptyMap => Value::Map(Vec::new()),
        }
    }
}

/// One step of the event stream (see the module docs for its shape).
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A mapping key; its value follows. The first key of a block opens
    /// a mapping. Keys are unique within their mapping.
    Key(Cow<'a, str>),
    /// A sequence item; its value follows. The first item of a block
    /// opens a sequence.
    Item,
    /// A scalar value.
    Scalar(Scalar<'a>),
    /// The innermost open block ends.
    End,
}

/// A consumer of the event stream.
///
/// Events arrive in document order until the parse ends or fails; a
/// consumer that needs the whole document to be valid must hold its
/// conclusions until [`parse_events`] returns `Ok`.
pub trait Handler<'a> {
    /// Takes one event. `line` is the 1-based line it came from; a
    /// block's [`Event::End`] carries the line that closed it (the next
    /// significant line, or the last line of the input).
    fn event(&mut self, line: usize, event: Event<'a>);

    /// Takes a scalar written in the input, with the byte span of its
    /// token: the trimmed value text, quotes included, without a
    /// trailing comment. Every scalar with source text arrives here; a
    /// `Null` standing for an absent value arrives through
    /// [`Handler::event`]. The default forwards to [`Handler::event`].
    fn scalar(&mut self, line: usize, span: Range<usize>, scalar: Scalar<'a>) {
        let _ = span;
        self.event(line, Event::Scalar(scalar));
    }
}

/// Parses a YAML document into a [`Value`].
///
/// An empty (or comment-only) document parses as [`Value::Null`], matching
/// how the snapshot tooling treats empty files.
pub fn parse(text: &str) -> Result<Value> {
    let mut tree = TreeBuilder::default();
    parse_events(text, &mut tree)?;
    Ok(tree.root.unwrap_or(Value::Null))
}

/// Parses a YAML document into events, handing each to `handler`.
///
/// On error, the handler has seen a prefix of the stream; the error
/// names the line at fault.
pub fn parse_events<'a, H: Handler<'a>>(text: &'a str, handler: &mut H) -> Result<()> {
    let cursor = Cursor::new(text);
    let Some(first) = cursor.current else {
        handler.event(cursor.number, Event::Scalar(Scalar::Null));
        return Ok(());
    };
    let mut parser = Parser {
        cursor,
        keys: Vec::new(),
        handler,
    };
    parser.value(first.indent, 0)?;
    if let Some(line) = parser.cursor.current {
        return Err(Error::new(line.number, "content after the document root"));
    }
    Ok(())
}

/// One significant input line, borrowed from the input.
#[derive(Debug, Clone, Copy)]
struct Line<'a> {
    /// 1-based source line number.
    number: usize,
    /// Leading spaces.
    indent: usize,
    /// Content with indent and trailing comment stripped.
    text: &'a str,
}

/// A lazy reader of significant lines: blanks, comments and a leading
/// `---` are skipped, lines are carved out with the SWAR newline scan.
/// The current line can be rewritten in place (to parse compact
/// `- key: value` sequence items).
struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the first unread line.
    next: usize,
    /// Lines read so far.
    number: usize,
    /// Whether a significant line has been read (a `---` is skipped only
    /// before the first one).
    started: bool,
    current: Option<Line<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        let mut cursor = Cursor {
            text,
            next: 0,
            number: 0,
            started: false,
            current: None,
        };
        cursor.advance();
        cursor
    }

    /// Moves to the next significant line (`current` is `None` at the
    /// end of the input).
    fn advance(&mut self) {
        self.current = None;
        let bytes = self.text.as_bytes();
        while self.next < bytes.len() {
            let start = self.next;
            let rest = bytes.get(start..).unwrap_or_default();
            let end = memchr_byte(b'\n', rest).map_or(bytes.len(), |i| start + i);
            self.next = end + 1;
            self.number += 1;
            let raw = self.text.get(start..end).unwrap_or_default();
            let raw = raw.strip_suffix('\r').unwrap_or(raw);
            let without_indent = raw.trim_start_matches(' ');
            let indent = raw.len() - without_indent.len();
            let content = strip_comment(without_indent).trim_end();
            if content.is_empty() || (content == "---" && !self.started) {
                continue;
            }
            self.started = true;
            self.current = Some(Line {
                number: self.number,
                indent,
                text: content,
            });
            return;
        }
    }

    /// The line that closes a block: the current line, or the last line
    /// read at the end of the input.
    fn closing_line(&self) -> usize {
        self.current.map_or(self.number, |line| line.number)
    }
}

/// Removes a trailing ` # comment`, respecting double-quoted spans.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    // Fast path: no `#` anywhere means nothing to strip, and the quote
    // state machine below is only needed to protect a `#` inside quotes.
    if memchr_byte(b'#', bytes).is_none() {
        return line;
    }
    let mut in_quotes = false;
    let mut escaped = false;
    // A `#` starts a comment at the start of the line or after
    // whitespace.
    let mut after_space = true;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
        } else {
            match b {
                b'\\' if in_quotes => escaped = true,
                b'"' => in_quotes = !in_quotes,
                b'#' if !in_quotes && after_space => return line.get(..i).unwrap_or(line),
                _ => {}
            }
        }
        after_space = b.is_ascii_whitespace();
    }
    line
}

/// Whether a line is a `- item` sequence entry.
fn is_item(text: &str) -> bool {
    text == "-" || text.starts_with("- ")
}

/// The recursive-descent walk that turns lines into events.
struct Parser<'a, 'h, H> {
    cursor: Cursor<'a>,
    /// Keys of every open mapping, innermost last (duplicate detection).
    keys: Vec<Cow<'a, str>>,
    handler: &'h mut H,
}

impl<'a, H: Handler<'a>> Parser<'a, '_, H> {
    fn emit(&mut self, line: usize, event: Event<'a>) {
        self.handler.event(line, event);
    }

    /// Parses the scalar token `text` (a slice of the input) and hands
    /// it over with its span.
    fn emit_scalar(&mut self, line: usize, text: &'a str) -> Result<()> {
        let scalar = parse_scalar(text, line)?;
        // `text` borrows from the input, so its address less the
        // input's is its byte offset.
        let start = (text.as_ptr() as usize).wrapping_sub(self.cursor.text.as_ptr() as usize);
        let span = start..start.saturating_add(text.len());
        self.handler.scalar(line, span, scalar);
        Ok(())
    }

    /// Parses the block value starting at the current line, expected at
    /// `indent` columns and `depth` blocks deep.
    fn value(&mut self, indent: usize, depth: usize) -> Result<()> {
        let Some(line) = self.cursor.current else {
            let number = self.cursor.number;
            self.emit(number, Event::Scalar(Scalar::Null));
            return Ok(());
        };
        if line.indent != indent {
            return Err(Error::new(
                line.number,
                format!(
                    "expected indentation of {} columns, found {}",
                    indent, line.indent
                ),
            ));
        }
        if depth >= MAX_DEPTH {
            return Err(Error::new(
                line.number,
                format!("blocks nested deeper than {MAX_DEPTH} levels"),
            ));
        }
        if is_item(line.text) {
            self.sequence(indent, depth)
        } else if let Some(entry) = find_mapping_colon(line.text, line.number)? {
            self.mapping(indent, depth, entry)
        } else {
            self.cursor.advance();
            self.emit_scalar(line.number, line.text)
        }
    }

    /// Parses consecutive `- item` lines at `indent`.
    fn sequence(&mut self, indent: usize, depth: usize) -> Result<()> {
        while let Some(line) = self.cursor.current {
            if line.indent != indent || !is_item(line.text) {
                break;
            }
            self.emit(line.number, Event::Item);
            let rest = line.text.get(1..).unwrap_or_default().trim_start();
            if rest.is_empty() {
                // `-` alone: the item is the nested block on following lines.
                self.cursor.advance();
                match self.cursor.current {
                    Some(next) if next.indent > indent => self.value(next.indent, depth + 1)?,
                    _ => self.emit(line.number, Event::Scalar(Scalar::Null)),
                }
            } else {
                // Compact item: re-parse the rest as a virtual line two
                // columns deeper (the column where `rest` actually starts).
                let item_indent = indent + 2;
                self.cursor.current = Some(Line {
                    number: line.number,
                    indent: item_indent,
                    text: rest,
                });
                self.value(item_indent, depth + 1)?;
            }
        }
        let closing = self.cursor.closing_line();
        self.emit(closing, Event::End);
        Ok(())
    }

    /// Parses consecutive `key: value` lines at `indent`, the first of
    /// which (the current line) splits into `first`.
    fn mapping(
        &mut self,
        indent: usize,
        depth: usize,
        first: (Cow<'a, str>, &'a str),
    ) -> Result<()> {
        let first_key = self.keys.len();
        let mut split = Some(first);
        while let Some(line) = self.cursor.current {
            let (key, rest) = match split.take() {
                Some(entry) => entry,
                None => {
                    if line.indent != indent || is_item(line.text) {
                        break;
                    }
                    match find_mapping_colon(line.text, line.number)? {
                        Some(entry) => entry,
                        None => break,
                    }
                }
            };
            let open = self.keys.get(first_key..).unwrap_or_default();
            if open.contains(&key) {
                return Err(Error::new(
                    line.number,
                    format!("duplicate mapping key {key:?}"),
                ));
            }
            self.cursor.advance();
            self.keys.push(key.clone());
            self.emit(line.number, Event::Key(key));
            if rest.is_empty() {
                // Value is the nested block, if any is indented deeper.
                match self.cursor.current {
                    Some(next) if next.indent > indent => self.value(next.indent, depth + 1)?,
                    _ => self.emit(line.number, Event::Scalar(Scalar::Null)),
                }
            } else {
                self.emit_scalar(line.number, rest)?;
            }
        }
        self.keys.truncate(first_key);
        let closing = self.cursor.closing_line();
        self.emit(closing, Event::End);
        Ok(())
    }
}

/// The [`Handler`] behind [`parse`]: assembles the value tree.
#[derive(Debug, Default)]
struct TreeBuilder {
    /// Open blocks, innermost last.
    stack: Vec<Frame>,
    root: Option<Value>,
}

/// An open block of a [`TreeBuilder`].
#[derive(Debug)]
enum Frame {
    /// A sequence; `open` while an item's value is pending.
    Seq { items: Vec<Value>, open: bool },
    /// A mapping; `key` holds the key whose value is pending.
    Map {
        pairs: Vec<(String, Value)>,
        key: Option<String>,
    },
}

impl TreeBuilder {
    /// Whether the next event is a value (rather than the next entry of
    /// the innermost block, or its end).
    fn expects_value(&self) -> bool {
        match self.stack.last() {
            None => self.root.is_none(),
            Some(Frame::Seq { open, .. }) => *open,
            Some(Frame::Map { key, .. }) => key.is_some(),
        }
    }

    /// Delivers a finished value to the innermost block (or the root).
    fn deliver(&mut self, value: Value) {
        match self.stack.last_mut() {
            None => self.root = Some(value),
            Some(Frame::Seq { items, open }) => {
                items.push(value);
                *open = false;
            }
            Some(Frame::Map { pairs, key }) => {
                if let Some(key) = key.take() {
                    pairs.push((key, value));
                }
            }
        }
    }
}

impl<'a> Handler<'a> for TreeBuilder {
    fn event(&mut self, _line: usize, event: Event<'a>) {
        match event {
            Event::Key(name) => {
                let name = name.into_owned();
                match self.stack.last_mut() {
                    Some(Frame::Map { key, .. }) if key.is_none() => *key = Some(name),
                    _ => self.stack.push(Frame::Map {
                        pairs: Vec::new(),
                        key: Some(name),
                    }),
                }
            }
            Event::Item => {
                if self.expects_value() {
                    self.stack.push(Frame::Seq {
                        items: Vec::new(),
                        open: true,
                    });
                } else if let Some(Frame::Seq { open, .. }) = self.stack.last_mut() {
                    *open = true;
                }
            }
            Event::Scalar(scalar) => self.deliver(scalar.into_value()),
            Event::End => match self.stack.pop() {
                Some(Frame::Seq { items, .. }) => self.deliver(Value::Seq(items)),
                Some(Frame::Map { pairs, .. }) => self.deliver(Value::Map(pairs)),
                None => {}
            },
        }
    }
}

/// Splits `key: value` at the first structural colon. Returns the decoded
/// key and the (possibly empty) raw value text, or `None` when the line is
/// not a mapping entry.
///
/// Plain keys and all values are borrowed from `text`; only quoted keys
/// with escapes allocate.
fn find_mapping_colon<'t>(
    text: &'t str,
    line_number: usize,
) -> Result<Option<(Cow<'t, str>, &'t str)>> {
    if let Some(stripped) = text.strip_prefix('"') {
        // Quoted key: find the closing quote first.
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    let after = stripped.get(i + 1..).unwrap_or_default();
                    let Some(after_colon) = after.strip_prefix(':') else {
                        return Ok(None);
                    };
                    if !after_colon.is_empty() && !after_colon.starts_with(' ') {
                        return Ok(None);
                    }
                    // The key with both quotes: `"` + `stripped[..i]` + `"`.
                    let quoted = text.get(..i + 2).unwrap_or_default();
                    let key = unquote(quoted, line_number)?;
                    return Ok(Some((key, after_colon.trim())));
                }
                _ => {}
            }
        }
        return Err(Error::new(line_number, "unterminated quoted key"));
    }
    // Plain key: first `:` that is followed by space or end-of-line.
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(offset) = memchr_byte(b':', bytes.get(from..).unwrap_or_default()) {
        let i = from + offset;
        if matches!(bytes.get(i + 1), None | Some(b' ')) {
            let key = text.get(..i).unwrap_or_default().trim();
            if key.is_empty() {
                return Err(Error::new(line_number, "empty mapping key"));
            }
            let value = text.get(i + 1..).unwrap_or_default().trim();
            return Ok(Some((Cow::Borrowed(key), value)));
        }
        from = i + 1;
    }
    Ok(None)
}

/// Parses a scalar token: quoted string or typed plain scalar.
fn parse_scalar(text: &str, line_number: usize) -> Result<Scalar<'_>> {
    if text == "[]" {
        return Ok(Scalar::EmptySeq);
    }
    if text == "{}" {
        return Ok(Scalar::EmptyMap);
    }
    if text.starts_with('"') {
        return unquote(text, line_number).map(Scalar::Str);
    }
    if text.starts_with('\'') {
        // Single-quoted: only the '' escape exists.
        let inner = text
            .strip_prefix('\'')
            .and_then(|t| t.strip_suffix('\''))
            .ok_or_else(|| Error::new(line_number, "unterminated single-quoted scalar"))?;
        return Ok(Scalar::Str(if inner.contains("''") {
            Cow::Owned(inner.replace("''", "'"))
        } else {
            Cow::Borrowed(inner)
        }));
    }
    Ok(plain_scalar(text))
}

/// Types a plain (unquoted) scalar.
///
/// Dispatches on the first byte: anything numeric-looking goes through a
/// manual integer parse (and a float fallback); everything else can only
/// be a keyword or a string. The dispatch is exact because every string
/// `str::parse::<i64>` or `::<f64>` accepts either starts with
/// `[0-9+-.]` or is an `inf`/`nan` spelling, which the old code routed
/// to [`Value::Str`] anyway.
fn plain_scalar(text: &str) -> Scalar<'_> {
    let bytes = text.as_bytes();
    match bytes.first() {
        Some(b'0'..=b'9' | b'+' | b'-' | b'.') => {
            match text {
                ".nan" => return Scalar::Float(f64::NAN),
                ".inf" => return Scalar::Float(f64::INFINITY),
                "-.inf" => return Scalar::Float(f64::NEG_INFINITY),
                _ => {}
            }
            if let Some(i) = parse_int(bytes) {
                return Scalar::Int(i);
            }
            // Only treat as float if it looks numeric; parse::<f64> accepts
            // "inf"/"nan" spellings which must stay strings.
            if !contains_inf_ignore_case(bytes) {
                if let Ok(f) = text.parse::<f64>() {
                    return Scalar::Float(f);
                }
            }
            Scalar::Str(Cow::Borrowed(text))
        }
        _ => match text {
            "null" | "~" => Scalar::Null,
            "true" => Scalar::Bool(true),
            "false" => Scalar::Bool(false),
            _ => Scalar::Str(Cow::Borrowed(text)),
        },
    }
}

/// Parses a trimmed decimal integer: optional sign, then ASCII digits,
/// with checked overflow. Accepts exactly the inputs
/// `str::parse::<i64>` accepts. Accumulates on the negative side so
/// `i64::MIN`, whose magnitude has no positive representation, parses.
fn parse_int(bytes: &[u8]) -> Option<i64> {
    let (negative, digits) = match bytes.split_first()? {
        (b'-', rest) => (true, rest),
        (b'+', rest) => (false, rest),
        _ => (false, bytes),
    };
    if digits.is_empty() {
        return None;
    }
    let mut value: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_sub(i64::from(b - b'0'))?;
    }
    if negative {
        Some(value)
    } else {
        value.checked_neg()
    }
}

/// Whether the bytes contain `inf` in any ASCII case.
///
/// Byte-for-byte equivalent to `to_ascii_lowercase().contains("inf")`
/// without allocating: `x | 0x20 == b'i'` holds exactly for `I`/`i`,
/// and likewise for `n` and `f`.
fn contains_inf_ignore_case(bytes: &[u8]) -> bool {
    bytes.windows(3).any(|w| {
        matches!(w, &[i, n, f] if (i | 0x20) == b'i' && (n | 0x20) == b'n' && (f | 0x20) == b'f')
    })
}

/// Decodes a double-quoted scalar with escapes; borrows when there are
/// none.
fn unquote(text: &str, line_number: usize) -> Result<Cow<'_, str>> {
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| Error::new(line_number, "unterminated double-quoted scalar"))?;
    // Fast path: no backslash means the quoted content is literal.
    if memchr_byte(b'\\', inner.as_bytes()).is_none() {
        return Ok(Cow::Borrowed(inner));
    }
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                return Err(Error::new(line_number, format!("unknown escape \\{other}")));
            }
            None => return Err(Error::new(line_number, "dangling escape at end of scalar")),
        }
    }
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_document_is_null() {
        assert_eq!(parse("").unwrap(), Value::Null);
        assert_eq!(parse("# only a comment\n\n").unwrap(), Value::Null);
    }

    #[test]
    fn scalar_typing() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-3").unwrap(), Value::Int(-3));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("~").unwrap(), Value::Null);
        assert_eq!(parse("hello").unwrap(), Value::from("hello"));
    }

    #[test]
    fn quoted_scalars_stay_strings() {
        assert_eq!(parse("\"42\"").unwrap(), Value::from("42"));
        assert_eq!(parse("'it''s'").unwrap(), Value::from("it's"));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::from("a\nb"));
    }

    #[test]
    fn flat_mapping() {
        let v = parse("a: 1\nb: two\n").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), Some(&Value::from("two")));
    }

    #[test]
    fn nested_mapping() {
        let v = parse("outer:\n  inner: 1\n").unwrap();
        assert_eq!(v.get("outer").unwrap().get("inner"), Some(&Value::Int(1)));
    }

    #[test]
    fn mapping_with_null_value() {
        let v = parse("a:\nb: 1\n").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Null));
    }

    #[test]
    fn sequence_of_scalars() {
        assert_eq!(
            parse("- 1\n- 2\n").unwrap(),
            Value::Seq(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn sequence_of_compact_mappings() {
        let v = parse("- name: r1\n  links: 3\n- name: r2\n  links: 5\n").unwrap();
        let items = v.as_seq().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("name"), Some(&Value::from("r1")));
        assert_eq!(items[0].get("links"), Some(&Value::Int(3)));
        assert_eq!(items[1].get("name"), Some(&Value::from("r2")));
    }

    #[test]
    fn sequence_item_with_block_on_next_line() {
        let v = parse("-\n  a: 1\n").unwrap();
        assert_eq!(v.as_seq().unwrap()[0].get("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn lone_dash_is_null_item() {
        let v = parse("-\n- 2\n").unwrap();
        assert_eq!(v.as_seq().unwrap()[0], Value::Null);
    }

    #[test]
    fn mapping_with_sequence_value() {
        let v = parse("items:\n  - 1\n  - 2\n").unwrap();
        assert_eq!(
            v.get("items"),
            Some(&Value::Seq(vec![Value::Int(1), Value::Int(2)]))
        );
    }

    #[test]
    fn empty_flow_collections() {
        let v = parse("seq: []\nmap: {}\n").unwrap();
        assert_eq!(v.get("seq"), Some(&Value::Seq(vec![])));
        assert_eq!(v.get("map"), Some(&Value::Map(vec![])));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let v = parse("# header\na: 1  # trailing\n\nb: 2\n").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let v = parse("label: \"#1\"\n").unwrap();
        assert_eq!(v.get("label"), Some(&Value::from("#1")));
    }

    #[test]
    fn quoted_keys() {
        let v = parse("\"weird: key\": 1\n").unwrap();
        assert_eq!(v.get("weird: key"), Some(&Value::Int(1)));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(err.message().contains("duplicate"));
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn bad_indentation_rejected() {
        // A stray extra space of indentation cannot attach anywhere.
        assert!(parse("a:\n  b: 1\n   c: 2\n").is_err());
        // And an indent jump inside a fresh block is reported as such.
        let err = parse("a:\n  - 1\n    - 2\n").unwrap_err();
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn leading_document_marker_tolerated() {
        let v = parse("---\na: 1\n").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn deep_nesting() {
        let v = parse("a:\n  b:\n    c:\n      - d: 4\n").unwrap();
        let d = v
            .get("a")
            .and_then(|x| x.get("b"))
            .and_then(|x| x.get("c"))
            .and_then(Value::as_seq)
            .map(|s| s[0].get("d").cloned());
        assert_eq!(d, Some(Some(Value::Int(4))));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(parse("a: \"oops\n").is_err());
    }

    #[test]
    fn special_floats_parse() {
        assert!(matches!(parse(".nan").unwrap(), Value::Float(f) if f.is_nan()));
        assert_eq!(parse(".inf").unwrap(), Value::Float(f64::INFINITY));
        assert_eq!(parse("-.inf").unwrap(), Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn colon_without_space_is_part_of_scalar() {
        // "ab:cd" has no structural colon.
        assert_eq!(parse("ab:cd").unwrap(), Value::from("ab:cd"));
    }

    /// Records the event stream as `(line, event)` pairs.
    #[derive(Default)]
    struct Recorder(Vec<(usize, Event<'static>)>);

    impl Handler<'_> for Recorder {
        fn event(&mut self, line: usize, event: Event<'_>) {
            let owned = match event {
                Event::Key(key) => Event::Key(Cow::Owned(key.into_owned())),
                Event::Scalar(Scalar::Str(s)) => {
                    Event::Scalar(Scalar::Str(Cow::Owned(s.into_owned())))
                }
                Event::Scalar(Scalar::Null) => Event::Scalar(Scalar::Null),
                Event::Scalar(Scalar::Int(i)) => Event::Scalar(Scalar::Int(i)),
                Event::Scalar(Scalar::EmptySeq) => Event::Scalar(Scalar::EmptySeq),
                Event::Item => Event::Item,
                Event::End => Event::End,
                other => panic!("unexpected event {other:?}"),
            };
            self.0.push((line, owned));
        }
    }

    #[test]
    fn event_stream_shape() {
        let mut rec = Recorder::default();
        parse_events("a: 1\nb:\n  - x: y\n  -\nc: []\n", &mut rec).unwrap();
        let key = |k: &str| Event::Key(Cow::Owned(k.to_owned()));
        let text = |s: &str| Event::Scalar(Scalar::Str(Cow::Owned(s.to_owned())));
        assert_eq!(
            rec.0,
            vec![
                (1, key("a")),
                (1, Event::Scalar(Scalar::Int(1))),
                (2, key("b")),
                (3, Event::Item),
                (3, key("x")),
                (3, text("y")),
                (4, Event::End),
                (4, Event::Item),
                (4, Event::Scalar(Scalar::Null)),
                (5, Event::End),
                (5, key("c")),
                (5, Event::Scalar(Scalar::EmptySeq)),
                (5, Event::End),
            ]
        );
    }

    #[test]
    fn scalar_spans_delimit_each_token_in_the_input() {
        /// The input text of every scalar that carries a span.
        struct Spans<'t>(&'t str, Vec<&'t str>);
        impl<'t> Handler<'t> for Spans<'t> {
            fn event(&mut self, _line: usize, _event: Event<'t>) {}
            fn scalar(&mut self, _line: usize, span: Range<usize>, _scalar: Scalar<'t>) {
                self.1.push(self.0.get(span).unwrap_or("<out of range>"));
            }
        }
        let text =
            "---\nk: 42  # note\r\nq: \"a\\\"b\" \nlist:\n  - x: 'y'\n  - 7\n  -\n  - []\nend:\n";
        let mut spans = Spans(text, Vec::new());
        parse_events(text, &mut spans).unwrap();
        assert_eq!(spans.1, ["42", "\"a\\\"b\"", "'y'", "7", "[]"]);
        let mut root = Spans("  plain \n", Vec::new());
        parse_events(root.0, &mut root).unwrap();
        assert_eq!(root.1, ["plain"]);
    }

    #[test]
    fn events_borrow_unescaped_text() {
        struct Borrowed(bool);
        impl Handler<'_> for Borrowed {
            fn event(&mut self, _line: usize, event: Event<'_>) {
                match event {
                    Event::Key(Cow::Owned(_)) | Event::Scalar(Scalar::Str(Cow::Owned(_))) => {
                        self.0 = false;
                    }
                    _ => {}
                }
            }
        }
        let mut all = Borrowed(true);
        parse_events("\"k\": \"#1\"\nname: 'x'\n", &mut all).unwrap();
        assert!(all.0);
        let mut escaped = Borrowed(true);
        parse_events("k: \"a\\nb\"\n", &mut escaped).unwrap();
        assert!(!escaped.0);
    }

    #[test]
    fn empty_document_is_one_null_event() {
        let mut rec = Recorder::default();
        parse_events("# nothing\n", &mut rec).unwrap();
        assert_eq!(rec.0, vec![(1, Event::Scalar(Scalar::Null))]);
    }

    #[test]
    fn unbounded_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "- ".repeat(10_000) + "x\n";
        let err = parse(&deep).unwrap_err();
        assert!(err.message().contains("nested deeper"), "{err}");
        assert_eq!(err.line(), 1);
        let fine = "- ".repeat(100) + "x\n";
        assert!(parse(&fine).is_ok());
    }

    #[test]
    fn router_names_with_colons_in_values() {
        let v = parse("name: fra-fr5:pb6\n").unwrap();
        assert_eq!(v.get("name"), Some(&Value::from("fra-fr5:pb6")));
    }
}
