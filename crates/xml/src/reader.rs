//! The streaming pull parser.

use crate::escape::{unescape, unescape_into};
use crate::{Error, ErrorKind, Result};
use std::borrow::Cow;

/// One attribute of an element, with entities already decoded.
///
/// Both fields borrow from the document; the value is only owned when it
/// contained entity references that had to be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name, verbatim (namespace prefixes are kept as written).
    pub name: &'a str,
    /// Decoded attribute value.
    pub value: Cow<'a, str>,
}

/// One parse event produced by [`Reader::next_event`] (with `A` the
/// start tag's attribute list) or [`Reader::next_buffered`] (with `A =
/// ()`: the attributes stay in the reader).
///
/// Events borrow from the input document, so steady-state parsing does
/// not allocate: only text and attribute values containing entities are
/// decoded into owned buffers (as [`Cow::Owned`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a, A = Vec<Attribute<'a>>> {
    /// The `<?xml ... ?>` declaration, raw content between the markers.
    Declaration(&'a str),
    /// A `<!DOCTYPE ...>` definition, raw content (not interpreted).
    Doctype(&'a str),
    /// A processing instruction other than the XML declaration.
    ProcessingInstruction(&'a str),
    /// A `<!-- ... -->` comment, without the markers.
    Comment(&'a str),
    /// A `<![CDATA[ ... ]]>` section, verbatim.
    CData(&'a str),
    /// An opening tag. For self-closing tags no matching
    /// [`Event::EndElement`] is produced and `self_closing` is `true`.
    StartElement {
        /// Element name.
        name: &'a str,
        /// Attributes in document order.
        attributes: A,
        /// Whether the tag was written `<name ... />`.
        self_closing: bool,
    },
    /// A closing tag.
    EndElement {
        /// Element name.
        name: &'a str,
    },
    /// Character data with entities decoded.
    ///
    /// Whitespace-only runs between markup are *not* reported; weathermap
    /// data never encodes information in inter-element whitespace.
    Text(Cow<'a, str>),
}

impl<'a> Event<'a> {
    /// For a start element, looks up an attribute value by name.
    #[must_use]
    pub fn attribute(&self, name: &str) -> Option<&str> {
        match self {
            Event::StartElement { attributes, .. } => attributes
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_ref()),
            _ => None,
        }
    }
}

impl<'a, A> Event<'a, A> {
    /// The same event with a start tag's attributes replaced by
    /// `f(attributes)`.
    fn map_attributes<B>(self, f: impl FnOnce(A) -> B) -> Event<'a, B> {
        match self {
            Event::Declaration(s) => Event::Declaration(s),
            Event::Doctype(s) => Event::Doctype(s),
            Event::ProcessingInstruction(s) => Event::ProcessingInstruction(s),
            Event::Comment(s) => Event::Comment(s),
            Event::CData(s) => Event::CData(s),
            Event::StartElement {
                name,
                attributes,
                self_closing,
            } => Event::StartElement {
                name,
                attributes: f(attributes),
                self_closing,
            },
            Event::EndElement { name } => Event::EndElement { name },
            Event::Text(t) => Event::Text(t),
        }
    }
}

/// Where one attribute of the current start tag lies: its name in the
/// input, its value in the input or, when it held entities, decoded in
/// the buffer's own arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    name: (usize, usize),
    value: (usize, usize),
    decoded: bool,
}

/// The attributes of the start tag a [`Reader`] read last, held as byte
/// ranges so the storage outlives any one document.
///
/// The reader clears and refills it at every start tag, so a document
/// costs no allocation per tag once it has seen its widest tag. A
/// caller that parses many documents hands the buffer from one reader
/// to the next ([`Reader::with_buffer`], [`Reader::into_buffer`]) and
/// pays nothing per document either.
#[derive(Debug, Clone, Default)]
pub struct AttributeBuffer {
    slots: Vec<Slot>,
    /// Values that held entities, decoded back to back.
    decoded: String,
}

impl AttributeBuffer {
    /// The buffer's capacity: attribute slots, and bytes of decoded
    /// values.
    #[must_use]
    pub fn capacity(&self) -> (usize, usize) {
        (self.slots.capacity(), self.decoded.capacity())
    }
}

/// The attributes of a [`Reader`]'s current start tag, from
/// [`Reader::attributes`].
#[derive(Debug, Clone)]
pub struct Attributes<'r, 'a> {
    reader: &'r Reader<'a>,
    slots: std::slice::Iter<'r, Slot>,
}

impl<'r, 'a> Iterator for Attributes<'r, 'a> {
    type Item = (&'a str, &'r str);

    // Inlined into the caller's loop: the SVG layer reads every
    // attribute of every tag through here.
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let text: &'a str = self.reader.text;
        self.slots.find_map(|slot| {
            let name = text.get(slot.name.0..slot.name.1)?;
            Some((name, self.reader.value_of(slot)?))
        })
    }
}

/// A streaming XML pull parser over an in-memory document.
///
/// Call [`Reader::next_event`] (or [`Reader::next_buffered`])
/// repeatedly; it returns `Ok(None)` at the end of a well-formed
/// document and `Err` on the first syntax error.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
    text: &'a str,
    pos: usize,
    stack: Vec<&'a str>,
    seen_root: bool,
    attributes: AttributeBuffer,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a complete document held in memory.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self::with_buffer(text, AttributeBuffer::default())
    }

    /// Creates a reader that keeps start-tag attributes in `attributes`,
    /// a buffer recovered from an earlier reader with
    /// [`Reader::into_buffer`].
    #[must_use]
    pub fn with_buffer(text: &'a str, attributes: AttributeBuffer) -> Self {
        Self {
            input: text.as_bytes(),
            text,
            pos: 0,
            stack: Vec::new(),
            seen_root: false,
            attributes,
        }
    }

    /// Ends the reader, returning its attribute buffer for the next one.
    #[must_use]
    pub fn into_buffer(self) -> AttributeBuffer {
        self.attributes
    }

    /// Current byte offset into the input.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Depth of currently open elements.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Produces the next event, `Ok(None)` at a well-formed end of input.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>> {
        let event = self.next_buffered()?;
        Ok(event.map(|e| e.map_attributes(|()| self.attribute_list())))
    }

    /// [`Reader::next_event`] without collecting a start tag's
    /// attributes: they stay in the reader's buffer, readable with
    /// [`Reader::attributes`] until the next call. This is the one
    /// grammar; `next_event` only copies the attributes out.
    pub fn next_buffered(&mut self) -> Result<Option<Event<'a, ()>>> {
        loop {
            let Some(first) = self.peek() else {
                if !self.stack.is_empty() {
                    return Err(Error::new(
                        ErrorKind::UnclosedElements {
                            depth: self.stack.len(),
                        },
                        self.pos,
                    ));
                }
                return Ok(None);
            };
            if first == b'<' {
                return self.read_markup().map(Some);
            }
            // Character data up to the next '<'.
            let start = self.pos;
            let end = memchr(self.input, b'<', self.pos).unwrap_or(self.input.len());
            self.pos = end;
            let raw = self.slice(start, end)?;
            // One pass tells whitespace-only runs and entities apart.
            let (mut blank, mut has_entity) = (true, false);
            for b in raw.bytes() {
                blank &= b.is_ascii_whitespace();
                has_entity |= b == b'&';
            }
            if blank {
                continue; // Skip inter-element whitespace.
            }
            if self.stack.is_empty() {
                return Err(Error::new(ErrorKind::TrailingContent, start));
            }
            let text = if has_entity {
                unescape(raw, start)?
            } else {
                Cow::Borrowed(raw)
            };
            return Ok(Some(Event::Text(text)));
        }
    }

    /// The current start tag's attributes as `(name, value)` pairs in
    /// document order, values decoded (see [`Reader::next_buffered`]).
    #[must_use]
    pub fn attributes(&self) -> Attributes<'_, 'a> {
        Attributes {
            reader: self,
            slots: self.attributes.slots.iter(),
        }
    }

    /// The current start tag's attributes, copied out in document order.
    fn attribute_list(&self) -> Vec<Attribute<'a>> {
        let text: &'a str = self.text;
        self.attributes
            .slots
            .iter()
            .filter_map(|slot| {
                let name = text.get(slot.name.0..slot.name.1)?;
                let value = if slot.decoded {
                    Cow::Owned(self.value_of(slot)?.to_owned())
                } else {
                    Cow::Borrowed(text.get(slot.value.0..slot.value.1)?)
                };
                Some(Attribute { name, value })
            })
            .collect()
    }

    #[inline]
    fn value_of(&self, slot: &Slot) -> Option<&str> {
        let (start, end) = slot.value;
        if slot.decoded {
            self.attributes.decoded.get(start..end)
        } else {
            self.text.get(start..end)
        }
    }

    /// The input between two offsets. Every offset the grammar slices at
    /// sits on an ASCII delimiter or the end of input, so this never
    /// fails on a `&str`; the error keeps it panic-free regardless.
    fn slice(&self, start: usize, end: usize) -> Result<&'a str> {
        let text: &'a str = self.text;
        text.get(start..end)
            .ok_or_else(|| Error::new(ErrorKind::UnexpectedEof { context: "input" }, start))
    }

    /// Reads markup starting at `<`.
    fn read_markup(&mut self) -> Result<Event<'a, ()>> {
        let at = self.pos;
        match self.input.get(self.pos + 1) {
            None => Err(Error::new(
                ErrorKind::UnexpectedEof { context: "a tag" },
                at,
            )),
            Some(b'?') => self.read_pi(),
            Some(b'!') => self.read_bang(),
            Some(b'/') => self.read_close_tag(),
            Some(_) => self.read_open_tag(),
        }
    }

    /// Reads `<? ... ?>`.
    fn read_pi(&mut self) -> Result<Event<'a, ()>> {
        let at = self.pos;
        let body_start = self.pos + 2;
        let end = find(self.input, b"?>", body_start).ok_or_else(|| {
            Error::new(
                ErrorKind::UnexpectedEof {
                    context: "a processing instruction",
                },
                at,
            )
        })?;
        let body = self.slice(body_start, end)?;
        self.pos = end + 2;
        match body.strip_prefix("xml") {
            Some(rest) if rest.starts_with(|c: char| c.is_ascii_whitespace()) => {
                Ok(Event::Declaration(rest.trim()))
            }
            _ => Ok(Event::ProcessingInstruction(body)),
        }
    }

    /// Reads `<!-- -->`, `<![CDATA[ ]]>` or `<!DOCTYPE >`.
    fn read_bang(&mut self) -> Result<Event<'a, ()>> {
        let at = self.pos;
        let rest = self.input.get(self.pos..).unwrap_or_default();
        if rest.starts_with(b"<!--") {
            let end = find(self.input, b"-->", self.pos + 4).ok_or_else(|| {
                Error::new(
                    ErrorKind::UnexpectedEof {
                        context: "a comment",
                    },
                    at,
                )
            })?;
            let body = self.slice(self.pos + 4, end)?;
            self.pos = end + 3;
            return Ok(Event::Comment(body));
        }
        if rest.starts_with(b"<![CDATA[") {
            let end = find(self.input, b"]]>", self.pos + 9).ok_or_else(|| {
                Error::new(
                    ErrorKind::UnexpectedEof {
                        context: "a CDATA section",
                    },
                    at,
                )
            })?;
            let body = self.slice(self.pos + 9, end)?;
            self.pos = end + 3;
            if self.stack.is_empty() {
                return Err(Error::new(ErrorKind::TrailingContent, at));
            }
            return Ok(Event::CData(body));
        }
        if rest
            .get(2..9)
            .is_some_and(|word| word.eq_ignore_ascii_case(b"DOCTYPE"))
        {
            // DOCTYPE may nest brackets for an internal subset.
            let mut depth = 0usize;
            for (i, &b) in rest.iter().enumerate().skip(2) {
                match b {
                    b'[' => depth += 1,
                    b']' => depth = depth.saturating_sub(1),
                    b'>' if depth == 0 => {
                        let body = self.slice(at + 9, at + i)?.trim();
                        self.pos = at + i + 1;
                        return Ok(Event::Doctype(body));
                    }
                    _ => {}
                }
            }
            return Err(Error::new(
                ErrorKind::UnexpectedEof {
                    context: "a DOCTYPE",
                },
                at,
            ));
        }
        Err(Error::new(
            ErrorKind::UnexpectedChar {
                found: '!',
                expected: "a comment, CDATA or DOCTYPE",
            },
            at + 1,
        ))
    }

    /// Reads `</name>`.
    fn read_close_tag(&mut self) -> Result<Event<'a, ()>> {
        let at = self.pos;
        let input = self.input;
        let start = at + 2;
        // `</name>` closing the innermost element, as writers spell it:
        // no name to scan.
        if let Some(&open) = self.stack.last() {
            let end = start + open.len();
            if input.get(start..end) == Some(open.as_bytes()) && input.get(end) == Some(&b'>') {
                self.stack.pop();
                self.pos = end + 1;
                return Ok(Event::EndElement {
                    name: self.slice(start, end)?,
                });
            }
        }
        let name_end = name_end(input, start)?;
        let name = self.slice(start, name_end)?;
        let pos = skip_whitespace(input, name_end);
        self.pos = expect_byte(input, pos, b'>', "'>' closing the tag")?;
        match self.stack.pop() {
            Some(open) if open == name => Ok(Event::EndElement { name }),
            Some(open) => Err(Error::new(
                ErrorKind::MismatchedCloseTag {
                    found: name.to_owned(),
                    expected: Some(open.to_owned()),
                },
                at,
            )),
            None => Err(Error::new(
                ErrorKind::MismatchedCloseTag {
                    found: name.to_owned(),
                    expected: None,
                },
                at,
            )),
        }
    }

    /// Reads `<name attr="v" ...>` or `<name ... />`, its attributes
    /// into the reader's buffer. The tag is read with a local cursor;
    /// the reader's position moves once, past the tag.
    fn read_open_tag(&mut self) -> Result<Event<'a, ()>> {
        let at = self.pos;
        if self.seen_root && self.stack.is_empty() {
            return Err(Error::new(ErrorKind::TrailingContent, at));
        }
        let input = self.input;
        let name_end = name_end(input, at + 1)?;
        let name = self.slice(at + 1, name_end)?;
        self.attributes.slots.clear();
        self.attributes.decoded.clear();
        // One bit per attribute name read so far (see `name_bit`).
        let mut seen = 0u64;
        let mut pos = name_end;
        loop {
            pos = skip_whitespace(input, pos);
            match input.get(pos) {
                None => {
                    return Err(Error::new(
                        ErrorKind::UnexpectedEof { context: "a tag" },
                        at,
                    ));
                }
                Some(b'>') => {
                    self.pos = pos + 1;
                    self.stack.push(name);
                    self.seen_root = true;
                    return Ok(Event::StartElement {
                        name,
                        attributes: (),
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.pos = expect_byte(input, pos + 1, b'>', "'>' after '/'")?;
                    self.seen_root = true;
                    return Ok(Event::StartElement {
                        name,
                        attributes: (),
                        self_closing: true,
                    });
                }
                Some(_) => pos = self.read_attribute(pos, &mut seen)?,
            }
        }
    }

    /// Reads `name = "value"` (single or double quotes) at `pos` into
    /// the buffer and returns the position after its closing quote.
    ///
    /// The value is scanned once: the pass that finds the closing quote
    /// also notes whether a `&` came before it, and only then is the
    /// value decoded. `seen` filters the duplicate check: names are
    /// compared only when one shares the new name's bit.
    fn read_attribute(&mut self, name_start: usize, seen: &mut u64) -> Result<usize> {
        let input = self.input;
        let name_end = name_end(input, name_start)?;
        let (quote, start) = match input.get(name_end..name_end + 2) {
            // `name="`, as writers spell it.
            Some(&[b'=', quote @ (b'"' | b'\'')]) => (quote, name_end + 2),
            _ => open_quote(input, name_end)?,
        };
        let (end, has_entity) = find_value_end(input, quote, start).ok_or_else(|| {
            Error::new(
                ErrorKind::UnexpectedEof {
                    context: "an attribute value",
                },
                start,
            )
        })?;
        let value = if has_entity {
            let raw = self.slice(start, end)?;
            let decoded = &mut self.attributes.decoded;
            let from = decoded.len();
            unescape_into(raw, start, decoded)?;
            (from, decoded.len())
        } else {
            (start, end)
        };
        let name = input.get(name_start..name_end).unwrap_or_default();
        let bit = name_bit(name);
        if *seen & bit != 0
            && self
                .attributes
                .slots
                .iter()
                .any(|s| input.get(s.name.0..s.name.1) == Some(name))
        {
            return Err(Error::new(
                ErrorKind::DuplicateAttribute {
                    name: self.slice(name_start, name_end)?.to_owned(),
                },
                end + 1,
            ));
        }
        *seen |= bit;
        self.attributes.slots.push(Slot {
            name: (name_start, name_end),
            value,
            decoded: has_entity,
        });
        Ok(end + 1)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }
}

/// The quote that opens an attribute value after `= ` (whitespace
/// allowed around `=`) from `pos`, and the position after it.
fn open_quote(input: &[u8], pos: usize) -> Result<(u8, usize)> {
    let pos = skip_whitespace(input, pos);
    let pos = skip_whitespace(
        input,
        expect_byte(input, pos, b'=', "'=' after attribute name")?,
    );
    match input.get(pos) {
        Some(&quote @ (b'"' | b'\'')) => Ok((quote, pos + 1)),
        Some(&other) => Err(Error::new(
            ErrorKind::UnexpectedChar {
                found: other as char,
                expected: "a quote",
            },
            pos,
        )),
        None => Err(Error::new(
            ErrorKind::UnexpectedEof {
                context: "an attribute value",
            },
            pos,
        )),
    }
}

/// The first position at or after `pos` that is not ASCII whitespace.
fn skip_whitespace(input: &[u8], mut pos: usize) -> usize {
    while input.get(pos).is_some_and(u8::is_ascii_whitespace) {
        pos += 1;
    }
    pos
}

/// The position after `byte`, which must be at `pos`.
fn expect_byte(input: &[u8], pos: usize, byte: u8, expected: &'static str) -> Result<usize> {
    match input.get(pos) {
        Some(&b) if b == byte => Ok(pos + 1),
        Some(&other) => Err(Error::new(
            ErrorKind::UnexpectedChar {
                found: other as char,
                expected,
            },
            pos,
        )),
        None => Err(Error::new(
            ErrorKind::UnexpectedEof { context: expected },
            pos,
        )),
    }
}

/// Bytes that may start an XML name: ASCII letters, `_`, `:`, and every
/// byte of a non-ASCII character.
const NAME_START: u8 = 1;
/// Bytes that may continue an XML name: the start bytes, digits, `-`
/// and `.`.
const NAME_CHAR: u8 = 2;

/// The name classes of every byte value.
static NAME_CLASSES: [u8; 256] = name_classes();

const fn name_classes() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut rest: &mut [u8] = &mut table;
    let mut byte = 0u8;
    while let [class, tail @ ..] = rest {
        let start = byte.is_ascii_alphabetic() || byte == b'_' || byte == b':' || byte >= 0x80;
        if start {
            *class = NAME_START | NAME_CHAR;
        } else if byte.is_ascii_digit() || byte == b'-' || byte == b'.' {
            *class = NAME_CHAR;
        }
        rest = tail;
        byte = byte.wrapping_add(1);
    }
    table
}

fn name_class(byte: u8) -> u8 {
    NAME_CLASSES.get(usize::from(byte)).copied().unwrap_or(0)
}

/// The end of the XML name that starts at `start`; `InvalidName` when
/// the byte there cannot start one.
///
/// A name stops only at an ASCII byte or the end of input, so both ends
/// are character boundaries.
fn name_end(input: &[u8], start: usize) -> Result<usize> {
    let rest = input.get(start..).unwrap_or_default();
    match rest.first() {
        Some(&first) if name_class(first) & NAME_START != 0 => {}
        _ => return Err(Error::new(ErrorKind::InvalidName, start)),
    }
    let len = rest
        .iter()
        .position(|&b| name_class(b) & NAME_CHAR == 0)
        .unwrap_or(rest.len());
    Ok(start + len)
}

/// One bit of a 64-bit filter per attribute name. The common SVG names
/// (`class`, `x`, `y`, `width`, `height`, `points`, `transform`, `x1`
/// … `y2`) all get different bits, so a well-formed tag of them never
/// compares two names.
fn name_bit(name: &[u8]) -> u64 {
    let first = name.first().map_or(0, |&b| usize::from(b));
    let last = name.last().map_or(0, |&b| usize::from(b));
    1 << ((first * 3 + last * 5 + name.len()) % 64)
}

/// The set bits of `(x - 0x01…01) & !x & 0x80…80`: a high bit for
/// every zero byte of `x`, exact up to its lowest one (see [`memchr`]).
fn zero_bytes(x: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// The closing `quote` of an attribute value that starts at `from`, and
/// whether a `&` comes before it: one pass, eight bytes per step, over
/// both needles at once (the lowest hit of either is exact).
fn find_value_end(haystack: &[u8], quote: u8, from: usize) -> Option<(usize, bool)> {
    let quotes = u64::from_ne_bytes([quote; 8]);
    let amps = u64::from_ne_bytes([b'&'; 8]);
    let mut i = from;
    let hit = loop {
        let Some(window) = haystack.get(i..i + 8) else {
            let tail = haystack.get(i..)?;
            break i + tail.iter().position(|&b| b == quote || b == b'&')?;
        };
        let Ok(bytes) = <[u8; 8]>::try_from(window) else {
            return None; // `window` is exactly 8 bytes; kept panic-free anyway
        };
        let chunk = u64::from_le_bytes(bytes);
        let found = zero_bytes(chunk ^ quotes) | zero_bytes(chunk ^ amps);
        if found != 0 {
            break i + (found.trailing_zeros() / 8) as usize;
        }
        i += 8;
    };
    if haystack.get(hit) == Some(&quote) {
        Some((hit, false))
    } else {
        memchr(haystack, quote, hit + 1).map(|end| (end, true))
    }
}

/// First position of `needle` at or after `from`, scanning eight bytes
/// per step (SWAR over `u64`, the classic zero-byte trick; `std`-only).
///
/// `(x - 0x01…01) & !x & 0x80…80` has a high bit set for every zero
/// byte of `x = chunk ^ broadcast(needle)`; false positives can only
/// appear *above* the first true match, so the least significant set
/// bit is exact. `from_le_bytes` maps `haystack[i]` to the low byte,
/// making `trailing_zeros / 8` the in-chunk offset on every platform.
fn memchr(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
    let broadcast = u64::from_ne_bytes([needle; 8]);
    let mut i = from;
    while let Some(window) = haystack.get(i..i + 8) {
        let Ok(bytes) = <[u8; 8]>::try_from(window) else {
            break; // `window` is exactly 8 bytes; kept panic-free anyway
        };
        let found = zero_bytes(u64::from_le_bytes(bytes) ^ broadcast);
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

/// First position of the multi-byte `needle` at or after `from`.
///
/// Hops between candidate positions with the SWAR [`memchr`] on the
/// first needle byte, then verifies the remainder — much faster than a
/// `windows()` scan for the sparse `?>`/`-->`/`]]>` terminators.
fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from > haystack.len() {
        return None;
    }
    let (&first, tail) = needle.split_first()?;
    let mut at = from;
    while let Some(hit) = memchr(haystack, first, at) {
        let rest = haystack.get(hit + 1..)?;
        if rest.starts_with(tail) {
            return Some(hit);
        }
        if rest.len() < tail.len() {
            return None;
        }
        at = hit + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Result<Vec<Event<'_>>> {
        let mut r = Reader::new(xml);
        let mut out = Vec::new();
        while let Some(e) = r.next_event()? {
            out.push(e);
        }
        Ok(out)
    }

    #[test]
    fn parses_simple_element() {
        let evts = events("<a/>").unwrap();
        assert_eq!(
            evts,
            [Event::StartElement {
                name: "a",
                attributes: vec![],
                self_closing: true
            }]
        );
    }

    #[test]
    fn parses_nested_elements_with_text() {
        let evts = events("<a><b>hi</b></a>").unwrap();
        assert_eq!(evts.len(), 5);
        assert_eq!(evts[2], Event::Text("hi".into()));
        assert_eq!(evts[3], Event::EndElement { name: "b" });
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let evts = events(r#"<rect x="1.5" y='2'/>"#).unwrap();
        assert_eq!(evts[0].attribute("x"), Some("1.5"));
        assert_eq!(evts[0].attribute("y"), Some("2"));
        assert_eq!(evts[0].attribute("missing"), None);
    }

    #[test]
    fn decodes_entities_in_text_and_attributes() {
        let evts = events(r#"<a name="x &amp; y">1 &lt; 2</a>"#).unwrap();
        assert_eq!(evts[0].attribute("name"), Some("x & y"));
        assert_eq!(evts[1], Event::Text("1 < 2".into()));
    }

    #[test]
    fn skips_whitespace_only_text() {
        let evts = events("<a>\n  <b/>\n</a>").unwrap();
        assert!(evts.iter().all(|e| !matches!(e, Event::Text(_))));
    }

    #[test]
    fn declaration_comment_doctype_cdata() {
        let xml = "<?xml version=\"1.0\"?><!DOCTYPE svg><!-- hello --><a><![CDATA[1<2]]></a>";
        let evts = events(xml).unwrap();
        assert_eq!(evts[0], Event::Declaration("version=\"1.0\""));
        assert_eq!(evts[1], Event::Doctype("svg"));
        assert_eq!(evts[2], Event::Comment(" hello "));
        assert_eq!(evts[4], Event::CData("1<2"));
    }

    #[test]
    fn processing_instruction_is_distinct_from_declaration() {
        let evts = events("<?php echo ?><a/>").unwrap();
        assert_eq!(evts[0], Event::ProcessingInstruction("php echo "));
    }

    #[test]
    fn rejects_mismatched_close_tag() {
        let err = events("<a><b></a></b>").unwrap_err();
        assert!(matches!(
            err.kind(),
            ErrorKind::MismatchedCloseTag { found, expected: Some(e) }
                if found == "a" && e == "b"
        ));
    }

    #[test]
    fn rejects_stray_close_tag() {
        let err = events("<a/></a>").unwrap_err();
        assert!(matches!(
            err.kind(),
            ErrorKind::MismatchedCloseTag { expected: None, .. }
        ));
    }

    #[test]
    fn rejects_unclosed_elements_at_eof() {
        let err = events("<a><b>").unwrap_err();
        assert!(matches!(
            err.kind(),
            ErrorKind::UnclosedElements { depth: 2 }
        ));
    }

    #[test]
    fn rejects_truncated_tag() {
        let err = events("<a").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = events(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::DuplicateAttribute { name } if name == "x"));
    }

    #[test]
    fn rejects_second_root_element() {
        let err = events("<a/><b/>").unwrap_err();
        assert_eq!(*err.kind(), ErrorKind::TrailingContent);
    }

    #[test]
    fn rejects_text_outside_root() {
        let err = events("<a/>junk").unwrap_err();
        assert_eq!(*err.kind(), ErrorKind::TrailingContent);
    }

    #[test]
    fn rejects_unterminated_comment() {
        let err = events("<a><!-- oops</a>").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn rejects_malformed_attribute_value() {
        let err = events("<a x=1/>").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::UnexpectedChar { .. }));
    }

    #[test]
    fn rejects_bad_entity_with_position() {
        let err = events("<a>&bogus;</a>").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::InvalidEntity { entity } if entity == "bogus"));
        assert_eq!(err.offset(), 3);
    }

    #[test]
    fn attribute_whitespace_is_flexible() {
        let evts = events("<a  x = \"1\"   y=\"2\" />").unwrap();
        assert_eq!(evts[0].attribute("x"), Some("1"));
        assert_eq!(evts[0].attribute("y"), Some("2"));
    }

    #[test]
    fn unicode_names_and_text_survive() {
        let evts = events("<réseau>déjà</réseau>").unwrap();
        assert!(matches!(&evts[0], Event::StartElement { name, .. } if *name == "réseau"));
        assert_eq!(evts[1], Event::Text("déjà".into()));
    }

    #[test]
    fn depth_tracking() {
        let mut r = Reader::new("<a><b/></a>");
        r.next_event().unwrap();
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // self-closing <b/> does not change depth
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap();
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn doctype_with_internal_subset() {
        let xml = "<!DOCTYPE svg [ <!ENTITY x \"y\"> ]><a/>";
        let evts = events(xml).unwrap();
        assert!(matches!(&evts[0], Event::Doctype(d) if d.contains("ENTITY")));
    }

    #[test]
    fn empty_input_is_valid() {
        assert!(events("").unwrap().is_empty());
        assert!(events("   \n  ").unwrap().is_empty());
    }

    #[test]
    fn buffered_events_leave_attributes_in_the_reader() {
        let mut r = Reader::new(r#"<a x="1" y="p &amp; q"><b z='2'/></a>"#);
        let first = r.next_buffered().unwrap();
        assert_eq!(
            first,
            Some(Event::StartElement {
                name: "a",
                attributes: (),
                self_closing: false
            })
        );
        let attributes: Vec<_> = r.attributes().collect();
        assert_eq!(attributes, [("x", "1"), ("y", "p & q")]);
        r.next_buffered().unwrap();
        let attributes: Vec<_> = r.attributes().collect();
        assert_eq!(attributes, [("z", "2")], "the buffer holds one tag");
    }

    #[test]
    fn attribute_buffer_is_reused_across_readers() {
        let xml = r#"<a p="1" q="&lt;2" r="3"><b s="x &amp; y"/></a>"#;
        let mut buffer = AttributeBuffer::default();
        let mut capacities = Vec::new();
        for _ in 0..2 {
            let mut r = Reader::with_buffer(xml, buffer);
            while r.next_buffered().unwrap().is_some() {}
            buffer = r.into_buffer();
            capacities.push(buffer.capacity());
        }
        assert!(capacities[0].0 >= 3 && capacities[0].1 >= 2);
        assert_eq!(capacities[0], capacities[1]);
    }
}
