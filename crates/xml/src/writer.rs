//! Well-formed XML output with correct escaping.

use std::fmt::Write as _;

use crate::escape::{escape_attribute, escape_text};
use crate::{Error, ErrorKind, Result};

/// A streaming XML writer.
///
/// Tracks the open-element stack so that mismatched calls are rejected at
/// write time rather than discovered by a parser later. Output is compact
/// (no indentation) by default — weathermap SVGs are machine-generated and
/// the corpus-size figures of the paper (Table 2) are sensitive to
/// formatting — with an optional two-space pretty mode for human eyes.
#[derive(Debug)]
pub struct Writer {
    out: String,
    stack: Vec<String>,
    pretty: bool,
    /// Whether the current line already has content (pretty mode only).
    needs_newline: bool,
    /// Whether the last output was character data (suppresses the pretty
    /// newline before the closing tag, keeping text content verbatim).
    last_was_text: bool,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// Creates a compact writer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            out: String::new(),
            stack: Vec::new(),
            pretty: false,
            needs_newline: false,
            last_was_text: false,
        }
    }

    /// Creates a writer that indents nested elements by two spaces.
    #[must_use]
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::new()
        }
    }

    /// Writes the `<?xml ...?>` declaration. Must be the first output.
    pub fn declaration(&mut self, version: &str, encoding: Option<&str>) -> Result<()> {
        if !self.out.is_empty() {
            return Err(Error::new(ErrorKind::TrailingContent, self.out.len()));
        }
        write!(self.out, "<?xml version=\"{}\"", escape_attribute(version)).expect("string write");
        if let Some(enc) = encoding {
            write!(self.out, " encoding=\"{}\"", escape_attribute(enc)).expect("string write");
        }
        self.out.push_str("?>");
        self.needs_newline = true;
        Ok(())
    }

    /// Starts building an opening tag; finish with
    /// [`ElementBuilder::finish`] or [`ElementBuilder::close`].
    pub fn start_element<'w>(&'w mut self, name: &str) -> ElementBuilder<'w> {
        ElementBuilder {
            writer: self,
            name: name.to_owned(),
            attrs: Vec::new(),
        }
    }

    /// Writes character data inside the current element.
    pub fn text(&mut self, text: &str) -> Result<()> {
        if self.stack.is_empty() {
            return Err(Error::new(ErrorKind::TrailingContent, self.out.len()));
        }
        self.out.push_str(&escape_text(text));
        self.last_was_text = true;
        Ok(())
    }

    /// Writes a comment.
    pub fn comment(&mut self, body: &str) -> Result<()> {
        self.newline_if_pretty();
        // "--" is forbidden inside comments; substitute a visually similar
        // sequence rather than producing an unparsable document.
        let safe = body.replace("--", "- -");
        write!(self.out, "<!--{safe}-->").expect("string write");
        self.needs_newline = true;
        Ok(())
    }

    /// Closes the innermost element, checking the name matches.
    pub fn end_element(&mut self, name: &str) -> Result<()> {
        match self.stack.last() {
            Some(open) if open == name => {
                self.stack.pop();
                if self.last_was_text {
                    self.needs_newline = false;
                    self.last_was_text = false;
                } else {
                    self.newline_if_pretty();
                }
                write!(self.out, "</{name}>").expect("string write");
                self.needs_newline = true;
                Ok(())
            }
            Some(open) => Err(Error::new(
                ErrorKind::MismatchedCloseTag {
                    found: name.to_owned(),
                    expected: Some(open.clone()),
                },
                self.out.len(),
            )),
            None => Err(Error::new(
                ErrorKind::MismatchedCloseTag {
                    found: name.to_owned(),
                    expected: None,
                },
                self.out.len(),
            )),
        }
    }

    /// Finishes the document, verifying every element was closed.
    pub fn into_string_checked(self) -> Result<String> {
        if !self.stack.is_empty() {
            return Err(Error::new(
                ErrorKind::UnclosedElements {
                    depth: self.stack.len(),
                },
                self.out.len(),
            ));
        }
        Ok(self.out)
    }

    fn newline_if_pretty(&mut self) {
        if self.pretty && self.needs_newline {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
            self.needs_newline = false;
        }
    }
}

/// Builder for one opening tag; created by [`Writer::start_element`].
#[derive(Debug)]
pub struct ElementBuilder<'w> {
    writer: &'w mut Writer,
    name: String,
    attrs: Vec<(String, String)>,
}

impl ElementBuilder<'_> {
    /// Adds an attribute. Later duplicates of the same name are rejected at
    /// [`ElementBuilder::finish`] time.
    #[must_use]
    pub fn attr(mut self, name: &str, value: &str) -> Self {
        self.attrs.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Adds an attribute with a formatted float value, trimming a trailing
    /// `.0` so coordinates stay compact (`"12"` not `"12.0"`).
    #[must_use]
    pub fn attr_f64(self, name: &str, value: f64) -> Self {
        self.attr(name, &format_f64(value))
    }

    /// Writes the tag and keeps the element open.
    pub fn finish(self) -> Result<()> {
        self.write(false)
    }

    /// Writes the tag self-closed (`<name ... />`).
    pub fn close(self) -> Result<()> {
        self.write(true)
    }

    fn write(self, self_close: bool) -> Result<()> {
        for (i, (name, _)) in self.attrs.iter().enumerate() {
            if self.attrs[..i].iter().any(|(n, _)| n == name) {
                return Err(Error::new(
                    ErrorKind::DuplicateAttribute { name: name.clone() },
                    self.writer.out.len(),
                ));
            }
        }
        self.writer.newline_if_pretty();
        write!(self.writer.out, "<{}", self.name).expect("string write");
        for (name, value) in &self.attrs {
            write!(self.writer.out, " {}=\"{}\"", name, escape_attribute(value))
                .expect("string write");
        }
        if self_close {
            self.writer.out.push_str("/>");
        } else {
            self.writer.out.push('>');
            self.writer.stack.push(self.name);
        }
        self.writer.needs_newline = true;
        self.writer.last_was_text = false;
        Ok(())
    }
}

/// Formats a float compactly: integers lose their fraction, other values
/// keep at most two decimals (the precision weathermap SVGs use).
#[must_use]
pub(crate) fn format_f64(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        let s = format!("{value:.2}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Reader};

    #[test]
    fn writes_compact_document() {
        let mut w = Writer::new();
        w.start_element("a").attr("k", "v").finish().unwrap();
        w.text("body").unwrap();
        w.end_element("a").unwrap();
        assert_eq!(w.into_string_checked().unwrap(), r#"<a k="v">body</a>"#);
    }

    #[test]
    fn pretty_mode_indents() {
        let mut w = Writer::pretty();
        w.start_element("a").finish().unwrap();
        w.start_element("b").close().unwrap();
        w.end_element("a").unwrap();
        let s = w.into_string_checked().unwrap();
        assert_eq!(s, "<a>\n  <b/>\n</a>");
    }

    #[test]
    fn escapes_attribute_and_text() {
        let mut w = Writer::new();
        w.start_element("a").attr("k", "x\"<y").finish().unwrap();
        w.text("1 < 2 & 3").unwrap();
        w.end_element("a").unwrap();
        let s = w.into_string_checked().unwrap();
        assert_eq!(s, r#"<a k="x&quot;&lt;y">1 &lt; 2 &amp; 3</a>"#);
    }

    #[test]
    fn rejects_text_outside_elements() {
        let mut w = Writer::new();
        assert!(w.text("stray").is_err());
    }

    #[test]
    fn rejects_mismatched_end() {
        let mut w = Writer::new();
        w.start_element("a").finish().unwrap();
        assert!(w.end_element("b").is_err());
    }

    #[test]
    fn rejects_unclosed_at_finish() {
        let mut w = Writer::new();
        w.start_element("a").finish().unwrap();
        assert!(w.into_string_checked().is_err());
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let mut w = Writer::new();
        assert!(w
            .start_element("a")
            .attr("k", "1")
            .attr("k", "2")
            .close()
            .is_err());
    }

    #[test]
    fn declaration_must_come_first() {
        let mut w = Writer::new();
        w.start_element("a").close().unwrap();
        assert!(w.declaration("1.0", None).is_err());
    }

    #[test]
    fn comment_dashes_are_sanitised() {
        let mut w = Writer::new();
        w.comment("a -- b").unwrap();
        let s = w.into_string_checked().unwrap();
        assert!(!s[4..s.len() - 3].contains("--"), "{s}");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_f64(12.0), "12");
        assert_eq!(format_f64(12.5), "12.5");
        assert_eq!(format_f64(12.345), "12.35"); // rounded to 2 decimals
        assert_eq!(format_f64(-3.10), "-3.1");
        assert_eq!(format_f64(0.0), "0");
    }

    #[test]
    fn writer_output_is_parseable() {
        let mut w = Writer::pretty();
        w.declaration("1.0", Some("UTF-8")).unwrap();
        w.comment("generated").unwrap();
        w.start_element("svg")
            .attr_f64("width", 1024.0)
            .finish()
            .unwrap();
        w.start_element("text")
            .attr("class", "labellink")
            .finish()
            .unwrap();
        w.text("9 %").unwrap();
        w.end_element("text").unwrap();
        w.start_element("rect").attr_f64("x", 3.25).close().unwrap();
        w.end_element("svg").unwrap();
        let xml = w.into_string_checked().unwrap();

        let mut r = Reader::new(&xml);
        let mut count = 0;
        let mut saw_text = false;
        while let Some(e) = r.next_event().unwrap() {
            count += 1;
            if let Event::Text(t) = e {
                assert_eq!(t, "9 %");
                saw_text = true;
            }
        }
        assert!(saw_text);
        assert!(count >= 6);
    }
}
