//! A minimal, dependency-free streaming XML parser and writer.
//!
//! Weathermap snapshots are SVG files — XML documents — and no XML crate is
//! available in this project's offline dependency set, so this crate
//! implements the subset of XML 1.0 that SVG weathermaps exercise:
//!
//! * elements with attributes (including self-closing elements),
//! * character data with the five predefined entities and numeric
//!   character references,
//! * comments, CDATA sections, the XML declaration, processing
//!   instructions, and `DOCTYPE` (skipped, not interpreted),
//! * precise byte offsets on every parse error, so the extraction pipeline
//!   can report *why* a snapshot was unprocessable (the paper's Table 2
//!   counts such files).
//!
//! It is a *pull* parser: [`Reader`] yields a stream of [`Event`]s, which
//! the SVG layer assembles into a document. Start-tag attributes live in
//! an [`AttributeBuffer`] the reader reuses from tag to tag (and a caller
//! from document to document), so a warm parse allocates nothing per
//! tag. The companion [`Writer`]
//! produces well-formed output with correct escaping and is used by the
//! simulator's SVG renderer and the YAML-adjacent tooling.
//!
//! Out of scope (not needed for weathermaps, rejected or ignored
//! gracefully): DTD internal subsets, namespaces-as-semantics (prefixes are
//! kept verbatim in names), and non-UTF-8 encodings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod escape;
mod reader;
mod writer;

pub use error::{Error, ErrorKind, Result};
pub use escape::{escape_attribute, escape_text, unescape};
pub use reader::{Attribute, AttributeBuffer, Attributes, Event, Reader};
pub use writer::{ElementBuilder, Writer};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test: write a document, read it back.
    #[test]
    fn round_trip_smoke() {
        let mut w = Writer::new();
        w.declaration("1.0", Some("UTF-8")).unwrap();
        w.start_element("svg")
            .attr("width", "100")
            .attr("height", "50")
            .finish()
            .unwrap();
        w.start_element("text")
            .attr("class", "labellink")
            .finish()
            .unwrap();
        w.text("42 %").unwrap();
        w.end_element("text").unwrap();
        w.end_element("svg").unwrap();
        let xml = w.into_string_checked().unwrap();

        let mut r = Reader::new(&xml);
        let mut texts = Vec::new();
        let mut elements = Vec::new();
        while let Some(event) = r.next_event().unwrap() {
            match event {
                Event::StartElement { name, .. } => elements.push(name),
                Event::Text(t) => texts.push(t),
                _ => {}
            }
        }
        assert_eq!(elements, ["svg", "text"]);
        assert_eq!(texts, ["42 %"]);
    }
}
