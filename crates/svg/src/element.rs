//! The flat element model.
//!
//! A [`Document`] stores its elements as `Copy` rows in one vector. A
//! row holds an interned class id and its geometry, whose variant is
//! the tag; variable-sized data lives in document-wide pools the rows
//! address by range:
//! text content in one string arena, polygon points in one point pool,
//! class names in a second, small arena. Parsing into a reused document
//! ([`Document::parse_into`]) therefore allocates nothing per element
//! once the pools have grown to the size of the documents it reads.
//! [`Element`] is the borrowed view that resolves a row against the
//! pools.

use std::fmt;

use wm_geometry::{Point, Rect, Segment};
use wm_xml::AttributeBuffer;

/// The tag of an element the model keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// `<rect>` — router boxes and label boxes.
    Rect,
    /// `<polygon>` — link arrows (the only tag Algorithm 1 treats as
    /// one).
    Polygon,
    /// `<polyline>` — same geometry as a polygon, never an arrow.
    Polyline,
    /// `<line>` — occasionally used for decorations.
    Line,
    /// `<text>` — node names, link labels and load percentages.
    Text,
    /// Any other drawable element (`style`, `defs`, gradients, …).
    Other,
}

/// Typed geometry of an SVG element, borrowed from its [`Document`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape<'d> {
    /// `<rect>`.
    Rect(Rect),
    /// `<polygon>` or `<polyline>`: the transformed vertices.
    Polygon(&'d [Point]),
    /// `<line>`.
    Line(Segment),
    /// `<text>` (with any nested `tspan` content concatenated).
    Text {
        /// The text anchor position (SVG `x`/`y`).
        anchor: Point,
        /// The concatenated character data.
        content: &'d str,
    },
    /// Any other element, whose geometry the pipeline does not use.
    Other,
}

/// A byte or element range into one of a document's pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// A row's geometry; variable-sized parts are spans into the pools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Geometry {
    Rect(Rect),
    Polygon(Span),
    Polyline(Span),
    Line(Segment),
    Text { anchor: Point, content: Span },
    Other,
}

/// One element of the flattened document: the row type of
/// [`Document`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Row {
    /// Index into the document's class table.
    pub(crate) class: Option<usize>,
    pub(crate) geometry: Geometry,
}

/// Rows must stay `Copy`: a row that owned heap data would bring back
/// an allocation per element.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Row>();
};

/// How many distinct class names a parse deduplicates. Weathermaps use
/// a handful; a hostile document with more gets a fresh entry for each
/// further one instead of a search that grows with the document.
const INTERNED_CLASSES: usize = 32;

/// A parsed SVG document: canvas size plus the flat element list.
///
/// Elements are read through [`Document::elements`] and
/// [`Document::element`]; the storage behind them is reused by
/// [`Document::parse_into`].
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// Canvas width in user units (0 when unspecified).
    pub width: f64,
    /// Canvas height in user units (0 when unspecified).
    pub height: f64,
    /// All drawable elements in document order, transforms applied,
    /// groups flattened.
    pub(crate) rows: Vec<Row>,
    /// Text content of every `<text>` row, back to back.
    pub(crate) text: String,
    /// Vertices of every polygon and polyline row, back to back.
    pub(crate) points: Vec<Point>,
    /// Class names, back to back, and each class id's span in them.
    pub(crate) class_names: String,
    pub(crate) classes: Vec<Span>,
    /// The class id [`Document::intern_class`] returned last, when it
    /// is one of the deduplicated ones.
    pub(crate) last_class: Option<usize>,
    /// The XML reader's attribute storage, kept between parses.
    pub(crate) attributes: AttributeBuffer,
}

/// The capacity of each buffer a [`Document`] keeps between parses:
/// what a warm [`Document::parse_into`] can fill without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capacity {
    /// Element rows.
    pub rows: usize,
    /// Bytes of text content.
    pub text: usize,
    /// Polygon and polyline points.
    pub points: usize,
    /// Bytes of class names.
    pub class_names: usize,
    /// Class table entries.
    pub classes: usize,
    /// The XML reader's attribute slots and decoded-value bytes.
    pub attributes: (usize, usize),
}

impl Document {
    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the document has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The element at `index` in document order.
    #[must_use]
    pub fn element(&self, index: usize) -> Option<Element<'_>> {
        self.rows.get(index).map(|row| Element { doc: self, row })
    }

    /// All elements in document order.
    pub fn elements(&self) -> impl ExactSizeIterator<Item = Element<'_>> + '_ {
        self.rows.iter().map(move |row| Element { doc: self, row })
    }

    /// Iterates elements whose class starts with `prefix`.
    pub fn elements_with_class_prefix<'d>(
        &'d self,
        prefix: &'d str,
    ) -> impl Iterator<Item = Element<'d>> {
        self.elements().filter(move |e| e.class_starts_with(prefix))
    }

    /// The capacity of every reused buffer.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        Capacity {
            rows: self.rows.capacity(),
            text: self.text.capacity(),
            points: self.points.capacity(),
            class_names: self.class_names.capacity(),
            classes: self.classes.capacity(),
            attributes: self.attributes.capacity(),
        }
    }

    /// Empties the document, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.width = 0.0;
        self.height = 0.0;
        self.rows.clear();
        self.text.clear();
        self.points.clear();
        self.class_names.clear();
        self.classes.clear();
        self.last_class = None;
    }

    /// The id of class `name`, added to the table when new. The id
    /// returned last is tried first, so a run of elements of one class
    /// finds it without a scan.
    pub(crate) fn intern_class(&mut self, name: &str) -> usize {
        let names = &self.class_names;
        let is_named = |span: &Span| names.get(span.start..span.end) == Some(name);
        let known = self
            .last_class
            .filter(|&id| self.classes.get(id).is_some_and(is_named))
            .or_else(|| {
                self.classes
                    .iter()
                    .take(INTERNED_CLASSES)
                    .position(is_named)
            });
        let id = known.unwrap_or_else(|| {
            let start = self.class_names.len();
            self.class_names.push_str(name);
            self.classes.push(Span {
                start,
                end: self.class_names.len(),
            });
            self.classes.len() - 1
        });
        // Only a deduplicated id may be found again.
        self.last_class = (id < INTERNED_CLASSES).then_some(id);
        id
    }

    fn class_name(&self, id: usize) -> Option<&str> {
        let span = self.classes.get(id)?;
        self.class_names.get(span.start..span.end)
    }
}

/// One element of a [`Document`], in document order.
#[derive(Clone, Copy)]
pub struct Element<'d> {
    doc: &'d Document,
    row: &'d Row,
}

impl<'d> Element<'d> {
    /// The element's tag.
    #[must_use]
    pub fn tag(&self) -> Tag {
        match self.row.geometry {
            Geometry::Rect(_) => Tag::Rect,
            Geometry::Polygon(_) => Tag::Polygon,
            Geometry::Polyline(_) => Tag::Polyline,
            Geometry::Line(_) => Tag::Line,
            Geometry::Text { .. } => Tag::Text,
            Geometry::Other => Tag::Other,
        }
    }

    /// The `class` attribute, when present. Weathermaps use classes to
    /// mark semantics: `object` boxes, `labellink` load texts, `node`
    /// label parts.
    #[must_use]
    pub fn class(&self) -> Option<&'d str> {
        self.doc.class_name(self.row.class?)
    }

    /// `true` when the element's class starts with `prefix` — the test
    /// Algorithm 1 applies (`elem.class starts with object`).
    #[must_use]
    pub fn class_starts_with(&self, prefix: &str) -> bool {
        self.class().is_some_and(|c| c.starts_with(prefix))
    }

    /// `true` when the element's class equals `name` exactly.
    #[must_use]
    pub fn class_is(&self, name: &str) -> bool {
        self.class() == Some(name)
    }

    /// The element's geometry.
    #[must_use]
    pub fn shape(&self) -> Shape<'d> {
        let doc = self.doc;
        let points = |span: Span| doc.points.get(span.start..span.end).unwrap_or_default();
        match self.row.geometry {
            Geometry::Rect(rect) => Shape::Rect(rect),
            Geometry::Polygon(span) | Geometry::Polyline(span) => Shape::Polygon(points(span)),
            Geometry::Line(segment) => Shape::Line(segment),
            Geometry::Text { anchor, content } => Shape::Text {
                anchor,
                content: doc.text.get(content.start..content.end).unwrap_or_default(),
            },
            Geometry::Other => Shape::Other,
        }
    }

    /// The rectangle, when this element is a `<rect>`.
    #[must_use]
    pub fn as_rect(&self) -> Option<Rect> {
        match self.shape() {
            Shape::Rect(r) => Some(r),
            _ => None,
        }
    }

    /// The vertices, when this element is a `<polygon>` or `<polyline>`.
    #[must_use]
    pub fn as_polygon(&self) -> Option<&'d [Point]> {
        match self.shape() {
            Shape::Polygon(p) => Some(p),
            _ => None,
        }
    }

    /// The text content, when this element is a `<text>`.
    #[must_use]
    pub fn as_text(&self) -> Option<&'d str> {
        match self.shape() {
            Shape::Text { content, .. } => Some(content),
            _ => None,
        }
    }
}

impl fmt::Debug for Element<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Element")
            .field("tag", &self.tag())
            .field("class", &self.class())
            .field("shape", &self.shape())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_document(items: &[(Option<&str>, &str)]) -> Document {
        let mut doc = Document::default();
        for (class, content) in items {
            let class = class.map(|c| doc.intern_class(c));
            let start = doc.text.len();
            doc.text.push_str(content);
            doc.rows.push(Row {
                class,
                geometry: Geometry::Text {
                    anchor: Point::new(0.0, 0.0),
                    content: Span {
                        start,
                        end: doc.text.len(),
                    },
                },
            });
        }
        doc
    }

    #[test]
    fn class_predicates() {
        let doc = text_document(&[(Some("object router"), "x"), (None, "x")]);
        let e = doc.element(0).unwrap();
        assert!(e.class_starts_with("object"));
        assert!(!e.class_starts_with("labellink"));
        assert!(!e.class_is("object"));
        assert!(e.class_is("object router"));
        let none = doc.element(1).unwrap();
        assert!(!none.class_starts_with(""));
    }

    #[test]
    fn shape_accessors() {
        let mut doc = text_document(&[(None, "42 %")]);
        doc.rows.push(Row {
            class: None,
            geometry: Geometry::Rect(Rect::new(0.0, 0.0, 1.0, 1.0)),
        });
        let t = doc.element(0).unwrap();
        assert_eq!(t.tag(), Tag::Text);
        assert_eq!(t.as_text(), Some("42 %"));
        assert!(t.as_rect().is_none());
        assert!(t.as_polygon().is_none());

        let r = doc.element(1).unwrap();
        assert_eq!(r.tag(), Tag::Rect);
        assert!(r.as_rect().is_some());
        assert!(r.as_text().is_none());
    }

    #[test]
    fn class_prefix_iteration() {
        let doc = text_document(&[
            (Some("object"), "a"),
            (Some("labellink"), "b"),
            (Some("object peer"), "c"),
        ]);
        let names: Vec<&str> = doc
            .elements_with_class_prefix("object")
            .filter_map(|e| e.as_text())
            .collect();
        assert_eq!(names, ["a", "c"]);
    }

    #[test]
    fn classes_are_interned() {
        let doc = text_document(&[
            (Some("object"), "a"),
            (Some("labellink"), "b"),
            (Some("object"), "c"),
        ]);
        assert_eq!(doc.classes.len(), 2);
        assert_eq!(doc.rows[0].class, doc.rows[2].class);
        assert_eq!(doc.element(2).unwrap().class(), Some("object"));
    }

    #[test]
    fn classes_past_the_interned_limit_still_resolve() {
        let names: Vec<String> = (0..INTERNED_CLASSES + 5).map(|i| format!("c{i}")).collect();
        let mut items: Vec<(Option<&str>, &str)> =
            names.iter().map(|n| (Some(n.as_str()), "")).collect();
        items.push((Some("c35"), ""));
        items.push((Some("c3"), ""));
        let doc = text_document(&items);
        // "c35" lies past the searched entries, so its repeat gets an
        // entry of its own; "c3" reuses its first one.
        assert_eq!(doc.classes.len(), INTERNED_CLASSES + 6);
        for (i, (class, _)) in items.iter().enumerate() {
            assert_eq!(doc.element(i).unwrap().class(), *class);
        }
    }
}
