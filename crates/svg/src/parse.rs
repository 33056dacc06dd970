//! Parsing SVG text into the flat [`Document`] model.

use std::fmt;

use wm_geometry::{Point, Rect, Segment};
use wm_xml::{Event, Reader};

use crate::element::{Document, Geometry, Row, Span};
use crate::numbers::{parse_length, parse_points_into, plain_length};

/// An error turning SVG text into a [`Document`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The underlying XML was malformed.
    Xml(wm_xml::Error),
    /// An element's geometry attributes could not be interpreted.
    BadGeometry {
        /// Tag of the offending element.
        tag: String,
        /// What was wrong.
        message: String,
    },
    /// The document's root element is not `<svg>`.
    NotSvg,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Xml(e) => write!(f, "malformed XML: {e}"),
            ParseError::BadGeometry { tag, message } => {
                write!(f, "bad geometry on <{tag}>: {message}")
            }
            ParseError::NotSvg => write!(f, "root element is not <svg>"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wm_xml::Error> for ParseError {
    fn from(e: wm_xml::Error) -> Self {
        ParseError::Xml(e)
    }
}

/// A 2-D affine transform (the SVG `transform` attribute model).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Affine {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    e: f64,
    f: f64,
}

impl Affine {
    const IDENTITY: Affine = Affine {
        a: 1.0,
        b: 0.0,
        c: 0.0,
        d: 1.0,
        e: 0.0,
        f: 0.0,
    };

    fn translate(tx: f64, ty: f64) -> Affine {
        Affine {
            e: tx,
            f: ty,
            ..Affine::IDENTITY
        }
    }

    fn scale(sx: f64, sy: f64) -> Affine {
        Affine {
            a: sx,
            d: sy,
            ..Affine::IDENTITY
        }
    }

    /// `self` applied after `rhs` (standard matrix composition).
    fn then(self, rhs: Affine) -> Affine {
        Affine {
            a: self.a * rhs.a + self.c * rhs.b,
            b: self.b * rhs.a + self.d * rhs.b,
            c: self.a * rhs.c + self.c * rhs.d,
            d: self.b * rhs.c + self.d * rhs.d,
            e: self.a * rhs.e + self.c * rhs.f + self.e,
            f: self.b * rhs.e + self.d * rhs.f + self.f,
        }
    }

    fn apply(&self, p: Point) -> Point {
        Point::new(
            self.a * p.x + self.c * p.y + self.e,
            self.b * p.x + self.d * p.y + self.f,
        )
    }
}

/// Parses a `transform` attribute value. Unknown operations (rotate, skew)
/// are ignored — weathermaps never use them, and leniency here means a
/// cosmetic oddity cannot make an entire snapshot unprocessable. A
/// non-finite argument (`nan`, `inf`) is refused: it would poison every
/// coordinate under the element.
fn parse_transform(raw: &str) -> Option<Affine> {
    let mut result = Affine::IDENTITY;
    let mut rest = raw;
    while let Some((head, after)) = rest.split_once('(') {
        let op = head.trim().trim_start_matches(',').trim();
        let Some((body, tail)) = after.split_once(')') else {
            break;
        };
        // Up to six arguments are kept: no known operation takes more,
        // and a longer list matches none of them anyway.
        let mut args = [0.0f64; 6];
        let mut count = 0usize;
        for token in body
            .split(|c: char| c.is_ascii_whitespace() || c == ',')
            .filter(|t| !t.is_empty())
        {
            let Ok(value) = token.parse::<f64>() else {
                continue;
            };
            if !value.is_finite() {
                return None;
            }
            if let Some(slot) = args.get_mut(count) {
                *slot = value;
            }
            count += 1;
        }
        let step = match (op, args.get(..count)) {
            ("translate", Some(&[tx])) => Some(Affine::translate(tx, 0.0)),
            ("translate", Some(&[tx, ty])) => Some(Affine::translate(tx, ty)),
            ("scale", Some(&[s])) => Some(Affine::scale(s, s)),
            ("scale", Some(&[sx, sy])) => Some(Affine::scale(sx, sy)),
            ("matrix", Some(&[a, b, c, d, e, f])) => Some(Affine { a, b, c, d, e, f }),
            _ => None,
        };
        if let Some(step) = step {
            result = result.then(step);
        }
        rest = tail;
    }
    Some(result)
}

/// Whether a point survived its transform with finite coordinates (a
/// finite transform can still overflow to infinity).
fn finite(p: Point) -> bool {
    p.x.is_finite() && p.y.is_finite()
}

impl Document {
    /// Parses SVG text into the flat element model.
    ///
    /// Groups (`<g>`) are flattened and their transforms applied to child
    /// geometry; elements the pipeline does not use are kept as
    /// [`Shape::Other`](crate::Shape::Other) placeholders so document
    /// order stays faithful.
    pub fn parse(text: &str) -> Result<Document, ParseError> {
        let mut doc = Document::default();
        Document::parse_into(text, &mut doc)?;
        Ok(doc)
    }

    /// Parses SVG text into an existing document, reusing its storage.
    ///
    /// `doc` is cleared first; on success it holds exactly what
    /// [`Document::parse`] would have returned, but every buffer (rows,
    /// text arena, point pool, class table, the XML reader's attribute
    /// buffer) keeps its capacity across calls — the batch pipeline
    /// parses thousands of similarly-sized snapshots per worker and
    /// reuses one document per thread, so a warm parse allocates nothing
    /// per element. On error the document's contents are unspecified
    /// (cleared or partially filled).
    pub fn parse_into(text: &str, doc: &mut Document) -> Result<(), ParseError> {
        doc.clear();
        let mut reader = Reader::with_buffer(text, std::mem::take(&mut doc.attributes));
        let parsed = doc.fill(&mut reader);
        doc.attributes = reader.into_buffer();
        parsed
    }

    /// Reads every event of `reader` into the (cleared) document.
    fn fill(&mut self, reader: &mut Reader<'_>) -> Result<(), ParseError> {
        // Transform stack: one entry per open element, `None` while no
        // element on the path has a `transform` (the identity, which
        // composes with the identity to itself bit for bit).
        let mut stack: Vec<Option<Affine>> = Vec::new();
        let mut seen_svg = false;
        // Index of the in-progress <text> row.
        let mut open_text: Option<usize> = None;
        // Depth of an open element whose text content must be ignored.
        let mut skip_text_depth: Option<usize> = None;

        while let Some(event) = reader.next_buffered()? {
            match event {
                Event::StartElement {
                    name, self_closing, ..
                } => {
                    if !seen_svg {
                        if name != "svg" {
                            return Err(ParseError::NotSvg);
                        }
                        seen_svg = true;
                    }
                    let attrs = Known::read(reader);
                    let parent = stack.last().copied().flatten();
                    let composed = match (parent, attrs.transform) {
                        (None, None) => None,
                        (parent, raw) => {
                            let local = match raw {
                                None => Affine::IDENTITY,
                                Some(raw) => parse_transform(raw)
                                    .ok_or_else(|| bad(name, "non-finite transform argument"))?,
                            };
                            Some(parent.unwrap_or(Affine::IDENTITY).then(local))
                        }
                    };
                    let transform = composed.unwrap_or(Affine::IDENTITY);

                    let tag = name.as_bytes();
                    if tag == b"svg" && stack.is_empty() {
                        self.width = attrs.width;
                        self.height = attrs.height;
                    }

                    // Byte patterns, like `Known::read`'s.
                    let geometry = match tag {
                        b"rect" => {
                            let (x, y) = (attrs.x, attrs.y);
                            let p1 = transform.apply(Point::new(x, y));
                            let p2 = transform.apply(Point::new(x + attrs.width, y + attrs.height));
                            if !(finite(p1) && finite(p2)) {
                                return Err(bad(name, "non-finite rect coordinates"));
                            }
                            Some(Geometry::Rect(Rect::from_corners(p1, p2)))
                        }
                        b"polygon" | b"polyline" => {
                            let raw = attrs
                                .points
                                .ok_or_else(|| bad(name, "missing points attribute"))?;
                            let start = self.points.len();
                            parse_points_into(raw, &mut self.points, |p| transform.apply(p))
                                .ok_or_else(|| bad(name, "unparsable points attribute"))?;
                            let span = Span {
                                start,
                                end: self.points.len(),
                            };
                            let added = self.points.get(start..).unwrap_or_default();
                            if !added.iter().all(|&p| finite(p)) {
                                return Err(bad(name, "non-finite polygon points"));
                            }
                            Some(if tag == b"polygon" {
                                Geometry::Polygon(span)
                            } else {
                                Geometry::Polyline(span)
                            })
                        }
                        b"line" => Some(Geometry::Line(Segment::new(
                            transform.apply(Point::new(attrs.x1, attrs.y1)),
                            transform.apply(Point::new(attrs.x2, attrs.y2)),
                        ))),
                        b"text" => {
                            let at = self.text.len();
                            Some(Geometry::Text {
                                anchor: transform.apply(Point::new(attrs.x, attrs.y)),
                                content: Span { start: at, end: at },
                            })
                        }
                        b"tspan" => None, // Content folds into the open <text>.
                        b"svg" | b"g" => None,
                        _ => Some(Geometry::Other),
                    };

                    if let Some(geometry) = geometry {
                        let class = attrs.class.map(|c| self.intern_class(c));
                        let is_text = matches!(geometry, Geometry::Text { .. });
                        self.rows.push(Row { class, geometry });
                        if is_text && !self_closing {
                            open_text = Some(self.rows.len() - 1);
                        } else if !self_closing && !is_text {
                            // E.g. <style> bodies must not leak into text.
                            skip_text_depth = skip_text_depth.or(Some(stack.len()));
                        }
                    }
                    if !self_closing {
                        stack.push(composed);
                    }
                }
                Event::EndElement { name } => {
                    stack.pop();
                    if name.as_bytes() == b"text" {
                        open_text = None;
                    }
                    if let Some(depth) = skip_text_depth {
                        if stack.len() <= depth {
                            skip_text_depth = None;
                        }
                    }
                }
                Event::Text(t) => self.append_text(skip_text_depth, open_text, &t),
                Event::CData(t) => self.append_text(skip_text_depth, open_text, t),
                Event::Declaration(_)
                | Event::Doctype(_)
                | Event::Comment(_)
                | Event::ProcessingInstruction(_) => {}
            }
        }
        if !seen_svg {
            return Err(ParseError::NotSvg);
        }
        Ok(())
    }

    /// Folds character data into the currently open `<text>` row.
    ///
    /// Only the open row's content ever grows, and a row opened later
    /// closes it for good (`open_text` moves on and is cleared at the
    /// next `</text>`), so each row's content stays one contiguous run
    /// of the arena.
    fn append_text(&mut self, skip: Option<usize>, open_text: Option<usize>, t: &str) {
        if skip.is_some() {
            return;
        }
        let Some(row) = open_text.and_then(|idx| self.rows.get_mut(idx)) else {
            return;
        };
        if let Geometry::Text { content, .. } = &mut row.geometry {
            self.text.push_str(t);
            content.end = self.text.len();
        }
    }
}

/// The attributes the model reads, gathered in one pass over a start
/// tag (a tag names each attribute at most once). Lengths are parsed as
/// they are met: 0 when absent or not a number.
#[derive(Default)]
struct Known<'r> {
    class: Option<&'r str>,
    transform: Option<&'r str>,
    points: Option<&'r str>,
    x: f64,
    y: f64,
    width: f64,
    height: f64,
    x1: f64,
    y1: f64,
    x2: f64,
    y2: f64,
}

impl<'r> Known<'r> {
    fn read(reader: &'r Reader<'_>) -> Known<'r> {
        let mut known = Known::default();
        for (name, value) in reader.attributes() {
            // Byte patterns compile to one length switch and a few byte
            // compares, where string patterns compare arm by arm.
            let length = match name.as_bytes() {
                b"class" => {
                    known.class = Some(value);
                    continue;
                }
                b"transform" => {
                    known.transform = Some(value);
                    continue;
                }
                b"points" => {
                    known.points = Some(value);
                    continue;
                }
                b"x" => &mut known.x,
                b"y" => &mut known.y,
                b"width" => &mut known.width,
                b"height" => &mut known.height,
                b"x1" => &mut known.x1,
                b"y1" => &mut known.y1,
                b"x2" => &mut known.x2,
                b"y2" => &mut known.y2,
                _ => continue,
            };
            // A plain decimal goes straight to the number parser.
            *length = plain_length(value.as_bytes())
                .or_else(|| parse_length(value))
                .unwrap_or(0.0);
        }
        known
    }
}

fn bad(tag: &str, message: &str) -> ParseError {
    ParseError::BadGeometry {
        tag: tag.to_owned(),
        message: message.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Shape, Tag};

    #[test]
    fn minimal_svg() {
        let doc = Document::parse(r#"<svg width="100" height="50"></svg>"#).unwrap();
        assert_eq!(doc.width, 100.0);
        assert_eq!(doc.height, 50.0);
        assert!(doc.is_empty());
    }

    #[test]
    fn rejects_non_svg_root() {
        assert_eq!(
            Document::parse("<html></html>").unwrap_err(),
            ParseError::NotSvg
        );
        assert!(matches!(Document::parse(""), Err(ParseError::NotSvg)));
    }

    #[test]
    fn propagates_xml_errors() {
        assert!(matches!(
            Document::parse("<svg><rect</svg>"),
            Err(ParseError::Xml(_))
        ));
    }

    #[test]
    fn parses_rect_with_defaults() {
        let doc = Document::parse(r#"<svg><rect width="10" height="5"/></svg>"#).unwrap();
        assert_eq!(
            doc.element(0).unwrap().as_rect(),
            Some(Rect::new(0.0, 0.0, 10.0, 5.0))
        );
    }

    #[test]
    fn parses_classed_rect() {
        let svg = r#"<svg><rect class="object" x="5" y="6" width="10" height="5"/></svg>"#;
        let doc = Document::parse(svg).unwrap();
        assert!(doc.element(0).unwrap().class_is("object"));
        assert_eq!(
            doc.element(0).unwrap().as_rect(),
            Some(Rect::new(5.0, 6.0, 10.0, 5.0))
        );
    }

    #[test]
    fn parses_polygon_points() {
        let svg = r#"<svg><polygon class="link" points="0,0 10,0 5,8"/></svg>"#;
        let doc = Document::parse(svg).unwrap();
        let poly = doc.element(0).unwrap().as_polygon().unwrap();
        assert_eq!(poly.len(), 3);
        assert_eq!(poly[2], Point::new(5.0, 8.0));
    }

    #[test]
    fn rejects_bad_polygon_points() {
        let svg = r#"<svg><polygon points="1 2 3"/></svg>"#;
        assert!(matches!(
            Document::parse(svg),
            Err(ParseError::BadGeometry { .. })
        ));
        let svg = r#"<svg><polygon/></svg>"#;
        assert!(matches!(
            Document::parse(svg),
            Err(ParseError::BadGeometry { .. })
        ));
    }

    #[test]
    fn parses_text_with_tspans() {
        let svg = r#"<svg><text x="3" y="4" class="labellink">42<tspan> %</tspan></text></svg>"#;
        let doc = Document::parse(svg).unwrap();
        match doc.element(0).unwrap().shape() {
            Shape::Text { anchor, content } => {
                assert_eq!(anchor, Point::new(3.0, 4.0));
                assert_eq!(content, "42 %");
            }
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn style_bodies_do_not_become_text() {
        let svg =
            r#"<svg><style>.object { fill: white; }</style><text x="0" y="0">hi</text></svg>"#;
        let doc = Document::parse(svg).unwrap();
        assert_eq!(doc.len(), 2);
        assert_eq!(doc.element(0).unwrap().shape(), Shape::Other);
        assert_eq!(doc.element(1).unwrap().as_text(), Some("hi"));
    }

    #[test]
    fn group_translate_applies_to_children() {
        let svg = r#"<svg><g transform="translate(10, 20)"><rect x="1" y="2" width="3" height="4"/><polygon points="0,0 2,0 1,2"/></g></svg>"#;
        let doc = Document::parse(svg).unwrap();
        assert_eq!(
            doc.element(0).unwrap().as_rect(),
            Some(Rect::new(11.0, 22.0, 3.0, 4.0))
        );
        assert_eq!(
            doc.element(1).unwrap().as_polygon().unwrap()[0],
            Point::new(10.0, 20.0)
        );
    }

    #[test]
    fn nested_group_transforms_compose() {
        let svg = r#"<svg><g transform="translate(10,0)"><g transform="translate(0,5)"><line x1="0" y1="0" x2="1" y2="1"/></g></g></svg>"#;
        let doc = Document::parse(svg).unwrap();
        match doc.element(0).unwrap().shape() {
            Shape::Line(seg) => {
                assert_eq!(seg.start, Point::new(10.0, 5.0));
                assert_eq!(seg.end, Point::new(11.0, 6.0));
            }
            other => panic!("expected line, got {other:?}"),
        }
    }

    #[test]
    fn scale_and_matrix_transforms() {
        let svg = r#"<svg><g transform="scale(2)"><rect x="1" y="1" width="2" height="2"/></g><g transform="matrix(1 0 0 1 5 5)"><rect x="0" y="0" width="1" height="1"/></g></svg>"#;
        let doc = Document::parse(svg).unwrap();
        assert_eq!(
            doc.element(0).unwrap().as_rect(),
            Some(Rect::new(2.0, 2.0, 4.0, 4.0))
        );
        assert_eq!(
            doc.element(1).unwrap().as_rect(),
            Some(Rect::new(5.0, 5.0, 1.0, 1.0))
        );
    }

    #[test]
    fn element_transform_attribute_applies_to_itself() {
        let svg =
            r#"<svg><rect transform="translate(100,0)" x="0" y="0" width="1" height="1"/></svg>"#;
        let doc = Document::parse(svg).unwrap();
        assert_eq!(
            doc.element(0).unwrap().as_rect(),
            Some(Rect::new(100.0, 0.0, 1.0, 1.0))
        );
    }

    #[test]
    fn unknown_transform_ops_are_ignored() {
        let svg = r#"<svg><g transform="rotate(45) translate(3,4)"><rect x="0" y="0" width="1" height="1"/></g></svg>"#;
        let doc = Document::parse(svg).unwrap();
        assert_eq!(
            doc.element(0).unwrap().as_rect(),
            Some(Rect::new(3.0, 4.0, 1.0, 1.0))
        );
    }

    #[test]
    fn non_finite_transforms_are_refused() {
        let refused = |group: &str, shape: &str| {
            let svg = format!(r#"<svg><g transform="{group}">{shape}</g></svg>"#);
            match Document::parse(&svg) {
                Err(ParseError::BadGeometry { .. }) => {}
                other => panic!("{group} over {shape} should be refused, got {other:?}"),
            }
        };
        let rect = r#"<rect x="1" y="1" width="2" height="2"/>"#;
        let polygon = r#"<polygon points="0,0 2,0 1,2"/>"#;
        for group in [
            "scale(nan)",
            "translate(inf)",
            "translate(1, -inf)",
            "matrix(1 0 0 1 inf 0)",
            "matrix(1 0 0 NaN 0 0)",
            "rotate(nan) translate(1,1)",
        ] {
            refused(group, rect);
            refused(group, polygon);
        }
        // Finite arguments whose product overflows to infinity.
        refused(
            "scale(1e300)",
            r#"<rect x="1e10" y="1" width="2" height="2"/>"#,
        );
        refused("scale(1e300)", r#"<polygon points="0,0 1e10,0 1,2"/>"#);
        refused(
            "scale(1e200) scale(1e200)",
            r#"<rect x="0" y="0" width="2" height="2"/>"#,
        );
        // Large but finite geometry still parses.
        let doc = Document::parse(
            r#"<svg><g transform="scale(1e300)"><rect x="1" y="1" width="1" height="1"/></g></svg>"#,
        )
        .unwrap();
        assert_eq!(
            doc.element(0).unwrap().as_rect(),
            Some(Rect::new(1e300, 1e300, 1e300, 1e300))
        );
    }

    #[test]
    fn document_order_is_preserved() {
        let svg = r#"<svg><rect width="1" height="1"/><text x="0" y="0">a</text><polygon points="0,0 1,0 0,1"/></svg>"#;
        let doc = Document::parse(svg).unwrap();
        let tags: Vec<Tag> = doc.elements().map(|e| e.tag()).collect();
        assert_eq!(tags, [Tag::Rect, Tag::Text, Tag::Polygon]);
    }

    #[test]
    fn self_closing_text_is_empty() {
        let doc = Document::parse(r#"<svg><text x="1" y="2"/></svg>"#).unwrap();
        assert_eq!(doc.element(0).unwrap().as_text(), Some(""));
    }

    #[test]
    fn width_height_with_units() {
        let doc = Document::parse(r#"<svg width="1024px" height="768px"></svg>"#).unwrap();
        assert_eq!((doc.width, doc.height), (1024.0, 768.0));
    }
}
