//! Metamorphic checks of the start-tag path: serializations that mean
//! the same document parse to bit-identical [`Document`]s, whether the
//! parse takes the fast path (`name="value"`, no entity, a plain
//! decimal) or the general one (whitespace around `=`, single quotes,
//! character references, units, exponents). Malformed tags keep their
//! error kind and byte offset.

use wm_svg::{Document, ParseError, Shape};
use wm_xml::ErrorKind;

/// The canonical spelling: the way weathermaps are written.
const CANONICAL: &str = concat!(
    r#"<svg width="1024" height="768">"#,
    r#"<g transform="translate(10,20)">"#,
    r#"<rect class="object" x="1.5" y="2" width="40.25" height="26"/>"#,
    r#"<text class="labellink" x="3.5" y="4.5">42 %</text>"#,
    r#"<polygon class="link" points="0,0 10.5,0 5.25,8"/>"#,
    r#"<line class="deco" x1="1" y1="2" x2="3" y2="4"/>"#,
    "</g>",
    r#"<rect class="object" x="-7" y="0.125" width="1" height="1"/>"#,
    "</svg>",
);

/// Every number of a parsed document as bits, with tags, classes and
/// text: equal fingerprints mean bit-identical documents.
fn fingerprint(doc: &Document) -> Vec<String> {
    let bits = |values: &[f64]| -> String {
        let hex: Vec<String> = values
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        hex.join(" ")
    };
    let mut out = vec![bits(&[doc.width, doc.height])];
    for element in doc.elements() {
        let shape = match element.shape() {
            Shape::Rect(r) => bits(&[r.x, r.y, r.width, r.height]),
            Shape::Polygon(points) => {
                let coords: Vec<f64> = points.iter().flat_map(|p| [p.x, p.y]).collect();
                bits(&coords)
            }
            Shape::Line(s) => bits(&[s.start.x, s.start.y, s.end.x, s.end.y]),
            Shape::Text { anchor, content } => {
                format!("{} {content:?}", bits(&[anchor.x, anchor.y]))
            }
            Shape::Other => "other".to_owned(),
        };
        out.push(format!("{:?} {:?} {shape}", element.tag(), element.class()));
    }
    out
}

fn parsed(svg: &str) -> Vec<String> {
    let doc = Document::parse(svg).unwrap_or_else(|e| panic!("{svg}: {e}"));
    fingerprint(&doc)
}

#[test]
fn equivalent_serializations_parse_bit_identically() {
    let canonical = parsed(CANONICAL);
    assert_eq!(canonical.len(), 6, "{canonical:?}");
    let variants = [
        (
            "single quotes, whitespace around =",
            concat!(
                "<svg width = '1024' height\n=\t'768'>",
                "<g transform= 'translate(10,20)'>",
                "<rect class ='object' x='1.5' y = \"2\" width='40.25' height='26' />",
                "<text class='labellink' x = '3.5' y='4.5'>42 %</text>",
                "<polygon class='link' points = '0,0 10.5,0 5.25,8'/>",
                "<line class='deco' x1='1' y1 = '2' x2='3' y2='4'/>",
                "</g >",
                "<rect class='object' x='-7' y='0.125' width='1' height='1'/>",
                "</svg>",
            ),
        ),
        (
            "digits and commas as character references",
            concat!(
                r#"<svg width="&#49;024" height="768">"#,
                r#"<g transform="translate(&#49;0&#44;20)">"#,
                r#"<rect class="object" x="&#49;.5" y="2" width="40.25" height="26"/>"#,
                r#"<text class="labellink" x="3.5" y="4.5">42 %</text>"#,
                r#"<polygon class="link" points="0&#44;0 &#49;0.5,0 5.25&#44;8"/>"#,
                r#"<line class="deco" x1="&#49;" y1="2" x2="3" y2="4"/>"#,
                "</g>",
                r#"<rect class="object" x="-7" y="0.&#49;25" width="&#x31;" height="1"/>"#,
                "</svg>",
            ),
        ),
        (
            "permuted attributes, unknown attributes",
            concat!(
                r#"<svg xmlns="http://www.w3.org/2000/svg" height="768" width="1024">"#,
                r#"<g id="layer" transform="translate(10,20)">"#,
                r#"<rect height="26" data-id="r1" width="40.25" y="2" x="1.5" class="object"/>"#,
                r#"<text y="4.5" x="3.5" font-size="8" class="labellink">42 %</text>"#,
                r#"<polygon points="0,0 10.5,0 5.25,8" fill="none" class="link"/>"#,
                r#"<line y2="4" x2="3" y1="2" x1="1" class="deco" stroke="red"/>"#,
                "</g>",
                r#"<rect width="1" height="1" class="object" y="0.125" x="-7" rx="2"/>"#,
                "</svg>",
            ),
        ),
        (
            "px suffixes and exponents",
            concat!(
                r#"<svg width="1024px" height="7.68e2">"#,
                r#"<g transform="translate(10,20)">"#,
                r#"<rect class="object" x="15e-1" y="2px" width="40.25px" height="2.6E1"/>"#,
                r#"<text class="labellink" x="0.35e1" y="4.5px">42 %</text>"#,
                r#"<polygon class="link" points="0,0 1.05e1,0 525e-2,8"/>"#,
                r#"<line class="deco" x1="1px" y1="2e0" x2="3" y2="4"/>"#,
                "</g>",
                r#"<rect class="object" x="-7e0" y="1.25e-1" width="1px" height="+1"/>"#,
                "</svg>",
            ),
        ),
    ];
    for (what, svg) in variants {
        assert_eq!(parsed(svg), canonical, "{what}");
    }
}

/// The XML error of parsing `svg`, which must be one.
fn xml_error(svg: &str) -> wm_xml::Error {
    match Document::parse(svg) {
        Err(ParseError::Xml(e)) => e,
        other => panic!("{svg}: expected an XML error, got {other:?}"),
    }
}

/// The byte offset of the `nth` occurrence of `needle` in `svg`.
fn offset(svg: &str, needle: &str, nth: usize) -> usize {
    svg.match_indices(needle)
        .nth(nth)
        .unwrap_or_else(|| panic!("{needle:?} #{nth} not in {svg}"))
        .0
}

#[test]
fn malformed_tags_keep_their_error_kind_and_offset() {
    // A repeated name is refused after its value, on either path.
    for svg in [
        r#"<svg><rect x="1" y="2" x="3"/></svg>"#,
        r#"<svg><rect x = '1' y='2' x ='3'/></svg>"#,
    ] {
        let e = xml_error(svg);
        assert_eq!(
            *e.kind(),
            ErrorKind::DuplicateAttribute {
                name: "x".to_owned()
            },
            "{svg}"
        );
        assert_eq!(e.offset(), offset(svg, "3", 0) + 2, "{svg}");
    }

    // A value without its closing quote: the end of input, reported at
    // the value's first byte.
    for svg in [
        r#"<svg><rect x="1.5/></svg>"#,
        "<svg><rect x = '1.5/></svg>",
    ] {
        let e = xml_error(svg);
        assert_eq!(
            *e.kind(),
            ErrorKind::UnexpectedEof {
                context: "an attribute value"
            },
            "{svg}"
        );
        assert_eq!(e.offset(), offset(svg, "1.5", 0), "{svg}");
    }

    // An unknown entity inside a numeric attribute, at its `&`.
    for svg in [
        r#"<svg><rect x="1&bogus;5" y="2"/></svg>"#,
        r#"<svg><polygon points="0,0 1,&#49; &bogus;,2"/></svg>"#,
        "<svg><rect y='2' width = '&#49;&bogus;'/></svg>",
    ] {
        let e = xml_error(svg);
        assert_eq!(
            *e.kind(),
            ErrorKind::InvalidEntity {
                entity: "bogus".to_owned()
            },
            "{svg}"
        );
        assert_eq!(e.offset(), offset(svg, "&bogus;", 0), "{svg}");
    }
}
