//! The SVG input path: a warm parse reuses its storage, and no damaged
//! byte stream makes extraction panic.

use wm_extract::{extract_svg, svg_text, ExtractConfig, ExtractError};
use wm_model::{MapKind, Timestamp};
use wm_simulator::{Simulation, SimulationConfig};
use wm_svg::Document;

/// Every `ExtractError::kind()` (the list `extraction_robustness`
/// documents).
const DOCUMENTED_KINDS: &[&str] = &[
    "invalid-xml",
    "invalid-svg",
    "invalid-load",
    "malformed-structure",
    "dangling-link",
    "self-loop",
    "label-too-far",
    "unlinked-router",
];

#[test]
fn warm_parse_grows_no_buffer() {
    let t = Timestamp::from_ymd_hms(2022, 9, 12, 12, 0, 0);
    let svg = Simulation::new(SimulationConfig::paper(42))
        .snapshot(MapKind::Europe, t)
        .svg;
    let mut doc = Document::default();
    Document::parse_into(&svg, &mut doc).expect("full-scale Europe parses");
    let warm = doc.capacity();
    assert!(doc.len() > 1000, "{} elements", doc.len());
    assert!(warm.points > 0 && warm.text > 0 && warm.attributes.0 > 0);

    Document::parse_into(&svg, &mut doc).expect("parses again");
    assert_eq!(doc.capacity(), warm, "a warm parse grew a buffer");
    // The buffers are kept, not rebuilt: a tiny document after it leaves
    // every capacity where the large one put it.
    Document::parse_into(
        r#"<svg width="1" height="1"><text>a</text></svg>"#,
        &mut doc,
    )
    .expect("tiny document parses");
    assert_eq!(doc.len(), 1);
    assert_eq!(doc.capacity(), warm, "a parse replaced a buffer");
    Document::parse_into(&svg, &mut doc).expect("parses again");
    assert_eq!(doc.capacity(), warm);

    // The reused document holds what a fresh parse returns.
    let fresh = Document::parse(&svg).expect("parses");
    assert_eq!((doc.width, doc.height), (fresh.width, fresh.height));
    assert_eq!(doc.len(), fresh.len());
    for (i, (a, b)) in doc.elements().zip(fresh.elements()).enumerate() {
        assert_eq!(
            (a.tag(), a.class(), a.shape()),
            (b.tag(), b.class(), b.shape()),
            "element {i}"
        );
    }
}

/// Every truncation and every single-byte flip (`^ 0xFF`) of a small
/// rendered weathermap goes through the UTF-8 gate (`svg_text`) and,
/// when it passes, `extract_svg`, and comes back `Ok` or as a
/// documented error kind, never a panic. A flip of an ASCII byte never
/// stays UTF-8: the gate refuses it as `invalid-xml`, naming the
/// flipped byte.
///
/// The map is Asia Pacific at scale 0.05 (about 4 KB, every element
/// kind of a weathermap): the check extracts every truncation, and
/// Europe at the same scale (about 29 KB) takes over a minute in an
/// unoptimised test build.
#[test]
fn every_truncation_and_byte_flip_is_classified() {
    let t = Timestamp::from_ymd_hms(2022, 2, 1, 12, 0, 0);
    let map = MapKind::AsiaPacific;
    let svg = Simulation::new(SimulationConfig::scaled(5, 0.05))
        .snapshot(map, t)
        .svg;
    let config = ExtractConfig::default();
    let check = |bytes: &[u8], what: &str| {
        let result = svg_text(bytes).and_then(|text| extract_svg(text, map, t, &config));
        if let Err(e) = &result {
            assert!(
                DOCUMENTED_KINDS.contains(&e.kind()),
                "{what}: undocumented kind {}",
                e.kind()
            );
        }
        result
    };
    let bytes = svg.as_bytes();
    let clean = extract_svg(&svg, map, t, &config).expect("the undamaged file extracts");
    assert!(!clean.links.is_empty() && clean.links.iter().any(|l| l.a.label.is_some()));
    for len in 0..bytes.len() {
        let _ = check(&bytes[..len], &format!("truncation to {len} bytes"));
    }
    let mut flipped = bytes.to_vec();
    for pos in 0..bytes.len() {
        flipped[pos] ^= 0xFF;
        let what = format!("flip at byte {pos}");
        let result = check(&flipped, &what);
        if bytes[pos].is_ascii() {
            assert_eq!(
                result.err(),
                Some(ExtractError::InvalidXml(format!("not UTF-8 at byte {pos}"))),
                "{what}"
            );
        }
        flipped[pos] ^= 0xFF;
    }
}
