//! The SVG number parsers on real weathermap text: every numeric token
//! of one rendered full-scale snapshot of each map parses to exactly the
//! bits `str::parse::<f64>` gives.

use ovh_weather::prelude::*;
use wm_svg::{parse_length, parse_points_into};
use wm_xml::{Event, Reader};

/// Geometry attributes holding a single number.
const LENGTHS: [&str; 8] = ["x", "y", "width", "height", "x1", "y1", "x2", "y2"];

#[test]
fn every_numeric_token_of_a_full_scale_snapshot_parses_bit_exact() {
    let t = Timestamp::from_ymd_hms(2022, 9, 12, 12, 0, 0);
    let sim = Simulation::new(SimulationConfig::scaled(42, 1.0));
    let mut total = 0usize;
    for map in [
        MapKind::Europe,
        MapKind::World,
        MapKind::NorthAmerica,
        MapKind::AsiaPacific,
    ] {
        let svg = sim.snapshot(map, t).svg;
        let mut reader = Reader::new(&svg);
        let mut tokens = 0usize;
        while let Some(event) = reader.next_event().expect("rendered SVG is well-formed") {
            let Event::StartElement { attributes, .. } = event else {
                continue;
            };
            for attribute in &attributes {
                let value = attribute.value.as_ref();
                if LENGTHS.contains(&attribute.name) {
                    let expected: f64 = value.parse().expect("plain number");
                    assert_eq!(
                        parse_length(value).map(f64::to_bits),
                        Some(expected.to_bits()),
                        "{map}: {}={value:?}",
                        attribute.name
                    );
                    tokens += 1;
                } else if attribute.name == "points" {
                    let expected: Vec<f64> = value
                        .split(|c: char| c.is_ascii_whitespace() || c == ',')
                        .filter(|t| !t.is_empty())
                        .map(|t| t.parse().expect("plain number"))
                        .collect();
                    let mut points = Vec::new();
                    parse_points_into(value, &mut points, |p| p).expect("even count of numbers");
                    let got: Vec<f64> = points.iter().flat_map(|p| [p.x, p.y]).collect();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&expected), "{map}: points={value:?}");
                    tokens += expected.len();
                }
            }
        }
        assert!(tokens > 1_000, "{map}: only {tokens} numeric tokens");
        total += tokens;
    }
    println!("{total} numeric tokens checked");
    assert!(total > 20_000, "only {total} numeric tokens");
}
