//! Property tests: the byte-scanning number parsers return exactly the
//! bits of `str::parse::<f64>` on every decimal spelling, and
//! `parse_length` agrees with its original `char_indices` scanner.

use proptest::prelude::*;
use wm_geometry::Point;
use wm_svg::{parse_length, parse_points_into};

/// The `parse_length` this crate shipped before the fast path: trim,
/// take the numeric prefix char by char, `str::parse` it.
fn reference_length(raw: &str) -> Option<f64> {
    let trimmed = raw.trim();
    let mut numeric_end = 0;
    for (i, c) in trimmed.char_indices() {
        let is_exponent_char = (c == 'e' || c == 'E')
            && trimmed[i + 1..].starts_with(|n: char| n.is_ascii_digit() || n == '-' || n == '+');
        if c.is_ascii_digit() || matches!(c, '.' | '-' | '+') || is_exponent_char {
            numeric_end = i + c.len_utf8();
        } else {
            break;
        }
    }
    if numeric_end == 0 {
        return None;
    }
    let value: f64 = trimmed[..numeric_end].parse().ok()?;
    value.is_finite().then_some(value)
}

/// Decimal spellings: optional sign, leading zeros, integer and fraction
/// digit runs (either may be empty, up to 25 digits so mantissas pass
/// 2^53), an optional dot and exponent; tiny fractions; and the named
/// specials.
fn decimal() -> impl Strategy<Value = String> {
    let plain = (
        prop::sample::select(vec!["", "-", "+"]),
        "0{0,4}",
        "[0-9]{0,20}",
        prop::sample::select(vec!["", "."]),
        "[0-9]{0,25}",
        "([eE][+-]?[0-9]{1,3})?",
    )
        .prop_map(|(sign, zeros, int, dot, frac, exp)| {
            format!("{sign}{zeros}{int}{dot}{frac}{exp}")
        });
    // Fractions with long runs of leading zeros: 20+ fraction digits on
    // a short mantissa, the edge of the fast path's exact powers of ten.
    let tiny = (
        prop::sample::select(vec!["", "-"]),
        "0{0,24}",
        "[1-9][0-9]{0,16}",
    )
        .prop_map(|(sign, zeros, digits)| format!("{sign}0.{zeros}{digits}"));
    let special = prop::sample::select(vec![
        "-0",
        "+0",
        "-0.0",
        ".5",
        "5.",
        "-.5",
        "+5.",
        ".",
        "-",
        "+",
        "",
        "inf",
        "-inf",
        "+infinity",
        "nan",
        "NaN",
        "-nan",
        "1e",
        "1e+",
        "e5",
        "9007199254740993",
        "0.30000000000000004",
        "1.7976931348623157e308",
        "5e-324",
    ])
    .prop_map(str::to_owned);
    prop_oneof![plain, tiny, special]
}

/// `parse_points_into` collecting the points as written.
fn parse_points(raw: &str) -> Option<Vec<Point>> {
    let mut points = Vec::new();
    parse_points_into(raw, &mut points, |p| p)?;
    Some(points)
}

fn bits(points: Option<Vec<Point>>) -> Option<Vec<(u64, u64)>> {
    points.map(|ps| ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn points_match_str_parse_bit_for_bit(token in decimal()) {
        let expected = token
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(|v| vec![Point::new(v, -v)]);
        let negated = match token.strip_prefix('-') {
            Some(rest) => rest.to_owned(),
            None => format!("-{}", token.trim_start_matches('+')),
        };
        // The pair "v,-v" needs the negated spelling to parse too.
        let expected = expected.filter(|_| negated.parse::<f64>().is_ok());
        prop_assert_eq!(
            bits(parse_points(&format!(" {token},{negated}\t"))),
            bits(expected),
            "token {:?}", token
        );
    }

    #[test]
    fn lengths_match_the_reference_scanner(
        token in decimal(),
        suffix in prop::sample::select(vec!["", "px", " ", "em", "e", "e-"]),
    ) {
        let raw = format!(" {token}{suffix}");
        prop_assert_eq!(
            parse_length(&raw).map(f64::to_bits),
            reference_length(&raw).map(f64::to_bits),
            "raw {:?}", raw
        );
    }
}
