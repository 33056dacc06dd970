//! Parsing SVG numeric attribute grammars.
//!
//! Weathermap SVGs are machine-written: every coordinate is a short
//! decimal such as `338.61`. Such a number is parsed exactly by
//! Clinger's fast path — its digits form an integer mantissa `m < 2^53`
//! and it has `f ≤ 22` fraction digits, so both `m` and `10^f` are exact
//! doubles and one IEEE division `m / 10^f` is the correctly rounded
//! value, bit for bit what `str::parse::<f64>` returns. Anything else
//! (exponents, long mantissas, `inf`, `nan`) falls back to `str::parse`.

use wm_geometry::Point;

/// Parses an SVG length attribute: a float optionally suffixed by a unit
/// (`px` is the only unit weathermaps use; others are accepted and their
/// numeric part taken verbatim).
///
/// Returns `None` for non-numeric input.
#[must_use]
pub fn parse_length(raw: &str) -> Option<f64> {
    // A plain decimal at the very start has no whitespace to trim.
    if let Some(value) = plain_length(raw.as_bytes()) {
        return Some(value);
    }
    let trimmed = raw.trim_start();
    let bytes = trimmed.as_bytes();
    if let Some(value) = plain_length(bytes) {
        return Some(value);
    }
    // The numeric prefix: digits, signs, dots, and an `e`/`E` followed
    // by a digit or sign. Every accepted byte is ASCII, so the prefix
    // ends on a character boundary.
    let mut numeric_end = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let is_exponent_char = matches!(b, b'e' | b'E')
            && bytes
                .get(i + 1)
                .is_some_and(|n| n.is_ascii_digit() || matches!(n, b'-' | b'+'));
        if b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+') || is_exponent_char {
            numeric_end = i + 1;
        } else {
            break;
        }
    }
    if numeric_end == 0 {
        return None;
    }
    let value = parse_number(trimmed.get(..numeric_end)?)?;
    value.is_finite().then_some(value)
}

/// A length whose numeric prefix is a plain decimal followed by the end
/// or a unit: no byte after it could extend the prefix `parse_length`
/// reads.
pub(crate) fn plain_length(bytes: &[u8]) -> Option<f64> {
    let (value, end) = fast_prefix(bytes)?;
    let extends = |b: &u8| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E');
    (!bytes.get(end).is_some_and(extends)).then_some(value)
}

/// Parses an SVG `points` attribute (`polygon`/`polyline`): coordinate
/// pairs separated by whitespace and/or commas, e.g. `"10,20 30,40"` or
/// `"10 20, 30 40"`. Appends `map(point)` for every pair to `out`, so a
/// caller can transform the points straight into their final vector
/// (pass `|p| p` to keep them as written).
///
/// Returns `None` when the coordinate count is odd or a token is not a
/// number — the extraction pipeline maps that to a malformed-SVG error.
/// On `None`, `out` may hold the points parsed before the error.
pub fn parse_points_into(
    raw: &str,
    out: &mut Vec<Point>,
    mut map: impl FnMut(Point) -> Point,
) -> Option<()> {
    let bytes = raw.as_bytes();
    let is_separator = |b: u8| b.is_ascii_whitespace() || b == b',';
    let mut pending_x = None;
    let mut i = 0;
    while i < bytes.len() {
        if bytes.get(i).is_some_and(|&b| is_separator(b)) {
            i += 1;
            continue;
        }
        let start = i;
        let rest = bytes.get(start..).unwrap_or_default();
        let value = match fast_prefix(rest) {
            // A plain decimal that runs to a separator is the whole token.
            Some((value, len)) if !matches!(rest.get(len), Some(&b) if !is_separator(b)) => {
                i = start + len;
                value
            }
            _ => {
                while bytes.get(i).is_some_and(|&b| !is_separator(b)) {
                    i += 1;
                }
                // Separators are ASCII, so token bounds are character
                // bounds.
                parse_number(raw.get(start..i)?)?
            }
        };
        if !value.is_finite() {
            return None;
        }
        match pending_x.take() {
            None => pending_x = Some(value),
            Some(x) => out.push(map(Point::new(x, value))),
        }
    }
    pending_x.is_none().then_some(())
}

/// The value of the ASCII digit at `at`, if there is one.
fn digit_at(bytes: &[u8], at: usize) -> Option<u64> {
    let digit = bytes.get(at)?.wrapping_sub(b'0');
    (digit < 10).then_some(u64::from(digit))
}

/// Exact powers of ten up to the largest one a double holds exactly.
const POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The largest mantissa a double holds exactly.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// The most digits a `u64` mantissa holds whatever they are.
const MAX_DIGITS: usize = 19;

/// Parses a number exactly as `token.parse::<f64>()` does, taking
/// Clinger's fast path for plain decimals (see the module docs).
fn parse_number(token: &str) -> Option<f64> {
    match fast_decimal(token.as_bytes()) {
        Some(value) => Some(value),
        None => token.parse().ok(),
    }
}

/// `[+-]digits[.digits]` (either digit run may be empty, not both) with
/// at most 19 digits and a mantissa of at most 2^53, as a correctly
/// rounded double; `None` for anything else.
fn fast_decimal(bytes: &[u8]) -> Option<f64> {
    fast_prefix(bytes)
        .filter(|&(_, len)| len == bytes.len())
        .map(|(value, _)| value)
}

/// The longest `[+-]digits[.digits]` prefix of `bytes` as a correctly
/// rounded double, with its length; `None` when that prefix has no
/// digit, more than 19 digits or a mantissa above 2^53. (`None` only
/// sends the caller to `str::parse`, which returns the same bits.)
fn fast_prefix(bytes: &[u8]) -> Option<(f64, usize)> {
    let (negative, sign_len) = match bytes.first() {
        Some(b'-') => (true, 1),
        Some(b'+') => (false, 1),
        _ => (false, 0),
    };
    // The mantissa wraps only past 19 digits, which are refused below:
    // an overflow check would cost a multiply per digit.
    let body = bytes.get(sign_len..).unwrap_or_default();
    let mut mantissa = 0u64;
    let mut at = 0;
    while let Some(digit) = digit_at(body, at) {
        mantissa = mantissa.wrapping_mul(10).wrapping_add(digit);
        at += 1;
    }
    let integer_digits = at;
    if body.get(at) == Some(&b'.') {
        at += 1;
        while let Some(digit) = digit_at(body, at) {
            mantissa = mantissa.wrapping_mul(10).wrapping_add(digit);
            at += 1;
        }
    }
    let fraction_digits = at.saturating_sub(integer_digits + 1);
    let digits = integer_digits + fraction_digits;
    let len = sign_len + at;
    if digits == 0 || digits > MAX_DIGITS || mantissa > MAX_EXACT_MANTISSA {
        return None;
    }
    let scale = POWERS_OF_TEN.get(fraction_digits)?;
    let magnitude = mantissa as f64 / scale;
    Some((if negative { -magnitude } else { magnitude }, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_with_and_without_units() {
        assert_eq!(parse_length("42"), Some(42.0));
        assert_eq!(parse_length("42.5px"), Some(42.5));
        assert_eq!(parse_length("-3.25"), Some(-3.25));
        assert_eq!(parse_length("  7 "), Some(7.0));
        assert_eq!(parse_length("1e3"), Some(1000.0));
    }

    #[test]
    fn bad_lengths_are_none() {
        assert_eq!(parse_length(""), None);
        assert_eq!(parse_length("px"), None);
        assert_eq!(parse_length("abc"), None);
    }

    fn parse_points(raw: &str) -> Option<Vec<Point>> {
        let mut points = Vec::new();
        parse_points_into(raw, &mut points, |p| p)?;
        Some(points)
    }

    #[test]
    fn points_with_commas_and_spaces() {
        let pts = parse_points("10,20 30,40").unwrap();
        assert_eq!(pts, vec![Point::new(10.0, 20.0), Point::new(30.0, 40.0)]);
        let pts = parse_points(" 1 2 , 3 4 ").unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
        assert_eq!(parse_points("").unwrap(), vec![]);
    }

    #[test]
    fn odd_or_bad_points_are_none() {
        assert!(parse_points("1 2 3").is_none());
        assert!(parse_points("1 x").is_none());
        assert!(parse_points("nan nan").is_none());
    }

    #[test]
    fn negative_and_fractional_points() {
        let pts = parse_points("-1.5,2.25 0,-3").unwrap();
        assert_eq!(pts, vec![Point::new(-1.5, 2.25), Point::new(0.0, -3.0)]);
    }

    #[test]
    fn points_into_applies_the_map_and_appends() {
        let mut out = vec![Point::new(9.0, 9.0)];
        parse_points_into("1,2 3,4", &mut out, |p| Point::new(p.x * 2.0, p.y + 1.0)).unwrap();
        assert_eq!(
            out,
            vec![
                Point::new(9.0, 9.0),
                Point::new(2.0, 3.0),
                Point::new(6.0, 5.0)
            ]
        );
    }

    #[test]
    fn fast_path_matches_str_parse_bit_for_bit() {
        for token in [
            "0",
            "-0",
            "+0",
            "0.0",
            "-0.0",
            ".5",
            "5.",
            "-.5",
            "+5.",
            "007",
            "0.1",
            "0.3",
            "338.61",
            "-1855.5",
            "123456789.123",
            "9007199254740992",
            "9007199254740993",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "1.7976931348623157",
            "12345678901234567890",
            ".",
            "-",
            "+",
            "",
            "1.2.3",
            "1e5",
            "--1",
            "+-1",
        ] {
            let expected = token.parse::<f64>().ok().map(f64::to_bits);
            assert_eq!(parse_number(token).map(f64::to_bits), expected, "{token:?}");
        }
    }

    /// The numeric-prefix rule of `parse_length` and the token rule of
    /// `parse_points_into`, spelled out with `str::parse` only.
    fn reference_length(raw: &str) -> Option<f64> {
        let t = raw.trim_start();
        let b = t.as_bytes();
        let mut end = 0;
        while let Some(&c) = b.get(end) {
            let exponent = matches!(c, b'e' | b'E')
                && b.get(end + 1)
                    .is_some_and(|n| n.is_ascii_digit() || matches!(n, b'-' | b'+'));
            if !(c.is_ascii_digit() || matches!(c, b'.' | b'-' | b'+') || exponent) {
                break;
            }
            end += 1;
        }
        let value: f64 = t.get(..end)?.parse().ok()?;
        value.is_finite().then_some(value)
    }

    #[test]
    fn fused_fast_paths_match_the_reference_rules() {
        let numbers = [
            "0",
            "-0",
            "+5.",
            ".5",
            "-.5",
            "338.61",
            "9007199254740993",
            "1.2.3",
            "1e5",
            "--1",
            "-",
            ".",
            "12345678901234567890",
            "0.00000000000000000000001",
        ];
        let suffixes = ["", "px", " ", "e", "E3", "e-", "-1", "+", ".", ",", "%"];
        for number in numbers {
            for suffix in suffixes {
                let raw = format!("{number}{suffix}");
                assert_eq!(
                    parse_length(&raw).map(f64::to_bits),
                    reference_length(&raw).map(f64::to_bits),
                    "{raw:?}"
                );
                let pair = format!("{raw},{number} {number}");
                let tokens: Vec<&str> = pair
                    .split(|c: char| c.is_ascii_whitespace() || c == ',')
                    .filter(|t| !t.is_empty())
                    .collect();
                let expected: Option<Vec<u64>> = tokens
                    .iter()
                    .map(|t| t.parse::<f64>().ok().filter(|v| v.is_finite()))
                    .map(|v| v.map(f64::to_bits))
                    .collect();
                let expected = expected.filter(|v| v.len() % 2 == 0);
                let parsed = parse_points(&pair).map(|ps| {
                    ps.iter()
                        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
                        .collect()
                });
                assert_eq!(parsed, expected, "{pair:?}");
            }
        }
    }
}
