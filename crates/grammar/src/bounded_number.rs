//! Digit-wise grammars for bounded JSON numbers.
//!
//! `minimum` / `maximum` / `exclusiveMinimum` / `exclusiveMaximum` cannot be
//! expressed by intersecting with the generic `json_integer` rule — the bound
//! has to be *compiled into the digits*, llguidance-style: a grammar for the
//! integers in `[15, 230]` enumerates, digit position by digit position, which
//! leading digits keep the value inside the range. The constructions here are
//! exact for integers; for `type: "number"` the bounds must be integer-valued
//! and the generated grammar covers every decimal string (optional fraction,
//! no exponent) whose value lies in the range.
//!
//! All expressions produced here are rule-free (literals, digit classes,
//! sequences, choices, repeats only), so they inline cheaply, and two schemas
//! differing only in a bound differ in their expressions, hence in
//! [`Grammar::structural_fingerprint`](crate::Grammar::structural_fingerprint),
//! which the grammar cache keys on.

use crate::ast::{CharClass, CharRange, GrammarExpr};
use crate::error::{GrammarError, Result};

fn digit_class(lo: u8, hi: u8) -> GrammarExpr {
    GrammarExpr::CharClass(CharClass::new(vec![CharRange::new(lo as char, hi as char)]))
}

/// Exactly `n` arbitrary digits.
fn any_digits(n: usize) -> GrammarExpr {
    match n {
        0 => GrammarExpr::Empty,
        1 => digit_class(b'0', b'9'),
        n => GrammarExpr::Repeat {
            expr: Box::new(digit_class(b'0', b'9')),
            min: n as u32,
            max: Some(n as u32),
        },
    }
}

fn lit(bytes: &[u8]) -> GrammarExpr {
    GrammarExpr::Literal(bytes.to_vec())
}

fn digits_of(n: u64) -> Vec<u8> {
    n.to_string().into_bytes()
}

/// Digit strings of the same length as `s` that are numerically `>= s`.
/// (First-digit alternatives never introduce a leading zero because `s`
/// itself has none.)
fn ge_digits(s: &[u8]) -> GrammarExpr {
    let Some((&d, rest)) = s.split_first() else {
        return GrammarExpr::Empty;
    };
    let mut alts = vec![GrammarExpr::seq(vec![lit(&[d]), ge_digits(rest)])];
    if d < b'9' {
        alts.push(GrammarExpr::seq(vec![
            digit_class(d + 1, b'9'),
            any_digits(rest.len()),
        ]));
    }
    GrammarExpr::choice(alts)
}

/// Digit strings of the same length as `s` that are numerically `<= s`.
fn le_digits(s: &[u8]) -> GrammarExpr {
    let Some((&d, rest)) = s.split_first() else {
        return GrammarExpr::Empty;
    };
    let mut alts = Vec::new();
    if d > b'0' {
        alts.push(GrammarExpr::seq(vec![
            digit_class(b'0', d - 1),
            any_digits(rest.len()),
        ]));
    }
    alts.push(GrammarExpr::seq(vec![lit(&[d]), le_digits(rest)]));
    GrammarExpr::choice(alts)
}

/// Digit strings of length `len(a)` with `a <= value <= b` (`a`, `b` equal
/// length, `a <= b`).
fn same_len_range(a: &[u8], b: &[u8]) -> GrammarExpr {
    if a == b {
        return lit(a);
    }
    let (a0, b0) = (a[0], b[0]);
    if a0 == b0 {
        return GrammarExpr::seq(vec![lit(&[a0]), same_len_range(&a[1..], &b[1..])]);
    }
    let tail = a.len() - 1;
    let mut alts = vec![GrammarExpr::seq(vec![lit(&[a0]), ge_digits(&a[1..])])];
    if b0 - a0 >= 2 {
        alts.push(GrammarExpr::seq(vec![
            digit_class(a0 + 1, b0 - 1),
            any_digits(tail),
        ]));
    }
    alts.push(GrammarExpr::seq(vec![lit(&[b0]), le_digits(&b[1..])]));
    GrammarExpr::choice(alts)
}

/// Canonical decimal strings (no leading zeros) for `lo..=hi`.
pub(crate) fn uint_range(lo: u64, hi: u64) -> GrammarExpr {
    debug_assert!(lo <= hi);
    let lo_d = digits_of(lo);
    let hi_d = digits_of(hi);
    let mut alts = Vec::new();
    for len in lo_d.len()..=hi_d.len() {
        let a: Vec<u8> = if len == lo_d.len() {
            lo_d.clone()
        } else {
            // Smallest `len`-digit number: 1 followed by zeros.
            let mut v = vec![b'1'];
            v.resize(len, b'0');
            v
        };
        let b: Vec<u8> = if len == hi_d.len() {
            hi_d.clone()
        } else {
            vec![b'9'; len]
        };
        alts.push(same_len_range(&a, &b));
    }
    GrammarExpr::choice(alts)
}

/// Canonical decimal strings for every unsigned integer `>= lo`.
pub(crate) fn uint_ge(lo: u64) -> GrammarExpr {
    let lo_d = digits_of(lo);
    GrammarExpr::choice(vec![
        ge_digits(&lo_d),
        // Strictly more digits than `lo`: can only be larger.
        GrammarExpr::seq(vec![
            digit_class(b'1', b'9'),
            GrammarExpr::Repeat {
                expr: Box::new(digit_class(b'0', b'9')),
                min: lo_d.len() as u32,
                max: None,
            },
        ]),
    ])
}

fn schema_err(path: &str, message: impl Into<String>) -> GrammarError {
    GrammarError::Schema {
        path: path.to_string(),
        message: message.into(),
    }
}

/// Grammar for the canonical decimal integers in `[lo, hi]` (either bound may
/// be absent; exclusive bounds are normalized to inclusive by the caller).
/// `-0` and leading zeros are never generated.
pub(crate) fn integer_range_expr(
    lo: Option<i64>,
    hi: Option<i64>,
    path: &str,
) -> Result<GrammarExpr> {
    if let (Some(l), Some(h)) = (lo, hi) {
        if l > h {
            return Err(schema_err(path, format!("empty integer range [{l}, {h}]")));
        }
    }
    let mut alts = Vec::new();
    // Negative side: magnitudes from `max(1, |hi|)` (when hi < 0) up to |lo|.
    if lo.is_none_or(|l| l < 0) {
        let mag_lo = match hi {
            Some(h) if h < 0 => h.unsigned_abs(),
            _ => 1,
        };
        let neg = match lo {
            None => Some(uint_ge(mag_lo)),
            Some(l) => {
                let mag_hi = l.unsigned_abs();
                (mag_lo <= mag_hi).then(|| uint_range(mag_lo, mag_hi))
            }
        };
        if let Some(expr) = neg {
            alts.push(GrammarExpr::seq(vec![lit(b"-"), expr]));
        }
    }
    // Non-negative side.
    if hi.is_none_or(|h| h >= 0) {
        let a = lo.map_or(0, |l| l.max(0)) as u64;
        let expr = match hi {
            None => uint_ge(a),
            Some(h) => uint_range(a, h as u64),
        };
        alts.push(expr);
    }
    if alts.is_empty() {
        return Err(schema_err(path, "empty integer range"));
    }
    Ok(GrammarExpr::choice(alts))
}

/// `.` followed by one or more digits.
fn any_fraction() -> GrammarExpr {
    GrammarExpr::seq(vec![lit(b"."), GrammarExpr::plus(digit_class(b'0', b'9'))])
}

/// `.` followed by zeros only (value unchanged).
fn zero_fraction() -> GrammarExpr {
    GrammarExpr::seq(vec![lit(b"."), GrammarExpr::plus(digit_class(b'0', b'0'))])
}

/// `.` followed by a fraction with at least one nonzero digit.
fn nonzero_fraction() -> GrammarExpr {
    GrammarExpr::seq(vec![
        lit(b"."),
        GrammarExpr::star(digit_class(b'0', b'0')),
        digit_class(b'1', b'9'),
        GrammarExpr::star(digit_class(b'0', b'9')),
    ])
}

/// Grammar for decimal numbers (optional fraction, no exponent) whose value
/// lies between the integer-valued bounds. Exclusive bounds are exact: the
/// boundary value itself is carved out digit-wise, fractions on either side
/// stay admissible.
pub(crate) fn number_range_expr(
    lo: Option<i64>,
    hi: Option<i64>,
    lo_exclusive: bool,
    hi_exclusive: bool,
    path: &str,
) -> Result<GrammarExpr> {
    if let (Some(l), Some(h)) = (lo, hi) {
        if l > h || (l == h && (lo_exclusive || hi_exclusive)) {
            return Err(schema_err(path, format!("empty number range [{l}, {h}]")));
        }
    }
    let opt_frac = GrammarExpr::optional(any_fraction());
    let mut alts = Vec::new();

    // Non-negative integer parts. A string with integer part `p >= 0` has a
    // value in `[p, p+1)`.
    if hi.is_none_or(|h| h > 0 || (h == 0 && !hi_exclusive)) {
        let a = lo.map_or(0, |l| l.max(0)) as u64;
        // Integer parts strictly below `hi` admit any fraction; the part
        // equal to the lower bound needs a nonzero fraction when exclusive.
        let mut free_lo = a;
        if lo_exclusive && lo.is_some_and(|l| l >= 0) {
            alts.push(GrammarExpr::seq(vec![
                lit(&digits_of(a)),
                nonzero_fraction(),
            ]));
            free_lo = a + 1;
        }
        match hi {
            None => alts.push(GrammarExpr::seq(vec![uint_ge(free_lo), opt_frac.clone()])),
            Some(h) => {
                let h = h as u64;
                if h > 0 && free_lo < h {
                    alts.push(GrammarExpr::seq(vec![
                        uint_range(free_lo, h - 1),
                        opt_frac.clone(),
                    ]));
                }
                // The boundary part itself: exactly `hi` (only with an
                // all-zero fraction), unless the bound is exclusive.
                if !hi_exclusive && h >= a {
                    alts.push(GrammarExpr::seq(vec![
                        lit(&digits_of(h)),
                        GrammarExpr::optional(zero_fraction()),
                    ]));
                }
            }
        }
    }

    // Negative integer parts. A string `-m.f` has a value in `(-(m+1), -m]`.
    if lo.is_none_or(|l| l < 0) {
        let mag_lo = match hi {
            Some(h) if h < 0 => h.unsigned_abs(),
            _ => 0,
        };
        let mut free_mag_lo = mag_lo;
        if hi_exclusive && hi.is_some_and(|h| h <= 0) {
            // `-H.f` with `f > 0` is strictly below `-H` (for `H = 0` this
            // also rules out `-0` / `-0.0`, which spell the excluded bound).
            alts.push(GrammarExpr::seq(vec![
                lit(b"-"),
                lit(&digits_of(mag_lo)),
                nonzero_fraction(),
            ]));
            free_mag_lo = mag_lo + 1;
        }
        match lo {
            None => alts.push(GrammarExpr::seq(vec![
                lit(b"-"),
                uint_ge(free_mag_lo),
                opt_frac.clone(),
            ])),
            Some(l) => {
                let mag_hi = l.unsigned_abs();
                if mag_hi > 0 && free_mag_lo < mag_hi {
                    alts.push(GrammarExpr::seq(vec![
                        lit(b"-"),
                        uint_range(free_mag_lo, mag_hi - 1),
                        opt_frac.clone(),
                    ]));
                }
                if !lo_exclusive && l < 0 && mag_hi >= mag_lo {
                    alts.push(GrammarExpr::seq(vec![
                        lit(b"-"),
                        lit(&digits_of(mag_hi)),
                        GrammarExpr::optional(zero_fraction()),
                    ]));
                }
            }
        }
    }

    if alts.is_empty() {
        return Err(schema_err(path, "empty number range"));
    }
    Ok(GrammarExpr::choice(alts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny backtracking evaluator for the rule-free expressions this module
    /// produces: returns every end position reachable by matching `e` at
    /// `pos`.
    fn ends(e: &GrammarExpr, s: &str, pos: usize) -> Vec<usize> {
        match e {
            GrammarExpr::Empty => vec![pos],
            GrammarExpr::Literal(b) => {
                if s.as_bytes()[pos..].starts_with(b) {
                    vec![pos + b.len()]
                } else {
                    vec![]
                }
            }
            GrammarExpr::CharClass(cc) => match s[pos..].chars().next() {
                Some(c) if cc.contains(c) => vec![pos + c.len_utf8()],
                _ => vec![],
            },
            GrammarExpr::Sequence(items) => {
                let mut positions = vec![pos];
                for it in items {
                    let mut next: Vec<usize> =
                        positions.iter().flat_map(|&p| ends(it, s, p)).collect();
                    next.sort_unstable();
                    next.dedup();
                    positions = next;
                    if positions.is_empty() {
                        break;
                    }
                }
                positions
            }
            GrammarExpr::Choice(items) => {
                let mut out: Vec<usize> = items.iter().flat_map(|it| ends(it, s, pos)).collect();
                out.sort_unstable();
                out.dedup();
                out
            }
            GrammarExpr::Repeat { expr, min, max } => {
                let mut out = Vec::new();
                let mut frontier = vec![pos];
                if *min == 0 {
                    out.push(pos);
                }
                let cap = max.map_or(s.len() + 1, |m| m as usize);
                for count in 1..=cap {
                    let mut next: Vec<usize> =
                        frontier.iter().flat_map(|&p| ends(expr, s, p)).collect();
                    next.sort_unstable();
                    next.dedup();
                    if next.is_empty() {
                        break;
                    }
                    if count >= *min as usize {
                        out.extend(&next);
                    }
                    frontier = next;
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            other => panic!("bounded-number exprs are rule-free, got {other:?}"),
        }
    }

    fn accepts(e: &GrammarExpr, s: &str) -> bool {
        ends(e, s, 0).contains(&s.len())
    }

    #[test]
    fn uint_range_sweep() {
        for (lo, hi) in [(0u64, 9), (5, 5), (15, 230), (99, 100), (1000, 1023)] {
            let e = uint_range(lo, hi);
            for v in lo.saturating_sub(30)..=hi + 30 {
                assert_eq!(
                    accepts(&e, &v.to_string()),
                    lo <= v && v <= hi,
                    "range [{lo},{hi}], value {v}"
                );
            }
            assert!(!accepts(&e, &format!("0{lo}")), "no leading zeros");
        }
    }

    #[test]
    fn uint_ge_sweep() {
        for lo in [0u64, 1, 7, 10, 42, 100, 999] {
            let e = uint_ge(lo);
            for v in lo.saturating_sub(20)..lo + 50 {
                assert_eq!(accepts(&e, &v.to_string()), v >= lo, "ge {lo}, value {v}");
            }
            assert!(accepts(&e, "123456789"), "large values stay accepted");
            assert!(!accepts(&e, "007"), "no leading zeros");
        }
    }

    #[test]
    fn signed_integer_range_sweep() {
        for (lo, hi) in [
            (Some(-37i64), Some(1205i64)),
            (Some(0), Some(100)),
            (Some(-250), Some(-3)),
            (Some(-5), Some(5)),
            (None, Some(17)),
            (Some(-12), None),
        ] {
            let e = integer_range_expr(lo, hi, "#").unwrap();
            for v in -400i64..1500 {
                let inside = lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v <= h);
                assert_eq!(
                    accepts(&e, &v.to_string()),
                    inside,
                    "range [{lo:?},{hi:?}], value {v}"
                );
            }
            assert!(!accepts(&e, "-0"), "-0 is never generated");
            assert!(!accepts(&e, "05"), "no leading zeros");
        }
    }

    #[test]
    fn empty_integer_range_errors() {
        assert!(integer_range_expr(Some(3), Some(2), "#").is_err());
    }

    #[test]
    fn number_range_inclusive() {
        let e = number_range_expr(Some(0), Some(10), false, false, "#").unwrap();
        for (s, ok) in [
            ("0", true),
            ("0.0", true),
            ("0.5", true),
            ("9.99", true),
            ("10", true),
            ("10.0", true),
            ("10.00", true),
            ("10.5", false),
            ("10.01", false),
            ("-0.1", false),
            ("-1", false),
            ("11", false),
            ("5.25", true),
        ] {
            assert_eq!(accepts(&e, s), ok, "value {s}");
        }
    }

    #[test]
    fn number_range_negative() {
        let e = number_range_expr(Some(-5), Some(-2), false, false, "#").unwrap();
        for (s, ok) in [
            ("-2", true),
            ("-2.0", true),
            ("-2.5", true),
            ("-4.99", true),
            ("-5", true),
            ("-5.0", true),
            ("-5.1", false),
            ("-1.9", false),
            ("-6", false),
            ("0", false),
            ("2", false),
        ] {
            assert_eq!(accepts(&e, s), ok, "value {s}");
        }
    }

    #[test]
    fn number_range_exclusive_bounds_are_exact() {
        let e = number_range_expr(Some(0), Some(5), true, true, "#").unwrap();
        for (s, ok) in [
            ("0", false),
            ("0.0", false),
            ("0.001", true),
            ("0.1", true),
            ("4.999", true),
            ("5", false),
            ("5.0", false),
            ("4", true),
            ("2.5", true),
        ] {
            assert_eq!(accepts(&e, s), ok, "value {s}");
        }
        // An exclusive upper bound of exactly zero also excludes the signed
        // spellings of zero (`-0`, `-0.0`).
        let e = number_range_expr(Some(-3), Some(0), false, true, "#").unwrap();
        for (s, ok) in [
            ("0", false),
            ("-0", false),
            ("-0.0", false),
            ("-0.5", true),
            ("-3", true),
            ("-3.0", true),
            ("-3.5", false),
        ] {
            assert_eq!(accepts(&e, s), ok, "value {s}");
        }
    }

    #[test]
    fn open_ended_number_ranges() {
        let ge = number_range_expr(Some(3), None, false, false, "#").unwrap();
        assert!(accepts(&ge, "3"));
        assert!(accepts(&ge, "3.0"));
        assert!(accepts(&ge, "1000.25"));
        assert!(!accepts(&ge, "2.99"));
        assert!(!accepts(&ge, "-3"));

        let le = number_range_expr(None, Some(-1), false, false, "#").unwrap();
        assert!(accepts(&le, "-1"));
        assert!(accepts(&le, "-1.5"));
        assert!(accepts(&le, "-999.9"));
        assert!(!accepts(&le, "0"));
        assert!(!accepts(&le, "-0.5"));
    }
}
