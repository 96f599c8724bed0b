//! Lexical ↔ value mapping for numeric literals.
//!
//! DB2 explain plans mix plain decimals (`4043.0`), integers (`1251`), and
//! exponent notation (`1.93187e+06`, `9.6e-08`) freely — the paper's user
//! study (§3.3) specifically calls out this inconsistency as a source of
//! manual `grep` errors. OptImatch must treat all spellings as the same
//! value, so the parsing here is the single place the whole workspace goes
//! through to read a number out of a lexical form.

/// Parse a numeric lexical form.
///
/// Accepts optional sign, integer / decimal bodies, and an optional exponent
/// (`e` or `E`, optional sign). Surrounding ASCII whitespace is tolerated
/// because QEP detail blocks pad values into columns. Returns `None` for
/// anything else — notably the empty string, lone signs, `NaN`, `inf`, and
/// hex: QEPs never contain those, and rejecting them keeps FILTER semantics
/// predictable.
pub fn parse_numeric(s: &str) -> Option<f64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    let bytes = t.as_bytes();
    let mut i = 0;
    if bytes[i] == b'+' || bytes[i] == b'-' {
        i += 1;
    }
    let digits_start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let int_digits = i - digits_start;
    let mut frac_digits = 0;
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        let fs = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        frac_digits = i - fs;
    }
    if int_digits == 0 && frac_digits == 0 {
        return None;
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        i += 1;
        if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
            i += 1;
        }
        let es = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == es {
            return None;
        }
    }
    if i != bytes.len() {
        return None;
    }
    t.parse::<f64>().ok()
}

/// Format a double the way the QEP formatter does: integers print without a
/// trailing `.0` fraction only when large, small magnitudes keep a readable
/// decimal form, and very large / very small magnitudes switch to exponent
/// notation — mirroring `db2exfmt` output so round-trips are stable.
pub fn format_double(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    // db2exfmt switches to exponent notation around the millions, as seen in
    // Fig 1 (`1.93187e+06` next to `4043.0`).
    if (1e-4..1e6).contains(&a) {
        if v.fract() == 0.0 {
            // Whole values keep one decimal place, like `4043.0` in Fig 1.
            format!("{v:.1}")
        } else {
            // Keep ~6 significant digits even for sub-1 magnitudes.
            let extra = if a < 1.0 {
                (-a.log10().floor()) as usize
            } else {
                0
            };
            trim_zeros(format!("{v:.*}", 5 + extra))
        }
    } else {
        // db2exfmt style: mantissa with up to 6 significant digits.
        let s = format!("{v:e}"); // e.g. "1.93187e6"
        normalize_exponent(&s)
    }
}

/// Trim trailing fractional zeros but keep at least one fractional digit.
fn trim_zeros(mut s: String) -> String {
    if s.contains('.') {
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.push('0');
        }
    }
    s
}

/// Rewrite Rust's `1.93187e6` into db2exfmt's `1.93187e+06`.
fn normalize_exponent(s: &str) -> String {
    let Some(epos) = s.find(['e', 'E']) else {
        return s.to_string();
    };
    let (mantissa, exp) = s.split_at(epos);
    let exp = &exp[1..];
    let (sign, digits) = match exp.strip_prefix('-') {
        Some(d) => ('-', d),
        None => ('+', exp.strip_prefix('+').unwrap_or(exp)),
    };
    // Limit mantissa to 6 significant digits, as db2exfmt does.
    let mantissa = round_mantissa(mantissa, 6);
    format!("{mantissa}e{sign}{digits:0>2}")
}

/// Round a decimal mantissa string to `sig` significant digits.
fn round_mantissa(m: &str, sig: usize) -> String {
    let v: f64 = m.parse().unwrap_or(0.0);
    let s = format!("{v:.*}", sig.saturating_sub(1));
    trim_zeros(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_integers_and_decimals() {
        assert_eq!(parse_numeric("1251"), Some(1251.0));
        assert_eq!(parse_numeric("4043.0"), Some(4043.0));
        assert_eq!(parse_numeric("-19.12"), Some(-19.12));
        assert_eq!(parse_numeric("+7"), Some(7.0));
        assert_eq!(parse_numeric(".5"), Some(0.5));
        assert_eq!(parse_numeric("5."), Some(5.0));
    }

    #[test]
    fn parses_exponent_notation_from_qeps() {
        assert_eq!(parse_numeric("1.93187e+06"), Some(1_931_870.0));
        assert_eq!(parse_numeric("9.6e-08"), Some(9.6e-8));
        assert_eq!(parse_numeric("1E3"), Some(1000.0));
        assert_eq!(parse_numeric("  78417e0 "), Some(78417.0));
    }

    #[test]
    fn rejects_non_numbers() {
        for bad in [
            "", " ", "abc", "1.2.3", "e10", "+", "-.", "1e", "1e+", "0x10", "NaN", "inf",
        ] {
            assert_eq!(parse_numeric(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn format_matches_db2_style() {
        assert_eq!(format_double(4043.0), "4043.0");
        assert_eq!(format_double(19.12), "19.12");
        assert_eq!(format_double(0.0), "0");
        assert_eq!(format_double(1_931_870.0), "1.93187e+06");
        assert_eq!(format_double(9.6e-8), "9.6e-08");
    }

    #[test]
    fn format_parse_round_trip() {
        for v in [0.0, 1.0, -3.5, 4043.0, 19.12, 15771.0, 1.31e-8, 2.87997e8] {
            let s = format_double(v);
            let back = parse_numeric(&s).unwrap();
            let rel = if v == 0.0 {
                back.abs()
            } else {
                ((back - v) / v).abs()
            };
            assert!(rel < 1e-4, "{v} -> {s} -> {back}");
        }
    }

    #[test]
    fn numeric_equality_across_spellings() {
        assert_eq!(parse_numeric("9600000"), parse_numeric("9.6e+06"));
        assert_eq!(parse_numeric("0.0000096"), parse_numeric("9.6e-06"));
        assert_ne!(parse_numeric("9600000"), parse_numeric("9.6e+05"));
        assert_eq!(parse_numeric("abc"), None);
    }
}
