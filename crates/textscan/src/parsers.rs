//! Buffer-oriented, locale-free field parsers (paper §5.1.3).
//!
//! "Tightly written C code relying on no external state": each parser
//! takes a byte slice and returns the parsed value or `None`. Empty fields
//! parse as NULL for every type. These parsers are what made scalar
//! parsing run at disk bandwidth on four cores.

use tde_types::datetime::{days_from_ymd, days_in_month, MICROS_PER_DAY};

/// Trim ASCII spaces (flat files occasionally pad fields).
#[inline]
pub fn trim(field: &[u8]) -> &[u8] {
    let mut a = 0;
    let mut b = field.len();
    while a < b && field[a] == b' ' {
        a += 1;
    }
    while b > a && field[b - 1] == b' ' {
        b -= 1;
    }
    &field[a..b]
}

/// Parse a signed decimal integer. `Ok(None)` for an empty field (NULL).
pub fn parse_i64(field: &[u8]) -> Result<Option<i64>, ()> {
    let f = trim(field);
    if f.is_empty() {
        return Ok(None);
    }
    let (neg, digits) = match f[0] {
        b'-' => (true, &f[1..]),
        b'+' => (false, &f[1..]),
        _ => (false, f),
    };
    if digits.is_empty() || digits.len() > 19 {
        return Err(());
    }
    // Eighteen digits cannot overflow; only a nineteenth needs checking.
    let (head, last) = digits.split_at(digits.len().min(18));
    let mut v: i64 = 0;
    let mut all_digits = true;
    for &b in head {
        all_digits &= b.is_ascii_digit();
        v = v * 10 + i64::from(b.wrapping_sub(b'0') & 0xF);
    }
    if !all_digits {
        return Err(());
    }
    if let [b] = last {
        if !b.is_ascii_digit() {
            return Err(());
        }
        v = v
            .checked_mul(10)
            .ok_or(())?
            .checked_add(i64::from(b - b'0'))
            .ok_or(())?;
    }
    Ok(Some(if neg { -v } else { v }))
}

/// Powers of ten a double holds exactly.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Parse a real number: optional sign, digits, optional `.digits`,
/// optional exponent. No locale, no grouping separators.
///
/// The result is correctly rounded — the double `str::parse` returns.
/// When the decimal significand is below 2⁵³ and the decimal exponent
/// within ±22, significand and power of ten are both exact doubles and
/// one multiplication or division rounds once; everything else (long
/// significands, large exponents) goes to the standard library.
pub fn parse_f64(field: &[u8]) -> Result<Option<f64>, ()> {
    let f = trim(field);
    if f.is_empty() {
        return Ok(None);
    }
    let mut i = 0;
    let neg = match f[0] {
        b'-' => {
            i = 1;
            true
        }
        b'+' => {
            i = 1;
            false
        }
        _ => false,
    };
    let mut mantissa: u64 = 0;
    let mut scale: i32 = 0;
    let mut digits = 0usize;
    // Whether `mantissa` holds every digit (it stops taking them at 2⁵³).
    let mut exact = true;
    let mut take = |b: u8, fraction: bool| {
        if exact && mantissa < (1 << 53) / 10 {
            mantissa = mantissa * 10 + u64::from(b - b'0');
            scale -= i32::from(fraction);
        } else {
            exact = false;
        }
    };
    while i < f.len() && f[i].is_ascii_digit() {
        take(f[i], false);
        digits += 1;
        i += 1;
    }
    if i < f.len() && f[i] == b'.' {
        i += 1;
        while i < f.len() && f[i].is_ascii_digit() {
            take(f[i], true);
            digits += 1;
            i += 1;
        }
    }
    if digits == 0 {
        return Err(());
    }
    let mut exp: i32 = 0;
    if i < f.len() && (f[i] == b'e' || f[i] == b'E') {
        i += 1;
        let eneg = match f.get(i) {
            Some(b'-') => {
                i += 1;
                true
            }
            Some(b'+') => {
                i += 1;
                false
            }
            _ => false,
        };
        let mut edigits = 0;
        while i < f.len() && f[i].is_ascii_digit() {
            exp = exp
                .saturating_mul(10)
                .saturating_add(i32::from(f[i] - b'0'));
            edigits += 1;
            i += 1;
        }
        if edigits == 0 {
            return Err(());
        }
        if eneg {
            exp = -exp;
        }
    }
    if i != f.len() {
        return Err(());
    }
    let exp10 = exp.saturating_add(scale);
    let v = match EXACT_POW10.get(exp10.unsigned_abs() as usize) {
        Some(&pow) if exact && exp10 < 0 => mantissa as f64 / pow,
        Some(&pow) if exact => mantissa as f64 * pow,
        // The grammar accepted above is a subset of the standard one.
        _ => {
            let text = std::str::from_utf8(&f[usize::from(neg)..]).map_err(|_| ())?;
            text.parse::<f64>().map_err(|_| ())?
        }
    };
    Ok(Some(if neg { -v } else { v }))
}

/// Parse `YYYY-MM-DD` (also accepting `/` separators) into days since the
/// epoch, validating the calendar.
pub fn parse_date(field: &[u8]) -> Result<Option<i64>, ()> {
    let f = trim(field);
    if f.is_empty() {
        return Ok(None);
    }
    let f: &[u8; 10] = f.try_into().map_err(|_| ())?;
    let sep = f[4];
    if (sep != b'-' && sep != b'/') || f[7] != sep {
        return Err(());
    }
    // Digit values; anything that was not a digit comes out above 9.
    let d = |i: usize| u32::from(f[i].wrapping_sub(b'0'));
    let digits = [d(0), d(1), d(2), d(3), d(5), d(6), d(8), d(9)];
    if digits.iter().any(|&v| v > 9) {
        return Err(());
    }
    let y = (digits[0] * 1000 + digits[1] * 100 + digits[2] * 10 + digits[3]) as i32;
    let m = digits[4] * 10 + digits[5];
    let day = digits[6] * 10 + digits[7];
    if !(1..=12).contains(&m) || day < 1 || day > days_in_month(y, m) {
        return Err(());
    }
    Ok(Some(days_from_ymd(y, m, day)))
}

/// Parse `YYYY-MM-DD HH:MM:SS` (or with `T`) into microseconds since the
/// epoch.
pub fn parse_timestamp(field: &[u8]) -> Result<Option<i64>, ()> {
    let f = trim(field);
    if f.is_empty() {
        return Ok(None);
    }
    if f.len() != 19 || (f[10] != b' ' && f[10] != b'T') {
        return Err(());
    }
    let days = parse_date(&f[..10])?.ok_or(())?;
    if f[13] != b':' || f[16] != b':' {
        return Err(());
    }
    let num = |a: usize| -> Result<i64, ()> {
        if !f[a].is_ascii_digit() || !f[a + 1].is_ascii_digit() {
            return Err(());
        }
        Ok(i64::from(f[a] - b'0') * 10 + i64::from(f[a + 1] - b'0'))
    };
    let (h, mi, s) = (num(11)?, num(14)?, num(17)?);
    if h > 23 || mi > 59 || s > 59 {
        return Err(());
    }
    Ok(Some(
        days * MICROS_PER_DAY + (h * 3600 + mi * 60 + s) * 1_000_000,
    ))
}

/// Parse a boolean: `true` / `false` (any case). Bare digits deliberately
/// do *not* parse, so 0/1 columns infer as integers.
pub fn parse_bool(field: &[u8]) -> Result<Option<bool>, ()> {
    let f = trim(field);
    if f.is_empty() {
        return Ok(None);
    }
    match f {
        b"true" | b"TRUE" | b"True" | b"t" | b"T" => Ok(Some(true)),
        b"false" | b"FALSE" | b"False" | b"f" | b"F" => Ok(Some(false)),
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_types::datetime::ymd_from_days;

    #[test]
    fn integers() {
        assert_eq!(parse_i64(b"42"), Ok(Some(42)));
        assert_eq!(parse_i64(b"-7"), Ok(Some(-7)));
        assert_eq!(parse_i64(b"+13"), Ok(Some(13)));
        assert_eq!(parse_i64(b" 5 "), Ok(Some(5)));
        assert_eq!(parse_i64(b""), Ok(None));
        assert_eq!(parse_i64(b"12.5"), Err(()));
        assert_eq!(parse_i64(b"abc"), Err(()));
        assert_eq!(parse_i64(b"-"), Err(()));
        assert_eq!(parse_i64(b"9223372036854775807"), Ok(Some(i64::MAX)));
        assert_eq!(parse_i64(b"9223372036854775808"), Err(())); // overflow
    }

    #[test]
    fn reals() {
        assert_eq!(parse_f64(b"1.5"), Ok(Some(1.5)));
        assert_eq!(parse_f64(b"-0.25"), Ok(Some(-0.25)));
        assert_eq!(parse_f64(b"42"), Ok(Some(42.0)));
        assert_eq!(parse_f64(b"1e3"), Ok(Some(1000.0)));
        assert_eq!(parse_f64(b"2.5E-2"), Ok(Some(0.025)));
        assert_eq!(parse_f64(b".5"), Ok(Some(0.5)));
        assert_eq!(parse_f64(b""), Ok(None));
        assert_eq!(parse_f64(b"1.2.3"), Err(()));
        assert_eq!(parse_f64(b"e5"), Err(()));
        assert_eq!(parse_f64(b"1e"), Err(()));
    }

    #[test]
    fn dates() {
        let d = parse_date(b"1995-07-14").unwrap().unwrap();
        assert_eq!(ymd_from_days(d), (1995, 7, 14));
        assert!(parse_date(b"1992/01/01").unwrap().is_some());
        assert_eq!(parse_date(b"1995-13-01"), Err(()));
        assert_eq!(parse_date(b"1995-02-30"), Err(()));
        assert_eq!(parse_date(b"1996-02-29").map(|o| o.is_some()), Ok(true)); // leap
        assert_eq!(parse_date(b"1900-02-29"), Err(())); // not leap
        assert_eq!(parse_date(b"95-07-14"), Err(()));
        assert_eq!(parse_date(b""), Ok(None));
    }

    #[test]
    fn timestamps() {
        let t = parse_timestamp(b"1970-01-02 01:00:00").unwrap().unwrap();
        assert_eq!(t, MICROS_PER_DAY + 3_600_000_000);
        assert!(parse_timestamp(b"1970-01-02T01:00:00").unwrap().is_some());
        assert_eq!(parse_timestamp(b"1970-01-02 25:00:00"), Err(()));
        assert_eq!(parse_timestamp(b"1970-01-02"), Err(()));
    }

    #[test]
    fn bools() {
        assert_eq!(parse_bool(b"true"), Ok(Some(true)));
        assert_eq!(parse_bool(b"FALSE"), Ok(Some(false)));
        assert_eq!(parse_bool(b"1"), Err(())); // digits are integers
        assert_eq!(parse_bool(b"yes"), Err(()));
    }

    #[test]
    fn trim_behaviour() {
        assert_eq!(trim(b"  a b  "), b"a b");
        assert_eq!(trim(b"   "), b"");
    }
}
