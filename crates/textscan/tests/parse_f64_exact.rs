//! `parse_f64` is correctly rounded: whatever it accepts, it returns the
//! double `str::parse::<f64>` returns, bit for bit.
//!
//! The multiply-by-`10^e` formulation it replaces was one ulp off on a
//! seventh of all two-decimal literals (`"0.35"` came back as
//! `0.35000000000000003`), so an imported `l_discount` never equalled the
//! literal a user typed.

include!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/common/proptest_env.rs"
));

use proptest::prelude::*;
use tde_textscan::locale::parse_f64_locale;
use tde_textscan::parsers::parse_f64;

/// Both parsers against the standard library on one string.
fn assert_like_std(text: &str) {
    let ours = parse_f64(text.as_bytes());
    assert_eq!(ours, parse_f64_locale(text.as_bytes()), "{text:?}");
    match (ours, text.parse::<f64>()) {
        (Ok(Some(v)), Ok(std)) => assert_eq!(
            v.to_bits(),
            std.to_bits(),
            "{text:?}: parsed {v:e}, std {std:e}"
        ),
        (Err(()), Err(_)) => {}
        (ours, std) => panic!("{text:?}: parsed {ours:?}, std {std:?}"),
    }
}

#[test]
fn every_two_decimal_literal_up_to_two_thousand() {
    for cents in 0..200_000u32 {
        assert_like_std(&format!("{}.{:02}", cents / 100, cents % 100));
    }
    assert_eq!(parse_f64(b"0.35"), Ok(Some(0.35)));
    assert_eq!(parse_f64(b"0.57"), Ok(Some(0.57)));
}

#[test]
fn the_edges_of_the_exact_path() {
    for text in [
        "9007199254740991",  // 2^53 - 1: the last exact significand
        "9007199254740992",  // 2^53
        "9007199254740993",  // needs round-to-even
        "90071992547409.93", // same digits, scaled
        "1e22",              // the last exact power of ten
        "1e23",              // not exact
        "1e-22",
        "1e-23",
        "123456789012345678901234567890", // long significand
        "0.000000000000000000000000000001",
        "4.9e-324",                // smallest subnormal
        "2.4703282292062327e-324", // rounds to it or to zero
        "1.7976931348623157e308",
        "1.8e308",       // infinity
        "1e99999999999", // exponent past i32
        "1e-99999999999",
        "-0.0",
        "+.5",
        "5.",
        "00000000000000000000000001.5",
    ] {
        assert_like_std(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(512)))]

    #[test]
    fn random_decimal_strings_parse_like_std(
        sign in 0u8..3,
        int in "[0-9]{0,20}",
        frac in (0u8..3, "[0-9]{0,20}"),
        exp in (0u8..4, 0u8..3, "[0-9]{1,3}"),
    ) {
        let mut text = String::from(["", "-", "+"][sign as usize]);
        text.push_str(&int);
        if frac.0 > 0 {
            text.push('.');
            text.push_str(&frac.1);
        }
        if exp.0 > 1 {
            text.push(if exp.0 == 2 { 'e' } else { 'E' });
            text.push_str(["", "-", "+"][exp.1 as usize]);
            text.push_str(&exp.2);
        }
        // The one string of the family the two grammars split on: empty
        // is NULL for an import field.
        if text.is_empty() {
            prop_assert_eq!(parse_f64(b""), Ok(None));
        } else {
            assert_like_std(&text);
        }
    }
}
