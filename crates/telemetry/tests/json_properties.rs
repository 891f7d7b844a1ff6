//! Property-based tests of the JSON writer and parser: the parser never
//! panics, and what the writer emits reads back exactly.

use grinch_telemetry::json::{parse, JsonValue, Layout, ObjWriter};
use proptest::prelude::*;

/// Pieces of JSON syntax and near-syntax, so random strings reach deep,
/// unbalanced and half-valid documents rather than failing at byte 0.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", "\"", "\\", ":", ",", " ", "\n", "0", "-", "1.5", "e", "E+", ".", "u",
    "\\u00", "\\ud800", "true", "fals", "null", "\"k\"", "é", "€", "😀", "\u{1}", "\u{7f}",
];

fn arb_syntax() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..TOKENS.len(), 0..200)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Strings over ASCII (control characters included), two- and three-byte
/// UTF-8 and astral-plane characters.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..4, any::<u32>()), 0..40).prop_map(|picks| {
        picks
            .into_iter()
            .filter_map(|(class, x)| match class {
                0 => char::from_u32(x % 0x80),
                1 => char::from_u32(0x80 + x % 0x780),
                2 => char::from_u32(0x800 + x % 0xD000),
                _ => char::from_u32(0x10000 + x % 0x10_0000),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_syntax(text in arb_syntax()) {
        let _ = parse(&text);
    }

    #[test]
    fn parse_never_panics_on_deep_or_unbalanced_brackets(
        opens in 0usize..3_000,
        closes in 0usize..3_000,
        object in any::<bool>(),
        tail in arb_syntax(),
    ) {
        let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
        let text = format!("{}{tail}{}", open.repeat(opens), close.repeat(closes));
        let _ = parse(&text);
    }

    #[test]
    fn strings_round_trip_through_writer_and_parser(key in arb_text(), value in arb_text()) {
        let mut w = ObjWriter::new();
        w.str(&key, &value).arr("items", Layout::Spaced, |a| a.str(&value));
        let doc = w.finish();
        let parsed = parse(&doc).expect("writer output parses");
        prop_assert_eq!(
            parsed.clone(),
            JsonValue::Obj(vec![
                (key.clone(), JsonValue::Str(value.clone())),
                ("items".to_string(), JsonValue::Arr(vec![JsonValue::Str(value.clone())])),
            ])
        );
        prop_assert_eq!(parsed.to_json(), doc);
    }

    #[test]
    fn finite_floats_round_trip_bit_exactly(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        prop_assert_eq!(reparse(v).to_bits(), v.to_bits(), "{}", v);
    }
}

fn reparse(v: f64) -> f64 {
    let mut w = ObjWriter::new();
    w.f64("v", v);
    match parse(&w.finish()).and_then(|doc| doc.get("v").cloned()) {
        Some(JsonValue::Num(n)) => n,
        other => panic!("{v} read back as {other:?}"),
    }
}

#[test]
fn extreme_floats_round_trip_bit_exactly() {
    for v in [
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::EPSILON,
        1e15,
        1e16,
        9_007_199_254_740_993.0,
    ] {
        assert_eq!(reparse(v).to_bits(), v.to_bits(), "{v}");
    }
}
