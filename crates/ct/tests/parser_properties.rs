//! Property-based tests of the two hand-written parsers: the Rust-subset
//! parser (`ast::parse_file`) and the TOML-subset config parser
//! (`TargetConfig::parse`) return `Ok` or `Err` on any input and never
//! panic.

use grinch_ct::ast::parse_file;
use grinch_ct::config::TargetConfig;
use proptest::prelude::*;

/// Rust keywords, punctuation, brackets, literals (whole and cut off),
/// comments, identifiers and the analyzer's own annotations, so random
/// sequences reach deep, unbalanced and half-valid items rather than
/// failing at the first token.
#[rustfmt::skip]
const RUST_TOKENS: &[&str] = &[
    "fn", "let", "mut", "if", "else", "match", "for", "in", "while", "loop", "return", "break",
    "continue", "struct", "enum", "impl", "trait", "type", "pub", "use", "mod", "const", "static",
    "unsafe", "as", "ref", "move", "where", "dyn", "crate", "self", "Self", "super", "macro_rules",
    "(", ")", "[", "]", "{", "}", "<", ">", ";", ",", ".", "..", "..=", "::", ":", "->", "=>", "=",
    "==", "!=", "<=", ">>", "<<", "&", "&&", "|", "||", "!", "?", "+", "-", "*", "/", "%", "^", "@",
    "#", "#[", "#![", "'a", "_", "$", "0", "0x1f", "1u64", "1.5", "1e3", "\"s\"", "\"", "'c'", "'",
    "b'x'", "br\"", "r\"raw\"", "r#\"", "\"#", "true", "x", "y", "Key", "state", "// ct-secret",
    "// ct-allow", "//", "/*", "*/", "\\", " ", "\n", "\t", "é", "😀",
];

/// TOML-subset syntax: headers, keys, values and their broken halves.
#[rustfmt::skip]
const TOML_TOKENS: &[&str] = &[
    "[", "]", "[secrets]", "[analysis]", "[determinism]", "[ ]", "types", "names", "line-bytes",
    "allow", "=", "\"", "\"Key\"", "\"a:b\"", ",", "#", " ", "\n", "\r\n", "8", "-1",
    "99999999999999999999", "0x10", "é", "\\", "'", "[[", "]]",
];

fn arb_soup(tokens: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..tokens.len(), 0..200)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

fn arb_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..400)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Openings that put the soup inside an item, a body, an expression or
/// a pattern, where most of the parser lives.
const RUST_OPENINGS: &[&str] = &[
    "",
    "fn f(x: u64) -> u64 {",
    "impl S { pub fn g(&mut self) {",
    "struct S {",
    "enum E {",
    "fn f() { let x = ",
    "fn f() { match x { ",
    "fn f() { if let Some(",
    "fn f() { for (a, b) in ",
    "trait T { fn h<'a>(&'a self) -> ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rust_parser_never_panics_on_token_soup(
        opening in 0usize..RUST_OPENINGS.len(),
        soup in arb_soup(RUST_TOKENS),
    ) {
        let _ = parse_file(&format!("{}{soup}", RUST_OPENINGS[opening]));
    }

    #[test]
    fn rust_parser_never_panics_on_deep_or_unbalanced_brackets(
        opens in 0usize..3_000,
        closes in 0usize..3_000,
        bracket in 0usize..3,
        soup in arb_soup(RUST_TOKENS),
    ) {
        let (open, close) = [("(", ")"), ("[", "]"), ("{", "}")][bracket];
        let text = format!("fn f() {{ {}{soup}{} }}", open.repeat(opens), close.repeat(closes));
        let _ = parse_file(&text);
    }

    #[test]
    fn rust_parser_never_panics_on_random_bytes(text in arb_bytes()) {
        let _ = parse_file(&text);
    }

    #[test]
    fn config_parser_never_panics_on_token_soup(text in arb_soup(TOML_TOKENS)) {
        let _ = TargetConfig::parse(&text);
    }

    #[test]
    fn config_parser_never_panics_on_random_bytes(text in arb_bytes()) {
        let _ = TargetConfig::parse(&text);
    }
}
