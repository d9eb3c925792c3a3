//! Property tests of `hetero_obs::json`: the parser is total (it returns
//! a typed error and never panics, whatever the input), and finite value
//! trees round-trip through both renderers.

use hetero_obs::json::{parse, Value};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fragments that stress every branch of the parser: brackets, quotes,
/// escapes (valid, truncated, bad, and surrogates that pair up or stand
/// alone depending on their neighbours), numbers with exponents, whole
/// and truncated literals, whitespace, raw control and multi-byte
/// characters.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\\"", "\\n", "\\u", "\\u00", "\\u0041", "\\ud83d",
    "\\ude00", "\\uZZZZ", "\\x", "0", "-", "-0", "1e", "1e5", "-2.5E-3", "1e999", ".5", "01", "1.",
    "+1", "true", "fals", "null", "nul", " ", "\n", "\t", "\u{1}", "\"a\"", "\"k\":", "µ", "→",
    "😀", "\u{fffd}",
];

/// Whether `parse(text)` returns rather than panics.
fn parse_returns(text: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| parse(text))).is_ok()
}

/// A finite value tree built from a stream of random draws, at most
/// four levels deep like every document the workspace commits.
fn build(draws: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let d = draws.next().unwrap_or(0);
    let len = (d >> 8) % 4;
    // Strings are token runs: quotes, backslashes, control and multi-byte
    // characters the renderers must escape or pass through.
    let text = |d: u64| -> String {
        (0..d % 6)
            .map(|i| TOKENS[((d >> (8 + 6 * i)) % TOKENS.len() as u64) as usize])
            .collect()
    };
    match d % if depth < 4 { 6 } else { 4 } {
        0 => Value::Null,
        1 => Value::Bool(d & 8 != 0),
        2 => {
            let x = f64::from_bits(draws.next().unwrap_or(0));
            Value::Num(if x.is_finite() { x } else { len as f64 })
        }
        3 => Value::Str(text(d >> 3)),
        4 => Value::Arr((0..len).map(|_| build(draws, depth + 1)).collect()),
        _ => Value::Obj(
            (0..len)
                .map(|i| (text(d >> (3 + i)), build(draws, depth + 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn token_soup_never_panics(picks in prop::collection::vec(0usize..TOKENS.len(), 0..=24)) {
        let soup: String = picks.iter().map(|&i| TOKENS[i]).collect();
        prop_assert!(parse_returns(&soup), "parse panicked on {soup:?}");
    }

    #[test]
    fn finite_trees_round_trip_and_truncations_never_panic(
        draws in prop::collection::vec(any::<u64>(), 1..48),
    ) {
        let v = build(&mut draws.into_iter(), 0);
        for text in [v.render(), v.render_pretty()] {
            prop_assert_eq!(parse(&text), Ok(v.clone()), "{}", text);
            for (cut, _) in text.char_indices() {
                prop_assert!(parse_returns(&text[..cut]), "parse panicked on {:?}", &text[..cut]);
            }
        }
    }
}
