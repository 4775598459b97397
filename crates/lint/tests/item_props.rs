//! Property tests for the item parser: over randomly assembled
//! module-level snippets — well-formed items, nested modules, stray
//! qualifiers, dangling keywords, and unbalanced braces — the parsed item
//! forest must tile the token stream (sibling extents strictly ordered
//! and disjoint, children inside parents, bodies inside items), so every
//! non-whitespace token has exactly one innermost owner: an item, or the
//! module root when no item covers it. That tiling is what lets the call
//! graph attribute every call and panic site to exactly one function.

use mep_lint::items::{parse_items, verify_item_coverage};
use mep_lint::lexer::lex;
use proptest::prelude::*;

/// Module-level fragments chosen to stress the item parser: ordinary
/// items, items with bodies and children, attribute/doc noise, stray
/// statements at module scope, and deliberately broken inputs (dangling
/// qualifiers, unbalanced braces) — the parser must stay total on all of
/// them.
const FRAGMENTS: &[&str] = &[
    "pub fn f(x: u32) -> u32 { x + 1 }",
    "fn g() {}",
    "pub(crate) fn h<T: Clone>(t: T) -> T { t.clone() }",
    "struct S { a: u32, b: Mutex<u32> }",
    "pub struct T(u32);",
    "enum E { A, B(u32) }",
    "impl S { pub fn m(&self) -> u32 { self.a } fn p() {} }",
    "impl Clone for T { fn clone(&self) -> Self { T(self.0) } }",
    "trait Tr { fn req(&self); fn def(&self) {} }",
    "mod m { pub fn inner() { let x = [1, 2]; let _ = x[0]; } }",
    "mod external;",
    "use std::sync::Mutex;",
    "pub use crate::engine::Engine;",
    "const K: u32 = 3;",
    "static ST: u32 = 4;",
    "type Alias = u32;",
    "macro_rules! mk { () => {}; }",
    "// a line comment\n",
    "/// a doc comment\n",
    "#[derive(Debug)]",
    "#![allow(dead_code)]",
    "#[cfg(test)] mod tests { #[test] fn t() { assert!(true); } }",
    "extern crate core;",
    "unsafe impl Send for T {}",
    // degenerate inputs: the parser must not panic or lose tokens
    "pub",
    "fn",
    "struct",
    "impl",
    "-> u32",
    "{ stray { nested } block }",
    "}",
    "{",
    "; ;",
];

const SEPARATORS: &[&str] = &["", " ", "\n", "\n\n", "\t"];

fn assemble(picks: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for &(f, s) in picks {
        src.push_str(FRAGMENTS[f % FRAGMENTS.len()]);
        src.push_str(SEPARATORS[s % SEPARATORS.len()]);
        // fragments that end mid-comment must not swallow the next one
        if !src.ends_with('\n') && !src.ends_with(' ') {
            src.push(' ');
        }
    }
    src
}

proptest! {
    /// For generated inputs of 2..=1024 tokens, the item forest tiles the
    /// token stream: `verify_item_coverage` proves sibling extents are
    /// strictly ordered and disjoint, children lie inside their parent,
    /// and bodies lie inside their item — hence every token has exactly
    /// one innermost owner (an item, or the module root).
    #[test]
    fn items_tile_the_token_stream(
        picks in prop::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 1..48),
    ) {
        let src = assemble(&picks);
        let tokens = lex(&src);
        prop_assume!(tokens.len() >= 2 && tokens.len() <= 1024);
        let items = parse_items(&src, &tokens);
        let coverage = verify_item_coverage(&tokens, &items);
        prop_assert!(
            coverage.is_ok(),
            "item tiling violated: {:?}\nsource: {src:?}",
            coverage.err()
        );
    }

    /// Parsing is a pure function of the token stream: two runs produce
    /// structurally identical forests.
    #[test]
    fn parsing_is_deterministic(
        picks in prop::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 1..32),
    ) {
        let src = assemble(&picks);
        let tokens = lex(&src);
        prop_assume!(tokens.len() >= 2 && tokens.len() <= 1024);
        let a = parse_items(&src, &tokens);
        let b = parse_items(&src, &tokens);
        prop_assert_eq!(
            format!("{a:?}"), format!("{b:?}"),
            "item parsing must be deterministic for {:?}", src
        );
    }
}
