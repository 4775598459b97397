//! Property tests for the lexer: over randomly assembled snippets —
//! including nested block comments, raw strings, escapes, and
//! deliberately unterminated literals — the token stream must tile the
//! source exactly (every byte is covered by a token or lies in an
//! inter-token whitespace gap), which is what makes span-based
//! diagnostics and suppression line-targeting trustworthy.

use mep_lint::lexer::{lex, verify_coverage, LineIndex};
use proptest::prelude::*;

/// Source fragments chosen to stress every lexer mode. The last few are
/// intentionally unterminated: a total lexer must still tile the source.
const FRAGMENTS: &[&str] = &[
    "ident_x",
    "fn",
    "42",
    "3.14e-2",
    "0xfe_u64",
    "\"str with \\\" escape and // not a comment\"",
    "\"multi\\nline\"",
    "r\"raw no fence\"",
    "r#\"raw \" with fence\"#",
    "r##\"nested \"# fence\"##",
    "'c'",
    "'\\n'",
    "'\\''",
    "'static",
    "'a",
    "// line comment with \"quote\" and /* opener",
    "/* block comment */",
    "/* nested /* twice /* deep */ */ comment */",
    "::<>=>->..=&&||",
    ". , ; # ! ?",
    "b\"bytes\"",
    "br#\"raw bytes\"#",
    "#![forbid(unsafe_code)]",
    "let x = y.partial_cmp(&z);",
    "\"unterminated string",
    "/* unterminated /* nested block",
    "r#\"unterminated raw",
];

const SEPARATORS: &[&str] = &["", " ", "  ", "\n", "\t", "\r\n", "\n\n    "];

/// Assembles a snippet from (fragment, separator) index pairs.
fn assemble(picks: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for &(f, s) in picks {
        src.push_str(FRAGMENTS[f % FRAGMENTS.len()]);
        src.push_str(SEPARATORS[s % SEPARATORS.len()]);
    }
    src
}

proptest! {
    /// Token spans round-trip: concatenating tokens and whitespace gaps
    /// reproduces the source byte-for-byte, with no overlap and no
    /// non-whitespace byte left uncovered.
    #[test]
    fn spans_tile_the_source(
        picks in prop::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 0..40),
    ) {
        let src = assemble(&picks);
        let tokens = lex(&src);
        let coverage = verify_coverage(&src, &tokens);
        prop_assert!(
            coverage.is_ok(),
            "coverage violated: {:?}\nsource: {src:?}",
            coverage.err()
        );
    }

    /// Lexing is a pure function of the source: two runs agree exactly.
    #[test]
    fn lexing_is_deterministic(
        picks in prop::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 0..24),
    ) {
        let src = assemble(&picks);
        prop_assert_eq!(lex(&src), lex(&src));
    }

    /// Every token's (line, col) from the LineIndex points back at the
    /// token's own first byte — the invariant diagnostics rely on.
    #[test]
    fn line_index_round_trips_token_starts(
        picks in prop::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 0..24),
    ) {
        let src = assemble(&picks);
        let lines = LineIndex::new(&src);
        for tok in lex(&src) {
            let (line, col) = lines.line_col(tok.span.start);
            let start = lines.line_start(line);
            prop_assert!(start.is_some(), "line {line} must exist");
            let recovered = start.unwrap_or(0) + (col - 1);
            prop_assert_eq!(
                recovered, tok.span.start,
                "line {} col {} must address offset {} in {:?}",
                line, col, tok.span.start, src
            );
        }
    }
}
