//! The one per-file analysis context: source text, token stream, line
//! index, the byte ranges of test-only code, and the parsed item forest.
//! The per-file rules and the workspace call graph both read a file
//! through it, so each file is lexed, parsed and test-scanned once.
//!
//! Test-only ranges are found syntactically: a `#[cfg(test)]`, `#[test]`,
//! or `#[bench]` attribute marks the item that follows it (after any
//! further attributes and doc comments), and the item extends to its
//! matching close brace — or to the first `;` for brace-less items. Brace
//! matching happens on the *token* stream, so braces inside strings and
//! comments cannot desynchronize it.

use crate::diag::Violation;
use crate::items::{self, Item};
use crate::lexer::{self, LineIndex, Span, Token, TokenKind};
use crate::workspace::SourceFile;

/// One source file, fully lexed and item-parsed.
#[derive(Debug)]
pub struct FileData {
    /// Discovery metadata: path, kind, crate, crate-root flag.
    pub file: SourceFile,
    /// Full source text.
    pub src: String,
    /// Lexed token stream (spans tile `src`).
    pub tokens: Vec<Token>,
    /// Byte-offset → line/column mapping.
    pub lines: LineIndex,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` / `#[bench]`
    /// items; most rules skip violations inside these.
    pub test_spans: Vec<Span>,
    /// Parsed item forest.
    pub items: Vec<Item>,
}

impl FileData {
    /// Lexes and parses one in-memory source file.
    pub fn new(file: SourceFile, src: String) -> Self {
        let tokens = lexer::lex(&src);
        let lines = LineIndex::new(&src);
        let test_spans = find_test_spans(&src, &tokens);
        let items = items::parse_items(&src, &tokens);
        Self {
            file,
            src,
            tokens,
            lines,
            test_spans,
            items,
        }
    }

    /// True when byte `offset` lies inside test-only code.
    pub(crate) fn in_test_code(&self, offset: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains(offset))
    }

    /// Text of token `i` (empty past the end).
    pub(crate) fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text(&self.src))
    }

    /// True when token `i` is an `Ident`.
    pub(crate) fn is_ident(&self, i: usize) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// True when token `i` is an `Ident` with exactly this text.
    pub(crate) fn ident_is(&self, i: usize, text: &str) -> bool {
        self.is_ident(i) && self.text(i) == text
    }

    /// True when token `i` is a `Punct` with exactly this text.
    pub(crate) fn punct_is(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(&self.src) == text)
    }

    /// Index of the next non-comment token at or after `i`.
    pub(crate) fn next_code(&self, mut i: usize) -> usize {
        while self
            .tokens
            .get(i)
            .is_some_and(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        {
            i += 1;
        }
        i
    }

    /// Previous non-comment token index before `i`, or `None`.
    pub(crate) fn prev_code(&self, i: usize) -> Option<usize> {
        let mut j = i.checked_sub(1)?;
        loop {
            match self.tokens.get(j).map(|t| t.kind) {
                Some(TokenKind::LineComment | TokenKind::BlockComment) => j = j.checked_sub(1)?,
                Some(_) => return Some(j),
                None => return None,
            }
        }
    }

    /// 1-based line of token `i`.
    pub(crate) fn token_line(&self, i: usize) -> usize {
        self.tokens
            .get(i)
            .map_or(1, |t| self.lines.line(t.span.start))
    }

    /// A `rule` violation anchored at byte `offset` of this file; the
    /// snippet is the trimmed source line containing it.
    pub(crate) fn violation(
        &self,
        rule: &'static str,
        offset: usize,
        message: String,
    ) -> Violation {
        let (line, col) = self.lines.line_col(offset);
        let start = self.lines.line_start(line).unwrap_or(0);
        let end = self.lines.line_start(line + 1).unwrap_or(self.src.len());
        Violation {
            rule,
            path: self.file.rel_path.clone(),
            line,
            col,
            message,
            snippet: self.src[start..end]
                .trim_end_matches('\n')
                .trim()
                .to_string(),
        }
    }
}

/// Scans for test-marking attributes and returns the byte spans of the
/// items they cover.
fn find_test_spans(src: &str, tokens: &[Token]) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // match `#` `[` … `]` (outer attribute; `#![…]` inner attrs never
        // mark tests in this workspace)
        if tokens[i].kind == TokenKind::Punct
            && tokens[i].text(src) == "#"
            && tokens.get(i + 1).is_some_and(|t| t.text(src) == "[")
        {
            let attr_start = i;
            let (attr_end, is_test) = scan_attribute(src, tokens, i + 1);
            if is_test {
                if let Some(span) = item_extent(src, tokens, attr_end) {
                    let full = Span {
                        start: tokens[attr_start].span.start,
                        end: span.end,
                    };
                    // merge overlapping/nested spans (a #[test] fn inside
                    // a #[cfg(test)] mod) to keep the list disjoint
                    match spans.last_mut() {
                        Some(last) if last.end >= full.start => last.end = last.end.max(full.end),
                        _ => spans.push(full),
                    }
                }
            }
            i = attr_end;
        } else {
            i += 1;
        }
    }
    spans
}

/// From the `[` at `open`, scans to the matching `]`. Returns (index one
/// past the `]`, whether the attribute marks test code).
fn scan_attribute(src: &str, tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, is_test);
                }
            }
            "cfg" if t.kind == TokenKind::Ident => saw_cfg = true,
            "test" | "bench" if t.kind == TokenKind::Ident => {
                // `#[test]` / `#[bench]` directly, or `test` anywhere
                // inside a `cfg(...)` predicate (covers `cfg(test)` and
                // `cfg(all(test, …))`)
                let bare =
                    i == open + 1 && tokens.get(open + 2).is_some_and(|n| n.text(src) == "]");
                if bare || saw_cfg {
                    is_test = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    (i, is_test)
}

/// Extent of the item starting at token `i` (which follows a test
/// attribute): skips further attributes and doc comments, then runs to
/// the close of the first brace block — or to the first `;` if one
/// appears before any `{`.
fn item_extent(src: &str, tokens: &[Token], mut i: usize) -> Option<Span> {
    // skip doc comments and further attributes
    loop {
        let t = tokens.get(i)?;
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => i += 1,
            TokenKind::Punct
                if t.text(src) == "#" && tokens.get(i + 1).is_some_and(|n| n.text(src) == "[") =>
            {
                let (end, _) = scan_attribute(src, tokens, i + 1);
                i = end;
            }
            _ => break,
        }
    }
    let item_start = tokens.get(i)?.span.start;
    // find first `{` or `;`
    let mut j = i;
    loop {
        let t = tokens.get(j)?;
        match t.text(src) {
            ";" if t.kind == TokenKind::Punct => {
                return Some(Span {
                    start: item_start,
                    end: t.span.end,
                })
            }
            "{" if t.kind == TokenKind::Punct => break,
            _ => j += 1,
        }
    }
    // brace match from `j`
    let mut depth = 0usize;
    while let Some(t) = tokens.get(j) {
        match t.text(src) {
            "{" if t.kind == TokenKind::Punct => depth += 1,
            "}" if t.kind == TokenKind::Punct => {
                depth -= 1;
                if depth == 0 {
                    return Some(Span {
                        start: item_start,
                        end: t.span.end,
                    });
                }
            }
            _ => {}
        }
        j += 1;
    }
    // unterminated item: cover to EOF so rules stay conservative
    Some(Span {
        start: item_start,
        end: src.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::classify;

    fn ctx_spans(src: &str) -> Vec<(usize, usize)> {
        let tokens = lexer::lex(src);
        find_test_spans(src, &tokens)
            .iter()
            .map(|s| (s.start, s.end))
            .collect()
    }

    #[test]
    fn cfg_test_module_is_covered() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n}\nfn after() {}";
        let spans = ctx_spans(src);
        assert_eq!(spans.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(spans[0].0 < unwrap_at && unwrap_at < spans[0].1);
        let after_at = src.find("fn after").unwrap();
        assert!(after_at >= spans[0].1);
    }

    #[test]
    fn test_fn_and_cfg_all_are_covered() {
        let src = "#[test]\nfn t() { a.unwrap(); }\n#[cfg(all(test, feature = \"x\"))]\nfn u() { b.unwrap(); }";
        let spans = ctx_spans(src);
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn non_test_attributes_are_not_covered() {
        let src = "#[derive(Debug)]\nstruct S;\n#[cfg(feature = \"fast\")]\nfn f() {}";
        assert!(ctx_spans(src).is_empty());
        // `test` as an ordinary identifier is not an attribute
        let src = "fn test() { x.unwrap(); }";
        assert!(ctx_spans(src).is_empty());
    }

    #[test]
    fn braces_in_strings_do_not_desync() {
        let src = "#[cfg(test)]\nmod tests {\n  const S: &str = \"}\";\n  fn t() { x.unwrap(); }\n}\nfn live() {}";
        let spans = ctx_spans(src);
        assert_eq!(spans.len(), 1);
        let live = src.find("fn live").unwrap();
        assert!(live >= spans[0].1, "code after the mod must be uncovered");
    }

    #[test]
    fn in_test_code_queries() {
        let file = classify("crates/x/src/lib.rs").unwrap();
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() {} }";
        let fd = FileData::new(file, src.to_string());
        assert!(!fd.in_test_code(src.find("live").unwrap()));
        assert!(fd.in_test_code(src.find("fn t").unwrap()));
    }
}
