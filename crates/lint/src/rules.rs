//! The rule set: each rule walks one file's token stream and reports
//! [`Violation`]s. Rules never look at raw text — only at tokens — so
//! strings and comments can never false-positive.
//!
//! | rule            | guards                                              |
//! |-----------------|-----------------------------------------------------|
//! | `no-panic-lib`  | no `unwrap`/`expect`/panic macros in library code   |
//! | `determinism`   | no `HashMap`/`HashSet`, clocks, or thread-id logic  |
//! |                 | in result-affecting crates                          |
//! | `float-eq`      | no `==`/`!=` against float literals / float consts  |
//! | `no-alloc-hot`  | no allocation in declared hot-loop modules          |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]`  |

use crate::callgraph::{panic_call, PanicKind};
use crate::config::Config;
use crate::context::FileData;
use crate::diag::Violation;
use crate::lexer::TokenKind;
use crate::workspace::FileKind;

/// A single lint rule.
pub trait Rule {
    /// Stable identifier used in diagnostics and suppressions
    /// (kebab-case).
    fn name(&self) -> &'static str;
    /// One-line description shown by `mep-lint rules`.
    fn summary(&self) -> &'static str;
    /// Reports violations in one file.
    fn check(&self, fd: &FileData, cfg: &Config, out: &mut Vec<Violation>);
}

/// The full rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicLib),
        Box::new(Determinism),
        Box::new(FloatEq),
        Box::new(NoAllocHot),
        Box::new(ForbidUnsafe),
    ]
}

/// True for files where panics are an acceptable failure mechanism.
fn panic_tolerant(fd: &FileData) -> bool {
    fd.file.kind != FileKind::Lib
}

// --- no-panic-lib -----------------------------------------------------------

struct NoPanicLib;

impl Rule for NoPanicLib {
    fn name(&self) -> &'static str {
        "no-panic-lib"
    }

    fn summary(&self) -> &'static str {
        "library code must not unwrap/expect/panic!/todo!/unreachable!/unimplemented! outside tests"
    }

    fn check(&self, fd: &FileData, _cfg: &Config, out: &mut Vec<Violation>) {
        if panic_tolerant(fd) {
            return;
        }
        for (i, tok) in fd.tokens.iter().enumerate() {
            if tok.kind != TokenKind::Ident || fd.in_test_code(tok.span.start) {
                continue;
            }
            let text = fd.text(i);
            let message = match panic_call(fd, i) {
                Some(PanicKind::Unwrap) => format!(
                    "`.{text}()` can panic in library code; return a typed error \
                     (see crates/placer/src/error.rs) or restructure so the case \
                     is impossible (to order floats, `f64::total_cmp` never fails \
                     where `partial_cmp(..).{text}()` panics on NaN)"
                ),
                Some(PanicKind::Macro) => {
                    format!("`{text}!` panics in library code; return a typed error instead")
                }
                _ => continue,
            };
            out.push(fd.violation(self.name(), tok.span.start, message));
        }
    }
}

// --- determinism ------------------------------------------------------------

struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn summary(&self) -> &'static str {
        "result-affecting crates: no HashMap/HashSet (iteration order), wall clocks, or thread-id logic"
    }

    fn check(&self, fd: &FileData, cfg: &Config, out: &mut Vec<Violation>) {
        if panic_tolerant(fd)
            || !(cfg.is_result_affecting(&fd.file.crate_name)
                || cfg.is_deterministic_path(&fd.file.rel_path))
        {
            return;
        }
        let clock_ok = cfg.clock_allowed(&fd.file.rel_path);
        for (i, tok) in fd.tokens.iter().enumerate() {
            if tok.kind != TokenKind::Ident || fd.in_test_code(tok.span.start) {
                continue;
            }
            match fd.text(i) {
                t @ ("HashMap" | "HashSet") => out.push(fd.violation(
                    self.name(),
                    tok.span.start,
                    format!(
                        "`{t}` iteration order is nondeterministic; use BTreeMap/BTreeSet \
                         or a sorted Vec, or suppress with a reason if it is provably \
                         never iterated"
                    ),
                )),
                "Instant" if !clock_ok && fd.punct_is(i + 1, "::") && fd.ident_is(i + 2, "now") => {
                    out.push(
                        fd.violation(
                            self.name(),
                            tok.span.start,
                            "`Instant::now` outside the telemetry whitelist: wall-clock reads \
                         in result-affecting code make runs irreproducible"
                                .to_string(),
                        ),
                    )
                }
                "SystemTime" if !clock_ok => out.push(
                    fd.violation(
                        self.name(),
                        tok.span.start,
                        "`SystemTime` outside the telemetry whitelist: wall-clock reads \
                     in result-affecting code make runs irreproducible"
                            .to_string(),
                    ),
                ),
                "ThreadId" => out.push(
                    fd.violation(
                        self.name(),
                        tok.span.start,
                        "thread-id-dependent logic breaks bit-identical results across \
                     thread counts; partition work by fixed index instead"
                            .to_string(),
                    ),
                ),
                "thread" if fd.punct_is(i + 1, "::") && fd.ident_is(i + 2, "current") => out.push(
                    fd.violation(
                        self.name(),
                        tok.span.start,
                        "`thread::current()` (thread-identity logic) breaks bit-identical \
                         results across thread counts"
                            .to_string(),
                    ),
                ),
                _ => {}
            }
        }
    }
}

// --- float-eq ---------------------------------------------------------------

struct FloatEq;

/// Float-typed associated constants that make a `==` comparison float-eq
/// even without a literal.
const FLOAT_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY", "EPSILON", "MAX", "MIN"];

impl Rule for FloatEq {
    fn name(&self) -> &'static str {
        "float-eq"
    }

    fn summary(&self) -> &'static str {
        "`==`/`!=` on floats is almost always wrong; compare with a tolerance or use bit patterns"
    }

    fn check(&self, fd: &FileData, _cfg: &Config, out: &mut Vec<Violation>) {
        if panic_tolerant(fd) {
            return;
        }
        for (i, tok) in fd.tokens.iter().enumerate() {
            if tok.kind != TokenKind::Punct || fd.in_test_code(tok.span.start) {
                continue;
            }
            let op = fd.text(i);
            if op != "==" && op != "!=" {
                continue;
            }
            let prev_float = i
                .checked_sub(1)
                .is_some_and(|p| is_float_literal(fd.text(p)));
            // `x == 1.5`, or `x == f64::NAN` (path const)
            let next = fd.next_code(i + 1);
            let next_float = is_float_literal(fd.text(next))
                || ((fd.ident_is(next, "f64") || fd.ident_is(next, "f32"))
                    && fd.punct_is(next + 1, "::")
                    && FLOAT_CONSTS.contains(&fd.text(next + 2)));
            if prev_float || next_float {
                let hint = if op == "==" { "==" } else { "!=" };
                out.push(fd.violation(
                    self.name(),
                    tok.span.start,
                    format!(
                        "float `{hint}` comparison; use an explicit tolerance, \
                         `total_cmp`, or `is_nan()`/bit comparison"
                    ),
                ));
            }
        }
    }
}

/// A number token that denotes a float: has a fraction, an exponent, or
/// an `f32`/`f64` suffix (hex literals excluded).
fn is_float_literal(text: &str) -> bool {
    if !text.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains(['e', 'E'])
}

// --- no-alloc-hot -----------------------------------------------------------

struct NoAllocHot;

impl Rule for NoAllocHot {
    fn name(&self) -> &'static str {
        "no-alloc-hot"
    }

    fn summary(&self) -> &'static str {
        "declared hot-loop modules must not allocate (Vec::new/push/collect/format!/to_string/Box::new)"
    }

    fn check(&self, fd: &FileData, cfg: &Config, out: &mut Vec<Violation>) {
        if !cfg.is_hot(&fd.file.rel_path) {
            return;
        }
        for (i, tok) in fd.tokens.iter().enumerate() {
            if tok.kind != TokenKind::Ident || fd.in_test_code(tok.span.start) {
                continue;
            }
            let text = fd.text(i);
            let flagged = match text {
                // `Vec::new`, `Vec::with_capacity`, `Box::new`, `String::new`
                "Vec" | "Box" | "String" if fd.punct_is(i + 1, "::") => {
                    let m = fd.next_code(i + 2);
                    fd.ident_is(m, "new") || fd.ident_is(m, "with_capacity")
                }
                // `vec![…]`, `format!(…)`
                "vec" | "format" => fd.punct_is(i + 1, "!"),
                // `.push(…)`, `.collect(`/`.collect::<`, `.to_string()`, `.to_vec()`, `.to_owned()`
                "push" | "collect" | "to_string" | "to_vec" | "to_owned" => {
                    fd.punct_is(i.wrapping_sub(1), ".")
                        && (fd.punct_is(i + 1, "(") || fd.punct_is(i + 1, "::"))
                }
                _ => false,
            };
            if flagged {
                out.push(fd.violation(
                    self.name(),
                    tok.span.start,
                    format!(
                        "`{text}` allocates inside a declared hot module; preallocate in \
                         the workspace/plan (engine arenas, `_in` variants) or move the \
                         allocation out of the hot path"
                    ),
                ));
            }
        }
    }
}

// --- forbid-unsafe ----------------------------------------------------------

struct ForbidUnsafe;

impl Rule for ForbidUnsafe {
    fn name(&self) -> &'static str {
        "forbid-unsafe"
    }

    fn summary(&self) -> &'static str {
        "every crate root must carry #![forbid(unsafe_code)]"
    }

    fn check(&self, fd: &FileData, _cfg: &Config, out: &mut Vec<Violation>) {
        if !fd.file.is_crate_root {
            return;
        }
        // scan inner attributes `#![…(unsafe_code)]` for forbid/deny
        let mut lint_level: Option<(&str, usize)> = None;
        for (i, tok) in fd.tokens.iter().enumerate() {
            if tok.kind == TokenKind::Ident && fd.text(i) == "unsafe_code" {
                // walk back over `(` to the level ident
                let open = i.checked_sub(1);
                let level = i.checked_sub(2);
                if let (Some(o), Some(l)) = (open, level) {
                    if fd.punct_is(o, "(") && (fd.ident_is(l, "forbid") || fd.ident_is(l, "deny")) {
                        lint_level = Some((fd.text(l), fd.tokens[l].span.start));
                        if fd.ident_is(l, "forbid") {
                            break; // forbid wins
                        }
                    }
                }
            }
        }
        match lint_level {
            Some(("forbid", _)) => {}
            Some(("deny", offset)) => out.push(
                fd.violation(
                    self.name(),
                    offset,
                    "crate root uses `deny(unsafe_code)` instead of `forbid`; `deny` can be \
                 overridden by inner `#[allow]` — justify with a suppression or upgrade"
                        .to_string(),
                ),
            ),
            _ => out.push(fd.violation(
                self.name(),
                0,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_literal_classification() {
        for f in ["1.0", "2.5e-3", "1e9", "3f64", "0.5f32", "10.", "1_000.0"] {
            assert!(is_float_literal(f), "{f} should be float");
        }
        for n in ["1", "0x1f", "0b101", "1_000", "42u64", "0o17"] {
            assert!(!is_float_literal(n), "{n} should not be float");
        }
    }

    #[test]
    fn rule_names_are_unique_and_kebab() {
        let names: Vec<&str> = all_rules().iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
