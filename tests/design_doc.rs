//! DESIGN.md describes the tree as it is. Three checks keep it so:
//!
//! - every `DESIGN.md §N` citation in the code, the tests, the examples,
//!   the CI file and the user-facing docs names a `## N.` heading, and so
//!   does every `§N` inside DESIGN.md itself;
//! - every backticked Rust identifier or path in DESIGN.md whose last
//!   segment has at least four characters occurs as a word in the tree's
//!   sources or committed artifacts (Markdown excluded), apart from the
//!   few external names of [`EXTERNAL`];
//! - the document stays within its size limits.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Names DESIGN.md may cite that the tree's sources never spell out, each
/// with its reason: std, OS or CPU names only.
const EXTERNAL: &[(&str, &str)] = &[(
    "TCP_NODELAY",
    "the socket option `TcpStream::set_nodelay` sets",
)];

/// At most this many external names, each with its reason.
const MAX_EXTERNAL: usize = 10;

/// DESIGN.md's length limit.
const MAX_LINES: usize = 1200;

/// At most this many lines of DESIGN.md name a PR; each is a pointer into
/// CHANGES.md, not a story.
const MAX_PR_LINES: usize = 20;

/// Directories never read: build output and generated benchmark inputs.
const SKIP_DIRS: &[&str] = &["target", ".git", ".bench_build", "out"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn design() -> String {
    fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md")
}

/// Every file under `dir` (or `dir` itself), depth first, in name order.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return;
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The text of every readable UTF-8 file under the given roots.
fn texts(roots: &[&str]) -> Vec<(PathBuf, String)> {
    let mut paths = Vec::new();
    for r in roots {
        files(&root().join(r), &mut paths);
    }
    paths
        .into_iter()
        .filter_map(|p| fs::read_to_string(&p).ok().map(|t| (p, t)))
        .collect()
}

/// The section numbers of DESIGN.md's `## N.` headings.
fn headings(doc: &str) -> BTreeSet<u32> {
    doc.lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|l| l.split_once('.'))
        .filter_map(|(n, _)| n.parse().ok())
        .collect()
}

/// The section numbers `text` cites at `at`: one `§N` (or the `\u{a7}N`
/// escape of a Rust string), then any further ones joined by `/`, `, `,
/// ` and ` or `–`.
fn section_refs(text: &str, mut at: usize, out: &mut Vec<u32>) {
    const MARKS: [&str; 2] = ["§", "\\u{a7}"];
    loop {
        let rest = &text[at..];
        let Some(mark) = MARKS.iter().find(|m| rest.starts_with(**m)) else {
            return;
        };
        let digits: String = rest[mark.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let Ok(n) = digits.parse() else {
            return;
        };
        out.push(n);
        at += mark.len() + digits.len();
        let rest = &text[at..];
        let Some(sep) = ["/", ", ", " and ", "–"].iter().find(|s| {
            rest.starts_with(**s) && MARKS.iter().any(|m| rest[s.len()..].starts_with(m))
        }) else {
            return;
        };
        at += sep.len();
    }
}

/// Every `DESIGN.md §N` citation in `text`, the reference allowed to
/// start on the next line after a comment marker.
fn citations(text: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for (i, _) in text.match_indices("DESIGN.md") {
        let mut at = i + "DESIGN.md".len();
        let rest = &text[at..];
        let trimmed = rest.trim_start_matches(|c: char| c.is_whitespace() || "/!#*".contains(c));
        at += rest.len() - trimmed.len();
        section_refs(text, at, &mut out);
    }
    out
}

#[test]
fn every_design_md_section_citation_names_a_heading() {
    let doc = design();
    let sections = headings(&doc);
    assert!(
        sections.contains(&2) && sections.contains(&17),
        "{sections:?}"
    );
    let cited = texts(&[
        "crates",
        "src",
        "tests",
        "examples",
        "README.md",
        "EXPERIMENTS.md",
        ".claude",
        ".github",
    ]);
    let mut missing = Vec::new();
    let mut count = 0;
    for (path, text) in &cited {
        for n in citations(text) {
            count += 1;
            if !sections.contains(&n) {
                missing.push(format!("{}: §{n}", path.display()));
            }
        }
    }
    // DESIGN.md's own cross-references
    for (i, line) in doc.lines().enumerate() {
        for (at, _) in line.match_indices('§') {
            let mut refs = Vec::new();
            section_refs(line, at, &mut refs);
            for n in refs {
                if !sections.contains(&n) {
                    missing.push(format!("DESIGN.md:{}: §{n}", i + 1));
                }
            }
        }
    }
    assert!(
        count > 40,
        "only {count} citations found: is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "citations of no heading:\n{}",
        missing.join("\n")
    );
}

/// The words of `text`: maximal runs of ASCII letters, digits and `_`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A backticked span read as a Rust identifier or path: a turbofish, call
/// arguments and a macro's `!` are dropped. `None` for anything else.
fn rust_path(span: &str) -> Option<String> {
    let mut s: String = span.split_whitespace().collect::<Vec<_>>().join(" ");
    s = s.replace(":: ", "::");
    if let Some(i) = s.find("::<") {
        let close = s[i..].find('>')? + i;
        s.replace_range(i..=close, "");
    }
    if let Some(i) = s.find('(') {
        if !s.ends_with(')') {
            return None;
        }
        s.truncate(i);
    }
    let s = s.strip_suffix('!').unwrap_or(&s).to_string();
    s.split("::").all(is_ident).then_some(s)
}

/// Backticked spans of `doc` outside fenced code blocks; a span may wrap
/// across lines.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[test]
fn design_md_names_only_what_the_tree_holds() {
    assert!(EXTERNAL.len() <= MAX_EXTERNAL);
    // the sources and committed artifacts; Markdown (this document, the
    // changelog and the roadmap among it) and this file's own list do not
    // count
    let mut vocabulary = HashSet::new();
    for (path, text) in texts(&[
        "crates",
        "src",
        "tests",
        "examples",
        "vendor",
        "results",
        ".github",
        ".cargo",
        "Cargo.toml",
        "BENCHMARK.json",
        "BENCH_density.json",
    ]) {
        if path.extension().is_some_and(|e| e == "md") || path.ends_with(file!()) {
            continue;
        }
        vocabulary.extend(words(&text).map(str::to_string));
    }
    let external: HashSet<&str> = EXTERNAL.iter().map(|(name, _)| *name).collect();
    let mut missing = BTreeSet::new();
    let mut used = HashSet::new();
    let mut checked = 0;
    for path in code_spans(&design()).iter().filter_map(|s| rust_path(s)) {
        let last = path.rsplit("::").next().unwrap_or(&path);
        if last.len() < 4 {
            continue;
        }
        checked += 1;
        if vocabulary.contains(last) {
            continue;
        }
        if external.contains(last) {
            used.insert(last.to_string());
        } else {
            missing.insert(path);
        }
    }
    assert!(
        checked > 200,
        "only {checked} names checked: is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "DESIGN.md names what no source or artifact holds:\n{}",
        missing.into_iter().collect::<Vec<_>>().join("\n")
    );
    let stale: Vec<_> = external.iter().filter(|n| !used.contains(**n)).collect();
    assert!(
        stale.is_empty(),
        "external names DESIGN.md no longer cites: {stale:?}"
    );
}

#[test]
fn design_md_stays_within_its_limits() {
    let doc = design();
    let lines = doc.lines().count();
    assert!(
        lines <= MAX_LINES,
        "DESIGN.md has {lines} lines (limit {MAX_LINES})"
    );
    let pr_lines: Vec<usize> = doc
        .lines()
        .enumerate()
        .filter(|(_, l)| names_a_pr(l))
        .map(|(i, _)| i + 1)
        .collect();
    assert!(
        pr_lines.len() <= MAX_PR_LINES,
        "{} lines name a PR (limit {MAX_PR_LINES}): {pr_lines:?}",
        pr_lines.len()
    );
}

/// Whether a line names a PR number: `PR 12`, `PRs 13 and 20`.
fn names_a_pr(line: &str) -> bool {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    tokens.windows(2).any(|w| {
        matches!(w[0].trim_start_matches(['(', '*']), "PR" | "PRs")
            && w[1].starts_with(|c: char| c.is_ascii_digit())
    })
}

#[test]
fn the_scanners_read_what_they_are_meant_to() {
    let mut refs = Vec::new();
    section_refs("§10/§15 and", 0, &mut refs);
    section_refs("\\u{a7}12).", 0, &mut refs);
    section_refs("§11 and §16 have", 0, &mut refs);
    section_refs("§II-D.1", 0, &mut refs);
    assert_eq!(refs, [10, 15, 12, 11, 16]);
    assert_eq!(citations("see DESIGN.md\n//! §7, \"Wirelength\""), [7]);
    assert_eq!(citations("DESIGN.md §2, §3"), [2, 3]);
    assert_eq!(
        rust_path("FftPlan::process::<W>").as_deref(),
        Some("FftPlan::process")
    );
    assert_eq!(
        rust_path("RowIndex::outward(ty)").as_deref(),
        Some("RowIndex::outward")
    );
    assert_eq!(
        rust_path("netgrad::tests::\n whole_net").as_deref(),
        Some("netgrad::tests::whole_net")
    );
    assert_eq!(rust_path("--metrics"), None);
    assert_eq!(rust_path("flow.rt_seconds"), None);
    assert_eq!(rust_path("x − mean"), None);
    assert!(names_a_pr("until PR 19 every transform"));
    assert!(names_a_pr("(PRs 13 and 20)"));
    assert!(!names_a_pr("a PR with negative lines"));
}
