//! `results/README.md`'s artifact table is the manifest of the committed
//! artifacts: every file under `results/` (apart from the README itself
//! and the per-run reports `.gitignore` keeps out of the tree) and every
//! `BENCH_*.json` at the repo root has a row, and every row names a file.
//!
//! A row names its files by the backticked names of its first cell:
//! `fig1a_wa_nonconvexity.{csv,svg}` stands for both extensions, and a `*`
//! matches any run of characters (`fig3_*.svg`).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The artifacts on disk, by the name a row uses: the path below
/// `results/`, or the file name of a `BENCH_*.json` at the root.
fn artifacts(root: &Path) -> BTreeSet<String> {
    let ignored: BTreeSet<String> = fs::read_to_string(root.join(".gitignore"))
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.trim().strip_prefix("/results/"))
        .map(str::to_string)
        .collect();
    let mut out = BTreeSet::new();
    let mut stack = vec![root.join("results")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("results/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let rel = path
                .strip_prefix(root.join("results"))
                .expect("below results/")
                .to_string_lossy()
                .replace('\\', "/");
            if rel != "README.md" && !ignored.contains(&rel) {
                out.insert(rel);
            }
        }
    }
    for entry in fs::read_dir(root).expect("the root is readable") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            out.insert(name.into_owned());
        }
    }
    out
}

/// The name patterns of each row of the artifact table, in table order.
fn rows(readme: &str) -> Vec<Vec<String>> {
    readme
        .lines()
        .skip_while(|l| !l.starts_with("| Artifact |"))
        .skip(2) // the header and its rule
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let first = row.split('|').nth(1).unwrap_or("");
            first
                .split('`')
                .skip(1)
                .step_by(2)
                .flat_map(expand_braces)
                .collect()
        })
        .collect()
}

/// `a.{csv,svg}` → `a.csv`, `a.svg`; a name without braces is itself.
fn expand_braces(name: &str) -> Vec<String> {
    match (name.find('{'), name.find('}')) {
        (Some(open), Some(close)) if open < close => name[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &name[..open], &name[close + 1..]))
            .collect(),
        _ => vec![name.to_string()],
    }
}

/// Whether `name` matches `pattern`, where `*` matches any run of
/// characters.
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            let Some(rest) = name.strip_prefix(head) else {
                return false;
            };
            (0..=rest.len())
                .filter(|&i| rest.is_char_boundary(i))
                .any(|i| matches(tail, &rest[i..]))
        }
    }
}

/// The manifest's two failures: artifacts no row names, and row patterns
/// that name no artifact.
fn audit(root: &Path) -> (Vec<String>, Vec<String>) {
    let readme = fs::read_to_string(root.join("results/README.md")).expect("results/README.md");
    let patterns: Vec<String> = rows(&readme).into_iter().flatten().collect();
    let files = artifacts(root);
    let unlisted = files
        .iter()
        .filter(|f| !patterns.iter().any(|p| matches(p, f)))
        .cloned()
        .collect();
    let stale = patterns
        .iter()
        .filter(|p| !files.iter().any(|f| matches(p, f)))
        .cloned()
        .collect();
    (unlisted, stale)
}

#[test]
fn every_artifact_has_a_manifest_row_and_every_row_a_file() {
    let (unlisted, stale) = audit(root());
    assert!(
        unlisted.is_empty(),
        "files with no row in results/README.md's artifact table: {unlisted:?}"
    );
    assert!(
        stale.is_empty(),
        "rows of results/README.md's artifact table that match no file: {stale:?}"
    );
}

#[test]
fn the_manifest_reads_the_table_as_written() {
    let readme = "intro\n\n| Artifact | Producer |\n|---|---|\n\
                  | `a.{csv,svg}` | `bin` |\n| `b.csv`, `fig3_*.svg` | x |\n\
                  | `BENCH_x.json` (repo root) | y |\n\nafter\n| `not_a_row` |\n";
    assert_eq!(
        rows(readme),
        [
            vec!["a.csv", "a.svg"],
            vec!["b.csv", "fig3_*.svg"],
            vec!["BENCH_x.json"],
        ]
    );
    assert!(matches("fig3_*.svg", "fig3_newblue1.svg"));
    assert!(matches("fig3_*.svg", "fig3_.svg"));
    assert!(!matches("fig3_*.svg", "fig3_newblue1.csv"));
    assert!(!matches("fig3_*.svg", "xfig3_a.svg"));
    assert!(matches("a.csv", "a.csv"));
    assert!(!matches("a.csv", "a.csv.bak"));

    // the whole table is read: its rows name more than a handful of
    // files, among them both brace forms and the glob
    let readme = fs::read_to_string(root().join("results/README.md")).expect("README");
    let names: Vec<String> = rows(&readme).into_iter().flatten().collect();
    for expected in [
        "fig1a_wa_nonconvexity.csv",
        "fig1a_wa_nonconvexity.svg",
        "fig3_*.svg",
        "BENCH_density.json",
        "lint_report.json",
    ] {
        assert!(names.iter().any(|n| n == expected), "{expected}: {names:?}");
    }
}
