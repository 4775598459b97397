//! Workspace discovery: which `.rs` files exist, what role each plays
//! (library, binary, test, bench, example), and which crate owns it.
//!
//! Classification is by path convention — the same convention Cargo uses
//! for target auto-discovery — so the linter needs no manifest parsing:
//!
//! * `crates/<c>/src/bin/**`, `src/bin/**`, `src/main.rs` → binary
//! * `crates/<c>/tests/**`, `tests/**` → integration test
//! * `crates/<c>/benches/**` → bench
//! * `examples/**` → example
//! * anything else under a `src/` → library source
//!
//! `vendor/` (offline third-party shims), `target/`, and `results/` are
//! never linted.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The role a source file plays in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: the code the panic-freedom rules protect.
    Lib,
    /// Binary target (`src/bin/`, `src/main.rs`): may panic at top level.
    Bin,
    /// Integration test.
    Test,
    /// Criterion-style bench.
    Bench,
    /// Example.
    Example,
}

impl FileKind {
    /// True for test-adjacent code where panics are the failure mechanism.
    pub fn is_test_like(self) -> bool {
        matches!(self, FileKind::Test | FileKind::Bench | FileKind::Example)
    }

    /// Short label used in diagnostics and the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            FileKind::Lib => "lib",
            FileKind::Bin => "bin",
            FileKind::Test => "test",
            FileKind::Bench => "bench",
            FileKind::Example => "example",
        }
    }
}

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across hosts,
    /// used in diagnostics, suppression bookkeeping, and the baseline).
    pub rel_path: String,
    /// Role (library / bin / test / bench / example).
    pub kind: FileKind,
    /// Owning crate: the directory name under `crates/`, or the workspace
    /// package name for root `src/`.
    pub crate_name: String,
    /// True for a crate root (`src/lib.rs`), where `#![forbid(unsafe_code)]`
    /// must live.
    pub is_crate_root: bool,
}

/// Name used for files under the workspace root's own `src/`.
pub const ROOT_CRATE: &str = "moreau-placer";

/// Directories under the workspace root that are never linted.
const EXCLUDED_TOP_DIRS: &[&str] = &["target", "vendor", "results", ".git", ".github"];

/// Classifies `rel_path` (forward-slash, workspace-relative). Returns
/// `None` for files the linter does not cover (e.g. excluded dirs).
pub fn classify(rel_path: &str) -> Option<SourceFile> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let first = rel_path.split('/').next().unwrap_or("");
    if EXCLUDED_TOP_DIRS.contains(&first) {
        return None;
    }

    let (crate_name, in_crate) = if let Some(rest) = rel_path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        (name.to_string(), tail)
    } else {
        (ROOT_CRATE.to_string(), rel_path)
    };

    let kind = if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
        FileKind::Bin
    } else if in_crate.starts_with("tests/") {
        FileKind::Test
    } else if in_crate.starts_with("benches/") {
        FileKind::Bench
    } else if in_crate.starts_with("examples/") {
        FileKind::Example
    } else if in_crate.starts_with("src/") {
        FileKind::Lib
    } else {
        // stray .rs outside the conventional layout (e.g. build.rs):
        // treat as library source so rules still apply
        FileKind::Lib
    };

    Some(SourceFile {
        rel_path: rel_path.to_string(),
        kind,
        crate_name,
        is_crate_root: in_crate == "src/lib.rs",
    })
}

/// Walks the workspace at `root` and returns every linted source file,
/// sorted by path so diagnostics, the baseline, and the JSON report are
/// deterministic regardless of directory iteration order.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    Ok(paths.iter().filter_map(|p| classify(p)).collect())
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if dir == root && EXCLUDED_TOP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            if name.starts_with('.') {
                continue;
            }
            // a package below the root with a `[workspace]` table of its own
            // (`examples/bench_e2e`) is another workspace: cargo builds none
            // of it with this one and nothing in here can call into it
            if is_workspace_root(&path) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative(root, &path));
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/")
}

/// Locates the workspace root by walking up from `start` until a
/// `Cargo.toml` containing a `[workspace]` table is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if is_workspace_root(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Whether `dir` holds a `Cargo.toml` with a `[workspace]` table.
fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_convention() {
        let f = classify("crates/wirelength/src/moreau.rs").unwrap();
        assert_eq!(f.kind, FileKind::Lib);
        assert_eq!(f.crate_name, "wirelength");
        assert!(!f.is_crate_root);

        let f = classify("crates/wirelength/src/lib.rs").unwrap();
        assert!(f.is_crate_root);

        assert_eq!(
            classify("crates/bench/src/bin/paper_claims.rs")
                .unwrap()
                .kind,
            FileKind::Bin
        );
        assert_eq!(
            classify("crates/placer/tests/guard_recovery.rs")
                .unwrap()
                .kind,
            FileKind::Test
        );
        assert_eq!(
            classify("crates/bench/benches/waterfill.rs").unwrap().kind,
            FileKind::Bench
        );
        assert_eq!(
            classify("examples/quickstart.rs").unwrap().kind,
            FileKind::Example
        );

        let f = classify("src/lib.rs").unwrap();
        assert_eq!(f.crate_name, ROOT_CRATE);
        assert!(f.is_crate_root);
        assert_eq!(classify("src/bin/mep.rs").unwrap().kind, FileKind::Bin);

        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("target/debug/build/out.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn discover_skips_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("mep-lint-discover-{}", std::process::id()));
        let nested = root.join("examples/own_workspace");
        fs::create_dir_all(nested.join("src")).unwrap();
        fs::create_dir_all(root.join("src")).unwrap();
        fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        fs::write(root.join("src/lib.rs"), "").unwrap();
        fs::write(root.join("examples/quickstart.rs"), "").unwrap();
        fs::write(nested.join("Cargo.toml"), "[package]\n[workspace]\n").unwrap();
        fs::write(nested.join("src/main.rs"), "").unwrap();
        let found: Vec<String> = discover(&root)
            .unwrap()
            .into_iter()
            .map(|f| f.rel_path)
            .collect();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(found, ["examples/quickstart.rs", "src/lib.rs"]);
    }
}
