//! The ratcheted panic surface, the linter's one interprocedural rule
//! (`panic-surface`): which *public* library functions can transitively
//! reach a panic site, and whether the daemon's protected roots
//! (configured in [`Config::protected_roots`]) are panic-free.
//!
//! `mep-lint check` computes the surface from the call graph, fails when
//! it *grew* relative to the committed `results/panic_surface.json`, and
//! rewrites the file with the freshly computed surface — so shrinkage
//! shows up as a git diff the author commits (CI runs
//! `git diff --exit-code` on it), and growth fails the run until the
//! author accepts it by committing the rewritten file. Entries are
//! keyed `(crate, path::fn)` with no line numbers, so moving code around
//! never churns the ratchet.
//!
//! A suppressed `no-panic-lib` diagnostic does NOT remove a panic site
//! from this analysis: the suppression silences the per-file diagnostic,
//! but the fact that the code can panic still propagates — only
//! `catch_unwind` actually contains a panic.

use std::collections::{BTreeMap, BTreeSet};

use mep_obs::json::escape_into;
use mep_obs::parse::{parse_json, JsonValue};

use crate::callgraph::WorkspaceCtx;
use crate::config::Config;
use crate::diag::Violation;
use crate::workspace::FileKind;

/// Rule name used for protected-root and surface-growth violations.
pub const RULE: &str = "panic-surface";

/// Default artifact path, relative to the workspace root.
pub const SURFACE_FILE: &str = "results/panic_surface.json";

/// Schema tag written into the artifact.
pub const SCHEMA: &str = "mep-panic-surface-v1";

/// The computed (or committed) panic surface.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PanicSurface {
    /// Per crate: sorted `"<rel_path>::<Type::>fn"` entries for every
    /// public library function that can transitively reach a panic site.
    pub crates: BTreeMap<String, BTreeSet<String>>,
    /// Per protected root: the (hopefully empty) list of witness chains.
    pub roots: Vec<(String, Vec<String>)>,
}

/// The surface plus the diagnostics derived while computing it.
#[derive(Debug)]
pub struct SurfaceAnalysis {
    /// The artifact to write.
    pub surface: PanicSurface,
    /// Per entry key: definition site and witness chain (for growth
    /// diagnostics).
    pub details: BTreeMap<String, (String, usize, String)>,
    /// Protected-root failures (always hard errors, never ratcheted).
    pub root_violations: Vec<Violation>,
}

/// Computes the panic surface and protected-root status of a workspace.
pub fn compute(ws: &WorkspaceCtx, cfg: &Config) -> SurfaceAnalysis {
    let (reaches, witness) = ws.panic_reachability();

    let mut crates: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut details = BTreeMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        let fd = &ws.files[f.file];
        if !reaches[id] || !f.is_pub || f.is_test || fd.file.kind != FileKind::Lib {
            continue;
        }
        let entry = format!("{}::{}", fd.file.rel_path, ws.fn_display(id));
        crates
            .entry(fd.file.crate_name.clone())
            .or_default()
            .insert(entry.clone());
        let (path, line) = ws.fn_location(id);
        details
            .entry(entry)
            .or_insert_with(|| (path, line, ws.witness_chain(id, &witness)));
    }

    let mut roots = Vec::new();
    let mut root_violations = Vec::new();
    for spec in &cfg.protected_roots {
        // a spec is vacuous when its crate isn't in the analyzed set
        // (single-file fixture runs); within the crate, a non-matching
        // spec is an error so renames can't silently disable the check
        let krate = spec.split("::").next().unwrap_or(spec);
        if !ws.files.iter().any(|fd| fd.file.crate_name == krate) {
            continue;
        }
        let ids = ws.find_roots(spec);
        if ids.is_empty() {
            root_violations.push(Violation {
                rule: RULE,
                path: SURFACE_FILE.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "protected root `{spec}` matches no function; update \
                     Config::protected_roots if it was renamed"
                ),
                snippet: String::new(),
            });
            roots.push((spec.clone(), Vec::new()));
            continue;
        }
        let mut chains = Vec::new();
        for id in ids {
            if reaches[id] {
                let chain = ws.witness_chain(id, &witness);
                let f = &ws.fns[id];
                let fd = &ws.files[f.file];
                let offset = fd.tokens.get(f.name_tok).map_or(0, |t| t.span.start);
                root_violations.push(fd.violation(
                    RULE,
                    offset,
                    format!(
                        "protected root `{spec}` can reach a panic outside catch_unwind: \
                         {chain}; a panic here kills the worker thread, not just the job"
                    ),
                ));
                chains.push(chain);
            }
        }
        chains.sort();
        roots.push((spec.clone(), chains));
    }

    SurfaceAnalysis {
        surface: PanicSurface { crates, roots },
        details,
        root_violations,
    }
}

impl PanicSurface {
    /// Entries present here but absent from `committed` — the surface
    /// growth that fails the run.
    pub fn grown_since(&self, committed: &PanicSurface) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (krate, entries) in &self.crates {
            let old = committed.crates.get(krate);
            for e in entries {
                if !old.is_some_and(|s| s.contains(e)) {
                    out.push((krate.clone(), e.clone()));
                }
            }
        }
        out
    }

    /// Total entry count.
    pub fn len(&self) -> usize {
        self.crates.values().map(BTreeSet::len).sum()
    }

    /// True when no function panics anywhere (unlikely in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the artifact: one entry per line so the ratchet diffs
    /// cleanly in review.
    pub fn render(&self) -> String {
        fn quoted(s: &str) -> String {
            let mut out = String::from("\"");
            escape_into(&mut out, s);
            out.push('"');
            out
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", quoted(SCHEMA)));
        out.push_str("  \"crates\": {");
        for (ci, (krate, entries)) in self.crates.iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: [", quoted(krate)));
            for (ei, e) in entries.iter().enumerate() {
                if ei > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      {}", quoted(e)));
            }
            out.push_str("\n    ]");
        }
        out.push_str("\n  },\n");
        out.push_str("  \"protected_roots\": [");
        for (ri, (root, chains)) in self.roots.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"root\": {}, \"reachable_panics\": [",
                quoted(root)
            ));
            for (ci, c) in chains.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      {}", quoted(c)));
            }
            if chains.is_empty() {
                out.push_str("] }");
            } else {
                out.push_str("\n    ] }");
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a committed artifact (missing fields are tolerated so the
    /// schema can grow).
    pub fn parse(text: &str) -> Result<PanicSurface, String> {
        let v = parse_json(text).map_err(|e| format!("panic_surface.json: {e}"))?;
        if v.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            return Err(format!(
                "panic_surface.json: unknown schema (expected {SCHEMA:?})"
            ));
        }
        let mut crates: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        if let Some(cs) = v.get("crates").and_then(JsonValue::as_obj) {
            for (krate, arr) in cs {
                let entries = arr
                    .as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|e| e.as_str().map(str::to_string))
                    .collect();
                crates.insert(krate.clone(), entries);
            }
        }
        let mut roots = Vec::new();
        if let Some(rs) = v.get("protected_roots").and_then(JsonValue::as_arr) {
            for r in rs {
                let name = r
                    .get("root")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string();
                let chains = r
                    .get("reachable_panics")
                    .and_then(JsonValue::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|e| e.as_str().map(str::to_string))
                    .collect();
                roots.push((name, chains));
            }
        }
        Ok(PanicSurface { crates, roots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PanicSurface {
        let mut crates = BTreeMap::new();
        crates.insert(
            "placer".to_string(),
            ["crates/placer/src/a.rs::f", "crates/placer/src/a.rs::T::g"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        PanicSurface {
            crates,
            roots: vec![("serve::claim_next_job".to_string(), Vec::new())],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let s = sample();
        let parsed = PanicSurface::parse(&s.render()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn growth_is_asymmetric() {
        let s = sample();
        let mut bigger = s.clone();
        bigger
            .crates
            .get_mut("placer")
            .unwrap()
            .insert("crates/placer/src/b.rs::h".to_string());
        bigger
            .crates
            .entry("obs".to_string())
            .or_default()
            .insert("crates/obs/src/m.rs::k".to_string());
        assert!(s.grown_since(&bigger).is_empty(), "shrinking is fine");
        let grown = bigger.grown_since(&s);
        assert_eq!(grown.len(), 2);
        assert_eq!(grown[0].0, "obs");
    }

    #[test]
    fn bad_schema_is_rejected() {
        assert!(PanicSurface::parse("{\"schema\":\"nope\"}").is_err());
        assert!(PanicSurface::parse("not json").is_err());
    }
}
