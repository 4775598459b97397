//! The check engine: lexes and item-parses every file once, runs the
//! per-file rules, builds the workspace call graph for the panic-surface
//! pass, applies suppressions, masks against the baseline, and aggregates
//! the outcome.

use std::collections::BTreeMap;
use std::path::Path;

use crate::baseline::Baseline;
use crate::callgraph::WorkspaceCtx;
use crate::config::Config;
use crate::context::FileData;
use crate::diag::Violation;
use crate::rules::{self, Rule};
use crate::suppress::{self, SuppressError, Suppression};
use crate::surface::{self, PanicSurface};
use crate::workspace::{self, SourceFile};

/// A suppression that fired, with what it suppressed.
#[derive(Debug, Clone)]
pub struct SuppressedViolation {
    /// The violation that was silenced.
    pub violation: Violation,
    /// The justification from the `lint:allow` comment.
    pub reason: String,
}

/// Aggregate result of a check run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations that fail the run, in (path, line) order.
    pub new: Vec<Violation>,
    /// Violations masked by the committed baseline.
    pub baselined: Vec<Violation>,
    /// Violations silenced by inline suppressions (with reasons).
    pub suppressed: Vec<SuppressedViolation>,
    /// Malformed / unknown-rule suppression comments (always fail).
    pub suppress_errors: Vec<(String, SuppressError)>,
    /// Well-formed suppressions that silenced nothing (always fail: a
    /// stale allowance must not outlive its finding).
    pub unused: Vec<(String, Suppression)>,
    /// Number of files checked.
    pub files: usize,
    /// The computed panic surface (the `results/panic_surface.json`
    /// artifact), present after any check.
    pub panic_surface: Option<PanicSurface>,
}

impl Outcome {
    /// True when the run should exit nonzero.
    pub fn failed(&self) -> bool {
        !self.new.is_empty() || !self.suppress_errors.is_empty() || !self.unused.is_empty()
    }

    /// Per-rule `(new, baselined, suppressed)` counts, sorted by rule.
    pub fn per_rule(&self) -> BTreeMap<&'static str, (usize, usize, usize)> {
        let mut map: BTreeMap<&'static str, (usize, usize, usize)> = BTreeMap::new();
        for v in &self.new {
            map.entry(v.rule).or_default().0 += 1;
        }
        for v in &self.baselined {
            map.entry(v.rule).or_default().1 += 1;
        }
        for s in &self.suppressed {
            map.entry(s.violation.rule).or_default().2 += 1;
        }
        map
    }
}

/// The engine: rule set + configuration + baseline + panic ratchet.
pub struct Engine {
    /// Rule configuration.
    pub config: Config,
    /// Violation allowances.
    pub baseline: Baseline,
    /// The committed panic surface; when present, any growth of the
    /// computed surface relative to it is a violation.
    pub panic_ratchet: Option<PanicSurface>,
    rules: Vec<Box<dyn Rule>>,
}

impl Engine {
    /// Builds an engine with the full rule set and no panic ratchet.
    pub fn new(config: Config, baseline: Baseline) -> Self {
        Self {
            config,
            baseline,
            panic_ratchet: None,
            rules: rules::all_rules(),
        }
    }

    /// Checks one in-memory file, folding results into `outcome`. The
    /// panic-surface pass sees a one-file workspace, which is exactly what
    /// the fixture tests want.
    pub fn check_source(&self, file: &SourceFile, src: &str, outcome: &mut Outcome) {
        self.check_sources(vec![(file.clone(), src.to_string())], outcome);
    }

    /// Checks a set of in-memory files as one workspace.
    pub fn check_sources(&self, sources: Vec<(SourceFile, String)>, outcome: &mut Outcome) {
        let files: Vec<FileData> = sources
            .into_iter()
            .map(|(file, src)| FileData::new(file, src))
            .collect();

        // phase 1: per-file rules
        let mut raw_by_file: Vec<Vec<Violation>> = files
            .iter()
            .map(|fd| {
                let mut raw = Vec::new();
                for rule in &self.rules {
                    rule.check(fd, &self.config, &mut raw);
                }
                raw
            })
            .collect();

        // phase 2: the panic surface over the workspace call graph
        let ws = WorkspaceCtx::build(files);
        let analysis = surface::compute(&ws, &self.config);
        let mut ws_raw = analysis.root_violations;
        if let Some(ratchet) = &self.panic_ratchet {
            for (krate, entry) in analysis.surface.grown_since(ratchet) {
                let (path, line, chain) = analysis.details.get(&entry).cloned().unwrap_or((
                    surface::SURFACE_FILE.to_string(),
                    1,
                    String::new(),
                ));
                ws_raw.push(Violation {
                    rule: surface::RULE,
                    path,
                    line,
                    col: 1,
                    message: format!(
                        "public panic surface grew: [{krate}] {entry} newly reaches a \
                         panic ({chain}); make it panic-free or consciously re-ratchet \
                         with `mep-lint baseline`"
                    ),
                    snippet: String::new(),
                });
            }
        }

        // route workspace violations to their file for the suppression
        // pass; violations with no backing file (missing protected-root
        // specs) fail directly
        let index: BTreeMap<&str, usize> = ws
            .files
            .iter()
            .enumerate()
            .map(|(i, fd)| (fd.file.rel_path.as_str(), i))
            .collect();
        for v in ws_raw {
            match index.get(v.path.as_str()) {
                Some(&i) => raw_by_file[i].push(v),
                None => outcome.new.push(v),
            }
        }

        // phase 3: suppression + baseline passes, per file
        let known: Vec<&str> = self
            .rules
            .iter()
            .map(|r| r.name())
            .chain([surface::RULE])
            .collect();
        for (fd, raw) in ws.files.iter().zip(raw_by_file) {
            self.apply_filters(fd, raw, &known, outcome);
            outcome.files += 1;
        }
        outcome.panic_surface = Some(analysis.surface);
    }

    /// Applies the suppression and baseline passes to one file's raw
    /// violations; a suppression naming a rule outside `known` is an error.
    fn apply_filters(
        &self,
        fd: &FileData,
        raw: Vec<Violation>,
        known: &[&str],
        outcome: &mut Outcome,
    ) {
        let (suppressions, errors) = suppress::parse(&fd.src, &fd.tokens, &fd.lines, known);
        for e in errors {
            outcome.suppress_errors.push((fd.file.rel_path.clone(), e));
        }

        // suppression pass: a violation is silenced by a suppression with
        // the same rule whose target line matches
        let mut used = vec![false; suppressions.len()];
        let mut remaining: Vec<Violation> = Vec::new();
        for v in raw {
            let hit = suppressions
                .iter()
                .position(|s| s.rule == v.rule && s.target_line == v.line);
            match hit {
                Some(i) => {
                    used[i] = true;
                    outcome.suppressed.push(SuppressedViolation {
                        reason: suppressions[i].reason.clone(),
                        violation: v,
                    });
                }
                None => remaining.push(v),
            }
        }
        for (i, s) in suppressions.into_iter().enumerate() {
            if !used[i] {
                outcome.unused.push((fd.file.rel_path.clone(), s));
            }
        }

        // baseline pass: per rule, a file within its allowance is fully
        // masked; exceeding it reports every instance (the offender is
        // not identifiable once line numbers shift, so show all)
        let mut by_rule: BTreeMap<&'static str, Vec<Violation>> = BTreeMap::new();
        for v in remaining {
            by_rule.entry(v.rule).or_default().push(v);
        }
        for (rule, vs) in by_rule {
            let allowed = self.baseline.allowance(rule, &fd.file.rel_path);
            if vs.len() <= allowed {
                outcome.baselined.extend(vs);
            } else {
                outcome.new.extend(vs.into_iter().map(|mut v| {
                    if allowed > 0 {
                        v.message = format!(
                            "{} [file exceeds its baseline allowance of {allowed} for {rule}]",
                            v.message
                        );
                    }
                    v
                }));
            }
        }
    }

    /// Checks every discovered file under `root`.
    pub fn check_workspace(&self, root: &Path) -> Result<Outcome, String> {
        let files = workspace::discover(root)
            .map_err(|e| format!("discovering sources under {}: {e}", root.display()))?;
        let mut sources = Vec::with_capacity(files.len());
        for file in files {
            let src = std::fs::read_to_string(root.join(&file.rel_path))
                .map_err(|e| format!("reading {}: {e}", file.rel_path))?;
            sources.push((file, src));
        }
        let mut outcome = Outcome::default();
        self.check_sources(sources, &mut outcome);
        outcome.new.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
        Ok(outcome)
    }

    /// Regenerates a baseline that exactly covers the current violations
    /// (suppressed ones stay suppressed, not baselined), plus the freshly
    /// computed panic surface to commit as the new ratchet.
    /// `panic-surface` violations are never baselined: surface growth is
    /// ratcheted through `results/panic_surface.json` and protected-root
    /// reachability is always a hard error.
    pub fn regenerate_baseline(&self, root: &Path) -> Result<(Baseline, PanicSurface), String> {
        // run against an empty baseline and no ratchet so every
        // unsuppressed violation is visible
        let fresh = Engine::new(self.config.clone(), Baseline::empty());
        let outcome = fresh.check_workspace(root)?;
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for v in &outcome.new {
            if v.rule == surface::RULE {
                continue;
            }
            *counts
                .entry((v.rule.to_string(), v.path.clone()))
                .or_default() += 1;
        }
        let mut baseline = Baseline::empty();
        for ((rule, path), count) in counts {
            baseline.set(&rule, &path, count);
        }
        Ok((baseline, outcome.panic_surface.unwrap_or_default()))
    }

    /// Rule list for `mep-lint rules`.
    pub fn describe_rules(&self) -> Vec<(&'static str, &'static str)> {
        let mut out: Vec<(&'static str, &'static str)> =
            self.rules.iter().map(|r| (r.name(), r.summary())).collect();
        out.push((
            surface::RULE,
            "the public panic surface may only shrink, and the daemon's protected \
             roots must be panic-free outside catch_unwind",
        ));
        out
    }
}
