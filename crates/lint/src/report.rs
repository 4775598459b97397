//! Machine-readable lint posture: `lint_report.json`, built with the
//! same hand-rolled `obs::json` writer as the bench reports so the whole
//! flow shares one JSON channel.

use mep_obs::json::JsonObject;

use crate::engine::Outcome;

/// Renders the outcome as a single JSON object.
///
/// Schema (stable; additions only within a version):
///
/// ```json
/// {
///   "schema": "mep-lint-report-v2",
///   "files": 57, "new": 0, "suppressed": 9,
///   "suppression_errors": 0, "unused_suppressions": 0,
///   "rules": [ {"rule": "...", "new": 0, "suppressed": 2} ],
///   "suppressions": [ {"rule": "...", "path": "...", "line": 7, "reason": "..."} ],
///   "violations": [ {"rule": "...", "path": "...", "line": 3, "col": 9, "message": "..."} ]
/// }
/// ```
pub fn render_json(outcome: &Outcome) -> String {
    let mut root = JsonObject::new();
    root.field_str("schema", "mep-lint-report-v2")
        .field_u64("files", outcome.files as u64)
        .field_u64("new", outcome.new.len() as u64)
        .field_u64("suppressed", outcome.suppressed.len() as u64)
        .field_u64("suppression_errors", outcome.suppress_errors.len() as u64)
        .field_u64("unused_suppressions", outcome.unused.len() as u64);

    let mut rules = String::from("[");
    for (i, (rule, (new, suppressed))) in outcome.per_rule().iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        let mut o = JsonObject::new();
        o.field_str("rule", rule)
            .field_u64("new", *new as u64)
            .field_u64("suppressed", *suppressed as u64);
        rules.push_str(&o.finish());
    }
    rules.push(']');
    root.field_raw("rules", &rules);

    let mut sups = String::from("[");
    for (i, s) in outcome.suppressed.iter().enumerate() {
        if i > 0 {
            sups.push(',');
        }
        let mut o = JsonObject::new();
        o.field_str("rule", s.violation.rule)
            .field_str("path", &s.violation.path)
            .field_u64("line", s.violation.line as u64)
            .field_str("reason", &s.reason);
        sups.push_str(&o.finish());
    }
    sups.push(']');
    root.field_raw("suppressions", &sups);

    let mut viols = String::from("[");
    for (i, v) in outcome.new.iter().enumerate() {
        if i > 0 {
            viols.push(',');
        }
        let mut o = JsonObject::new();
        o.field_str("rule", v.rule)
            .field_str("path", &v.path)
            .field_u64("line", v.line as u64)
            .field_u64("col", v.col as u64)
            .field_str("message", &v.message);
        viols.push_str(&o.finish());
    }
    viols.push(']');
    root.field_raw("violations", &viols);

    root.finish()
}

/// Human summary printed at the end of a check run.
pub fn render_summary(outcome: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mep-lint: {} files checked — {} new, {} suppressed{}{}",
        outcome.files,
        outcome.new.len(),
        outcome.suppressed.len(),
        if outcome.suppress_errors.is_empty() {
            String::new()
        } else {
            format!(
                ", {} malformed suppression(s)",
                outcome.suppress_errors.len()
            )
        },
        if outcome.unused.is_empty() {
            String::new()
        } else {
            format!(", {} unused suppression(s)", outcome.unused.len())
        }
    );
    for (rule, (new, suppressed)) in outcome.per_rule() {
        let _ = writeln!(out, "  {rule:<16} new {new:>3}  suppressed {suppressed:>3}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Violation;
    use crate::engine::{Outcome, SuppressedViolation};

    #[test]
    fn json_shape_is_stable() {
        let mut o = Outcome {
            files: 2,
            ..Default::default()
        };
        o.new.push(Violation {
            rule: "no-panic-lib",
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 9,
            message: "`.unwrap()` can panic".into(),
            snippet: "x.unwrap()".into(),
        });
        o.suppressed.push(SuppressedViolation {
            reason: "poisoned mutex is fatal".into(),
            violation: Violation {
                rule: "no-panic-lib",
                path: "crates/x/src/b.rs".into(),
                line: 7,
                col: 1,
                message: "m".into(),
                snippet: "s".into(),
            },
        });
        let json = render_json(&o);
        assert!(json.starts_with(r#"{"schema":"mep-lint-report-v2""#));
        assert!(json.contains(r#""new":1"#));
        assert!(json.contains(r#""reason":"poisoned mutex is fatal""#));
        assert!(json.contains(r#""rules":[{"rule":"no-panic-lib","new":1,"suppressed":1}]"#));
    }
}
