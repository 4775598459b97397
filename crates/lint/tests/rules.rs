//! Per-rule fixture tests: for every rule, a positive case (the rule
//! fires), a negative case (it stays quiet), and a suppressed case
//! (`lint:allow` with a reason silences it).
//! Plus the end-to-end acceptance check from the issue: an injected
//! violation fails the run with a `file:line:col rule message` diagnostic.

use mep_lint::{workspace, Config, Engine, Outcome};

/// Lints `src` as if it lived at `rel_path`, under `config` (the
/// panic-surface fixtures need a protected root in the fixture crate).
fn check_cfg(rel_path: &str, src: &str, config: Config) -> Outcome {
    let file = workspace::classify(rel_path).expect("fixture path must classify");
    let engine = Engine::new(config);
    let mut outcome = Outcome::default();
    engine.check_source(&file, src, &mut outcome);
    outcome
}

fn check(rel_path: &str, src: &str) -> Outcome {
    check_cfg(rel_path, src, Config::default())
}

/// New violations for one rule only.
fn new_for<'a>(outcome: &'a Outcome, rule: &str) -> Vec<&'a mep_lint::Violation> {
    outcome.new.iter().filter(|v| v.rule == rule).collect()
}

// Fixture paths: a library file in a result-affecting crate, a declared
// hot module, and a non-result-affecting crate (which the default config
// does not name in `protected_roots`).
const LIB: &str = "crates/placer/src/fixture.rs";
const HOT: &str = "crates/wirelength/src/moreau.rs";
const COLD_CRATE: &str = "crates/obs/src/fixture.rs";

// --- no-panic-lib -----------------------------------------------------------

#[test]
fn no_panic_lib_positive() {
    let out = check(
        LIB,
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let vs = new_for(&out, "no-panic-lib");
    assert_eq!(vs.len(), 1);
    assert_eq!((vs[0].line, vs[0].col), (2, 7));
    assert!(vs[0].message.contains("unwrap"));
    assert!(out.failed());

    let out = check(LIB, "pub fn f() {\n    todo!()\n}\n");
    assert_eq!(new_for(&out, "no-panic-lib").len(), 1);
}

#[test]
fn no_panic_lib_negative() {
    // strings and comments never fire (token-level checking)
    let quiet = r#"
// x.unwrap() in a comment
pub fn f() -> &'static str {
    "x.unwrap() and panic!(...) in a string"
}
"#;
    assert!(new_for(&check(LIB, quiet), "no-panic-lib").is_empty());

    // test code inside a library file is exempt
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(new_for(&check(LIB, in_test), "no-panic-lib").is_empty());

    // binaries, integration tests, and benches may panic
    for path in [
        "crates/placer/src/bin/tool.rs",
        "crates/placer/tests/it.rs",
        "crates/bench/benches/b.rs",
    ] {
        let out = check(path, "pub fn f() { panic!(\"boom\"); }\n");
        assert!(new_for(&out, "no-panic-lib").is_empty(), "{path}");
    }

    // `std::panic::catch_unwind` is a path, not the macro
    let path_use = "pub fn f() { let _ = std::panic::catch_unwind(|| 1); }\n";
    assert!(new_for(&check(LIB, path_use), "no-panic-lib").is_empty());
}

#[test]
fn no_panic_lib_looks_past_comments_as_the_panic_surface_does() {
    // a comment between the dot and the method does not hide the call
    let split = "pub fn f(x: Option<u32>) -> u32 {\n    x. /* checked */ unwrap()\n}\n";
    assert_eq!(new_for(&check(LIB, split), "no-panic-lib").len(), 1);
}

#[test]
fn no_panic_lib_flags_partial_cmp_unwrap_and_expect() {
    // a NaN-unsafe comparator is a panic like any other, and the message
    // points at the total order
    let src =
        "pub fn sort(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let out = check(LIB, src);
    let vs = new_for(&out, "no-panic-lib");
    assert_eq!(vs.len(), 1);
    assert!(vs[0].message.contains("f64::total_cmp"));
    assert!(out.failed());

    let src = "pub fn sort(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\"));\n}\n";
    let out = check(LIB, src);
    assert_eq!(new_for(&out, "no-panic-lib").len(), 1);
    assert!(out.failed());
}

#[test]
fn no_panic_lib_passes_total_cmp_and_unwrap_or() {
    let src = "pub fn sort(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.total_cmp(b));\n}\n";
    let out = check(LIB, src);
    assert!(out.new.is_empty(), "{:?}", out.new);
    assert!(!out.failed());

    // handling the None case is fine
    let src = "pub fn cmp(a: f64, b: f64) -> std::cmp::Ordering {\n    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)\n}\n";
    let out = check(LIB, src);
    assert!(out.new.is_empty(), "{:?}", out.new);
    assert!(!out.failed());
}

#[test]
fn no_panic_lib_suppressed() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-panic-lib): fixture-justified invariant\n    x.unwrap()\n}\n";
    let out = check(LIB, src);
    assert!(out.new.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].reason, "fixture-justified invariant");
    assert!(!out.failed());
}

// --- determinism ------------------------------------------------------------

#[test]
fn determinism_positive() {
    let src = "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n";
    let out = check(LIB, src);
    assert!(!new_for(&out, "determinism").is_empty());

    let src = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(new_for(&check(LIB, src), "determinism").len(), 1);

    let src = "pub fn f() -> std::thread::ThreadId {\n    std::thread::current().id()\n}\n";
    assert!(!new_for(&check(LIB, src), "determinism").is_empty());
}

#[test]
fn determinism_negative() {
    // non-result-affecting crates (telemetry) may use clocks and hash maps
    let src = "use std::collections::HashMap;\npub fn f() {\n    let _ = std::time::Instant::now();\n    let _: HashMap<u32, u32> = HashMap::new();\n}\n";
    assert!(new_for(&check(COLD_CRATE, src), "determinism").is_empty());

    // the clock whitelist covers placer's telemetry module
    let src = "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let out = check("crates/placer/src/telemetry.rs", src);
    assert!(new_for(&out, "determinism").is_empty());

    // BTreeMap is the sanctioned container
    let src = "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> {\n    BTreeMap::new()\n}\n";
    assert!(new_for(&check(LIB, src), "determinism").is_empty());
}

#[test]
fn determinism_covers_declared_paths_outside_result_affecting_crates() {
    // the bench crate is not result-affecting, but the PEKO harness
    // module is individually declared deterministic: its ratios are
    // compared exactly against a committed baseline by the CI guard
    let src = "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n";
    let out = check("crates/bench/src/peko.rs", src);
    assert!(
        !new_for(&out, "determinism").is_empty(),
        "deterministic_paths entry must extend the rule to the harness"
    );
    // a sibling bench module stays exempt
    let out = check("crates/bench/src/flow.rs", src);
    assert!(new_for(&out, "determinism").is_empty());

    // wall clocks are equally banned in declared-deterministic paths
    let src = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let out = check("crates/bench/src/peko.rs", src);
    assert_eq!(new_for(&out, "determinism").len(), 1);
}

#[test]
fn determinism_suppressed() {
    let src = "use std::collections::HashMap; // lint:allow(determinism): name-keyed lookup, never iterated\npub struct S {\n    // lint:allow(determinism): name-keyed lookup, never iterated\n    pub by_name: HashMap<String, u32>,\n}\n";
    let out = check(LIB, src);
    assert!(new_for(&out, "determinism").is_empty());
    assert_eq!(out.suppressed.len(), 2);
}

// --- float-eq ---------------------------------------------------------------

#[test]
fn float_eq_positive() {
    let src = "pub fn f(x: f64) -> bool {\n    x == 0.0\n}\n";
    let out = check(LIB, src);
    let vs = new_for(&out, "float-eq");
    assert_eq!(vs.len(), 1);
    assert!(vs[0].message.contains("tolerance"));

    let src = "pub fn f(x: f64) -> bool {\n    x != f64::INFINITY\n}\n";
    assert_eq!(new_for(&check(LIB, src), "float-eq").len(), 1);

    // literal on the left
    let src = "pub fn f(x: f64) -> bool {\n    1.5 == x\n}\n";
    assert_eq!(new_for(&check(LIB, src), "float-eq").len(), 1);
}

#[test]
fn float_eq_negative() {
    for quiet in [
        "pub fn f(x: f64) -> bool { x < 0.0 }\n",
        "pub fn f(x: u32) -> bool { x == 0 }\n",
        "pub fn f(x: f64) -> bool { (x - 1.0).abs() < 1e-12 }\n",
        "pub fn f(x: f64) -> bool { x.is_nan() }\n",
    ] {
        assert!(
            new_for(&check(LIB, quiet), "float-eq").is_empty(),
            "{quiet}"
        );
    }
}

#[test]
fn float_eq_suppressed() {
    let src = "pub fn f(x: f64) -> bool {\n    // lint:allow(float-eq): exact-zero sentinel set by construction\n    x == 0.0\n}\n";
    let out = check(LIB, src);
    assert!(out.new.is_empty());
    assert_eq!(out.suppressed.len(), 1);
}

// --- no-alloc-hot -----------------------------------------------------------

#[test]
fn no_alloc_hot_positive() {
    let src = "pub fn f() -> Vec<f64> {\n    let mut v = Vec::new();\n    v.push(1.0);\n    v\n}\n";
    let out = check(HOT, src);
    assert_eq!(new_for(&out, "no-alloc-hot").len(), 2); // Vec::new + .push

    let src = "pub fn g(n: usize) -> String {\n    format!(\"{n}\")\n}\n";
    assert_eq!(new_for(&check(HOT, src), "no-alloc-hot").len(), 1);
}

#[test]
fn no_alloc_hot_negative() {
    // the same allocation outside a declared hot module is fine
    let src = "pub fn f() -> Vec<f64> {\n    let mut v = Vec::new();\n    v.push(1.0);\n    v\n}\n";
    assert!(new_for(&check(LIB, src), "no-alloc-hot").is_empty());

    // writing into a preallocated slice is the sanctioned pattern
    let src =
        "pub fn f(out: &mut [f64]) {\n    for v in out.iter_mut() {\n        *v = 0.0;\n    }\n}\n";
    assert!(new_for(&check(HOT, src), "no-alloc-hot").is_empty());

    // tests inside a hot module may allocate
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = vec![1.0]; }\n}\n";
    assert!(new_for(&check(HOT, src), "no-alloc-hot").is_empty());
}

#[test]
fn no_alloc_hot_suppressed() {
    let src = "pub fn plan() -> Vec<f64> {\n    // lint:allow(no-alloc-hot): one-time plan construction, not the per-iteration path\n    Vec::new()\n}\n";
    let out = check(HOT, src);
    assert!(out.new.is_empty());
    assert_eq!(out.suppressed.len(), 1);
}

// --- forbid-unsafe ----------------------------------------------------------

#[test]
fn forbid_unsafe_positive() {
    let root = "crates/placer/src/lib.rs";
    let out = check(root, "//! A crate.\npub mod fixture;\n");
    let vs = new_for(&out, "forbid-unsafe");
    assert_eq!(vs.len(), 1);
    assert!(vs[0].message.contains("missing"));

    // `deny` is a distinct, weaker finding
    let out = check(root, "#![deny(unsafe_code)]\npub mod fixture;\n");
    let vs = new_for(&out, "forbid-unsafe");
    assert_eq!(vs.len(), 1);
    assert!(vs[0].message.contains("deny"));
}

#[test]
fn forbid_unsafe_negative() {
    let root = "crates/placer/src/lib.rs";
    let src = "//! A crate.\n#![forbid(unsafe_code)]\npub mod fixture;\n";
    assert!(new_for(&check(root, src), "forbid-unsafe").is_empty());

    // non-root files are not checked for the attribute
    let out = check(LIB, "pub mod fixture;\n");
    assert!(new_for(&out, "forbid-unsafe").is_empty());
}

#[test]
fn forbid_unsafe_deny_suppressible() {
    let root = "crates/placer/src/lib.rs";
    let src = "// lint:allow(forbid-unsafe): one audited unsafe block in a child module\n#![deny(unsafe_code)]\npub mod fixture;\n";
    let out = check(root, src);
    assert!(out.new.is_empty());
    assert_eq!(out.suppressed.len(), 1);
}

// --- suppression grammar ----------------------------------------------------

#[test]
fn suppression_without_reason_is_an_error() {
    let src =
        "pub fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-panic-lib)\n    x.unwrap()\n}\n";
    let out = check(LIB, src);
    assert_eq!(out.suppress_errors.len(), 1);
    assert!(out.failed());
}

#[test]
fn suppression_of_unknown_rule_is_an_error() {
    // a retired rule name is as unknown as a typo: a hard error, never a
    // silent no-op
    for rule in [
        "no-such-rule",
        "lock-order",
        "atomic-ordering",
        "nan-unsafe-cmp",
    ] {
        let src = format!("// lint:allow({rule}): whatever\npub fn f() {{}}\n");
        let out = check(LIB, &src);
        assert_eq!(out.suppress_errors.len(), 1, "{rule}");
        assert!(out.suppress_errors[0].1.message.contains(rule), "{rule}");
        assert!(out.failed(), "{rule}");
    }
}

#[test]
fn unused_suppression_fails_the_run() {
    let src = "// lint:allow(float-eq): nothing here actually compares floats\npub fn f() {}\n";
    let out = check(LIB, src);
    assert_eq!(out.unused.len(), 1);
    assert!(out.new.is_empty());
    assert!(out.failed());
}

// --- acceptance: injected violation fails with file:line diagnostics --------

#[test]
fn injected_violation_yields_file_line_rule_diagnostic() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let out = check(LIB, src);
    assert!(out.failed(), "an injected violation must fail the run");
    let rendered = out.new[0].to_string();
    assert!(
        rendered.starts_with("crates/placer/src/fixture.rs:2:7 no-panic-lib "),
        "diagnostic must be `file:line:col rule message`, got: {rendered}"
    );
}

// --- panic-surface ----------------------------------------------------------

/// A config whose only protected root lives in the fixture crate.
fn rooted_config() -> Config {
    Config {
        protected_roots: vec!["obs::root".to_string()],
        ..Config::default()
    }
}

// The panic is one call away from the root: only the transitive analysis
// can see it.
const INDIRECT_PANIC: &str = "\
fn helper(x: Option<u32>) -> u32 {
    x.unwrap()
}
pub fn root() -> u32 {
    helper(None)
}
";

#[test]
fn panic_surface_positive_two_function_indirect_panic() {
    let out = check_cfg(COLD_CRATE, INDIRECT_PANIC, rooted_config());
    let vs = new_for(&out, "panic-surface");
    assert_eq!(vs.len(), 1, "{:?}", out.new);
    assert!(vs[0].message.contains("protected root `obs::root`"));
    assert!(
        vs[0].message.contains("helper"),
        "witness chain must name the intermediate fn: {}",
        vs[0].message
    );
}

#[test]
fn panic_surface_negative() {
    // panic-free helper: nothing to reach
    let src = "\
fn helper(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}
pub fn root() -> u32 {
    helper(None)
}
";
    let out = check_cfg(COLD_CRATE, src, rooted_config());
    assert!(new_for(&out, "panic-surface").is_empty(), "{:?}", out.new);

    // the panicking call is shielded by catch_unwind
    let src = "\
fn helper(x: Option<u32>) -> u32 {
    x.unwrap()
}
pub fn root() -> u32 {
    std::panic::catch_unwind(|| helper(None)).unwrap_or(0)
}
";
    let out = check_cfg(COLD_CRATE, src, rooted_config());
    assert!(new_for(&out, "panic-surface").is_empty(), "{:?}", out.new);
}

#[test]
fn panic_surface_missing_root_is_an_error_within_its_crate() {
    // the fixture file IS the obs crate here, so a root spec that matches
    // nothing must fail loudly (a rename would otherwise disable the check)
    let src = "pub fn not_the_root() {}\n";
    let out = check_cfg(COLD_CRATE, src, rooted_config());
    let vs = new_for(&out, "panic-surface");
    assert_eq!(vs.len(), 1, "{:?}", out.new);
    assert!(vs[0].message.contains("matches no function"));
}

#[test]
fn panic_surface_suppressed() {
    let src = INDIRECT_PANIC.replace(
        "pub fn root()",
        "// lint:allow(panic-surface): fixture demonstrates suppression plumbing\npub fn root()",
    );
    let out = check_cfg(COLD_CRATE, &src, rooted_config());
    assert!(new_for(&out, "panic-surface").is_empty(), "{:?}", out.new);
    assert_eq!(
        out.suppressed
            .iter()
            .filter(|s| s.violation.rule == "panic-surface")
            .count(),
        1
    );
}

#[test]
fn panic_surface_growth_is_ratcheted() {
    use mep_lint::surface::PanicSurface;
    let file = workspace::classify(COLD_CRATE).expect("fixture path must classify");
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";

    // committed ratchet already lists the entry: quiet
    let mut committed = PanicSurface::default();
    committed
        .crates
        .entry("obs".to_string())
        .or_default()
        .insert(format!("{COLD_CRATE}::f"));
    let mut engine = Engine::new(Config::default());
    engine.panic_ratchet = Some(committed);
    let mut out = Outcome::default();
    engine.check_source(&file, src, &mut out);
    assert!(new_for(&out, "panic-surface").is_empty(), "{:?}", out.new);

    // empty ratchet: the same surface is growth and fails
    let mut engine = Engine::new(Config::default());
    engine.panic_ratchet = Some(PanicSurface::default());
    let mut out = Outcome::default();
    engine.check_source(&file, src, &mut out);
    let vs = new_for(&out, "panic-surface");
    assert_eq!(vs.len(), 1, "{:?}", out.new);
    assert!(vs[0].message.contains("panic surface grew"));
    assert!(vs[0]
        .message
        .contains("committing the results/panic_surface.json"));

    // the computed surface artifact is always attached to the outcome
    let surface = out.panic_surface.expect("surface present after check");
    assert!(surface.crates["obs"].contains(&format!("{COLD_CRATE}::f")));
}
