//! Checks the paper's claims on this tree: Table I, Fig. 1(a), Fig. 1(b),
//! Fig. 2, the §II-D.1 stability claim, Fig. 3, the Eq. (14) `t` schedule,
//! the anatomy of the `newblue1` gain, Ours against WA on one shared λ₀
//! ramp and Table II's DPWL ranking.
//!
//! ```text
//! cargo run -p mep-bench --release --bin paper_claims
//! ```
//!
//! Each section builds its table, writing its CSV (and SVG) under
//! `results/`, prints it and runs its check, a pure function of that
//! table. The printed report also goes to `results/paper_claims.txt`.
//! Every artifact is deterministic. The process exits 1 if any check
//! fails. The flow sections run the full-size circuits through
//! `run_claim` (Fig. 3's GP-only runs check `converged` alone) at the
//! default iteration cap, as Tables II/III do, so a run that is illegal
//! or does not converge stops the binary; the Table II section runs its
//! `--fast` size (every circuit shrunk 10×).

use mep_bench::svg::LinePlot;
use mep_bench::{converged, run_claim, FlowOptions, Table};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::{net_hpwl, synth};
use mep_obs::RingSink;
use mep_placer::global::{place, GlobalConfig, MoreauSchedule};
use mep_wirelength::lse::lse_max_naive;
use mep_wirelength::model::ModelKind;
use mep_wirelength::wa::wa_naive;
use mep_wirelength::waterfill;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;

type Res<T> = Result<T, Box<dyn Error>>;

/// A check's finding with its numbers, or the claim it refutes with both
/// the expected and the measured value.
type Verdict = Result<String, String>;

/// One claim: its title, the run that builds its table (and writes the
/// table's artifacts), and the check on that table.
type Section = (&'static str, fn() -> Res<Table>, fn(&Table) -> Verdict);

#[rustfmt::skip]
const SECTIONS: [Section; 10] = [
    ("Table I — statistics of the scaled synthetic stand-ins", table1, check_table1),
    ("Fig. 1(a) — WA is non-convex, Moreau convex on (0, x, 100)", fig1a, check_fig1a),
    ("Fig. 1(b) — mean |error| of 4-pin nets, Δx = 200", fig1b, check_fig1b),
    ("Fig. 2 — water-filling on the reservoir (1, 2, 4, 7)", fig2, check_fig2),
    ("§II-D.1 — numerical stability on the net (0, Δx), γ = t = 1", stability, check_stability),
    ("Fig. 3 — GP HPWL at matched density overflow", fig3, check_fig3),
    ("Eq. (14) — tangent vs decade t schedule, and a t0 sweep", tschedule, check_tschedule),
    ("Beyond the paper — newblue1 DPWL by net degree", net_breakdown, check_net_breakdown),
    ("Beyond the paper — Ours vs WA on one shared λ₀ ramp", matched_ramp, check_matched_ramp),
    ("Table II (--fast) — DPWL of the four models on ISPD2006 / 10", table2_fast, check_table2_fast),
];

fn main() -> Res<ExitCode> {
    let (mut report, mut passed) = (String::new(), 0);
    for (title, build, check) in SECTIONS {
        let table = build()?;
        let verdict = check(&table);
        passed += usize::from(verdict.is_ok());
        let (mark, detail) = verdict.map_or_else(|d| ("FAIL", d), |d| ("PASS", d));
        let text = format!("## {title}\n\n{}\n{mark}: {detail}\n\n", table.to_text());
        print!("{text}");
        report += &text;
    }
    let tally = format!("{passed} of {} checks pass\n", SECTIONS.len());
    print!("{tally}");
    std::fs::write("results/paper_claims.txt", report + &tally)?;
    Ok(if passed == SECTIONS.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parses a numeric cell, naming it in the error.
fn num(cell: &str) -> Result<f64, String> {
    cell.parse().map_err(|_| format!("{cell:?}: no number"))
}

/// Parses column `col` of the first row whose leading cells are `key`.
fn cell(t: &Table, key: &[&str], col: usize) -> Result<f64, String> {
    let is_key = |r: &&Vec<String>| r.iter().zip(key).all(|(c, k)| c == k);
    let row = t.rows().iter().find(is_key);
    num(&row.ok_or_else(|| format!("no row {key:?}"))?[col])
}

/// Ours/WA of the row `key`, whose WA and Ours values are columns 2 and 3;
/// an error unless Ours is below WA.
fn ours_over_wa(t: &Table, key: &[&str]) -> Result<f64, String> {
    let (wa, ours) = (cell(t, key, 2)?, cell(t, key, 3)?);
    if ours < wa {
        Ok(ours / wa)
    } else {
        Err(format!("{key:?}: Ours {ours} is not below WA {wa}"))
    }
}

fn circuit(name: &str) -> Res<BookshelfCircuit> {
    let spec = synth::spec_by_name(name).ok_or_else(|| format!("{name} is not in Table I"))?;
    Ok(synth::generate(&spec))
}

fn table1() -> Res<Table> {
    let mut table = Table::new("Suite,Benchmark,#Movable,#Fixed,#Nets,#Pins".split(','));
    for (suite, specs) in [
        ("ISPD2006/100", synth::ispd2006_suite()),
        ("ISPD2019/40", synth::ispd2019_suite()),
    ] {
        for spec in specs {
            let nl = synth::generate(&spec).design.netlist;
            let counts = [nl.num_movable(), nl.num_fixed(), nl.num_nets()];
            let counts = counts.into_iter().chain([nl.num_pins()]);
            let names = [suite.to_string(), spec.name];
            table.push(names.into_iter().chain(counts.map(|n| n.to_string())));
        }
    }
    table.write_csv("results/table1_stats.csv")?;
    Ok(table)
}

/// Every circuit of Table I is present and its pin count lies within three
/// standard deviations of its spec. The generator draws each net's degree
/// as `2 + Geom` with mean `r = pins / nets`, so the pin count is a sum of
/// `nets` draws with σ = √(nets·(r−1)(r−2)).
fn check_table1(t: &Table) -> Verdict {
    let circuits = synth::ispd2006_suite().len() + synth::ispd2019_suite().len();
    if t.len() != circuits {
        return Err(format!("{} rows for {circuits} circuits", t.len()));
    }
    let (mut beyond_2pct, mut worst) = (Vec::new(), (0.0, String::new()));
    for row in t.rows() {
        let spec = synth::spec_by_name(&row[1]).ok_or_else(|| format!("no spec for {}", row[1]))?;
        let (pins, want, nets) = (num(&row[5])?, spec.pins as f64, spec.nets as f64);
        let z = (pins - want) / (nets * (want / nets - 1.0) * (want / nets - 2.0)).sqrt();
        let rel = 100.0 * (pins / want - 1.0);
        let what = format!("{}: {pins} pins vs {want} ({rel:+.1} %, {z:+.2}σ)", row[1]);
        if z.is_nan() || z.abs() > 3.0 {
            return Err(format!("{what}, tolerance 3σ"));
        }
        if rel.abs() > 2.0 {
            beyond_2pct.push(what.clone());
        }
        if z.abs() >= worst.0 {
            worst = (z.abs(), what);
        }
    }
    let beyond = format!("beyond 2 %: {}", beyond_2pct.join(", "));
    Ok(format!("within 3σ, farthest {}; {beyond}", worst.1))
}

const GAMMAS: [f64; 4] = [5.0, 10.0, 20.0, 40.0];
const SAMPLES: usize = 512;

/// Samples where the curve bends concavely: `w[1]` above its neighbours'
/// midpoint.
fn midpoint_violations(curve: &[f64]) -> usize {
    let concave = |w: &[f64]| w[1] > 0.5 * (w[0] + w[2]) + 1e-9;
    curve.windows(3).filter(|w| concave(w)).count()
}

fn fig1a() -> Res<Table> {
    let kinds = [("WA", ModelKind::Wa), ("Moreau", ModelKind::Moreau)];
    let mut header = vec!["x".to_string()];
    header.extend(GAMMAS.map(|g| format!("WA_g{g}")));
    header.extend(GAMMAS.map(|g| format!("Moreau_t{g}")));
    let mut samples = Table::new(header);
    let instances = |(_, k): &(&str, ModelKind)| GAMMAS.map(|g| k.instantiate(g));
    let mut models: Vec<_> = kinds.iter().flat_map(instances).collect();
    let mut curves = vec![Vec::with_capacity(SAMPLES + 1); models.len()];
    let xs: Vec<f64> = (0..=SAMPLES)
        .map(|i| i as f64 / SAMPLES as f64 * 100.0)
        .collect();
    for &x in &xs {
        let mut cells = vec![format!("{x:.4}")];
        for (m, curve) in models.iter_mut().zip(&mut curves) {
            let v = m.eval_axis(&[0.0, x, 100.0], &mut [0.0; 3]);
            curve.push(v);
            cells.push(format!("{v:.6}"));
        }
        samples.push(cells);
    }
    samples.write_csv("results/fig1a_wa_nonconvexity.csv")?;

    let mut plot = LinePlot::new(
        "Fig. 1(a): WA vs Moreau on the 3-pin net (0, x, 100)",
        "middle pin x",
        "model value",
    );
    let series = |curve: &Vec<f64>| xs.iter().copied().zip(curve.clone()).collect::<Vec<_>>();
    for (g, curve) in GAMMAS.iter().zip(&curves) {
        plot.add_series(format!("WA γ={g}"), series(curve));
    }
    let moreau_t10 = series(&curves[GAMMAS.len() + 1]);
    plot.add_series(format!("Moreau t={}", GAMMAS[1]), moreau_t10);
    plot.write("results/fig1a_wa_nonconvexity.svg")?;

    let mut table = Table::new(["model", "parameter", "violations"]);
    let labels = kinds.iter().flat_map(|(name, _)| GAMMAS.map(|g| (name, g)));
    for ((model, g), curve) in labels.zip(&curves) {
        table.push(format!("{model},{g},{}", midpoint_violations(curve)).split(','));
    }
    Ok(table)
}

/// WA bends concavely at γ = 5, 10 and 20; Moreau never does.
fn check_fig1a(t: &Table) -> Verdict {
    for g in GAMMAS {
        let n = cell(t, &["Moreau", &g.to_string()], 2)?;
        if n > 0.0 {
            return Err(format!("Moreau at t = {g} has {n} violations, want 0"));
        }
    }
    let mut wa = Vec::new();
    for g in &GAMMAS[..3] {
        match cell(t, &["WA", &g.to_string()], 2)? {
            n if n > 0.0 => wa.push(n.to_string()),
            _ => return Err(format!("WA is midpoint-convex at γ = {g}")),
        }
    }
    let wa = wa.join("/");
    Ok(format!(
        "WA violations at γ = 5/10/20: {wa}; Moreau 0 everywhere"
    ))
}

fn fig1b() -> Res<Table> {
    const TRIALS: usize = 3000;
    const SPAN: f64 = 200.0;
    const POINTS: usize = 25;
    let mut rng = StdRng::seed_from_u64(20230712);
    let mut pin = || rng.gen_range(0.0..SPAN);
    // one draw of nets, so every model sees the same workload
    let nets: Vec<[f64; 4]> = (0..TRIALS).map(|_| [0.0, pin(), pin(), SPAN]).collect();
    let mut table = Table::new(["param", "LSE", "WA", "Moreau"]);
    for i in 0..POINTS {
        let p = 10f64.powf(-1.0 + 3.0 * i as f64 / (POINTS - 1) as f64);
        let mut cells = vec![format!("{p:.6}")];
        for kind in [ModelKind::Lse, ModelKind::Wa, ModelKind::Moreau] {
            let mut m = kind.instantiate(p);
            let err: f64 = nets
                .iter()
                .map(|n| (m.eval_axis(n, &mut [0.0; 4]) - SPAN).abs())
                .sum();
            cells.push(format!("{:.6}", err / TRIALS as f64));
        }
        table.push(cells);
    }
    table.write_csv("results/fig1b_approx_error.csv")?;

    let mut plot = LinePlot::new(
        "Fig. 1(b): mean |error| vs smoothing parameter (4-pin nets, Δx=200)",
        "smoothing parameter γ / t",
        "mean |error|",
    )
    .with_log_x()
    .with_log_y();
    for (col, label) in [(1, "LSE"), (2, "WA"), (3, "Moreau")] {
        let point = |r: &Vec<String>| Ok((num(&r[0])?, num(&r[col])?));
        let points: Result<Vec<_>, String> = table.rows().iter().map(point).collect();
        plot.add_series(label, points?);
    }
    plot.write("results/fig1b_approx_error.svg")?;
    Ok(table)
}

/// Moreau's mean error is below both exponential models' at every
/// parameter.
fn check_fig1b(t: &Table) -> Verdict {
    let (mut lo, mut hi) = (f64::INFINITY, 0.0_f64);
    for r in t.rows() {
        let (lse, wa, moreau) = (num(&r[1])?, num(&r[2])?, num(&r[3])?);
        if moreau.partial_cmp(&lse.min(wa)) != Some(Ordering::Less) {
            return Err(format!("at {}: Moreau {moreau}, LSE {lse}, WA {wa}", r[0]));
        }
        (lo, hi) = (lo.min(moreau / lse.min(wa)), hi.max(moreau / lse.min(wa)));
    }
    match t.len() {
        0 => Err("no parameters".into()),
        n => Ok(format!(
            "Moreau {lo:.3}–{hi:.3}× min(LSE, WA) at all {n} points"
        )),
    }
}

/// The paper's 4-bar reservoir of Fig. 2, sorted.
const RESERVOIR: [f64; 4] = [1.0, 2.0, 4.0, 7.0];

fn fig2() -> Res<Table> {
    let x = RESERVOIR;
    let mut table = Table::new("t,tau1,k,residual1,tau2,residual2,collapsed".split(','));
    for i in 0..=40 {
        let t = 0.25 * (i as f64 + 1.0);
        let (tau1, tau2) = (waterfill::solve_lower(&x, t), waterfill::solve_upper(&x, t));
        table.push([
            format!("{t}"),
            format!("{tau1:.6}"),
            x.iter().filter(|&&xi| xi < tau1).count().to_string(),
            format!("{:.3e}", waterfill::lower_residual(&x, tau1, t)),
            format!("{tau2:.6}"),
            format!("{:.3e}", waterfill::upper_residual(&x, tau2, t)),
            (tau1 > tau2).to_string(),
        ]);
    }
    table.write_csv("results/fig2_waterfill.csv")?;
    Ok(table)
}

/// The lower level sits in the gap the Eq. (13) breakpoints put it in and
/// reaches each bottom exactly at its breakpoint, both residuals are zero
/// to 1e-12, and the levels cross once the water exceeds the volume below
/// the reservoir's mean.
fn check_fig2(t: &Table) -> Verdict {
    let x = RESERVOIR;
    // Eq. (13): the water needed to fill up to each sorted bottom
    let mut breakpoints = vec![0.0];
    for k in 1..x.len() {
        breakpoints.push(breakpoints[k - 1] + k as f64 * (x[k] - x[k - 1]));
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    let volume: f64 = x.iter().map(|xi| (mean - xi).max(0.0)).sum();
    let mut worst = 0.0_f64;
    for r in t.rows() {
        let (water, tau1) = (num(&r[0])?, num(&r[1])?);
        let gap = breakpoints.iter().filter(|&&b| b < water).count();
        if r[2] != gap.to_string() {
            return Err(format!("t = {water}: gap {}, Eq. (13) says {gap}", r[2]));
        }
        if let Some(j) = breakpoints.iter().position(|b| (b - water).abs() < 1e-12) {
            if (tau1 - x[j]).abs() > 1e-6 {
                return Err(format!("τ1({water}) = {tau1}, want the bottom {}", x[j]));
            }
        }
        let residuals = [num(&r[3])?.abs(), num(&r[5])?.abs()];
        worst = residuals.iter().fold(worst, |a, &b| a.max(b));
        if residuals.iter().any(|e| e.is_nan() || *e > 1e-12) {
            return Err(format!(
                "t = {water}: |residuals| {residuals:?} above 1e-12"
            ));
        }
        if r[6] != (water > volume).to_string() {
            return Err(format!("t = {water}: collapsed {}, volume {volume}", r[6]));
        }
    }
    match t.len() {
        0 => Err("no water amounts".into()),
        _ => Ok(format!(
            "gaps switch at the Eq. (13) breakpoints {breakpoints:?}, where τ1 meets each \
             bottom; max |residual| {worst:.1e}; levels collapse for t > {volume}"
        )),
    }
}

fn stability() -> Res<Table> {
    let gamma = 1.0;
    let mut table = Table::new("span,LSE_naive,WA_naive,LSE_stable,WA_stable,Moreau".split(','));
    let kinds = [ModelKind::Lse, ModelKind::Wa, ModelKind::Moreau];
    let mut models = kinds.map(|k| k.instantiate(gamma));
    let shown = |v: f64| {
        if v.is_finite() {
            format!("{v:.3e}")
        } else {
            "overflow".into()
        }
    };
    for exp in [1, 2, 3, 4, 6, 9, 12] {
        let x = [0.0, 10f64.powi(exp)];
        let naive_lse = lse_max_naive(&x, gamma) + lse_max_naive(&[-x[0], -x[1]], gamma);
        let naive = [shown(naive_lse), shown(wa_naive(&x, gamma))];
        let mut cells = vec![format!("{:e}", x[1])];
        cells.extend(naive);
        for m in &mut models {
            cells.push(format!("{:.6e}", m.eval_axis(&x, &mut [0.0; 2])));
        }
        table.push(cells);
    }
    table.write_csv("results/ablation_stability.csv")?;
    Ok(table)
}

/// The naive LSE/WA overflow from Δx = 1e3 on, while the shifted LSE/WA and
/// Moreau stay finite through Δx = 1e12.
fn check_stability(t: &Table) -> Verdict {
    let mut reach = 0.0_f64;
    for r in t.rows() {
        let span = num(&r[0])?;
        if span >= 1e3 && (r[1] != "overflow" || r[2] != "overflow") {
            return Err(format!("naive LSE/WA at Δx = {span:e}: {}, {}", r[1], r[2]));
        }
        for v in &r[3..] {
            if !num(v)?.is_finite() {
                return Err(format!("a stable model overflows at Δx = {span:e}"));
            }
        }
        reach = reach.max(span);
    }
    if reach < 1e12 {
        return Err(format!("checked to Δx = {reach:e} only, want 1e12"));
    }
    Ok("naive LSE/WA overflow from Δx = 1e3; the others are finite to 1e12".into())
}

const FIG3_BENCHES: [&str; 2] = ["newblue1", "ispd19_test10"];
const GP_END: &str = "GP end";

/// The `(overflow, hpwl)` points of one trajectory in the long table.
fn trajectory(table: &Table, bench: &str, model: &str) -> Vec<(f64, f64)> {
    let is_curve = |r: &&Vec<String>| r[0] == bench && r[1] == model;
    let point = |r: &Vec<String>| Some((r[3].parse().ok()?, r[4].parse().ok()?));
    table
        .rows()
        .iter()
        .filter(is_curve)
        .filter_map(point)
        .collect()
}

fn fig3() -> Res<Table> {
    let mut long = Table::new("bench,model,iter,overflow,hpwl".split(','));
    for bench in FIG3_BENCHES {
        let c = circuit(bench)?;
        for model in [ModelKind::Wa, ModelKind::Moreau] {
            eprintln!("[fig3] {bench} × {} …", model.label());
            let trace = Arc::new(RingSink::new(GlobalConfig::default().max_iters));
            let config = GlobalConfig {
                model,
                trace: trace.clone(),
                ..GlobalConfig::default()
            };
            let r = place(&c, &config)?;
            converged(&c, model, r.termination, r.iterations)?;
            for p in trace.records() {
                let point = format!("{},{:.6},{:.2}", p.iter, p.overflow, p.hpwl);
                long.push(format!("{bench},{},{point}", model.label()).split(','));
            }
        }
    }
    long.write_csv("results/fig3_trajectories.csv")?;

    let mut table = Table::new("bench,overflow,WA HPWL,Ours HPWL,Ours/WA".split(','));
    for bench in FIG3_BENCHES {
        let [wa, ours] = ["WA", "Ours"].map(|model| trajectory(&long, bench, model));
        // HPWL against overflow, x reversed by plotting −overflow (the run
        // proceeds right to left in the paper)
        let mut plot = LinePlot::new(
            format!("Fig. 3: wirelength vs density overflow — {bench}"),
            "density overflow φ (negated: run proceeds left to right)",
            "HPWL",
        );
        for (model, curve) in [("WA", &wa), ("Ours", &ours)] {
            plot.add_series(model, curve.iter().map(|&(phi, h)| (-phi, h)));
        }
        plot.write(format!("results/fig3_{bench}.svg"))?;

        // the last point at or above each overflow level (overflow falls),
        // and at −∞ the GP end
        let at = |curve: &[(f64, f64)], phi: f64| curve.iter().rfind(|p| p.0 >= phi).map(|p| p.1);
        for phi in [0.8, 0.6, 0.4, 0.2, 0.1, f64::NEG_INFINITY] {
            if let (Some(w), Some(o)) = (at(&wa, phi), at(&ours, phi)) {
                let level = if phi.is_finite() {
                    format!("≥ {phi}")
                } else {
                    GP_END.to_string()
                };
                let row = format!("{bench},{level},{w:.2},{o:.2},{:.4}", o / w);
                table.push(row.split(','));
            }
        }
    }
    Ok(table)
}

/// Ours ends GP below WA on both circuits.
fn check_fig3(t: &Table) -> Verdict {
    let mut ratios = Vec::new();
    for b in FIG3_BENCHES {
        ratios.push(format!("{b} {:.4}", ours_over_wa(t, &[b, GP_END])?));
    }
    Ok(format!("Ours/WA GP-end HPWL: {}", ratios.join(", ")))
}

const PAPER_T0: &str = "tangent_t0=4 (paper)";

fn tschedule() -> Res<Table> {
    let variants = [
        (PAPER_T0, MoreauSchedule::Tangent, 4.0),
        ("tangent_t0=1", MoreauSchedule::Tangent, 1.0),
        ("tangent_t0=16", MoreauSchedule::Tangent, 16.0),
        ("decade", MoreauSchedule::Decade, 4.0),
    ];
    let mut table = Table::new("bench,variant,DPWL,LGWL,iters".split(','));
    for bench in ["newblue1", "newblue2", "ispd19_test5"] {
        let c = circuit(bench)?;
        for (name, schedule, t0) in variants {
            eprintln!("[tschedule] {bench} × {name} …");
            let config = GlobalConfig {
                moreau_schedule: schedule,
                t0,
                ..GlobalConfig::default()
            };
            let r = run_claim(&c, config)?;
            let row = format!(
                "{bench},{name},{:.4e},{:.4e},{}",
                r.dpwl, r.lgwl, r.iterations
            );
            table.push(row.split(','));
        }
    }
    table.write_csv("results/ablation_tschedule.csv")?;
    Ok(table)
}

/// On every circuit the decade schedule ends with a larger DPWL than the
/// paper's tangent schedule.
fn check_tschedule(t: &Table) -> Verdict {
    let mut benches: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
    benches.dedup();
    let mut gaps = Vec::new();
    for b in benches {
        let (tangent, decade) = (cell(t, &[b, PAPER_T0], 2)?, cell(t, &[b, "decade"], 2)?);
        if decade.partial_cmp(&tangent) != Some(Ordering::Greater) {
            return Err(format!("{b}: decade {decade} vs tangent {tangent}"));
        }
        gaps.push(format!("{b} {:+.1} %", 100.0 * (decade / tangent - 1.0)));
    }
    if gaps.is_empty() {
        return Err("no circuits".into());
    }
    Ok(format!("decade over tangent t0 = 4: {}", gaps.join(", ")))
}

/// Net-degree classes of the breakdown: inclusive pin-count bounds.
const CLASSES: [(usize, usize, &str); 5] = [
    (2, 2, "2-pin"),
    (3, 3, "3-pin"),
    (4, 7, "4-7 pin"),
    (8, 15, "8-15 pin"),
    (16, usize::MAX, "16+ pin"),
];

fn net_breakdown() -> Res<Table> {
    let c = circuit("newblue1")?;
    let nl = &c.design.netlist;
    let class_of = |degree| CLASSES.iter().position(|c| (c.0..=c.1).contains(&degree));
    let class: Vec<_> = nl.nets().map(|n| class_of(nl.net_degree(n))).collect();
    let mut wl = [[0.0; CLASSES.len()]; 2];
    for (model, wl) in [ModelKind::Wa, ModelKind::Moreau].into_iter().zip(&mut wl) {
        eprintln!("[breakdown] newblue1 × {} …", model.label());
        let global = GlobalConfig {
            model,
            ..GlobalConfig::default()
        };
        let r = run_claim(&c, global)?;
        for (net, k) in nl.nets().zip(&class) {
            if let Some(k) = *k {
                wl[k] += net_hpwl(nl, &r.placement, net);
            }
        }
    }
    let [wa, ours] = wl;
    let mut table = Table::new("class,#nets,WA HPWL,Ours HPWL,Ours/WA".split(','));
    let count = |k| class.iter().filter(|&&c| c == Some(k)).count();
    let row = |k: usize| (CLASSES[k].2, count(k), wa[k], ours[k]);
    let total = ("total", nl.num_nets(), wa.iter().sum(), ours.iter().sum());
    for (label, nets, w, o) in (0..CLASSES.len()).map(row).chain([total]) {
        let ratio = if w > 0.0 { o / w } else { 1.0 };
        table.push(format!("{label},{nets},{w:.6e},{o:.6e},{ratio:.4}").split(','));
    }
    table.write_csv("results/analysis_net_breakdown.csv")?;
    Ok(table)
}

/// Ours beats WA on the whole of newblue1 and on its 4–7-pin nets.
fn check_net_breakdown(t: &Table) -> Verdict {
    let (total, mid) = (ours_over_wa(t, &["total"])?, ours_over_wa(t, &["4-7 pin"])?);
    Ok(format!("Ours/WA: total {total:.4}, 4-7 pin {mid:.4}"))
}

const MATCHED_BENCHES: [&str; 2] = ["newblue1", "ispd19_test5"];
const OURS_AT_WA_LAMBDA0: &str = "Ours at WA's λ0";

/// Each bench three times: WA and Ours each on its own λ₀, then Ours with
/// `lambda_scale` set so that its ramp starts at WA's λ₀ (and, as both
/// ramps grow by the same Eq. (15) factors, climbs at WA's rate).
fn matched_ramp() -> Res<Table> {
    let mut table = Table::new("bench,run,lambda0,DPWL,iters".split(','));
    for bench in MATCHED_BENCHES {
        let c = circuit(bench)?;
        let run = |model: ModelKind, lambda_scale| {
            eprintln!("[matched ramp] {bench} × {} …", model.label());
            let config = GlobalConfig {
                model,
                lambda_scale,
                ..GlobalConfig::default()
            };
            run_claim(&c, config)
        };
        let wa = run(ModelKind::Wa, 1.0)?;
        let ours = run(ModelKind::Moreau, 1.0)?;
        let shared = run(ModelKind::Moreau, wa.ramp.lambda0 / ours.ramp.lambda0)?;
        for (name, r) in [
            ("WA own λ0", wa),
            ("Ours own λ0", ours),
            (OURS_AT_WA_LAMBDA0, shared),
        ] {
            let row = format!(
                "{bench},{name},{:.4e},{:.6e},{}",
                r.ramp.lambda0, r.dpwl, r.iterations
            );
            table.push(row.split(','));
        }
    }
    Ok(table)
}

/// On every bench Ours, started at WA's λ₀, ends below WA's DPWL.
fn check_matched_ramp(t: &Table) -> Verdict {
    let mut ratios = Vec::new();
    for b in MATCHED_BENCHES {
        let wa = cell(t, &[b, "WA own λ0"], 3)?;
        let ours = cell(t, &[b, OURS_AT_WA_LAMBDA0], 3)?;
        if ours.partial_cmp(&wa) != Some(Ordering::Less) {
            return Err(format!("{b}: Ours {ours} at WA's λ0 is not below WA {wa}"));
        }
        ratios.push(format!("{b} {:.4}", ours / wa));
    }
    Ok(format!("Ours/WA DPWL at WA's λ0: {}", ratios.join(", ")))
}

fn table2_fast() -> Res<Table> {
    let opts = FlowOptions { shrink: 10 };
    let models = ModelKind::contestants();
    let header = models.map(|m| format!("{} DPWL", m.label()));
    let mut table = Table::new(["Benchmark".to_string()].into_iter().chain(header));
    for spec in synth::ispd2006_suite() {
        let c = synth::generate(&opts.shrink_spec(&spec));
        let mut cells = vec![spec.name.clone()];
        for model in models {
            eprintln!("[table2 --fast] {} × {} …", spec.name, model.label());
            let global = GlobalConfig {
                model,
                ..GlobalConfig::default()
            };
            cells.push(format!("{:.6e}", run_claim(&c, global)?.dpwl));
        }
        table.push(cells);
    }
    Ok(table)
}

/// Every baseline's DPWL averages above Ours' (the paper's Avg. Ratio row:
/// the mean over circuits of baseline / Ours).
fn check_table2_fast(t: &Table) -> Verdict {
    let models = ModelKind::contestants();
    let ours = models.iter().position(|&m| m == ModelKind::Moreau);
    let ours = ours.ok_or("Ours is not a contestant")?;
    let (mut sums, mut wins) = ([0.0; 4], 0);
    for r in t.rows() {
        let dpwl = r[1..]
            .iter()
            .map(|c| num(c))
            .collect::<Result<Vec<_>, _>>()?;
        if dpwl.len() != models.len() {
            return Err(format!("{}: {} DPWL columns", r[0], dpwl.len()));
        }
        for (sum, d) in sums.iter_mut().zip(&dpwl) {
            *sum += d / dpwl[ours];
        }
        // a win: no baseline at or below Ours
        wins += usize::from(dpwl.iter().filter(|&&d| d <= dpwl[ours]).count() == 1);
    }
    if t.is_empty() {
        return Err("no circuits".into());
    }
    let mut ratios = Vec::new();
    let baselines = models
        .iter()
        .zip(sums)
        .filter(|(&m, _)| m != ModelKind::Moreau);
    for (model, sum) in baselines {
        let avg = sum / t.len() as f64;
        if avg.partial_cmp(&1.0) != Some(Ordering::Greater) {
            return Err(format!("{model}'s DPWL averages {avg:.4} of Ours'"));
        }
        ratios.push(format!("{model} {avg:.3}"));
    }
    let n = t.len();
    let ratios = ratios.join(", ");
    Ok(format!(
        "average DPWL / Ours: {ratios}; Ours beats all three on {wins} of {n} circuits"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table from CSV text: a header line, then one line per row.
    fn table(csv: &str) -> Table {
        let mut lines = csv.lines().map(|l| l.split(','));
        let mut t = Table::new(lines.next().unwrap());
        lines.for_each(|cells| t.push(cells));
        t
    }

    /// Table I with every circuit at `pins(spec)` pins.
    fn table1_at(pins: impl Fn(&synth::SynthSpec) -> usize) -> Table {
        let specs = synth::ispd2006_suite()
            .into_iter()
            .chain(synth::ispd2019_suite());
        let rows: Vec<_> = specs
            .map(|s| format!("s,{},0,0,0,{}", s.name, pins(&s)))
            .collect();
        table(&format!(
            "Suite,Benchmark,#Movable,#Fixed,#Nets,#Pins\n{}",
            rows.join("\n")
        ))
    }

    #[test]
    fn table1_rejects_a_pin_count_far_from_its_spec() {
        assert!(check_table1(&table1_at(|s| s.pins)).is_ok());
        let far = |s: &synth::SynthSpec| s.pins * if s.name == "ispd19_test1" { 4 } else { 1 };
        let mut t = table1_at(far);
        let err = check_table1(&t).unwrap_err();
        assert!(err.starts_with("ispd19_test1: "), "{err}");
        // a table with a row too many fails as well
        t.push(["s", "ispd19_test1", "0", "0", "0", "430"]);
        assert!(check_table1(&t).unwrap_err().contains("rows for"));
    }

    #[test]
    fn a_concave_triple_is_a_midpoint_violation() {
        assert_eq!(midpoint_violations(&[0.0, 2.0, 0.0]), 1);
        assert_eq!(midpoint_violations(&[0.0, 1.0, 2.0, 4.0]), 0);
    }

    #[test]
    fn fig1a_rejects_a_concave_moreau_curve_and_a_convex_wa_one() {
        let ok = "model,parameter,violations\nWA,5,3\nWA,10,2\nWA,20,1\nWA,40,0\n\
                  Moreau,5,0\nMoreau,10,0\nMoreau,20,0\nMoreau,40,0";
        assert!(check_fig1a(&table(ok)).is_ok());
        assert!(check_fig1a(&table(&ok.replace("Moreau,20,0", "Moreau,20,1"))).is_err());
        assert!(check_fig1a(&table(&ok.replace("WA,10,2", "WA,10,0"))).is_err());
        assert!(check_fig1a(&table(&ok.replace("\nMoreau,40,0", ""))).is_err());
    }

    #[test]
    fn fig1b_rejects_a_moreau_error_above_wa() {
        let ok = "param,LSE,WA,Moreau\n1,0.5,0.4,0.1\n2,0.9,1.0,0.2";
        assert!(check_fig1b(&table(ok)).is_ok());
        assert!(check_fig1b(&table(&ok.replace("0.2", "0.95"))).is_err());
        assert!(check_fig1b(&table("param,LSE,WA,Moreau")).is_err());
    }

    #[test]
    fn fig2_rejects_a_wrong_gap_level_residual_or_collapse() {
        let ok = "t,tau1,k,residual1,tau2,residual2,collapsed\n\
                  1,2.000000,1,0.000e0,6.000000,0.000e0,false\n\
                  4.25,3.625000,2,0.000e0,3.375000,0.000e0,true\n\
                  5,4.000000,2,1.776e-15,3.000000,0.000e0,true";
        assert!(check_fig2(&table(ok)).is_ok());
        for (from, to) in [
            ("1,2.000000,1", "1,2.000000,2"),
            ("5,4.000000", "5,4.100000"),
            ("3.375000,0.000e0", "3.375000,1.000e-9"),
            ("6.000000,0.000e0,false", "6.000000,0.000e0,true"),
        ] {
            assert!(check_fig2(&table(&ok.replace(from, to))).is_err(), "{to}");
        }
    }

    #[test]
    fn stability_rejects_a_finite_naive_model_and_an_overflowing_stable_one() {
        let ok = "span,LSE_naive,WA_naive,LSE_stable,WA_stable,Moreau\n\
                  1e2,1.000e2,1.000e2,1e2,1e2,1e2\n\
                  1e3,overflow,overflow,1e3,1e3,1e3\n\
                  1e12,overflow,overflow,1e12,1e12,1e12";
        assert!(check_stability(&table(ok)).is_ok());
        assert!(check_stability(&table(
            &ok.replace("1e3,overflow,overflow", "1e3,overflow,1e3")
        ))
        .is_err());
        assert!(check_stability(&table(&ok.replace("1e3,1e3,1e3", "1e3,inf,1e3"))).is_err());
        assert!(check_stability(&table(ok.rsplit_once('\n').unwrap().0)).is_err());
    }

    #[test]
    fn fig3_rejects_an_ours_gp_end_above_wa() {
        let ok = "bench,overflow,WA HPWL,Ours HPWL,Ours/WA\n\
                  newblue1,≥ 0.4,10.00,12.00,1.2000\n\
                  newblue1,GP end,10.00,9.00,0.9000\n\
                  ispd19_test10,GP end,20.00,19.00,0.9500";
        assert!(check_fig3(&table(ok)).is_ok());
        assert!(check_fig3(&table(&ok.replace("20.00,19.00", "20.00,21.00"))).is_err());
        assert!(check_fig3(&table(ok.rsplit_once('\n').unwrap().0)).is_err());
    }

    #[test]
    fn tschedule_rejects_a_decade_row_that_wins() {
        let ok = "bench,variant,DPWL,LGWL,iters\n\
                  a,tangent_t0=4 (paper),1.0000e4,1.1e4,500\n\
                  a,decade,1.0300e4,1.1e4,400\n\
                  b,tangent_t0=4 (paper),2.0000e4,2.1e4,500\n\
                  b,decade,2.0100e4,2.1e4,400";
        assert!(check_tschedule(&table(ok)).is_ok());
        assert!(
            check_tschedule(&table(&ok.replace("decade,2.0100e4", "decade,1.9900e4"))).is_err()
        );
        assert!(check_tschedule(&table(ok.rsplit_once('\n').unwrap().0)).is_err());
        assert!(check_tschedule(&table("bench,variant,DPWL,LGWL,iters")).is_err());
    }

    #[test]
    fn table2_fast_rejects_a_baseline_that_averages_below_ours() {
        let ok = "Benchmark,BiG_CHKS DPWL,LSE DPWL,WA DPWL,Ours DPWL\n\
                  a,1.02e4,1.01e4,1.05e4,1.00e4\n\
                  b,2.00e4,2.04e4,2.10e4,2.01e4";
        let verdict = check_table2_fast(&table(ok)).unwrap();
        assert!(verdict.contains("on 1 of 2 circuits"), "{verdict}");
        // BiG_CHKS at (0.97 + 0.995) / 2 of Ours
        let lost = ok.replace("a,1.02e4", "a,0.97e4");
        assert!(check_table2_fast(&table(&lost))
            .unwrap_err()
            .contains("BiG_CHKS"));
        assert!(check_table2_fast(&table(ok.split_once('\n').unwrap().0)).is_err());
    }

    #[test]
    fn net_breakdown_rejects_a_total_that_loses() {
        let ok = "class,#nets,WA HPWL,Ours HPWL,Ours/WA\n\
                  4-7 pin,10,4.0e4,3.9e4,0.9750\n\
                  total,30,9.0e4,8.9e4,0.9889";
        assert!(check_net_breakdown(&table(ok)).is_ok());
        assert!(check_net_breakdown(&table(&ok.replace("8.9e4", "9.1e4"))).is_err());
    }
}
