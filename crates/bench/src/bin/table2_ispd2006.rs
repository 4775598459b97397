//! Regenerates **Table II**: LGWL / DPWL / RT of BiG_CHKS, LSE, WA, and
//! the Moreau model ("Ours") on the ISPD2006 suite, with the Avg. Ratio
//! rows (ratios versus Ours).
//!
//! ```text
//! cargo run -p mep-bench --release --bin table2_ispd2006 [--fast]
//! ```
//!
//! `--fast` shrinks every circuit 10× for a quick smoke run and writes no
//! file. The paper's NTUPlace3 column is an external closed-source binary
//! and is therefore not reproduced (see DESIGN.md §3); every
//! substrate-level comparison is.
//!
//! A full run writes `results/table2_ispd2006.csv`.

use mep_netlist::synth;

fn main() -> Result<(), String> {
    let args = mep_bench::Args::read("table2_ispd2006", &["--fast"]);
    mep_bench::run_paper_table(
        &synth::ispd2006_suite(),
        "Table II — ISPD2006 HPWL and runtime comparison\n\
         (NTUPlace3 reference column: n/a — closed-source external binary)",
        "table2_ispd2006",
        args.switch("--fast"),
    )
}
