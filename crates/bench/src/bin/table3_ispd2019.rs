//! Regenerates **Table III**: LGWL / DPWL / RT of BiG_CHKS, LSE, WA, and
//! the Moreau model ("Ours") on the ISPD2019 suite, with Avg. Ratio rows.
//!
//! ```text
//! cargo run -p mep-bench --release --bin table3_ispd2019 [--fast]
//! ```
//!
//! A full run writes `results/table3_ispd2019.csv`; `--fast` shrinks every
//! circuit 10× and writes no file.

use mep_netlist::synth;

fn main() -> Result<(), String> {
    let args = mep_bench::Args::read("table3_ispd2019", &["--fast"]);
    mep_bench::run_paper_table(
        &synth::ispd2019_suite(),
        "Table III — ISPD2019 HPWL and runtime comparison",
        "table3_ispd2019",
        args.switch("--fast"),
    )
}
